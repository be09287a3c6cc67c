"""The one reader of the package's data files, ``data_lines``, and the one
writer of its tables, as CSV or as JSON.

Cells are written as ``csv`` and ``json`` write them: both write a float, a
numpy float64 included, as its ``repr``, the shortest text that reads back
to the same double. JSON gets ``null`` for a non-finite float (NaN, such as
the mean of a sweep size whose rounds all timed out, or an infinity): JSON
has no token for it.
"""

from __future__ import annotations

import csv
import json
import math


def data_lines(path):
    """Yield (line number, text) for each line of the file at ``path`` that holds
    text once a '#' comment and surrounding white space are cut."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def write_rows(fh, header, rows) -> None:
    """Write ``header`` and then each row of ``rows`` as one CSV line to ``fh``.

    ``rows`` is consumed lazily, and each line reaches ``fh.write`` before
    the next row is drawn, so a generator can stream its rows.
    """
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)


def write_csv(path, header, rows) -> None:
    """write_rows into a new file at ``path``."""
    with open(path, "w", newline="") as fh:
        write_rows(fh, header, rows)


def _finite_json(obj):
    """``obj`` with every non-finite float in its lists, tuples and dicts replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


def write_json(fh, obj) -> None:
    """Write ``obj`` to ``fh`` as strict JSON indented by two spaces, and a newline."""
    fh.write(json.dumps(_finite_json(obj), indent=2, allow_nan=False))
    fh.write("\n")


def write_table(fh, fmt: str, header, rows) -> None:
    """``rows`` as CSV (``fmt`` "csv") or as a JSON array of {column: cell} objects."""
    if fmt == "json":
        write_json(fh, [dict(zip(header, row)) for row in rows])
    else:
        write_rows(fh, header, rows)


def write_matrix(fh, fmt: str, matrix) -> None:
    """A square node-by-node array: CSV with the node ids as header row and first
    column, or a JSON object {"nodes": [ids], "matrix": [rows]}."""
    nodes = list(range(matrix.shape[0]))
    if fmt == "json":
        write_json(fh, {"nodes": nodes, "matrix": matrix.tolist()})
    else:
        write_rows(fh, ["node", *nodes], ([i, *row] for i, row in enumerate(matrix.tolist())))
