"""The one reader of the package's data files, ``data_lines``, and the one
writer of its tables, as CSV or as JSON, with ``write_trace_rows`` for the
long number rows of a protocol trace.

Cells are written as ``csv`` and ``json`` write them: both write a float, a
numpy float64 included, as its ``repr``, the shortest text that reads back
to the same double. JSON gets ``null`` for a non-finite float (NaN, such as
the mean of a sweep size whose rounds all timed out, or an infinity): JSON
has no token for it. ``write_trace_rows`` writes the bytes ``write_rows``
would.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import repeat
from operator import not_


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


def _cell_text(cell) -> str:
    """A number cell's text as ``csv`` writes it: ``float.__repr__`` for a float, a numpy
    float64 included (its own ``repr`` reads ``np.float64(...)``), else ``str``."""
    return float.__repr__(cell) if isinstance(cell, float) else str(cell)


def _prints_by_value(column) -> bool:
    """Whether equal cells of ``column`` print alike: all of type int, or all of type float
    with zeros of one sign. 0.0 == -0.0 and 1 == 1.0, but ``csv`` prints each pair
    differently."""
    kinds = set(map(type, column))
    zeros = filter(not_, column)
    return kinds == {int} or kinds == {float} and len(set(map(str, zeros))) < 2


def write_trace_rows(fh, header, rows) -> None:
    """``write_rows`` for a sequence of rows of one length, each a tick and then cells,
    all ints or floats: the same bytes, with the rows in one ``fh.write``.

    A trace repeats the cells after the tick wherever its state did not change
    between rows, so their text is made once for each run of consecutive rows that
    print them alike. A run compares the cells of a column by value where equal
    cells print alike, and by their text elsewhere.
    """
    csv.writer(fh).writerow(header)
    if not rows:
        return
    ticks, *columns = zip(*rows, strict=True)
    # str is csv's text for an int or a float, though not for a float subclass
    tick_text = str if set(map(type, ticks)) <= {int, float} else _cell_text
    keys = zip(*[c if _prints_by_value(c) else map(_cell_text, c) for c in columns]) \
        if columns else repeat(())
    line_end = ",%s" * len(columns) + "\r\n"  # %s of a key cell is its csv text
    lines = []
    last = end = None
    for tick, key in zip(map(tick_text, ticks), keys):
        if key != last:
            last, end = key, line_end % key
        lines.append(tick + end)
    fh.write("".join(lines))


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
