"""The one writer of the package's tables, as CSV or as JSON.

Float rule: a CSV cell holding a float is written as ``repr(float(x))``,
the shortest text that reads back to the same double, so a numpy float64
prints exactly as a Python float does. JSON numbers follow the same rule,
since ``json`` writes every float with ``float.__repr__`` (a NaN as the
bare token ``NaN``, which Python's ``json`` reads back). Every other cell
is written as ``csv`` and ``json`` write it.
"""

from __future__ import annotations

import csv
import json


def write_rows(fh, header, rows) -> None:
    """Write ``header`` and then each row of ``rows`` as one CSV line to ``fh``.

    ``rows`` is consumed lazily, and each line reaches ``fh.write`` before
    the next row is drawn, so a generator can stream its rows.
    """
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(
        [repr(float(x)) if isinstance(x, float) else x for x in row] for row in rows
    )


def write_csv(path, header, rows) -> None:
    """write_rows into a new file at ``path``."""
    with open(path, "w", newline="") as fh:
        write_rows(fh, header, rows)


def write_json(fh, obj) -> None:
    """Write ``obj`` to ``fh`` as JSON indented by two spaces, and a newline."""
    fh.write(json.dumps(obj, indent=2))
    fh.write("\n")


def write_table(fh, fmt: str, header, rows) -> None:
    """``rows`` as CSV (``fmt`` "csv") or as a JSON array of {column: cell} objects."""
    if fmt == "json":
        write_json(fh, [dict(zip(header, row)) for row in rows])
    else:
        write_rows(fh, header, rows)
