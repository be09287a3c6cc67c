"""The one reader of the package's data files, ``data_lines``, the one opener
of its output files, ``open_out``, and the one writer of its tables, as CSV
or as JSON, with ``write_trace_rows`` for the long number rows of a protocol
trace.

``open_out`` overwrites an existing file in place and, when it closes, cuts a
regular file to the bytes written (``cut``); it never opens with ``O_TRUNC``.
ext4 starts writeback on ``close()`` of a file that was truncated to zero and
then rewritten, which made each rewrite of a small file cost several times
its write. Nothing is ``fsync``-ed: after a crash a rewritten file may hold
old, new or mixed bytes, but the rewrite never leaves it empty.

Cells are written as ``csv`` and ``json`` write them: both write a float, a
numpy float64 included, as its ``repr``, the shortest text that reads back
to the same double. JSON gets ``null`` for a non-finite float (NaN, such as
the mean of a sweep size whose rounds all timed out, or an infinity): JSON
has no token for it. ``write_trace_rows`` writes the bytes ``write_rows``
would.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import stat
from contextlib import contextmanager
from itertools import repeat
from operator import countOf, not_


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


def _prints_by_value(column) -> bool:
    """Whether equal cells of ``column`` print alike: all of type int, or all of type float
    with zeros of one sign. 0.0 == -0.0, 1 == 1.0 and 1 == True, but each pair prints
    differently. It costs one ``type`` call a cell, and reads the zeros' signs only
    where a float column holds a zero."""
    kind = type(column[0])
    if kind is not int and kind is not float or countOf(map(type, column), kind) < len(column):
        return False
    return kind is int or 0.0 not in column or len(set(map(str, filter(not_, column)))) < 2


def write_trace_rows(fh, header, rows) -> None:
    """``write_rows`` for a sequence of rows of one length, each a tick and then cells,
    all ints or floats: the same bytes, with the rows in one ``fh.write``.

    A trace repeats the cells after the tick wherever its state did not change
    between rows, so their text is made once for each run of consecutive rows that
    print them alike. A run compares the cells of a column by value where equal
    cells print alike, and by their text elsewhere. ``csv``'s text for a number
    is its ``str``, which is what ``%s`` gives, so the lines are joined into one
    format that takes every tick in one ``%``.
    """
    csv.writer(fh).writerow(header)
    if not rows:
        return
    ticks, *columns = zip(*rows, strict=True)
    keys = zip(*[c if _prints_by_value(c) else map(str, c) for c in columns]) \
        if columns else repeat((), len(ticks))
    line_end = ",%s" * len(columns) + "\r\n"
    lines = []
    last = end = None
    for key in keys:
        if key != last:
            # the run's text after the tick; a % in a cell's text is doubled, so that the
            # one % below fills in only the ticks
            last, end = key, "%s" + (line_end % key).replace("%", "%%")
        lines.append(end)
    fh.write("".join(lines) % ticks)


def cut(fh) -> None:
    """Flush ``fh`` and, if it is a regular file that holds more, cut it at the bytes
    written so far, so that no byte of an older file is left after them. A device (such as
    ``/dev/null``), a FIFO, a terminal or an in-memory stream is only flushed."""
    fh.flush()
    try:
        st = os.fstat(fh.fileno())
    except io.UnsupportedOperation:
        return
    if stat.S_ISREG(st.st_mode) and st.st_size > fh.tell():
        fh.truncate()


@contextmanager
def open_out(path):
    """Yield ``path`` opened as a text file for writing, with ``newline=""``: the one
    opener of the package's output files.

    An existing file is overwritten in place, not truncated on open, and on exit,
    normal or by an exception, ``cut`` to the bytes written.
    """
    with open(path, "w", newline="",
              opener=lambda name, flags: os.open(name, os.O_WRONLY | os.O_CREAT, 0o666)) as fh:
        try:
            yield fh
        finally:
            cut(fh)


def write_csv(path, header, rows) -> None:
    """write_rows into the file at ``path``, through ``open_out``."""
    with open_out(path) as fh:
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
