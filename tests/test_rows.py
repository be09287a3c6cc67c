"""The table writer adds no formatting rule of its own: ``csv`` writes a float
cell, a numpy float64 included, as the float's ``repr``, and ``json`` does the
same with ``null`` for a non-finite one. The trace-row writer writes the bytes
``csv`` writes."""

import csv
import io
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qconsensus.rows import write_matrix, write_rows, write_trace_rows

# each float with the shortest text that reads back to it
FLOATS = [
    (0.1, "0.1"),
    (1 / 3, "0.3333333333333333"),
    (1e16, "1e+16"),
    (9999999999999998.0, "9999999999999998.0"),
    (1e-05, "1e-05"),
    (5e-324, "5e-324"),
    (-0.0, "-0.0"),
    (sys.float_info.max, "1.7976931348623157e+308"),
    (math.nan, "nan"),
    (math.inf, "inf"),
]


def _written(write, *args) -> str:
    fh = io.StringIO()
    write(fh, *args)
    return fh.getvalue()


@pytest.mark.parametrize("cast", [float, np.float64], ids=["float", "float64"])
def test_write_rows_writes_a_float_as_its_repr(cast):
    assert all(text == repr(float(x)) for x, text in FLOATS)
    rows = [(cast(x), cast(-x)) for x, _ in FLOATS]
    expected = "".join(f"{text},{repr(-x)}\r\n" for x, text in FLOATS)
    assert _written(write_rows, ("x", "minus_x"), rows) == "x,minus_x\r\n" + expected


def test_write_rows_writes_ints_strings_and_none_as_csv_does():
    rows = [(0, -7, 10**20, "plain", "a,b", 'say "hi"', None)]
    assert _written(write_rows, ("a", "b", "c", "d", "e", "f", "g"), rows) == (
        'a,b,c,d,e,f,g\r\n0,-7,100000000000000000000,plain,"a,b","say ""hi""",\r\n')


# Equal cells that print differently, ints past 2**63, and FLOATS with its NaN.
SPECIAL_CELLS = [0, 0.0, -0.0, 1, 1.0, 2**63, float(2**63), 2**64 + 1, -(2**70),
                 *(x for x, _ in FLOATS)]


def _twin(cell):
    """A cell equal to ``cell`` that prints differently, where one is at hand, else ``cell``."""
    if isinstance(cell, float) and cell.is_integer() and abs(cell) < 2**53:
        return -cell if cell == 0 else int(cell)
    if isinstance(cell, int) and abs(cell) < 2**53:
        return float(cell)
    return cell


cells = st.one_of(st.sampled_from(SPECIAL_CELLS), st.integers(), st.floats())


@st.composite
def traces(draw):
    """Rows of one length: a tick and then runs of repeated cells, where a row of a run may
    swap any cell for its twin, which compares equal to it but prints differently."""
    width = draw(st.integers(0, 4))
    rnd = random.Random(draw(st.integers(0, 2**32)))  # for ticks and swaps
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        shared = draw(st.lists(cells, min_size=width, max_size=width))
        for _ in range(draw(st.integers(1, 40))):
            tick = len(rows) if rnd.random() < 0.9 else rnd.choice([-0.0, 0.5, 1e16, 2**70])
            rows.append((tick, *(_twin(c) if rnd.random() < 0.3 else c for c in shared)))
    return rows


def _csv_written(header, rows) -> str:
    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)
    return fh.getvalue()


@given(traces())
@settings(max_examples=100, deadline=None)
@example([(0, 0.0, 1), (1, -0.0, 1.0), (2, -0.0, 1.0), (3, 0.0, 1), (4, math.nan, 2**64),
          (5, math.nan, 2**64)])
@example([(t, 5, 2.5) for t in range(100)] + [(100, 5.0, 2.5), (101, 5, 2.5)])
def test_write_trace_rows_writes_the_bytes_csv_writes(rows):
    header = ("tick", *(f"c{j}" for j in range(len(rows[0]) - 1))) if rows else ("tick",)
    assert _written(write_trace_rows, header, rows) == _csv_written(header, rows)


def test_write_trace_rows_writes_a_float_as_float_repr():
    rows = [(np.float64(x), np.float64(x)) for x, _ in FLOATS]
    assert _written(write_trace_rows, ("a", "b"), rows) == (
        "a,b\r\n" + "".join(f"{text},{text}\r\n" for _, text in FLOATS))


def test_write_trace_rows_rejects_rows_of_different_lengths():
    with pytest.raises(ValueError):
        write_trace_rows(io.StringIO(), ("a", "b"), [(0, 1), (1,)])


MATRIX = np.array([[0.0, 2.5], [math.nan, 1 / 3]])


def test_write_matrix_csv():
    assert _written(write_matrix, "csv", MATRIX) == (
        "node,0,1\r\n0,0.0,2.5\r\n1,nan,0.3333333333333333\r\n")


def test_write_matrix_json():
    assert _written(write_matrix, "json", MATRIX) == """{
  "nodes": [
    0,
    1
  ],
  "matrix": [
    [
      0.0,
      2.5
    ],
    [
      null,
      0.3333333333333333
    ]
  ]
}
"""
