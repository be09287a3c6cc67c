"""The table writer adds no formatting rule of its own: ``csv`` writes a float
cell, a numpy float64 included, as the float's ``repr``, and ``json`` does the
same with ``null`` for a non-finite one."""

import io
import math
import sys

import numpy as np
import pytest

from qconsensus.rows import write_matrix, write_rows

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
