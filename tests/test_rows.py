"""The table writer adds no formatting rule of its own: ``csv`` writes a float
cell, a numpy float64 included, as the float's ``repr``, and ``json`` does the
same with ``null`` for a non-finite one. The trace-row writer writes the bytes
``csv`` writes. Every file writer, rewriting a file, leaves the bytes a fresh
write gives."""

import csv
import io
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qconsensus import cli, consensus, graphs, harness
from qconsensus.rows import write_csv, write_matrix, write_rows, write_trace_rows

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
SPECIAL_CELLS = [0, 0.0, -0.0, 1, 1.0, True, False, 2**63, float(2**63), 2**64 + 1, -(2**70),
                 *(x for x, _ in FLOATS)]


def _twin(cell):
    """A cell equal to ``cell`` that prints differently, where one is at hand, else ``cell``."""
    if type(cell) is bool:
        return int(cell)
    if type(cell) is int and cell == 1:
        return True
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


def test_write_trace_rows_tells_a_bool_from_the_int_it_equals():
    rows = [(0, 1, 0, 2), (1, True, False, 2), (2, True, 0, 2), (3, 1, 0, 2)]
    assert _written(write_trace_rows, ("tick", "a", "b", "c"), rows) == (
        "tick,a,b,c\r\n0,1,0,2\r\n1,True,False,2\r\n2,True,0,2\r\n3,1,0,2\r\n")


class Labelled(float):
    """A float that prints as its label, so two equal ones can print differently."""

    def __new__(cls, value, label):
        cell = super().__new__(cls, value)
        cell.label = label
        return cell

    def __str__(self):
        return self.label


def test_write_trace_rows_writes_a_float_subclass_as_its_str():
    rows = [(0, Labelled(0.5, "50%")), (1, Labelled(0.5, "half")), (2, Labelled(0.5, "half"))]
    assert _written(write_trace_rows, ("tick", "p"), rows) == (
        "tick,p\r\n0,50%\r\n1,half\r\n2,half\r\n") == _csv_written(("tick", "p"), rows)


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


def _traced_result():
    state = consensus.QuantizedState.from_values([4, 0, 0, 1, 2])
    return consensus.run_to_convergence("quantized", graphs.star_graph(5), state,
                                        np.random.default_rng(0), 10_000, 1)


SWEEP = harness.SweepConfig("star", (5, 7), "quantized", "q_setting1", 2, master_seed=9)

# each file writer of the package, as a function of the path it writes
WRITERS = {
    "rows.write_csv": lambda path: write_csv(path, ("a", "b"), [(1, 0.5), (2, "x")]),
    "consensus.write_trace_csv": lambda path: consensus.write_trace_csv(_traced_result(), path),
    "harness.write_sweep_csv": lambda path: harness.write_sweep_csv(
        SWEEP, list(harness.iter_sweep(SWEEP)), path),
    "cli._open_out": lambda path: cli.main([
        "sweep", "--topo", "line", "--protocol", "binary", "--n-values", "5,7",
        "--rounds", "2", "--out", str(path)]),
    "cli._open_out json": lambda path: cli.main([
        "sweep", "--topo", "line", "--protocol", "binary", "--n-values", "5,7",
        "--rounds", "2", "--format", "json", "--out", str(path)]),
}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS)
def test_a_rewritten_file_holds_the_bytes_of_a_fresh_write(write, tmp_path):
    fresh = tmp_path / "fresh"
    write(fresh)
    expected = fresh.read_bytes()
    for old in (b"\0" * (len(expected) + 4096), b"#" * (len(expected) // 2)):
        path = tmp_path / "rewritten"
        path.write_bytes(old)
        write(path)
        assert path.read_bytes() == expected
