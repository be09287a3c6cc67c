"""Shared hypothesis strategies and kernel-path switch for the test suite."""

from contextlib import contextmanager

import pytest
from hypothesis import strategies as st

from qconsensus import ckernel
from qconsensus.graphs import Graph

# "compiled" runs the loader as it is, which gives the C loops wherever a
# compiler is found; "batch" makes the loader find none.
KERNEL_PATHS = ("compiled", "batch")


@contextmanager
def kernel_path(path: str):
    """Protocol runs inside the block take ``path``, one of KERNEL_PATHS."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "batch":
            mp.setattr(ckernel, "load", lambda: None)
        yield


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 12):
    """A uniform-ish random connected graph: a random tree plus extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        edges.add((parent, i))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    for u, v in extra:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))
