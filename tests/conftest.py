"""Shared hypothesis strategies and kernel-path switch for the test suite."""

from contextlib import contextmanager

import pytest
from hypothesis import strategies as st

from qconsensus import ckernel
from qconsensus.graphs import Graph, bfs_tree

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


def scalar_ticks(g: Graph, rng, k: int) -> list[tuple[int, int]]:
    """The edges of k ticks drawn a float at a time, as the per-tick steppers draw them."""
    edges = []
    for _ in range(k):
        u = int(rng.random() * g.n)
        nbrs = g.adjacency[u]
        edges.append((u, nbrs[int(rng.random() * len(nbrs))]))
    return edges


def tree_path(g: Graph, x: int, y: int) -> list[int]:
    """The path from x to y, both included, along the parents of bfs_tree(g, x)."""
    parent = bfs_tree(g, x)[1]
    assert parent[y] >= 0, f"node {y} is unreachable from node {x}"
    path = [y]
    while path[-1] != x:
        path.append(parent[path[-1]])
    return path[::-1]


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
