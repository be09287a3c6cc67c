"""Undirected simple graphs and the topology generators used by the simulator.

Nodes are dense integers 0..n-1. Generator conventions are fixed so that
exact-value tests can address specific nodes: star puts the hub at node 0,
line orders nodes 0..n-1 along the path, lollipop builds the clique on
nodes 0..m-1 and hangs the tail off node m-1.

Rows are checked where they enter the program and trusted where the
program builds them. ``Graph(n, adjacency)`` checks the rows it is given
with the Python walk ``_check_rows``, entries of any type included. The
generators build valid rows by construction, and ``Graph.from_edges``
checks each edge (``_check_edges``) before one sort of the keys u*n + v of
both directions turns the edges into rows (``_rows``); both hand their rows
to ``Graph._trusted``, which does not check them again. Every constructor
checks its parameters before it builds anything: n >= 1 with
``require_nodes``, and the lollipop's m and ER's p with the spec's rules,
``TopologySpec.validate``. A tick needs a neighbour at every node:
``require_neighbors``.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable

import numpy as np

from .rows import data_lines

TOPOLOGY_KINDS = ("star", "line", "lollipop", "complete", "erdos_renyi", "edge_list")
ER_MAX_SAMPLES = 1000  # samples erdos_renyi_graph draws before it gives up


class GraphConstructionError(ValueError):
    """A topology spec or edge list violates a structural constraint."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph as sorted adjacency lists.

    ``Graph(n, adjacency)`` checks that the rows lie in 0..n-1, hold no
    self-loop, are strictly increasing and are symmetric, and names the
    first fault. The generators and ``from_edges`` build their rows valid
    and construct through ``_trusted``, which skips that check.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    meta: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        require_nodes(self.n)
        if len(self.adjacency) != self.n:
            raise GraphConstructionError("adjacency length must equal node count")
        _check_rows(self.n, self.adjacency)

    @classmethod
    def _trusted(cls, n: int, adjacency: tuple[tuple[int, ...], ...]) -> "Graph":
        """The graph of rows the program built valid, for an ``n`` the caller checked."""
        g = object.__new__(cls)
        for name, value in (("n", n), ("adjacency", adjacency), ("meta", {})):
            object.__setattr__(g, name, value)
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """The graph of the undirected (u, v) pairs ``edges``; repeats are merged.

        Every edge must join two distinct integer nodes in 0..n-1; the first
        edge in input order that does not is named.
        """
        require_nodes(n)
        return cls._trusted(n, _rows(n, *_check_edges(n, edges)))

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2


def require_nodes(n: int) -> None:
    """Raise GraphConstructionError unless ``n`` is a node count of at least one."""
    if n < 1:
        raise GraphConstructionError("n must be >= 1")


def _key_dtype(n: int):
    """int32 while every key u*n + v of n nodes fits it, else int64."""
    return np.int32 if n * n < 2**31 else np.int64


def _rows(n: int, u: np.ndarray, v: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Sorted adjacency rows, of Python ints, of the undirected edges (u[k], v[k]).

    Every end must lie in 0..n-1 and no edge may be a loop; repeats merge.
    """
    m = len(u)
    keys = np.empty(2 * m, _key_dtype(n))
    ahead, back = keys[:m], keys[m:]
    ahead[:] = u
    ahead *= n
    ahead += v
    back[:] = v
    back *= n
    back += u
    keys.sort()
    first = np.ones(2 * m, bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    src, nbr = np.divmod(keys[first], n)
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    flat = tuple(nbr.tolist())
    return tuple(flat[a:b] for a, b in zip([0, *ends], ends))


def _check_edges(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Check each edge in order, with nodes of any type; return the two ends as int64 arrays.

    Raises GraphConstructionError at the first edge outside 0..n-1, looping,
    or with a node that is not an integer.
    """
    index = operator.index
    ends = []
    for u, v in edges:
        try:
            ends += index(u), index(v)
        except TypeError:
            raise GraphConstructionError(f"edge ({u},{v}) has a node that is not an "
                                         "integer") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphConstructionError(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise GraphConstructionError(f"self-loop at node {u}")
    flat = np.array(ends, np.int64)
    return flat[0::2], flat[1::2]


def _check_rows(n: int, adjacency) -> None:
    """Raise GraphConstructionError at the first fault of ``adjacency``, checking
    entries of any type; return if it has none."""
    for i, nbrs in enumerate(adjacency):
        if not nbrs:
            continue
        increasing = all(map(operator.lt, nbrs, nbrs[1:]))
        # a strictly increasing row has its extremes at its ends
        lo, hi = (nbrs[0], nbrs[-1]) if increasing else (min(nbrs), max(nbrs))
        if lo < 0 or hi >= n:
            raise GraphConstructionError(f"node {i} has a neighbor outside 0..{n - 1}")
        if i in nbrs:
            raise GraphConstructionError(f"self-loop at node {i}")
        if not increasing:
            if len(set(nbrs)) != len(nbrs):
                raise GraphConstructionError(f"duplicate neighbor at node {i}")
            raise GraphConstructionError(f"adjacency of node {i} is not sorted")
    # Symmetry in O(E) time and O(n) memory. Each entry j < i of row i
    # must match the next unread entry above the diagonal of row j: rows
    # are visited in ascending order, so a symmetric graph consumes each
    # row's upper part in order, and every upper entry must be consumed.
    nxt = [bisect.bisect(row, j) for j, row in enumerate(adjacency)]
    for i, nbrs in enumerate(adjacency):
        for j in nbrs[:bisect.bisect(nbrs, i)]:
            row = adjacency[j]
            k = nxt[j]
            if k == len(row) or row[k] != i:
                if k < len(row) and row[k] < i:
                    raise GraphConstructionError(f"edge ({j},{row[k]}) is not symmetric")
                raise GraphConstructionError(f"edge ({i},{j}) is not symmetric")
            nxt[j] = k + 1
    for j, row in enumerate(adjacency):
        if nxt[j] < len(row):
            raise GraphConstructionError(f"edge ({j},{row[nxt[j]]}) is not symmetric")


@dataclass(frozen=True)
class TopologySpec:
    """Parameters for one of the supported topology generators.

    kind: star | line | lollipop | complete | erdos_renyi | edge_list
    n: node count
    m: clique size (lollipop only), 3 <= m <= n
    p: edge probability (erdos_renyi only), 0 < p <= 1
    seed: RNG seed (erdos_renyi only)
    edges: explicit edge list (edge_list only)
    """

    kind: str
    n: int
    m: int | None = None
    p: float | None = None
    seed: int | None = None
    edges: tuple[tuple[int, int], ...] | None = None

    def validate(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise GraphConstructionError(f"unknown topology kind {self.kind!r}")
        require_nodes(self.n)
        if self.kind == "lollipop" and (self.m is None or not 3 <= self.m <= self.n):
            raise GraphConstructionError(
                f"lollipop requires 3 <= m <= n, got m={self.m}, n={self.n}")
        if self.kind == "erdos_renyi":
            if self.p is None or not 0.0 < self.p <= 1.0:
                raise GraphConstructionError(f"erdos_renyi requires 0 < p <= 1, got p={self.p}")
            if self.seed is None:
                raise GraphConstructionError("erdos_renyi requires a seed")
        if self.kind == "edge_list" and self.edges is None:
            raise GraphConstructionError("edge_list requires an explicit edge list")


def star_graph(n: int) -> Graph:
    """Hub at node 0, leaves 1..n-1."""
    require_nodes(n)
    adjacency = [tuple(range(1, n))] + [(0,)] * (n - 1)
    return Graph._trusted(n, tuple(adjacency))


def line_graph(n: int) -> Graph:
    """Path 0 - 1 - ... - (n-1)."""
    require_nodes(n)
    rows = [(i - 1, i + 1) for i in range(n)]
    rows[0] = rows[0][1:]  # drop node -1
    rows[-1] = rows[-1][:-1]  # drop node n
    return Graph._trusted(n, tuple(rows))


def complete_graph(n: int) -> Graph:
    """Every pair of nodes joined; row i is 0..n-1 without i."""
    require_nodes(n)
    nodes = tuple(range(n))
    return Graph._trusted(n, tuple(nodes[:i] + nodes[i + 1:] for i in range(n)))


def lollipop_graph(n: int, m: int) -> Graph:
    """Clique on nodes 0..m-1 with a path m-1, m, ..., n-1 hanging off it."""
    TopologySpec("lollipop", n, m).validate()
    clique = tuple(range(m))
    rows = [clique[:i] + clique[i + 1:] for i in range(m)]
    rows += [(i - 1, i + 1) for i in range(m, n)]
    if n > m:
        rows[m - 1] += (m,)
        rows[-1] = (n - 2,)
    return Graph._trusted(n, tuple(rows))


def erdos_renyi_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p), re-sampled with seed+1, seed+2, ... until connected.

    Deterministic re-seeding (rather than drawing again from one stream)
    makes the produced graph a pure function of (n, p, seed). Each sample
    keeps pair k of the row-major pairs i < j when the k-th of its uniform
    draws is below p; only the kept k are mapped to their pairs. The number
    of rejected samples is recorded in graph.meta["er_retries"]. After
    ER_MAX_SAMPLES disconnected samples it raises GraphConstructionError.
    """
    TopologySpec("erdos_renyi", n, p=p, seed=seed).validate()
    rows = np.arange(n - 1)
    starts = rows * n - rows * (rows + 1) // 2  # pair index of (i, i + 1), row i's first
    for retries in range(ER_MAX_SAMPLES):
        rng = np.random.default_rng(seed + retries)
        kept = np.flatnonzero(rng.random(n * (n - 1) // 2) < p)
        if len(kept) < n - 1:  # too few edges to connect n nodes
            continue
        u = np.searchsorted(starts, kept, "right") - 1
        g = Graph._trusted(n, _rows(n, u, kept - starts[u] + u + 1))
        if is_connected(g):
            g.meta["er_retries"] = retries
            g.meta["er_seed"] = seed + retries
            return g
    raise GraphConstructionError(f"erdos_renyi found no connected G(n={n}, p={p}) in "
                                 f"{ER_MAX_SAMPLES} samples")


def build_graph(spec: TopologySpec) -> Graph:
    """Build the graph described by ``spec``; always returns a connected graph."""
    spec.validate()
    if spec.kind == "star":
        return star_graph(spec.n)
    if spec.kind == "line":
        return line_graph(spec.n)
    if spec.kind == "complete":
        return complete_graph(spec.n)
    if spec.kind == "lollipop":
        return lollipop_graph(spec.n, spec.m)
    if spec.kind == "erdos_renyi":
        return erdos_renyi_graph(spec.n, spec.p, spec.seed)
    return require_connected(Graph.from_edges(spec.n, spec.edges))


def require_connected(g: Graph) -> Graph:
    """Return ``g``, the graph of an explicit edge list, if it is connected; else raise."""
    if not is_connected(g):
        raise GraphConstructionError("explicit edge list does not yield a connected graph")
    return g


def is_connected(g: Graph) -> bool:
    """True iff breadth-first traversal from node 0 reaches every node."""
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == g.n


def check_nodes(n: int, *nodes: int) -> None:
    """Raise ValueError unless every node lies in 0..n-1."""
    for node in nodes:
        if not 0 <= node < n:
            raise ValueError(f"nodes must be in 0..{n - 1}")


@functools.lru_cache(maxsize=1)
def csr(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degrees, row offsets and the concatenated adjacency rows, as read-only int64 arrays.

    The arrays of the most recent graph are memoised, keyed on the graph's
    identity (``Graph`` hashes by identity), so the runs of one graph in a
    sweep build them once. One entry only: a cache on each graph would keep
    the arrays of every graph a caller holds alive. The arrays are shared by
    every caller, hence read-only.
    """
    deg = np.fromiter(map(len, g.adjacency), np.int64, g.n)
    off = np.cumsum(deg) - deg
    flat = np.fromiter(chain.from_iterable(g.adjacency), np.int64, int(deg.sum()))
    for a in (deg, off, flat):
        a.flags.writeable = False
    return deg, off, flat


def tick_edges(g: Graph, rng, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The int64 edges (u, v) of k ticks under the tick law, the node clock of randomized
    gossip (Boyd et al. 2006): u uniform, then a uniform neighbour v of u. The floats come
    in (u, v) order from one ``rng.random(2 * k)``, the stream and truncation of the scalar
    reference ``consensus.binary_step``. Every node needs a neighbour: ``require_neighbors``."""
    deg, off, flat = csr(g)
    r = rng.random(2 * k)
    u = (r[0::2] * g.n).astype(np.int64)
    return u, flat[off[u] + (r[1::2] * deg[u]).astype(np.int64)]


def require_neighbors(g: Graph) -> None:
    """Raise ValueError unless every node of ``g`` has a neighbour for a tick to draw."""
    if not all(g.adjacency):
        raise ValueError("every node needs a neighbor")


def require_tick_budget(max_ticks: int) -> None:
    """Raise ValueError unless ``max_ticks`` is a tick budget: a count of at least 0."""
    if max_ticks < 0:
        raise ValueError(f"max_ticks must be >= 0, got {max_ticks}")


def bfs_tree(g: Graph, x: int) -> tuple[list[int], list[int]]:
    """Breadth-first visiting order from x, and each node's parent (-1 if unreached).

    Each level is processed in ascending node order, so every node is
    claimed by its lexicographically smallest same-level predecessor; the
    source is its own parent.
    """
    check_nodes(g.n, x)
    parent = [-1] * g.n
    parent[x] = x
    order = [x]
    frontier = [x]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.adjacency[u]:
                if parent[v] < 0:
                    parent[v] = u
                    nxt.append(v)
        frontier = sorted(nxt)
        order += frontier
    return order, parent


def reachable_tree(g: Graph, x: int, nodes: Iterable[int]) -> tuple[list[int], list[int]]:
    """``bfs_tree(g, x)``; raise ValueError at the first of ``nodes`` that it does not reach."""
    order, parent = bfs_tree(g, x)
    if len(order) < g.n:
        for k in nodes:
            if parent[k] < 0:
                raise ValueError(f"node {k} is unreachable from node {x}")
    return order, parent


def tree_path_sums(g: Graph, x: int, term: Callable[[int, int], int]) -> list[int]:
    """Sum of term(u, v) over the edges u -> v of bfs_tree(g, x)'s path to every node y."""
    order, parent = reachable_tree(g, x, range(g.n))
    sums = [0] * g.n
    for v in order[1:]:
        sums[v] = sums[parent[v]] + term(parent[v], v)
    return sums


def path_degree_sums_from(g: Graph, x: int) -> list[int]:
    """Degree sum along bfs_tree(g, x)'s path to every node y, both ends included; < 3n."""
    return [g.degree(x) + s for s in tree_path_sums(g, x, lambda u, v: g.degree(v))]


def read_edge_list(path) -> Graph:
    """Read a graph from text: one ``u v`` pair per line of ``rows.data_lines``."""
    edges = []
    for lineno, line in data_lines(path):
        try:
            u, v = map(int, line.split())
        except ValueError as exc:
            raise GraphConstructionError(f"{path}:{lineno}: expected 'u v', got {line!r}") from exc
        edges.append((u, v))
    return Graph.from_edges(1 + max([0, *chain.from_iterable(edges)]), edges)


def er_probability(n: int) -> float:
    """The connectivity-safe edge probability 5 ln(n) / n, capped at 1; 1 for one node,
    which is connected at any p, where the formula gives 0."""
    return 1.0 if n == 1 else min(1.0, 5.0 * math.log(n) / n)
