"""Undirected simple graphs and the topology generators used by the simulator.

Nodes are dense integers 0..n-1. Generator conventions are fixed so that
exact-value tests can address specific nodes: star puts the hub at node 0,
line orders nodes 0..n-1 along the path, lollipop builds the clique on
nodes 0..m-1 and hangs the tail off node m-1.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

TOPOLOGY_KINDS = ("star", "line", "lollipop", "complete", "erdos_renyi", "edge_list")


class GraphConstructionError(ValueError):
    """A topology spec or edge list violates a structural constraint."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph as sorted adjacency lists."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    meta: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise GraphConstructionError("node count must be >= 1")
        if len(self.adjacency) != self.n:
            raise GraphConstructionError("adjacency length must equal node count")
        for i, nbrs in enumerate(self.adjacency):
            if not nbrs:
                continue
            increasing = all(map(operator.lt, nbrs, nbrs[1:]))
            # a strictly increasing row has its extremes at its ends
            lo, hi = (nbrs[0], nbrs[-1]) if increasing else (min(nbrs), max(nbrs))
            if lo < 0 or hi >= self.n:
                raise GraphConstructionError(f"node {i} has a neighbor outside 0..{self.n - 1}")
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
        adj = self.adjacency
        nxt = [bisect.bisect(row, j) for j, row in enumerate(adj)]
        for i, nbrs in enumerate(adj):
            for j in nbrs[:bisect.bisect(nbrs, i)]:
                row = adj[j]
                k = nxt[j]
                if k == len(row) or row[k] != i:
                    if k < len(row) and row[k] < i:
                        raise GraphConstructionError(f"edge ({j},{row[k]}) is not symmetric")
                    raise GraphConstructionError(f"edge ({i},{j}) is not symmetric")
                nxt[j] = k + 1
        for j, row in enumerate(adj):
            if nxt[j] < len(row):
                raise GraphConstructionError(f"edge ({j},{row[nxt[j]]}) is not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphConstructionError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise GraphConstructionError(f"self-loop at node {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in nbrs))

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]


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
        if self.n < 1:
            raise GraphConstructionError("n must be >= 1")
        if self.kind == "lollipop":
            if self.m is None or not (3 <= self.m <= self.n):
                raise GraphConstructionError(
                    f"lollipop requires 3 <= m <= n, got m={self.m}, n={self.n}"
                )
        if self.kind == "erdos_renyi":
            if self.p is None or not (0.0 < self.p <= 1.0):
                raise GraphConstructionError(f"erdos_renyi requires 0 < p <= 1, got p={self.p}")
            if self.seed is None:
                raise GraphConstructionError("erdos_renyi requires a seed")
        if self.kind == "edge_list" and self.edges is None:
            raise GraphConstructionError("edge_list requires an explicit edge list")


def star_graph(n: int) -> Graph:
    """Hub at node 0, leaves 1..n-1."""
    if n == 1:
        return Graph(1, ((),))
    adjacency = [tuple(range(1, n))] + [(0,)] * (n - 1)
    return Graph(n, tuple(adjacency))


def line_graph(n: int) -> Graph:
    """Path 0 - 1 - ... - (n-1)."""
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    """Every pair of nodes joined; row i is 0..n-1 without i."""
    nodes = tuple(range(n))
    return Graph(n, tuple(nodes[:i] + nodes[i + 1:] for i in range(n)))


def lollipop_graph(n: int, m: int) -> Graph:
    """Clique on nodes 0..m-1 with a path m-1, m, ..., n-1 hanging off it."""
    if not (3 <= m <= n):
        raise GraphConstructionError(f"lollipop requires 3 <= m <= n, got m={m}, n={n}")
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges += [(i, i + 1) for i in range(m - 1, n - 1)]
    return Graph.from_edges(n, edges)


def erdos_renyi_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p), re-sampled with seed+1, seed+2, ... until connected.

    Deterministic re-seeding (rather than drawing again from one stream)
    makes the produced graph a pure function of (n, p, seed). The number
    of rejected samples is recorded in graph.meta["er_retries"].
    """
    if not (0.0 < p <= 1.0):
        raise GraphConstructionError(f"erdos_renyi requires 0 < p <= 1, got p={p}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    retries = 0
    while True:
        rng = np.random.default_rng(seed + retries)
        mask = rng.random(len(pairs)) < p
        g = Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])
        if is_connected(g):
            g.meta["er_retries"] = retries
            g.meta["er_seed"] = seed + retries
            return g
        retries += 1


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
    g = Graph.from_edges(spec.n, spec.edges)
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


def csr(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degrees, row offsets and the concatenated adjacency rows, as int64 arrays."""
    deg = np.fromiter(map(len, g.adjacency), np.int64, g.n)
    off = np.cumsum(deg) - deg
    flat = np.fromiter(chain.from_iterable(g.adjacency), np.int64, int(deg.sum()))
    return deg, off, flat


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


def shortest_path(g: Graph, x: int, y: int) -> list[int]:
    """Minimum-hop path from x to y, inclusive of both endpoints, along bfs_tree(g, x)."""
    check_nodes(g.n, x, y)
    parent = bfs_tree(g, x)[1]
    if parent[y] < 0:
        raise ValueError(f"node {y} is unreachable from node {x}")
    path = [y]
    while path[-1] != x:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def path_degree_sum(g: Graph, x: int, y: int) -> int:
    """Sum of degrees along the shortest x-y path; < 3n on any connected graph."""
    return sum(g.degree(q) for q in shortest_path(g, x, y))


def path_degree_sums_from(g: Graph, x: int) -> list[int]:
    """path_degree_sum(g, x, y) for every node y, along one breadth-first tree."""
    order, parent = bfs_tree(g, x)
    if len(order) < g.n:
        raise ValueError(f"node {parent.index(-1)} is unreachable from node {x}")
    sums = [0] * g.n
    sums[x] = g.degree(x)
    for v in order[1:]:
        sums[v] = sums[parent[v]] + g.degree(v)
    return sums


def read_edge_list(path) -> Graph:
    """Read a graph from text: one ``u v`` pair per line, '#' starts a comment."""
    edges = []
    max_node = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphConstructionError(f"{path}:{lineno}: expected 'u v', got {raw.strip()!r}")
            u, v = int(parts[0]), int(parts[1])
            edges.append((u, v))
            max_node = max(max_node, u, v)
    return Graph.from_edges(max_node + 1, edges)


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w") as fh:
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def expected_er_edges(n: int, p: float) -> float:
    """Mean edge count of G(n, p): 0.5 n (n-1) p."""
    return 0.5 * n * (n - 1) * p


def er_probability(n: int, factor: float = 5.0) -> float:
    """The connectivity-safe edge probability factor * ln(n) / n, capped at 1."""
    return min(1.0, factor * math.log(n) / n)
