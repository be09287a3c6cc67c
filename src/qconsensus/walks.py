"""Random-walk analysis on connected graphs.

Three walk laws are supported, all driven by the same asynchronous clock
(one tick = pick a node uniformly, then one of its neighbors uniformly):

* simple:  P[i][j] = 1/deg(i) on edges, zero diagonal.
* natural: P[i][j] = 1/(n deg(i)) on edges, diagonal 1 - 1/n.
* biased:  P[i][j] = (1/n)(1/deg(i) + 1/deg(j)) on edges. This is the law
  a value-token obeys under pairwise exchange: it moves whenever an edge
  incident to it is activated, from either endpoint's clock.

The biased walk is a walk on the weighted graph with edge weight
w_ij = (1/n)(1/deg(i) + 1/deg(j)), node weight 1 and total weight n, which
ties hitting times to the electric network with conductance w_ij per edge:
commute(x, y) = n * r'(x, y) with r' the effective resistance.

Exact tables cost O(n^3) each: all-pairs hitting times come from one
fundamental matrix and all-pairs resistances from one Laplacian
pseudo-inverse. The per-target solves (hitting_times, effective_resistance,
commute_time) are independent O(n^3)-per-call oracles for them. The
simulate_* functions estimate the same quantities (and the two-token
meeting times) by Monte Carlo under the tick-level dynamics.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .graphs import Graph, check_nodes, shortest_path

WALK_KINDS = ("simple", "natural", "biased")

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
HITTING_TOL = 1e-9
RESISTANCE_TOL = 1e-9
COMMUTE_TOL = 1e-6
HIDDEN_TOL = 1e-9

DEFAULT_TICK_BUDGET = 10**9


class SolverError(RuntimeError):
    """An exact linear solve failed or left too large a residual."""


class ConsistencyError(RuntimeError):
    """Two independent exact computations disagree beyond tolerance."""


class TickBudgetError(RuntimeError):
    """A Monte Carlo run exceeded its tick budget."""

    def __init__(self, message: str, ticks: int):
        super().__init__(message)
        self.ticks = ticks


@dataclass(frozen=True, eq=False)
class WalkMatrix:
    """Row-stochastic transition matrix tagged with its walk kind."""

    kind: str
    p: np.ndarray

    def __post_init__(self):
        if self.kind not in WALK_KINDS:
            raise ValueError(f"unknown walk kind {self.kind!r}")
        if float(self.p.min()) < 0.0 or float(self.p.max()) > 1.0:
            raise ValueError("transition probabilities must lie in [0, 1]")
        rows = self.p.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > ROW_SUM_TOL:
            raise ValueError("rows of a transition matrix must sum to 1")

    @property
    def n(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Degree-derived weights for the biased walk / electric network.

    ``w`` is dense and symmetric: w[i][j] is the edge weight (conductance)
    for edges, 0 for non-edges, and the self-weight on the diagonal. Node
    weights are all 1 and the total weight equals n.
    """

    n: int
    w: np.ndarray

    def edge_weight(self, i: int, j: int) -> float:
        return float(self.w[i, j])


@dataclass(frozen=True, eq=False)
class HittingTable:
    """All-pairs expected hitting times h[x][y] for one walk matrix."""

    kind: str
    h: np.ndarray

    @property
    def n(self) -> int:
        return self.h.shape[0]

    def max_hitting(self) -> float:
        """max over ordered pairs, the hitting time of the graph."""
        return float(self.h.max())


def edge_weights(g: Graph) -> WeightedGraph:
    """Weights w_ij = (1/n)(1/deg(i) + 1/deg(j)) with self-weights filling each row to 1."""
    n = g.n
    inv_deg = np.array([1.0 / g.degree(i) for i in range(n)])
    w = np.zeros((n, n))
    for i in range(n):
        for j in g.adjacency[i]:
            w[i, j] = (inv_deg[i] + inv_deg[j]) / n
    for i in range(n):
        # exact value is >= 0; clamp float-summation roundup
        w[i, i] = max(0.0, 1.0 - w[i].sum())
    return WeightedGraph(n, w)


def transition_matrix(g: Graph, kind: str) -> WalkMatrix:
    if kind not in WALK_KINDS:
        raise ValueError(f"unknown walk kind {kind!r}")
    n = g.n
    if n < 2:
        raise ValueError("walk matrices require at least 2 nodes")
    p = np.zeros((n, n))
    if kind == "simple":
        for i in range(n):
            for j in g.adjacency[i]:
                p[i, j] = 1.0 / g.degree(i)
    elif kind == "natural":
        for i in range(n):
            for j in g.adjacency[i]:
                p[i, j] = 1.0 / (n * g.degree(i))
            p[i, i] = 1.0 - 1.0 / n
    else:
        # Off-diagonal entries equal the edge weights, so the matrix is
        # symmetric by construction and its stationary law is uniform.
        p = edge_weights(g).w.copy()
    return WalkMatrix(kind, p)


def stationary_distribution(m: WalkMatrix) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 by a direct dense solve."""
    n = m.n
    a = m.p.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"stationary solve failed: {exc}") from exc
    residual = float(np.max(np.abs(pi @ m.p - pi)))
    if residual > STATIONARY_TOL:
        raise SolverError(f"stationary distribution residual {residual:.3e} exceeds {STATIONARY_TOL:.1e}")
    return pi


def hitting_times(m: WalkMatrix, target: int) -> np.ndarray:
    """Expected ticks to first reach ``target`` from every node.

    Solves h[x] = 1 + sum_j P[x][j] h[j] for x != target, h[target] = 0.
    """
    n = m.n
    if not (0 <= target < n):
        raise ValueError(f"target must be in 0..{n - 1}")
    idx = [i for i in range(n) if i != target]
    sub = m.p[np.ix_(idx, idx)]
    a = np.eye(n - 1) - sub
    try:
        h_sub = np.linalg.solve(a, np.ones(n - 1))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"hitting-time system is singular (disconnected graph?): {exc}") from exc
    h = np.zeros(n)
    h[idx] = h_sub
    residual = float(np.max(np.abs(a @ h_sub - 1.0)))
    scale = max(1.0, float(np.max(np.abs(h_sub))))
    if residual / scale > HITTING_TOL:
        raise SolverError(f"hitting-time residual {residual:.3e} exceeds tolerance")
    return h


def _strongly_connected(support: np.ndarray) -> bool:
    """True iff every node reaches every other along the True entries of ``support``.

    A reducible walk makes the fundamental matrix singular, but the solve can
    still return huge entries whose residuals are small relative to their
    columns (natural walk on a triangle plus a star), so hitting_table
    checks reachability first.
    """
    for s in (support, support.T):
        seen = np.zeros(len(s), dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = s[frontier].any(axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def hitting_table(m: WalkMatrix) -> HittingTable:
    """All-pairs hitting times from the fundamental matrix, O(n^3).

    H[x][y] = (Z[y][y] - Z[x][y]) / pi[y] with Z = (I - P + 1 pi^T)^-1
    (Aldous & Fill, Reversible Markov Chains and Random Walks on Graphs,
    ch. 2), for any irreducible walk kind. hitting_times is the per-target
    oracle. A reducible walk raises SolverError, and so does a residual of
    (I - P) H = 1 off the diagonal above HITTING_TOL, relative to each
    column's largest entry. Errors scale with that largest entry too: the
    difference Z[y][y] - Z[x][y] cancels, so small entries of large
    slow-mixing walks lose relative accuracy (2e-9 on H = 2405 in the
    extremal lollipop(481)), where hitting_times does not.
    """
    n = m.n
    if not _strongly_connected(m.p > 0):
        raise SolverError("walk matrix is reducible (disconnected graph?)")
    pi = stationary_distribution(m)
    a = np.eye(n) - m.p + pi
    try:
        z = np.linalg.solve(a, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"fundamental matrix is singular (disconnected graph?): {exc}") from exc
    h = (np.diag(z) - z) / pi
    np.fill_diagonal(h, 0.0)
    residual = np.abs(h - m.p @ h - 1.0)
    np.fill_diagonal(residual, 0.0)
    scale = np.maximum(1.0, np.max(np.abs(h), axis=0))
    worst = float(np.max(residual.max(axis=0) / scale))
    if not worst <= HITTING_TOL:
        raise SolverError(f"hitting-table residual {worst:.3e} exceeds tolerance")
    return HittingTable(m.kind, h)


def effective_resistance(wg: WeightedGraph, x: int, y: int) -> float:
    """Two-terminal resistance of the network with conductance w_ij per edge.

    Self-weights carry no current and are excluded. The Laplacian system is
    solved with the sink ``y`` grounded, for a unit current injection at ``x``.
    """
    n = wg.n
    check_nodes(n, x, y)
    if x == y:
        return 0.0
    cond = wg.w - np.diag(np.diag(wg.w))
    lap = np.diag(cond.sum(axis=1)) - cond
    keep = [i for i in range(n) if i != y]
    b = np.zeros(n)
    b[x] = 1.0
    try:
        v_sub = np.linalg.solve(lap[np.ix_(keep, keep)], b[keep])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Laplacian solve failed (disconnected network?): {exc}") from exc
    residual = float(np.max(np.abs(lap[np.ix_(keep, keep)] @ v_sub - b[keep])))
    if residual > RESISTANCE_TOL:
        raise SolverError(f"Laplacian residual {residual:.3e} exceeds tolerance")
    return float(v_sub[keep.index(x)])


def resistance_matrix(wg: WeightedGraph) -> np.ndarray:
    """All-pairs resistances from one Laplacian pseudo-inverse, O(n^3).

    R = diag(L+) 1^T + 1 diag(L+)^T - 2 L+ (Klein & Randic, "Resistance
    distance", 1993) with L+ = (L + J/n)^-1 - J/n, L the Laplacian of the
    conductances w_ij (self-weights excluded) and J the all-ones matrix.
    effective_resistance is the two-terminal oracle. The residual of
    L L+ = I - J/n is checked.
    """
    n = wg.n
    cond = wg.w - np.diag(np.diag(wg.w))
    lap = np.diag(cond.sum(axis=1)) - cond
    mean = np.full((n, n), 1.0 / n)
    try:
        lplus = np.linalg.solve(lap + mean, np.eye(n)) - mean
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Laplacian inverse failed (disconnected network?): {exc}") from exc
    residual = float(np.max(np.abs(lap @ lplus - (np.eye(n) - mean))))
    if not residual <= RESISTANCE_TOL:
        raise SolverError(f"Laplacian pseudo-inverse residual {residual:.3e} exceeds tolerance")
    lplus = 0.5 * (lplus + lplus.T)  # symmetric in exact arithmetic; keep R[x][y] == R[y][x]
    d = np.diag(lplus)
    r = d[:, None] + d[None, :] - 2.0 * lplus
    np.fill_diagonal(r, 0.0)
    return r


def commute_time(m: WalkMatrix, wg: WeightedGraph, x: int, y: int) -> float:
    """H(x,y) + H(y,x) for the biased walk, checked against n * r'(x,y)."""
    if m.kind != "biased":
        raise ValueError("the commute identity holds for the biased walk only")
    if x == y:
        return 0.0
    commute = float(hitting_times(m, y)[x] + hitting_times(m, x)[y])
    expected = wg.n * effective_resistance(wg, x, y)
    if abs(commute - expected) > COMMUTE_TOL * max(1.0, abs(commute)):
        raise ConsistencyError(
            f"commute identity violated at ({x},{y}): "
            f"hitting sum {commute!r} vs n*r' {expected!r}"
        )
    return commute


class HittingBound(NamedTuple):
    general: float
    path_refined: float


def hitting_bound(g: Graph, x: int, y: int) -> HittingBound:
    """Upper bounds on the biased-walk hitting time H(x, y).

    general: 3 n^3, valid on every connected graph.
    path_refined: n * sum over shortest-path edges of n * min(deg_i, deg_j),
    i.e. total weight times the resistance bound obtained by chaining the
    per-edge bound r_ij < n * min(deg_i, deg_j) along the shortest path.
    """
    n = g.n
    general = 3.0 * n**3
    path = shortest_path(g, x, y)
    r_bound = sum(
        n * min(g.degree(path[k]), g.degree(path[k + 1])) for k in range(len(path) - 1)
    )
    return HittingBound(general, float(n * r_bound))


def hidden_vertex(h: HittingTable) -> int:
    """Smallest node t with h[t][v] <= h[v][t] for every v (within tolerance).

    Such a node exists for every reversible walk; not finding one signals a
    numeric problem or a non-reversible input table.
    """
    n = h.n
    worst = float("inf")
    for t in range(n):
        violation = float(np.max(h.h[t, :] - h.h[:, t]))
        if violation <= HIDDEN_TOL:
            return t
        worst = min(worst, violation)
    raise SolverError(f"no hidden vertex found; smallest violation {worst:.6g}")


def potential(h: HittingTable, t: int, x: int, y: int) -> float:
    """phi(x, y) = H(x,y) + H(y,t) - H(t,y), anchored at a hidden vertex t.

    Symmetric in (x, y) as a consequence of the cycle identity for
    reversible walks.
    """
    return float(h.h[x, y] + h.h[y, t] - h.h[t, y])


def cycle_identity_gap(h: HittingTable, x: int, y: int, z: int) -> float:
    """|H(x,y)+H(y,z)+H(z,x) - (H(x,z)+H(z,y)+H(y,x))|, zero for reversible walks."""
    lhs = h.h[x, y] + h.h[y, z] + h.h[z, x]
    rhs = h.h[x, z] + h.h[z, y] + h.h[y, x]
    return float(abs(lhs - rhs))


# ---------------------------------------------------------------------------
# Monte Carlo simulation of tokens under the tick-level exchange dynamics.
#
# One tick activates an edge by picking a node uniformly and then a neighbor
# uniformly, so edge {u, v} fires with probability (1/n)(1/deg u + 1/deg v)
# per tick and the values at its endpoints swap. A tracked token therefore
# moves only on ticks whose activated edge is incident to it; the number of
# idle ticks between moves is geometric, which lets the simulators skip
# ahead without changing the tick-level law.
# ---------------------------------------------------------------------------


class _EdgeSampler:
    """Per-node move rates and cumulative neighbor laws for token simulation."""

    def __init__(self, g: Graph):
        self.g = g
        n = g.n
        inv_deg = [1.0 / g.degree(i) for i in range(n)]
        self.neighbors = [list(nbrs) for nbrs in g.adjacency]
        # pb[u][k]: activation probability of edge (u, neighbors[u][k]) per tick
        self.pb = [
            [(inv_deg[u] + inv_deg[v]) / n for v in g.adjacency[u]] for u in range(n)
        ]
        # move_rate[u]: probability per tick that some edge at u fires; the
        # exact value never exceeds 1, so clamp float-summation roundup.
        self.move_rate = [min(1.0, sum(row)) for row in self.pb]
        self.cum = [np.cumsum(row) for row in self.pb]

    def edge_prob(self, u: int, v: int) -> float:
        try:
            k = self.neighbors[u].index(v)
        except ValueError:
            return 0.0
        return self.pb[u][k]

    def pick_neighbor(self, rng, u: int) -> int:
        """Neighbor v of u drawn with probability proportional to pb[u][v]."""
        r = rng.random() * self.move_rate[u]
        k = int(np.searchsorted(self.cum[u], r, side="right"))
        if k >= len(self.neighbors[u]):
            k = len(self.neighbors[u]) - 1
        return self.neighbors[u][k]


def _check_budget(max_ticks: int) -> None:
    if max_ticks < 0:
        raise ValueError(f"max_ticks must be >= 0, got {max_ticks}")


def _spawn_run_rngs(seed, runs: int):
    """Independent per-run generators derived from (master seed, run index)."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(runs)]


def simulate_hitting(g: Graph, x: int, y: int, rng, max_ticks: int = DEFAULT_TICK_BUDGET,
                     sampler: _EdgeSampler | None = None) -> int:
    """Ticks until a token started at x first sits on y, one Monte Carlo run."""
    check_nodes(g.n, x, y)
    _check_budget(max_ticks)
    if sampler is None:
        sampler = _EdgeSampler(g)
    if x == y:
        return 0
    pos = x
    ticks = 0
    geometric = rng.geometric
    while True:
        ticks += int(geometric(sampler.move_rate[pos]))
        if ticks > max_ticks:
            raise TickBudgetError(f"hitting run exceeded {max_ticks} ticks", max_ticks)
        pos = sampler.pick_neighbor(rng, pos)
        if pos == y:
            return ticks


def sample_hitting(g: Graph, x: int, y: int, seed, runs: int,
                   max_ticks: int = DEFAULT_TICK_BUDGET) -> np.ndarray:
    sampler = _EdgeSampler(g)
    return np.array(
        [simulate_hitting(g, x, y, rng, max_ticks, sampler) for rng in _spawn_run_rngs(seed, runs)]
    )


def simulate_pair_meeting(g: Graph, x: int, y: int, rng, coupling: str = "X",
                          max_ticks: int = DEFAULT_TICK_BUDGET,
                          sampler: _EdgeSampler | None = None) -> int:
    """Ticks until two tokens started at x and y meet, one Monte Carlo run.

    coupling "X" is the exchange process itself: the tokens meet when the
    edge joining them fires (they cross) or when one lands on the other.
    coupling "Xprime" meets with twice the crossing probability, the extra
    mass taken from the both-stay event (capped by the stay mass available,
    so the per-tick law stays stochastic on every graph); single-token
    moves are unchanged.
    """
    if coupling not in ("X", "Xprime"):
        raise ValueError(f"unknown coupling {coupling!r}")
    check_nodes(g.n, x, y)
    _check_budget(max_ticks)
    if sampler is None:
        sampler = _EdgeSampler(g)
    if x == y:
        return 0
    ticks = 0
    random = rng.random
    geometric = rng.geometric
    prime = coupling == "Xprime"
    while True:
        rx = sampler.move_rate[x]
        ry = sampler.move_rate[y]
        adjacent = g.has_edge(x, y)
        p_join = sampler.edge_prob(x, y) if adjacent else 0.0
        mx = rx - p_join  # x moves somewhere other than y
        my = ry - p_join
        if prime:
            rate = min(1.0, rx + ry)
        else:
            rate = min(1.0, rx + ry - p_join)
        meet_mass = rate - mx - my  # p_join for X, up to 2*p_join for Xprime
        ticks += int(geometric(rate))
        if ticks > max_ticks:
            raise TickBudgetError(f"meeting run exceeded {max_ticks} ticks", max_ticks)
        r = random() * rate
        if adjacent and r < meet_mass:
            return ticks
        if r < meet_mass + mx:
            nxt = sampler.pick_neighbor(rng, x)
            while adjacent and nxt == y:
                nxt = sampler.pick_neighbor(rng, x)
            x = nxt
        else:
            nxt = sampler.pick_neighbor(rng, y)
            while adjacent and nxt == x:
                nxt = sampler.pick_neighbor(rng, y)
            y = nxt
        if x == y:  # cannot occur under swap dynamics; defensive
            return ticks


def sample_pair_meetings(g: Graph, x: int, y: int, seed, runs: int, coupling: str = "X",
                         max_ticks: int = DEFAULT_TICK_BUDGET) -> np.ndarray:
    sampler = _EdgeSampler(g)
    return np.array(
        [simulate_pair_meeting(g, x, y, rng, coupling, max_ticks, sampler)
         for rng in _spawn_run_rngs(seed, runs)]
    )


def simulate_meet_all(g: Graph, start: int, others: Iterable[int], rng,
                      max_ticks: int = DEFAULT_TICK_BUDGET) -> int:
    """Ticks until the token started at ``start`` has met every other token.

    All tokens ride the exchange dynamics: each tick activates one edge and
    the occupants of its endpoints swap. The designated token meets another
    when they cross an activated edge (or would land on each other).
    """
    others = list(others)
    check_nodes(g.n, start, *others)
    _check_budget(max_ticks)
    if len(set(others) | {start}) != len(others) + 1:
        raise ValueError("tokens must start on distinct nodes")
    if not others:
        return 0
    n = g.n
    occupant = [-1] * n  # token index at each node, -1 if none; 0 is tracked
    occupant[start] = 0
    for k, node in enumerate(others, start=1):
        occupant[node] = k
    unmet = set(range(1, len(others) + 1))
    adjacency = [list(nbrs) for nbrs in g.adjacency]
    degs = [len(a) for a in adjacency]
    ticks = 0
    chunk = 4096
    while True:
        us = rng.integers(0, n, size=chunk).tolist()
        rs = rng.random(size=chunk).tolist()
        for u, r in zip(us, rs):
            ticks += 1
            if ticks > max_ticks:
                raise TickBudgetError(f"meet-all run exceeded {max_ticks} ticks", max_ticks)
            v = adjacency[u][int(r * degs[u])]
            tu = occupant[u]
            tv = occupant[v]
            if tu < 0 and tv < 0:
                continue
            occupant[u], occupant[v] = tv, tu
            if tu == 0 and tv > 0:
                unmet.discard(tv)
            elif tv == 0 and tu > 0:
                unmet.discard(tu)
            if not unmet:
                return ticks


def sample_meet_all(g: Graph, start: int, others: Iterable[int], seed, runs: int,
                    max_ticks: int = DEFAULT_TICK_BUDGET) -> np.ndarray:
    others = list(others)
    return np.array(
        [simulate_meet_all(g, start, others, rng, max_ticks) for rng in _spawn_run_rngs(seed, runs)]
    )


def write_matrix_rows(fh, matrix: np.ndarray) -> None:
    """Write a square node-by-node table with node ids as header row and column."""
    writer = csv.writer(fh)
    writer.writerow(["node"] + list(range(matrix.shape[0])))
    for i, row in enumerate(matrix):
        writer.writerow([i] + [repr(float(v)) for v in row])


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        write_matrix_rows(fh, matrix)
