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
sample_* functions estimate the same quantities (and the two-token
meeting times) by Monte Carlo under the tick-level dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .graphs import Graph, bfs_tree, check_nodes, csr
from .rows import write_rows

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
    moves = _Moves(g)
    w = np.zeros((n, n))
    w.flat[moves.key] = moves.p
    # exact value is >= 0; clamp float-summation roundup
    np.fill_diagonal(w, np.maximum(0.0, 1.0 - w.sum(axis=1)))
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


def _require_irreducible(m: WalkMatrix) -> None:
    """Raise SolverError unless every node reaches every other along P > 0.

    On a reducible walk the solves can return garbage with small residuals
    (1.8e16 hitting times, negative pi entries on a triangle plus a star).
    """
    support = m.p > 0
    for s in (support, support.T):
        seen = np.zeros(len(s), dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = s[frontier].any(axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            raise SolverError("walk matrix is reducible (disconnected graph?)")


def stationary_distribution(m: WalkMatrix) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 by a direct dense solve; SolverError if reducible."""
    _require_irreducible(m)
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
    A reducible walk raises SolverError.
    """
    n = m.n
    if not (0 <= target < n):
        raise ValueError(f"target must be in 0..{n - 1}")
    _require_irreducible(m)
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
    check_nodes(g.n, y)
    return hitting_bounds_from(g, x)[y]


def hitting_bounds_from(g: Graph, x: int) -> list[HittingBound]:
    """hitting_bound(g, x, y) for every node y, along one breadth-first tree."""
    n = g.n
    order, parent = bfs_tree(g, x)
    if len(order) < n:
        raise ValueError(f"node {parent.index(-1)} is unreachable from node {x}")
    r_bound = [0] * n
    for v in order[1:]:
        r_bound[v] = r_bound[parent[v]] + n * min(g.degree(parent[v]), g.degree(v))
    general = 3.0 * n**3
    return [HittingBound(general, float(n * r)) for r in r_bound]


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
# uniformly, so edge {u, v} fires with probability p_uv = w_uv per tick and
# the values at its endpoints swap. A tracked token at u moves on a tick
# with probability r_u = sum_v p_uv, so the idle ticks before its next move
# are one geometric draw; meet-all runs move every token, one edge per tick.
#
# All runs of one sample_* call advance in lockstep on one generator,
# np.random.default_rng(seed): each step draws the next event of every
# active run at once, and a run leaves the active set when it finishes. A
# sample of k runs is a function of (seed, k), not a prefix of a larger one.
# ---------------------------------------------------------------------------


class _Moves:
    """CSR move tables, O(E) arrays: entry k of row u is the edge (u, nbr[k]).

    ``key`` is sorted, ``p[k]`` is p_uv, ``rev[k]`` is the entry of (v, u),
    and entry k owns [start[k], start[k + 1]) of the running sum of p, so a
    uniform point in row u picks v with probability p_uv / r_u.
    """

    def __init__(self, g: Graph):
        self.deg, self.off, self.nbr = csr(g)
        if not self.deg.all():
            raise ValueError("every node needs a neighbor")
        src = np.repeat(np.arange(g.n), self.deg)
        self.p = (1.0 / self.deg[src] + 1.0 / self.deg[self.nbr]) / g.n
        self.key = src * g.n + self.nbr  # the entry's index in a flat n x n array
        self.rev = np.searchsorted(self.key, self.nbr * g.n + src)
        # np.cumsum adds in order, so start[k + 1] == start[k] + p[k] in floats
        self.start = np.concatenate(([0.0], np.cumsum(self.p)))
        self.last = self.off + self.deg - 1
        # r_u; the exact value never exceeds 1
        self.rate = np.minimum(1.0, self.start[self.last + 1] - self.start[self.off])

    def pick(self, u, r, skip=None, p_skip=0.0) -> np.ndarray:
        """A neighbor of each u[i] with probability p_uv / r_u, from uniforms r.

        Entry skip[i] of row u[i], of mass p_skip[i] > 0 (0 skips nothing),
        is cut out: a point at or past its start moves up by its mass, which
        is at or past its end since float addition is monotone, and the
        clamp to the row's last entry stops short of a skipped last entry.
        """
        point = self.start[self.off[u]] + r * (self.rate[u] - p_skip)
        last = self.last[u]
        if skip is not None:
            point = np.where(point >= self.start[skip], point + p_skip, point)
            last = last - ((skip == last) & (p_skip > 0))
        return self.nbr[np.minimum(np.searchsorted(self.start[1:], point, side="right"), last)]


def _check_runs(g: Graph, nodes, runs: int, max_ticks: int) -> None:
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    check_nodes(g.n, *nodes)
    if max_ticks < 0:
        raise ValueError(f"max_ticks must be >= 0, got {max_ticks}")


def _lockstep(runs: int, state: tuple, step, max_ticks: int, what: str) -> np.ndarray:
    """Advance ``runs`` runs together until each finishes; return their ticks.

    ``state`` holds arrays whose first axis is the active run. ``step(*state)``
    returns the next state, the ticks each run spent reaching its next event
    and which runs finished at it. A run past ``max_ticks`` raises.
    """
    out = np.zeros(runs, dtype=np.int64)
    active = np.arange(runs)
    ticks = np.zeros(runs, dtype=np.int64)
    while active.size:
        state, elapsed, done = step(*state)
        ticks += elapsed
        if ticks.max() > max_ticks:
            raise TickBudgetError(f"{what} run exceeded {max_ticks} ticks", max_ticks)
        if done.any():
            out[active[done]] = ticks[done]
            keep = ~done
            active, ticks = active[keep], ticks[keep]
            state = tuple(a[keep] for a in state)
    return out


def sample_hitting(g: Graph, x: int, y: int, seed, runs: int,
                   max_ticks: int = DEFAULT_TICK_BUDGET) -> np.ndarray:
    """Ticks until a token started at x first sits on y, for each of ``runs`` runs."""
    _check_runs(g, (x, y), runs, max_ticks)
    if x == y:
        return np.zeros(runs, dtype=np.int64)
    rng = np.random.default_rng(seed)
    moves = _Moves(g)

    def step(pos):
        elapsed = rng.geometric(moves.rate[pos])
        pos = moves.pick(pos, rng.random(pos.size))
        return (pos,), elapsed, pos == y

    return _lockstep(runs, (np.full(runs, x),), step, max_ticks, "hitting")


def sample_pair_meetings(g: Graph, x: int, y: int, seed, runs: int, coupling: str = "X",
                         max_ticks: int = DEFAULT_TICK_BUDGET) -> np.ndarray:
    """Ticks until two tokens started at x and y meet, for each of ``runs`` runs.

    Per tick, with p = p_xy (0 unless adjacent), the tokens meet with
    probability m, x moves with probability r_x - p, to v != y with p_xv,
    y moves with probability r_y - p, to w != x with p_yw, and both stay
    otherwise. Coupling "X" is the exchange process itself, m = p: the
    tokens meet when the edge joining them fires. "Xprime" doubles the
    crossing mass, taking it from the both-stay event and capped by it:
    m = min(1, r_x + r_y) - r_x - r_y + 2p.
    """
    if coupling not in ("X", "Xprime"):
        raise ValueError(f"unknown coupling {coupling!r}")
    _check_runs(g, (x, y), runs, max_ticks)
    if x == y:
        return np.zeros(runs, dtype=np.int64)
    rng = np.random.default_rng(seed)
    moves = _Moves(g)
    n = g.n
    prime = coupling == "Xprime"

    def step(xs, ys):
        query = xs * n + ys
        k = np.minimum(np.searchsorted(moves.key, query), moves.key.size - 1)
        adjacent = moves.key[k] == query
        p_join = np.where(adjacent, moves.p[k], 0.0)
        rx, ry = moves.rate[xs], moves.rate[ys]
        mx, my = rx - p_join, ry - p_join
        rate = np.minimum(1.0, rx + ry if prime else rx + ry - p_join)
        meet = rate - mx - my
        elapsed = rng.geometric(rate)
        r = rng.random(xs.size) * rate
        # [0, meet) meets, [meet, meet + mx) moves x, the rest moves y; a
        # mover needs a move left, and non-adjacent tokens never meet
        move_y = (r >= meet + mx) & (my > 0)
        move_x = ~move_y & ((r >= meet) | ~adjacent) & (mx > 0)
        skip = np.where(move_y, moves.rev[k], k)
        new = moves.pick(np.where(move_y, ys, xs), rng.random(xs.size), skip, p_join)
        xs = np.where(move_x, new, xs)
        ys = np.where(move_y, new, ys)
        return (xs, ys), elapsed, ~(move_x | move_y)

    return _lockstep(runs, (np.full(runs, x), np.full(runs, y)), step, max_ticks, "meeting")


def sample_meet_all(g: Graph, start: int, others: Iterable[int], seed, runs: int,
                    max_ticks: int = DEFAULT_TICK_BUDGET) -> np.ndarray:
    """Ticks until the token started at ``start`` has met every other token, per run.

    Each tick activates one edge and the occupants of its endpoints swap;
    the designated token meets another when they cross an activated edge.
    """
    others = list(others)
    _check_runs(g, (start, *others), runs, max_ticks)
    if len(set(others) | {start}) != len(others) + 1:
        raise ValueError("tokens must start on distinct nodes")
    if not others:
        return np.zeros(runs, dtype=np.int64)
    rng = np.random.default_rng(seed)
    moves = _Moves(g)
    n = g.n
    # occupant[run, node]: 0 for none, 1 for the designated token, 2.. for
    # the others; unmet[run, token] stays False for tokens 0 and 1
    occupant = np.zeros((runs, n), dtype=np.int64)
    occupant[:, start] = 1
    occupant[:, others] = np.arange(2, len(others) + 2)
    unmet = np.tile(np.arange(len(others) + 2) >= 2, (runs, 1))

    def step(occupant, unmet, left):
        rows = np.arange(left.size)
        r = rng.random(2 * left.size)
        u = (r[0::2] * n).astype(np.int64)
        v = moves.nbr[moves.off[u] + (r[1::2] * moves.deg[u]).astype(np.int64)]
        tu, tv = occupant[rows, u], occupant[rows, v]
        occupant[rows, u], occupant[rows, v] = tv, tu
        met = np.where(tu == 1, tv, np.where(tv == 1, tu, 0))
        left = left - unmet[rows, met]
        unmet[rows, met] = False
        return (occupant, unmet, left), 1, left == 0

    return _lockstep(runs, (occupant, unmet, np.full(runs, len(others))), step, max_ticks,
                     "meet-all")


def simulate_hitting(g: Graph, x: int, y: int, rng, max_ticks: int = DEFAULT_TICK_BUDGET) -> int:
    """One run of sample_hitting on the generator ``rng``."""
    return int(sample_hitting(g, x, y, rng, 1, max_ticks)[0])


def simulate_pair_meeting(g: Graph, x: int, y: int, rng, coupling: str = "X",
                          max_ticks: int = DEFAULT_TICK_BUDGET) -> int:
    """One run of sample_pair_meetings on the generator ``rng``."""
    return int(sample_pair_meetings(g, x, y, rng, 1, coupling, max_ticks)[0])


def simulate_meet_all(g: Graph, start: int, others: Iterable[int], rng,
                      max_ticks: int = DEFAULT_TICK_BUDGET) -> int:
    """One run of sample_meet_all on the generator ``rng``."""
    return int(sample_meet_all(g, start, others, rng, 1, max_ticks)[0])


def write_matrix_rows(fh, matrix: np.ndarray) -> None:
    """Write a square node-by-node table with node ids as header row and column."""
    write_rows(fh, ["node", *range(matrix.shape[0])],
               ([i, *row] for i, row in enumerate(matrix.tolist())))


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        write_matrix_rows(fh, matrix)
