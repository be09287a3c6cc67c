"""Random-walk analysis on connected graphs.

Three walk laws are supported, all driven by the same asynchronous clock,
the tick law of ``graphs.tick_edges``:

* simple:  P[i][j] = 1/deg(i) on edges, zero diagonal.
* natural: P[i][j] = 1/(n deg(i)) on edges, diagonal 1 - 1/n.
* biased:  P[i][j] = (1/n)(1/deg(i) + 1/deg(j)) on edges. This is the law
  a value-token obeys under pairwise exchange: it moves whenever an edge
  incident to it is activated, from either endpoint's clock.

The biased matrix is also the electric network: its off-diagonal entries
are the edge weights w_ij, read as conductances, and each row is filled to
1 by a self-weight, so node weights are 1 and the total weight is n. That
ties hitting times to effective resistance: commute(x, y) = n * r'(x, y).
edge_weights(g) is that matrix, and the electric functions take it and
reject the other kinds.

Exact tables cost O(n^3) each: all-pairs hitting times come from one
fundamental matrix and all-pairs resistances from one Laplacian
pseudo-inverse. The per-target solves, hitting_times and
effective_resistance, are independent O(n^3)-per-call oracles for them. The
sample_* functions estimate the same quantities (and the two-token
meeting times) by Monte Carlo under the tick-level dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .graphs import (Graph, check_nodes, csr, reachable_tree, require_neighbors,
                     require_tick_budget, tick_edges, tree_path_sums)

WALK_KINDS = ("simple", "natural", "biased")

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
HITTING_TOL = 1e-9
RESISTANCE_TOL = 1e-9
HIDDEN_TOL = 1e-9

DEFAULT_TICK_BUDGET = 10**9


class SolverError(RuntimeError):
    """An exact linear solve failed or left too large a residual."""


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


def transition_matrix(g: Graph, kind: str) -> WalkMatrix:
    """The walk matrix of one kind, built from the CSR move tables."""
    n = g.n
    if n < 2:
        raise ValueError("walk matrices require at least 2 nodes")
    moves = _Moves(g)
    p = np.zeros((n, n))
    if kind == "biased":
        # p_uv and p_vu add the same two terms, so the matrix is exactly
        # symmetric and its stationary law is uniform.
        p.flat[moves.key] = moves.p
        # exact value is >= 0; clamp float-summation roundup
        np.fill_diagonal(p, np.maximum(0.0, 1.0 - p.sum(axis=1)))
    else:
        deg = np.repeat(moves.deg, moves.deg)  # the degree of each entry's row
        p.flat[moves.key] = 1.0 / (deg if kind == "simple" else n * deg)
        if kind == "natural":
            np.fill_diagonal(p, 1.0 - 1.0 / n)
    return WalkMatrix(kind, p)


def edge_weights(g: Graph) -> WalkMatrix:
    """The biased walk matrix, read as the electric network's weights.

    Off the diagonal, w_ij = (1/n)(1/deg(i) + 1/deg(j)) on edges and 0
    elsewhere: the conductance of edge ij. The diagonal holds the
    self-weights that fill each row to 1; they carry no current.
    """
    return transition_matrix(g, "biased")


def _require_irreducible(m: WalkMatrix) -> None:
    """Raise SolverError unless every node reaches every other along P > 0.

    On a reducible walk the solves can return garbage with small residuals
    (1.8e16 hitting times, negative pi entries on a triangle plus a star).
    """
    support = m.p > 0
    # On a symmetric support (every walk of a Graph) the reverse search finds nothing new.
    for s in (support,) if np.array_equal(support, support.T) else (support, support.T):
        seen = np.zeros(len(s), dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = s[frontier].any(axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            raise SolverError("walk matrix is reducible (disconnected graph?)")


def _solve(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """``np.linalg.solve(a, b)``; SolverError naming ``what`` when ``a`` is singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{what} is singular (disconnected graph?): {exc}") from exc


def stationary_distribution(m: WalkMatrix) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 by a direct dense solve; SolverError if reducible."""
    _require_irreducible(m)
    n = m.n
    a = m.p.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = _solve(a, b, "stationary system")
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
    check_nodes(n, target)
    _require_irreducible(m)
    idx = [i for i in range(n) if i != target]
    sub = m.p[np.ix_(idx, idx)]
    a = np.eye(n - 1) - sub
    h_sub = _solve(a, np.ones(n - 1), "hitting-time system")
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
    z = _solve(a, np.eye(n), "fundamental matrix")
    h = (np.diag(z) - z) / pi
    np.fill_diagonal(h, 0.0)
    residual = np.abs(h - m.p @ h - 1.0)
    np.fill_diagonal(residual, 0.0)
    scale = np.maximum(1.0, np.max(np.abs(h), axis=0))
    worst = float(np.max(residual.max(axis=0) / scale))
    if not worst <= HITTING_TOL:
        raise SolverError(f"hitting-table residual {worst:.3e} exceeds tolerance")
    return HittingTable(m.kind, h)


def _laplacian(m: WalkMatrix) -> np.ndarray:
    """Laplacian of the network with conductance P[i][j] per edge of a biased walk.

    Self-weights carry no current and are excluded. Only the biased walk is
    an electric network with node weights 1, so other kinds raise ValueError.
    """
    if m.kind != "biased":
        raise ValueError(f"the electric network is the biased walk's, not the {m.kind} walk's")
    cond = m.p - np.diag(np.diag(m.p))
    return np.diag(cond.sum(axis=1)) - cond


def effective_resistance(m: WalkMatrix, x: int, y: int) -> float:
    """Two-terminal resistance r'(x, y) of the biased walk's network.

    The Laplacian system is solved with the sink ``y`` grounded, for a unit
    current injection at ``x``. A reducible walk raises SolverError.
    """
    n = m.n
    check_nodes(n, x, y)
    _require_irreducible(m)
    lap = _laplacian(m)
    if x == y:
        return 0.0
    keep = [i for i in range(n) if i != y]
    b = np.zeros(n)
    b[x] = 1.0
    v_sub = _solve(lap[np.ix_(keep, keep)], b[keep], "grounded Laplacian")
    residual = float(np.max(np.abs(lap[np.ix_(keep, keep)] @ v_sub - b[keep])))
    if residual > RESISTANCE_TOL:
        raise SolverError(f"Laplacian residual {residual:.3e} exceeds tolerance")
    return float(v_sub[keep.index(x)])


def resistance_matrix(m: WalkMatrix) -> np.ndarray:
    """All-pairs resistances of the biased walk's network, O(n^3).

    R = diag(L+) 1^T + 1 diag(L+)^T - 2 L+ (Klein & Randic, "Resistance
    distance", 1993) from one pseudo-inverse L+ = (L + J/n)^-1 - J/n, with L
    the Laplacian of the conductances and J the all-ones matrix.
    effective_resistance is the two-terminal oracle. The residual of
    L L+ = I - J/n is checked. A reducible walk raises SolverError.
    """
    n = m.n
    lap = _laplacian(m)
    mean = np.full((n, n), 1.0 / n)
    # A reducible walk always fails here: L + J/n is singular, and a unit y
    # orthogonal to 1 and constant on each component has y L = 0, so
    # y (L X - I + J/n) = -y for every X, and some residual entry is at least
    # 1/n. Only then is the walk checked, to name the cause: the check costs
    # about as much as the solve on lollipop(80).
    try:
        lplus = _solve(lap + mean, np.eye(n), "L + J/n") - mean
        residual = float(np.max(np.abs(lap @ lplus - (np.eye(n) - mean))))
        if not residual <= RESISTANCE_TOL:
            raise SolverError(f"Laplacian pseudo-inverse residual {residual:.3e} exceeds tolerance")
    except SolverError:
        _require_irreducible(m)
        raise
    lplus = 0.5 * (lplus + lplus.T)  # symmetric in exact arithmetic; keep R[x][y] == R[y][x]
    d = np.diag(lplus)
    r = d[:, None] + d[None, :] - 2.0 * lplus
    np.fill_diagonal(r, 0.0)
    return r


class HittingBound(NamedTuple):
    general: float
    path_refined: float


def general_hitting_bound(n: int) -> float:
    """3 n^3, above the biased-walk hitting time between any two nodes of a connected
    graph on n nodes: the lemma the O(N^3 log N) convergence bound runs through."""
    return 3.0 * n**3


def hitting_bounds_from(g: Graph, x: int) -> list[HittingBound]:
    """Upper bounds on the biased-walk hitting time H(x, y) for every node y.

    general: ``general_hitting_bound(n)``, valid on every connected graph.
    path_refined: n * sum over shortest-path edges of n * min(deg_i, deg_j),
    i.e. total weight times the resistance bound obtained by chaining the
    per-edge bound r_ij < n * min(deg_i, deg_j) along the path to y in one
    breadth-first tree from x.
    """
    n = g.n
    r_bound = tree_path_sums(g, x, lambda u, v: n * min(g.degree(u), g.degree(v)))
    general = general_hitting_bound(n)
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


# ---------------------------------------------------------------------------
# Monte Carlo simulation of tokens under the tick-level exchange dynamics.
#
# One tick activates an edge drawn by graphs.tick_edges, so edge {u, v}
# fires with probability p_uv = w_uv per tick and the values at its
# endpoints swap. A tracked token at u moves on a tick with probability
# r_u = sum_v p_uv, so the idle ticks before its next move are one
# geometric draw; meet-all runs move every token, one edge per tick.
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
        require_neighbors(g)
        self.deg, self.off, self.nbr = csr(g)
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
    require_tick_budget(max_ticks)
    # a token that cannot reach the others would run out the budget
    reachable_tree(g, nodes[0], nodes[1:])


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
    require_neighbors(g)
    rng = np.random.default_rng(seed)
    # occupant[run, node]: 0 for none, 1 for the designated token, 2.. for
    # the others; unmet[run, token] stays False for tokens 0 and 1
    occupant = np.zeros((runs, g.n), dtype=np.int64)
    occupant[:, start] = 1
    occupant[:, others] = np.arange(2, len(others) + 2)
    unmet = np.tile(np.arange(len(others) + 2) >= 2, (runs, 1))

    def step(occupant, unmet, left):
        rows = np.arange(left.size)
        u, v = tick_edges(g, rng, left.size)
        tu, tv = occupant[rows, u], occupant[rows, v]
        occupant[rows, u], occupant[rows, v] = tv, tu
        met = np.where(tu == 1, tv, np.where(tv == 1, tu, 0))
        left = left - unmet[rows, met]
        unmet[rows, met] = False
        return (occupant, unmet, left), 1, left == 0

    return _lockstep(runs, (occupant, unmet, np.full(runs, len(others))), step, max_ticks,
                     "meet-all")
