"""The invariants of the walk analysis and the two protocols, one function each.

``qconsensus check`` (through ``run_all_checks``) and the acceptance gate in
``tests/test_acceptance.py`` call the same functions; each caller passes its
own graphs, Monte Carlo runs or ticks, and seeds. Exact identities are held
to the module tolerances, Monte Carlo estimates to 3-sigma bands, and long
protocol runs are re-verified tick by tick against independently tracked
quantities.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import count

import numpy as np

from . import consensus as cons
from . import walks
from .graphs import (Graph, build_graph, er_probability, path_degree_sums_from,
                     require_neighbors, tick_edges, TopologySpec)
from .harness import (default_max_ticks, init_majority_one, init_q_setting2,
                      lollipop_clique_size, seed_sequence)

COMMUTE_REL_TOL = 1e-6
CYCLE_REL_TOL = 1e-6
CLOSED_FORM_REL_TOL = 1e-6
UNIFORM_TOL = 1e-10
MC_SIGMAS = 3  # Monte Carlo means must lie within this many standard errors
_TICK_CHUNK = 4096  # ticks a conservation check draws per tick_edges call

# Hand-enumerated oracle for the four pairwise voting rules:
#   1. equal opinions stay put;
#   2. a strong opinion flips an opposing weak one and moves across;
#   3. a strong opinion swaps with an agreeing weak one;
#   4. exact opposites both turn weak, exchanging signs.
BINARY_UPDATE_TABLE = {
    (2, 2): (2, 2), (1, 1): (1, 1), (-1, -1): (-1, -1), (-2, -2): (-2, -2),
    (2, -2): (-1, 1), (-2, 2): (1, -1), (1, -1): (-1, 1), (-1, 1): (1, -1),
    (2, 1): (1, 2), (1, 2): (2, 1), (-2, -1): (-1, -2), (-1, -2): (-2, -1),
    (2, -1): (1, 2), (-1, 2): (2, 1), (-2, 1): (-1, -2), (1, -2): (-2, -1),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def named_graph(kind: str, n: int, seed: int = 0) -> tuple[str, Graph]:
    """star(n) or line(n), or er(n) with p = er_probability(n) and graph seed ``seed``."""
    if kind == "erdos_renyi":
        return f"er({n})", build_graph(TopologySpec(kind, n, p=er_probability(n), seed=seed))
    return f"{kind}({n})", build_graph(TopologySpec(kind, n))


def extremal_lollipop(n: int) -> tuple[str, Graph]:
    """The lollipop with the extremal clique size floor((2n+1)/3), named."""
    m = lollipop_clique_size(n)
    return f"lollipop({n},{m})", build_graph(TopologySpec("lollipop", n, m=m))


def small_graph_suite(max_n: int = 12, seed: int = 20260808) -> list[tuple[str, Graph]]:
    """star, line, lollipop and one ER instance per size up to max_n."""
    suite = []
    for n in range(3, max_n + 1):
        suite += [named_graph("star", n), named_graph("line", n)]
        if lollipop_clique_size(n) >= 3:
            suite.append(extremal_lollipop(n))
        suite.append(named_graph("erdos_renyi", n, seed=seed + n))
    return suite


def check_row_stochastic(suite) -> CheckResult:
    worst = 0.0
    for name, g in suite:
        for kind in walks.WALK_KINDS:
            m = walks.transition_matrix(g, kind)
            worst = max(worst, float(np.max(np.abs(m.p.sum(axis=1) - 1.0))))
    ok = worst <= walks.ROW_SUM_TOL
    return CheckResult("row_stochastic", ok, f"max row-sum deviation {worst:.3e}")


def check_biased_symmetry(suite) -> CheckResult:
    worst = 0.0
    for name, g in suite:
        p = walks.transition_matrix(g, "biased").p
        worst = max(worst, float(np.max(np.abs(p - p.T))))
    return CheckResult("biased_symmetry", worst == 0.0, f"max asymmetry {worst:.3e}")


def check_detailed_balance(suite) -> CheckResult:
    worst = 0.0
    for name, g in suite:
        m = walks.transition_matrix(g, "biased")
        pi = walks.stationary_distribution(m)
        worst = max(worst, float(np.max(np.abs(pi - 1.0 / g.n))))
    ok = worst < UNIFORM_TOL
    return CheckResult("uniform_stationary", ok, f"max deviation from 1/n: {worst:.3e}")


def check_commute_identity(suite) -> CheckResult:
    worst = 0.0
    for name, g in suite:
        m = walks.transition_matrix(g, "biased")
        table = walks.hitting_table(m)
        r = walks.resistance_matrix(m)
        for x in range(g.n):
            for y in range(x + 1, g.n):
                commute = table.h[x, y] + table.h[y, x]
                rel = abs(commute - g.n * r[x, y]) / max(1.0, commute)
                worst = max(worst, rel)
    ok = worst < COMMUTE_REL_TOL
    return CheckResult("commute_identity", ok, f"max relative gap {worst:.3e}")


def check_cycle_identity(suite) -> CheckResult:
    """H(x,y)+H(y,z)+H(z,x) = H(x,z)+H(z,y)+H(y,x), the cycle identity of reversible
    walks, over all ordered triples, relative to the largest hitting time; O(n^3) per graph."""
    worst = 0.0
    for name, g in suite:
        table = walks.hitting_table(walks.transition_matrix(g, "biased"))
        h = table.h
        x, y, z = np.ix_(*[range(g.n)] * 3)
        gap = np.abs(h[x, y] + h[y, z] + h[z, x] - (h[x, z] + h[z, y] + h[y, x]))
        worst = max(worst, float(gap.max()) / max(1.0, table.max_hitting()))
    ok = worst < CYCLE_REL_TOL
    return CheckResult("cycle_identity", ok, f"max relative gap {worst:.3e}")


def check_closed_forms(sizes) -> CheckResult:
    worst = 0.0
    for n in sizes:
        star = build_graph(TopologySpec("star", n))
        h = walks.hitting_times(walks.transition_matrix(star, "biased"), 2)
        worst = max(worst, abs(h[1] - n * (n - 1)) / (n * (n - 1)))
        line = build_graph(TopologySpec("line", n))
        h = walks.hitting_times(walks.transition_matrix(line, "biased"), n - 1)
        expected = 0.5 * n * (n * n - 5.0 * n / 3.0)
        worst = max(worst, abs(h[0] - expected) / expected)
    ok = worst < CLOSED_FORM_REL_TOL
    return CheckResult("closed_forms", ok, f"max relative error {worst:.3e}")


def check_hitting_bound(graphs) -> CheckResult:
    """H < 3n^3, exact <= path-refined <= general bound, and path degree sums < 3n."""
    violations = []
    for name, g in graphs:
        table = walks.hitting_table(walks.transition_matrix(g, "biased"))
        bound = 3.0 * g.n**3
        if table.max_hitting() >= bound:
            violations.append(f"{name}: H={table.max_hitting():.1f} >= {bound:.1f}")
        for x in range(g.n):
            bounds = walks.hitting_bounds_from(g, x)
            for y in range(g.n):
                if x == y:
                    continue
                general, refined = bounds[y]
                if not (table.h[x, y] <= refined <= general):
                    violations.append(f"{name}: bound ordering broken at ({x},{y})")
                    break
        for x in range(g.n):
            sums = path_degree_sums_from(g, x)
            y = next((y for y, total in enumerate(sums) if total >= 3 * g.n), None)
            if y is not None:
                violations.append(f"{name}: path degree sum >= 3n at ({x},{y})")
    ok = not violations
    return CheckResult("hitting_bound", ok, violations[0] if violations else
                       f"H < 3n^3 on {len(graphs)} graphs, all pairs")


def check_mc_hitting(cases, runs: int, seed: int) -> CheckResult:
    """Monte Carlo hitting means against the exact solve, per (name, graph, x, y) case."""
    details = []
    ok = True
    for name, g, x, y in cases:
        exact = float(walks.hitting_times(walks.transition_matrix(g, "biased"), y)[x])
        sample = walks.sample_hitting(g, x, y, seed, runs)
        se = float(sample.std(ddof=1)) / math.sqrt(runs)
        gap = abs(float(sample.mean()) - exact)
        ok = ok and gap <= MC_SIGMAS * se
        details.append(f"{name}: |{sample.mean():.3f}-{exact:.3f}|={gap:.3f} "
                       f"vs {MC_SIGMAS}se={MC_SIGMAS * se:.3f}")
    return CheckResult("mc_hitting_vs_exact", ok, "; ".join(details))


def check_meeting_bounds(cases, coupled, runs: int, seed: int) -> CheckResult:
    """Mean meeting time below 4 H_max per (name, graph, x, y) case; X <= 2 X' on ``coupled``."""
    details = []
    ok = True
    for name, g, x, y in cases:
        hmax = walks.hitting_table(walks.transition_matrix(g, "biased")).max_hitting()
        sample = walks.sample_pair_meetings(g, x, y, seed, runs)
        mean = float(sample.mean())
        se = float(sample.std(ddof=1)) / math.sqrt(runs)
        upper = mean + MC_SIGMAS * se
        ok = ok and upper <= 4 * hmax
        details.append(f"{name}: mean+{MC_SIGMAS}se={upper:.1f} vs 4H={4 * hmax:.1f}")
    name, g, x, y = coupled
    sx = walks.sample_pair_meetings(g, x, y, seed + 1, runs)
    sp = walks.sample_pair_meetings(g, x, y, seed + 2, runs, "Xprime")
    slack = MC_SIGMAS * math.sqrt(sx.var(ddof=1) / runs + 4 * sp.var(ddof=1) / runs)
    ok = ok and float(sx.mean()) <= 2 * float(sp.mean()) + slack
    details.append(f"{name}: X={sx.mean():.1f} vs 2*Xprime={2 * sp.mean():.1f} (+{slack:.1f})")
    return CheckResult("meeting_bounds", ok, "; ".join(details))


def _ticks(g: Graph, rng, ticks: int):
    """(tick, u, v) for ticks 1..``ticks``, drawn by ``tick_edges`` _TICK_CHUNK at a time."""
    require_neighbors(g)
    for done in range(0, ticks, _TICK_CHUNK):
        u, v = tick_edges(g, rng, min(_TICK_CHUNK, ticks - done))
        yield from zip(count(done + 1), u.tolist(), v.tolist())


def check_binary_conservation(graph, ticks: int, seed: int) -> CheckResult:
    """Binary voting from a majority-one start: every update matches the hand table,
    and the strong surplus and count, tracked tick by tick, hold (surplus constant,
    count down by 0 or 2) and agree with the opinions at the end."""
    name, g = graph
    n = g.n
    rng = np.random.default_rng(seed)
    state = init_majority_one(n, rng)
    opinions = state.opinions
    strong_sign = {2: 1, -2: -1, 1: 0, -1: 0}
    surplus = tracked = sum(map(strong_sign.get, opinions))
    strong = sum(abs(o) == 2 for o in opinions)

    def fail(what: str) -> CheckResult:
        return CheckResult("binary_conservation", False, f"{what} on {name}")

    for tick, u, v in _ticks(g, rng, ticks):
        a, b = opinions[u], opinions[v]
        cons.apply_binary_edge(state, u, v)
        na, nb = opinions[u], opinions[v]
        if (na, nb) != BINARY_UPDATE_TABLE[a, b]:
            return fail(f"update table broken at tick {tick}")
        tracked += strong_sign[na] + strong_sign[nb] - strong_sign[a] - strong_sign[b]
        if tracked != surplus:
            return fail(f"signed strong surplus changed at tick {tick}")
        drop = (abs(a) == 2) + (abs(b) == 2) - (abs(na) == 2) - (abs(nb) == 2)
        if drop not in (0, 2):
            return fail(f"strong count did not step down by 2 at tick {tick}")
        strong -= drop
    if (state.s_plus - state.s_minus, state.s_plus + state.s_minus) != (tracked, strong):
        return fail("tracked strong surplus or count disagrees with the opinions")
    return CheckResult("binary_conservation", True,
                       f"surplus constant over {ticks} ticks on {name}")


def check_quantized_conservation(graph, ticks: int, seed: int) -> CheckResult:
    """Quantized averaging from uniform [1, 100] values: every exchange conserves
    the pair sum and drops the Lyapunov value by >= 2 (non-trivial) or 0; the value
    counts and min/max, tracked here, never widen and agree with the values at the end."""
    name, g = graph
    n = g.n
    rng = np.random.default_rng(seed)
    state = init_q_setting2(n, rng)
    values = state.values
    total = sum(values)
    counts = Counter(values)
    vmin, vmax = min(values), max(values)
    drops = 0

    def fail(what: str) -> CheckResult:
        return CheckResult("quantized_conservation", False, f"{what} on {name}")

    for tick, u, v in _ticks(g, rng, ticks):
        a, b = values[u], values[v]
        cons.apply_quantized_edge(state, u, v)
        na, nb = values[u], values[v]
        if na + nb != a + b:
            return fail(f"value sum changed at tick {tick}")
        # n^2-scaled per-tick Lyapunov drop, exact in integer arithmetic.
        delta = ((n * a - total) ** 2 + (n * b - total) ** 2
                 - (n * na - total) ** 2 - (n * nb - total) ** 2)
        if abs(a - b) < 2:
            if delta != 0:
                return fail(f"trivial exchange changed the Lyapunov value at tick {tick}")
            continue
        drops += 1
        if delta < 2 * n * n:
            return fail(f"non-trivial exchange dropped Lyapunov by < 2 at tick {tick}")
        counts.subtract((a, b))
        counts.update((na, nb))
        counts = +counts
        if min(counts) < vmin or max(counts) > vmax:
            return fail(f"max-min increased at tick {tick}")
        vmin, vmax = min(counts), max(counts)
    if counts != Counter(values) or (min(values), max(values)) != (vmin, vmax):
        return fail("tracked counts or extrema disagree with the values")
    return CheckResult("quantized_conservation", True,
                       f"sum/Lyapunov/spread invariants held over {ticks} ticks "
                       f"({drops} non-trivial exchanges) on {name}")


def _check_outcomes(check: str, protocol: str, init, wrong_end, graphs, runs: int,
                    seed: int, ok_detail: str) -> CheckResult:
    """Runs from ``init(n, rng)`` to convergence, run ri on graph gi on stream (seed, gi, ri);
    ``wrong_end(start, end)`` says what is wrong with a final state, or None."""
    for gi, (name, g) in enumerate(graphs):
        for ri in range(runs):
            rng = np.random.default_rng(seed_sequence(seed, gi, ri))
            state = init(g.n, rng)
            start = state.copy()
            result = cons.run_to_convergence(protocol, g, state, rng, default_max_ticks(g.n))
            wrong = wrong_end(start, state) if result.converged else "timed out"
            if wrong:
                return CheckResult(check, False, f"{name} run {ri} {wrong}")
    names = ", ".join(name for name, _ in graphs)
    return CheckResult(check, True, f"{runs} runs each on {names}: {ok_detail}")


def check_majority_outcome(graphs, runs: int, seed: int) -> CheckResult:
    """Binary runs from majority-one starts must end on the initial majority sign."""
    def wrong_end(start, end):
        if (end.positive == end.n) != (start.s_plus > start.s_minus):
            return "converged to the minority sign"
    return _check_outcomes("binary_majority_outcome", "binary", init_majority_one, wrong_end,
                           graphs, runs, seed, "all majority")


def check_quantized_final_state(graphs, runs: int, seed: int) -> CheckResult:
    """Quantized runs must end with every value in {q, q+1} and r copies of q+1."""
    def wrong_end(start, end):
        q = end.q
        if any(v not in (q, q + 1) for v in end.values):
            return "has a value outside {q, q+1}"
        if end.values.count(q + 1) != end.r:
            return "has wrong multiplicity of q+1"
    return _check_outcomes("quantized_final_state", "quantized", init_q_setting2, wrong_end,
                           graphs, runs, seed, "all in {q,q+1} with r copies of q+1")


def check_update_table() -> CheckResult:
    bad = [
        pair for pair, expected in BINARY_UPDATE_TABLE.items()
        if cons.binary_update(*pair) != expected
    ]
    ok = not bad
    return CheckResult("binary_update_table", ok,
                       f"mismatch at {bad}" if bad else "all 16 opinion pairs match")


def run_all_checks(quick: bool = False, seed: int = 2026) -> list[CheckResult]:
    """Every check at the ``check`` subcommand's budgets (smoke budgets when ``quick``)."""
    mc_runs, meet_runs, ticks, outcome_runs = (
        (2000, 1000, 10_000, 30) if quick else (100_000, 10_000, 1_000_000, 1000)
    )
    suite = small_graph_suite()
    line9 = (*named_graph("line", 9), 0, 8)
    outcome_graphs = [named_graph("star", 7), named_graph("line", 7),
                      named_graph("erdos_renyi", 21, seed=21)]
    return [
        check_row_stochastic(suite),
        check_biased_symmetry(suite),
        check_detailed_balance(suite),
        check_commute_identity(suite),
        check_cycle_identity([(name, g) for name, g in suite if g.n <= 10]),
        check_closed_forms((3, 5, 9, 17)),
        check_hitting_bound(suite + [extremal_lollipop(n) for n in range(5, 31)]),
        check_update_table(),
        check_mc_hitting([(*named_graph("star", 5), 1, 2), (*named_graph("line", 5), 0, 4)],
                         mc_runs, seed + 1),
        check_meeting_bounds([(*named_graph("star", 11), 1, 2), line9], line9, meet_runs, seed + 2),
        check_binary_conservation(named_graph("erdos_renyi", 51, seed=51), ticks, seed + 3),
        check_quantized_conservation(named_graph("erdos_renyi", 100, seed=100), ticks, seed + 4),
        check_majority_outcome(outcome_graphs, outcome_runs, seed + 5),
        check_quantized_final_state(outcome_graphs, outcome_runs, seed + 6),
    ]
