"""Acceptance suite: every release criterion at its stated tolerance.

Criteria 1-7 and the hitting half of criterion 10 call the invariant checks
of ``qconsensus.checks``, the functions behind ``qconsensus check``, with
the contractual graphs, seeds, Monte Carlo budgets and time limits below;
the tolerances are the module constants of ``checks``. Each test prints one
`ACCEPTANCE <k>: PASS/FAIL - detail` line (run pytest with -s to see them
live). Expect the whole module to take about a minute.
"""

import math
import time

from qconsensus.checks import (
    CheckResult,
    check_binary_conservation,
    check_closed_forms,
    check_commute_identity,
    check_cycle_identity,
    check_detailed_balance,
    check_hitting_bound,
    check_majority_outcome,
    check_mc_hitting,
    check_meeting_bounds,
    check_quantized_conservation,
    check_quantized_final_state,
    extremal_lollipop,
    named_graph,
    small_graph_suite,
)
from qconsensus.graphs import TopologySpec, build_graph
from qconsensus.harness import (
    SweepConfig,
    default_n_values,
    fit_scaling,
    iter_sweep,
)
from qconsensus.walks import sample_meet_all, sample_pair_meetings


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def accept(num: int, results, t0: float, time_limit: float = math.inf) -> None:
    """Report and assert a criterion: every check passed within ``time_limit`` s of ``t0``."""
    elapsed = time.perf_counter() - t0
    ok = all(res.ok for res in results)
    detail = "; ".join(f"{res.name}: {res.detail}" for res in results)
    report(num, ok and elapsed < time_limit, f"{detail} ({elapsed:.2f}s)")
    assert ok, detail
    assert elapsed < time_limit


def pair_suite():
    """Graphs for the exact-identity criteria."""
    return [
        named_graph("star", 9),
        named_graph("line", 9),
        ("lollipop(12,7)", build_graph(TopologySpec("lollipop", 12, m=7))),
        ("er(12)", build_graph(TopologySpec("erdos_renyi", 12, p=0.45, seed=2026))),
    ]


def test_criterion_1_closed_forms():
    t0 = time.perf_counter()
    accept(1, [check_closed_forms((3, 5, 9, 17, 33))], t0, 1.0)


def test_criterion_2_commute_identity():
    t0 = time.perf_counter()
    accept(2, [check_commute_identity(pair_suite())], t0, 5.0)


def test_criterion_3_general_hitting_bound():
    t0 = time.perf_counter()
    # star, line, extremal lollipop and er(n) with graph seed n, for n = 3..12
    graphs = small_graph_suite(12, seed=0) + [extremal_lollipop(n) for n in range(4, 31)]
    accept(3, [check_hitting_bound(graphs)], t0, 30.0)


def test_criterion_4_uniform_stationary_and_cycle_identity():
    t0 = time.perf_counter()
    suite = pair_suite()
    accept(4, [check_detailed_balance(suite), check_cycle_identity(suite)], t0)


def test_criterion_5_meeting_time_bound():
    t0 = time.perf_counter()
    line9 = (*named_graph("line", 9), 0, 8)
    cases = [(*named_graph("star", 11), 1, 2), line9]
    accept(5, [check_meeting_bounds(cases, line9, runs=10_000, seed=505)], t0, 60.0)


def test_criterion_6_protocol_invariants_under_load():
    t0 = time.perf_counter()
    ticks = 1_000_000
    er51, er100 = named_graph("erdos_renyi", 51, seed=51), named_graph("erdos_renyi", 100, seed=100)
    accept(6, [check_binary_conservation(er51, ticks, seed=606),
               check_quantized_conservation(er100, ticks, seed=607)], t0, 60.0)


def test_criterion_7_correct_outcomes():
    t0 = time.perf_counter()
    graphs = [named_graph("star", 7), named_graph("line", 7),
              named_graph("erdos_renyi", 21, seed=21)]
    accept(7, [check_majority_outcome(graphs, runs=1000, seed=707),
               check_quantized_final_state(graphs, runs=1000, seed=708)], t0)


def test_criterion_8_scaling_exponents():
    t0 = time.perf_counter()
    bands = {
        "star": (1.8, 2.4),
        "line": (2.6, 3.3),
        "lollipop": (2.6, 3.4),
        "erdos_renyi": (1.7, 2.5),
    }
    details = []
    ok = True
    for kind, (lo, hi) in bands.items():
        cfg = SweepConfig(kind=kind, n_values=default_n_values(kind),
                          protocol="binary", init="majority_one",
                          rounds=20, master_seed=7)
        fit = fit_scaling(list(iter_sweep(cfg)))
        inside = lo <= fit.exponent <= hi
        ok = ok and inside
        details.append(f"{kind}: a={fit.exponent:.2f} in [{lo},{hi}] {'ok' if inside else 'OUT'}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1800.0
    report(8, ok, "; ".join(details) + f" ({elapsed:.0f}s)")
    assert ok


def test_criterion_9_star_constant_band():
    n = 101
    cfg = SweepConfig(kind="star", n_values=(n,), protocol="binary",
                      init="majority_one", rounds=20, master_seed=9)
    rec = list(iter_sweep(cfg))[0]
    reference = 0.63 * n * n * math.log(n)
    ratio = rec.mean_ticks / reference
    ok = 0.5 <= ratio <= 2.0
    report(9, ok, f"star(101) binary mean {rec.mean_ticks:.0f} vs 0.63*n^2*ln(n)="
                  f"{reference:.0f}: ratio {ratio:.2f} in [0.5, 2]")
    assert ok


def test_criterion_10_oracle_cross_checks():
    t0 = time.perf_counter()
    cases = [(*named_graph("star", 5), 1, 2), (*named_graph("line", 5), 0, 4)]
    hitting = check_mc_hitting(cases, runs=100_000, seed=1010)

    pair_runs = 6000
    g = build_graph(TopologySpec("star", 9))
    pair = sample_pair_meetings(g, 1, 2, seed=1011, runs=pair_runs)
    merged = sample_meet_all(g, 1, [2], seed=1012, runs=pair_runs)
    gap = abs(float(pair.mean()) - float(merged.mean()))
    se = math.sqrt(pair.var(ddof=1) / pair_runs + merged.var(ddof=1) / pair_runs)
    meet_all = CheckResult("meet_all_vs_pair", gap <= 3 * se,
                           f"1 token vs pair on star(9): |diff|={gap:.2f} <= 3se={3 * se:.2f}")
    accept(10, [hitting, meet_all], t0)
