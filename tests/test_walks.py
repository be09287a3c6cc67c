import math

import numpy as np
import pytest
from hypothesis import given, settings

from qconsensus.checks import (
    MC_SIGMAS,
    check_commute_identity,
    check_cycle_identity,
    check_hitting_bound,
    extremal_lollipop,
)
from qconsensus.graphs import (
    Graph,
    TopologySpec,
    build_graph,
    complete_graph,
    line_graph,
    lollipop_graph,
    shortest_path,
    star_graph,
)
from qconsensus import walks
from qconsensus.harness import lollipop_clique_size
from qconsensus.walks import (
    ConsistencyError,
    ROW_SUM_TOL,
    SolverError,
    TickBudgetError,
    WalkMatrix,
    commute_time,
    edge_weights,
    effective_resistance,
    hidden_vertex,
    hitting_bound,
    hitting_bounds_from,
    hitting_table,
    hitting_times,
    potential,
    resistance_matrix,
    sample_hitting,
    sample_meet_all,
    sample_pair_meetings,
    simulate_hitting,
    simulate_meet_all,
    simulate_pair_meeting,
    stationary_distribution,
    transition_matrix,
    write_matrix_csv,
)

from conftest import connected_graphs


SMALL_GRAPHS = [
    star_graph(5),
    star_graph(9),
    line_graph(6),
    line_graph(9),
    complete_graph(5),
    lollipop_graph(10, 7),
    build_graph(TopologySpec("erdos_renyi", 10, p=0.5, seed=4)),
]


# ---------------------------------------------------------------- weights

def test_star_leaf_weight_is_one_over_n_minus_1():
    wg = edge_weights(star_graph(5))
    assert wg.edge_weight(1, 0) == pytest.approx(0.25)
    assert wg.edge_weight(1, 0) == pytest.approx(1 / (5 - 1))


def test_line_interior_weight_is_one_over_n():
    wg = edge_weights(line_graph(6))
    assert wg.edge_weight(2, 3) == pytest.approx(1 / 6)


def test_node_weights_are_one_and_total_is_n():
    for g in SMALL_GRAPHS:
        wg = edge_weights(g)
        for i in range(g.n):
            assert wg.w[i].sum() == pytest.approx(1.0, abs=1e-12)
            assert wg.w[i, i] >= 0.0
        assert wg.w.sum() == pytest.approx(g.n, abs=1e-9)


@given(connected_graphs(max_n=12))
@settings(max_examples=30, deadline=None)
def test_edge_weights_equal_a_per_edge_loop(g):
    n = g.n
    w = np.zeros((n, n))
    for i in range(n):
        for j in g.adjacency[i]:
            w[i, j] = (1.0 / g.degree(i) + 1.0 / g.degree(j)) / n
    for i in range(n):
        w[i, i] = max(0.0, 1.0 - w[i].sum())
    assert np.array_equal(edge_weights(g).w, w)


def test_star_hub_self_weight_is_zero():
    wg = edge_weights(star_graph(7))
    assert wg.w[0, 0] == pytest.approx(0.0, abs=1e-15)


# ------------------------------------------------------ transition matrices

def test_biased_star3_entries():
    p = transition_matrix(star_graph(3), "biased").p
    assert p[1, 0] == pytest.approx((1 / 3) * (1 + 1 / 2))  # = 1/2
    assert p[1, 1] == pytest.approx(0.5)
    assert p[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_natural_diagonal():
    for g in SMALL_GRAPHS:
        p = transition_matrix(g, "natural").p
        assert np.allclose(np.diag(p), 1 - 1 / g.n)


def test_simple_complete4():
    p = transition_matrix(complete_graph(4), "simple").p
    off = p[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 1 / 3)
    assert np.allclose(np.diag(p), 0.0)


def test_rows_sum_to_one_all_kinds():
    for g in SMALL_GRAPHS:
        for kind in ("simple", "natural", "biased"):
            p = transition_matrix(g, kind).p
            assert np.max(np.abs(p.sum(axis=1) - 1)) <= ROW_SUM_TOL


def test_biased_matrix_is_exactly_symmetric_and_matches_weights():
    for g in SMALL_GRAPHS:
        p = transition_matrix(g, "biased").p
        assert np.array_equal(p, p.T)
        w = edge_weights(g).w
        assert np.array_equal(p, w)


def test_walk_matrix_rejects_bad_rows():
    with pytest.raises(ValueError):
        WalkMatrix("simple", np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        WalkMatrix("warped", np.eye(2))


# ---------------------------------------------------------------- stationary

def test_biased_stationary_is_uniform():
    for g in SMALL_GRAPHS:
        pi = stationary_distribution(transition_matrix(g, "biased"))
        assert np.max(np.abs(pi - 1 / g.n)) < 1e-10


def test_simple_stationary_proportional_to_degree():
    # detailed-balance oracle: pi_i = deg(i) / (2 |E|)
    g = star_graph(5)
    pi = stationary_distribution(transition_matrix(g, "simple"))
    two_e = 2 * g.edge_count()
    expected = np.array([g.degree(i) / two_e for i in range(g.n)])
    assert np.allclose(pi, expected, atol=1e-12)
    assert pi[0] == pytest.approx(0.5)
    assert pi[1] == pytest.approx(1 / 8)


def test_complete3_simple_stationary_uniform():
    pi = stationary_distribution(transition_matrix(complete_graph(3), "simple"))
    assert np.allclose(pi, 1 / 3)


# ------------------------------------------------------------- hitting times

def test_star3_biased_leaf_to_leaf():
    h = hitting_times(transition_matrix(star_graph(3), "biased"), 2)
    assert h[1] == pytest.approx(6.0, rel=1e-12)
    assert h[2] == 0.0


def test_star_closed_form():
    for n in (3, 5, 9, 17):
        h = hitting_times(transition_matrix(star_graph(n), "biased"), 2)
        assert h[1] == pytest.approx(n * (n - 1), rel=1e-9)


def test_line_closed_form():
    for n in (3, 5, 9, 17):
        h = hitting_times(transition_matrix(line_graph(n), "biased"), n - 1)
        assert h[0] == pytest.approx(0.5 * n * (n * n - 5 * n / 3), rel=1e-9)


def test_line3_end_to_end_is_6():
    h = hitting_times(transition_matrix(line_graph(3), "biased"), 2)
    assert h[0] == pytest.approx(6.0, rel=1e-12)


def test_hitting_star7_matches_monte_carlo():
    # independent oracle: simulate the token under edge activations. Kept
    # apart from check_mc_hitting, whose MC_SIGMAS = 3 band would loosen
    # this test's 2-sigma band.
    g = star_graph(7)
    exact = hitting_times(transition_matrix(g, "biased"), 2)[1]
    assert exact == pytest.approx(42.0, rel=1e-9)
    sample = sample_hitting(g, 1, 2, seed=101, runs=100_000)
    se = sample.std(ddof=1) / math.sqrt(len(sample))
    assert abs(sample.mean() - 42.0) <= 2 * se


def test_hitting_singular_on_disconnected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    p = np.zeros((4, 4))
    for i in range(4):
        for j in g.adjacency[i]:
            p[i, j] = 1.0
    with pytest.raises(SolverError):
        hitting_times(WalkMatrix("simple", p), 0)


def _relabelled_lollipop(n: int, seed: int) -> Graph:
    _, g = extremal_lollipop(n)
    perm = np.random.default_rng(seed).permutation(n).tolist()
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])


def _assert_hitting_table_matches_per_target_solves(g):
    for kind in ("simple", "natural", "biased"):
        m = transition_matrix(g, kind)
        oracle = np.column_stack([hitting_times(m, y) for y in range(g.n)])
        np.testing.assert_allclose(hitting_table(m).h, oracle, rtol=1e-9, atol=0)


@given(connected_graphs(max_n=10))
@settings(max_examples=30, deadline=None)
def test_hitting_table_matches_per_target_solves(g):
    _assert_hitting_table_matches_per_target_solves(g)


def test_hitting_table_matches_per_target_solves_on_relabelled_lollipop():
    _assert_hitting_table_matches_per_target_solves(_relabelled_lollipop(40, 11))


@pytest.mark.parametrize("g", [
    Graph.from_edges(4, [(0, 1), (2, 3)]),
    Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (4, 6)]),
])
def test_exact_tables_reject_a_disconnected_graph(g):
    for kind in ("simple", "natural", "biased"):
        m = transition_matrix(g, kind)
        for solve in (hitting_table, stationary_distribution, lambda m: hitting_times(m, 0)):
            with pytest.raises(SolverError, match="reducible"):
                solve(m)
    with pytest.raises(SolverError):
        resistance_matrix(edge_weights(g))


def test_exact_tables_check_their_residuals(monkeypatch):
    # No residual is below a negative tolerance, so each check must fire.
    g = lollipop_graph(10, 7)
    monkeypatch.setattr(walks, "HITTING_TOL", -1.0)
    with pytest.raises(SolverError, match="hitting-table residual"):
        hitting_table(transition_matrix(g, "biased"))
    monkeypatch.setattr(walks, "RESISTANCE_TOL", -1.0)
    with pytest.raises(SolverError, match="pseudo-inverse residual"):
        resistance_matrix(edge_weights(g))


def test_hitting_table_on_extremal_lollipop_481():
    name, g = extremal_lollipop(481)
    m = transition_matrix(g, "biased")
    table = hitting_table(m)
    assert table.max_hitting() < 3 * g.n**3
    # a clique node, the junction and the tail end; errors are bounded
    # relative to the column's largest entry, as the residual check does
    for y in (0, lollipop_clique_size(g.n) - 1, g.n - 1):
        oracle = hitting_times(m, y)
        np.testing.assert_allclose(table.h[:, y], oracle, rtol=0, atol=1e-9 * oracle.max())


def test_commute_identity_between_tables_on_lollipop_200():
    _, g = extremal_lollipop(200)
    h = hitting_table(transition_matrix(g, "biased")).h
    r = resistance_matrix(edge_weights(g))
    commute = h + h.T
    assert np.max(np.abs(commute - g.n * r) / np.maximum(1.0, commute)) < 1e-6


# ------------------------------------------------------- effective resistance

def test_star_resistance_closed_form():
    for n in (3, 5, 9):
        wg = edge_weights(star_graph(n))
        assert effective_resistance(wg, 1, 2) == pytest.approx(2 * n - 2, rel=1e-9)


def test_line_resistance_closed_form():
    for n in (3, 5, 9):
        wg = edge_weights(line_graph(n))
        assert effective_resistance(wg, 0, n - 1) == pytest.approx(n * n - 5 * n / 3, rel=1e-9)


def test_resistance_same_node_is_zero():
    wg = edge_weights(star_graph(4))
    assert effective_resistance(wg, 2, 2) == 0.0


def test_resistance_matrix_symmetric():
    wg = edge_weights(lollipop_graph(8, 5))
    r = resistance_matrix(wg)
    assert np.allclose(r, r.T)
    assert np.allclose(np.diag(r), 0.0)


def _assert_resistance_matrix_matches_pairwise_solves(g):
    wg = edge_weights(g)
    oracle = np.array([[effective_resistance(wg, x, y) for y in range(g.n)] for x in range(g.n)])
    np.testing.assert_allclose(resistance_matrix(wg), oracle, rtol=1e-9, atol=0)


@given(connected_graphs(max_n=10))
@settings(max_examples=30, deadline=None)
def test_resistance_matrix_matches_pairwise_solves(g):
    _assert_resistance_matrix_matches_pairwise_solves(g)


def test_resistance_matrix_matches_pairwise_solves_on_relabelled_lollipop():
    _assert_resistance_matrix_matches_pairwise_solves(_relabelled_lollipop(40, 12))


# ------------------------------------------------------------- commute times

def test_commute_star3():
    g = star_graph(3)
    c = commute_time(transition_matrix(g, "biased"), edge_weights(g), 1, 2)
    assert c == pytest.approx(12.0, rel=1e-9)  # 6 + 6 = 3 * 4


def test_commute_line4_cross_checks_solvers():
    g = line_graph(4)
    m = transition_matrix(g, "biased")
    wg = edge_weights(g)
    c = commute_time(m, wg, 0, 3)
    assert c == pytest.approx(4 * effective_resistance(wg, 0, 3), rel=1e-9)


def test_commute_same_node_zero():
    g = line_graph(4)
    assert commute_time(transition_matrix(g, "biased"), edge_weights(g), 2, 2) == 0.0


def test_commute_requires_biased():
    g = line_graph(4)
    with pytest.raises(ValueError):
        commute_time(transition_matrix(g, "simple"), edge_weights(g), 0, 3)


def test_commute_detects_mismatched_inputs():
    # weights from a different graph break the identity and must be reported
    with pytest.raises(ConsistencyError):
        commute_time(transition_matrix(star_graph(5), "biased"),
                     edge_weights(line_graph(5)), 1, 2)


def test_commute_identity_all_pairs_small_suite():
    graphs = (star_graph(9), line_graph(9), lollipop_graph(12, 7))
    res = check_commute_identity([(f"g{i}", g) for i, g in enumerate(graphs)])
    assert res.ok, res.detail


def test_cycle_identity_small_suite():
    graphs = (star_graph(7), line_graph(8), lollipop_graph(9, 6), complete_graph(6))
    res = check_cycle_identity([(f"g{i}", g) for i, g in enumerate(graphs)])
    assert res.ok, res.detail


# ------------------------------------------------------------- hitting bounds

def test_hitting_bound_general_is_3n3():
    g = lollipop_graph(9, 6)
    assert hitting_bound(g, 0, 8).general == 3.0 * 9**3


def test_hitting_bounds_sandwich_exact():
    res = check_hitting_bound([(f"g{i}", g) for i, g in enumerate(SMALL_GRAPHS)])
    assert res.ok, res.detail


def test_star5_path_refined_bound_exceeds_exact_20():
    g = star_graph(5)
    exact = hitting_times(transition_matrix(g, "biased"), 2)[1]
    assert exact == pytest.approx(20.0, rel=1e-9)
    general, refined = hitting_bound(g, 1, 2)
    # path 1-0-2, both edges have min degree 1: bound n^2 * 2 = 50
    assert refined == pytest.approx(50.0)
    assert refined >= exact


@given(connected_graphs(max_n=12))
@settings(max_examples=40, deadline=None)
def test_hitting_bounds_from_a_source_match_per_pair_path_sums(g):
    n = g.n
    for x in range(n):
        bounds = hitting_bounds_from(g, x)
        for y in range(n):
            path = shortest_path(g, x, y)
            r_bound = sum(n * min(g.degree(u), g.degree(v)) for u, v in zip(path, path[1:]))
            assert bounds[y] == hitting_bound(g, x, y) == (3.0 * n**3, float(n * r_bound))


def test_hitting_bounds_from_reject_unreachable_nodes_and_bad_sources():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="node 2 is unreachable from node 0"):
        hitting_bounds_from(g, 0)
    with pytest.raises(ValueError, match=r"nodes must be in 0\.\.3"):
        hitting_bounds_from(g, 4)


def test_cubic_bound_on_extremal_lollipops():
    res = check_hitting_bound([extremal_lollipop(n) for n in range(5, 31)])
    assert res.ok, res.detail


# -------------------------------------------------------------- hidden vertex

def _hidden_nodes(table):
    # exhaustive oracle over the definition
    return [
        t for t in range(table.n)
        if all(table.h[t, v] <= table.h[v, t] + 1e-9 for v in range(table.n))
    ]


def test_hidden_vertex_on_star_is_a_leaf():
    table = hitting_table(transition_matrix(star_graph(5), "biased"))
    oracle = _hidden_nodes(table)
    assert oracle == [1, 2, 3, 4]  # every leaf, never the hub
    assert hidden_vertex(table) == 1


def test_hidden_vertex_on_line_is_an_end():
    table = hitting_table(transition_matrix(line_graph(5), "biased"))
    oracle = _hidden_nodes(table)
    assert oracle == [0, 4]
    assert hidden_vertex(table) == 0


def test_hidden_vertex_on_complete_is_node_zero():
    table = hitting_table(transition_matrix(complete_graph(6), "biased"))
    assert _hidden_nodes(table) == list(range(6))  # symmetry: everyone
    assert hidden_vertex(table) == 0


def test_hidden_vertex_matches_oracle_everywhere():
    for g in SMALL_GRAPHS:
        table = hitting_table(transition_matrix(g, "biased"))
        oracle = _hidden_nodes(table)
        assert oracle, "a reversible walk always has a hidden vertex"
        assert hidden_vertex(table) == oracle[0]


def test_hidden_vertex_error_reports_violation():
    from qconsensus.walks import HittingTable

    # every node violates the definition somewhere in this synthetic table
    bad = HittingTable("biased", np.array([[0, 2, 1], [1, 0, 9], [3, 2, 0]], dtype=float))
    with pytest.raises(SolverError, match="violation"):
        hidden_vertex(bad)


# ------------------------------------------------------------------ potential

def test_potential_diagonal():
    table = hitting_table(transition_matrix(star_graph(5), "biased"))
    t = hidden_vertex(table)
    for x in range(5):
        phi = potential(table, t, x, x)
        assert phi == pytest.approx(table.h[x, t] - table.h[t, x], rel=1e-9)
        assert phi >= -1e-9


def test_potential_symmetry_on_star5():
    table = hitting_table(transition_matrix(star_graph(5), "biased"))
    t = hidden_vertex(table)
    for x in range(5):
        for y in range(5):
            assert potential(table, t, x, y) == pytest.approx(
                potential(table, t, y, x), abs=1e-6
            )


def test_potential_below_twice_max_hitting():
    for g in SMALL_GRAPHS:
        table = hitting_table(transition_matrix(g, "biased"))
        t = hidden_vertex(table)
        cap = 2 * table.max_hitting()
        for x in range(g.n):
            for y in range(g.n):
                assert potential(table, t, x, y) < cap


# ------------------------------------------------------------- Monte Carlo

def test_pair_meeting_same_start_is_zero():
    rng = np.random.default_rng(0)
    assert simulate_pair_meeting(star_graph(5), 3, 3, rng) == 0


def test_meeting_mean_below_4_hmax_star11():
    g = star_graph(11)
    hmax = hitting_table(transition_matrix(g, "biased")).max_hitting()
    sample = sample_pair_meetings(g, 1, 2, seed=55, runs=3000)
    se = sample.std(ddof=1) / math.sqrt(len(sample))
    assert sample.mean() + MC_SIGMAS * se <= 4 * hmax


def test_meeting_X_at_most_twice_Xprime_line9():
    g = line_graph(9)
    sx = sample_pair_meetings(g, 0, 8, seed=56, runs=3000)
    sp = sample_pair_meetings(g, 0, 8, seed=57, runs=3000, coupling="Xprime")
    slack = MC_SIGMAS * math.sqrt(sx.var(ddof=1) / len(sx) + 4 * sp.var(ddof=1) / len(sp))
    assert sx.mean() <= 2 * sp.mean() + slack


def test_meeting_budget_error_carries_ticks():
    rng = np.random.default_rng(1)
    with pytest.raises(TickBudgetError) as info:
        simulate_pair_meeting(line_graph(9), 0, 8, rng, max_ticks=3)
    assert info.value.ticks == 3


def test_unknown_coupling_rejected():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        simulate_pair_meeting(line_graph(3), 0, 2, rng, coupling="Y")


def test_meet_all_no_others_is_zero():
    rng = np.random.default_rng(2)
    assert simulate_meet_all(star_graph(5), 1, [], rng) == 0


def test_meet_all_rejects_shared_start():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        simulate_meet_all(star_graph(5), 1, [1, 2], rng)


def test_token_runs_reject_nodes_outside_the_graph_and_no_runs():
    g = star_graph(5)
    rng = np.random.default_rng(3)
    calls = (
        lambda: sample_hitting(g, 1, -1, 0, 5),
        lambda: sample_pair_meetings(g, 7, 1, 0, 5),
        lambda: sample_meet_all(g, 1, [2, 5], 0, 5),
        lambda: simulate_hitting(g, 5, 1, rng),
        lambda: simulate_pair_meeting(g, 0, -1, rng),
        lambda: simulate_meet_all(g, -2, [1], rng),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"nodes must be in 0\.\.4"):
            call()
    for sample in (sample_hitting, sample_pair_meetings):
        with pytest.raises(ValueError, match="runs must be >= 1"):
            sample(g, 1, 2, 0, 0)
    with pytest.raises(ValueError, match="runs must be >= 1"):
        sample_meet_all(g, 1, [2], 0, -1)


def test_token_runs_reject_a_negative_tick_budget():
    g = star_graph(5)
    rng = np.random.default_rng(4)
    calls = (
        lambda: sample_hitting(g, 1, 2, 0, 5, max_ticks=-1),
        lambda: sample_pair_meetings(g, 1, 2, 0, 5, max_ticks=-1),
        lambda: sample_meet_all(g, 1, [2], 0, 5, max_ticks=-1),
        lambda: simulate_hitting(g, 1, 1, rng, max_ticks=-5),
        lambda: simulate_pair_meeting(g, 1, 1, rng, max_ticks=-5),
        lambda: simulate_meet_all(g, 1, [], rng, max_ticks=-5),
    )
    for call in calls:
        with pytest.raises(ValueError, match="max_ticks must be >= 0"):
            call()
    assert simulate_hitting(g, 1, 1, rng, max_ticks=0) == 0


def test_meet_all_single_other_matches_pair_meeting():
    g = star_graph(9)
    pair = sample_pair_meetings(g, 1, 2, seed=60, runs=4000)
    all_ = sample_meet_all(g, 1, [2], seed=61, runs=4000)
    gap = abs(pair.mean() - all_.mean())
    se = math.sqrt(pair.var(ddof=1) / len(pair) + all_.var(ddof=1) / len(all_))
    assert gap <= 3 * se


def test_meet_all_star11_within_log_periods_bound():
    g = star_graph(11)
    pair = sample_pair_meetings(g, 1, 2, seed=62, runs=2000)
    est_meeting = pair.mean()
    sample = sample_meet_all(g, 1, list(range(2, 11)) + [0], seed=63, runs=1000)
    k = math.e**6
    bound = (k + 1) * est_meeting * math.log(11)
    assert sample.mean() + 3 * sample.std(ddof=1) / math.sqrt(len(sample)) <= bound


@given(connected_graphs(min_n=3, max_n=9))
@settings(max_examples=20, deadline=None)
def test_meeting_terminates_on_random_graphs(g):
    rng = np.random.default_rng(7)
    ticks = simulate_pair_meeting(g, 0, g.n - 1, rng, max_ticks=10**7)
    assert 0 < ticks <= 10**7


def _exact_meeting(g, x, y, coupling):
    """Expected meeting ticks from the ordered-pair chain, one dense solve.

    The per-tick law of sample_pair_meetings over the n(n-1) states (a, b),
    a != b: with p = p_ab (0 unless adjacent) the tokens meet with mass p
    (X) or min(1, r_a + r_b) - r_a - r_b + 2p (Xprime), a moves to v != b
    with p_av, b moves to w != a with p_bw, and the rest stays.
    """
    n = g.n
    p = {(u, v): (1 / g.degree(u) + 1 / g.degree(v)) / n
         for u in range(n) for v in g.adjacency[u]}
    r = [sum(p[u, v] for v in g.adjacency[u]) for u in range(n)]
    states = [(a, b) for a in range(n) for b in range(n) if a != b]
    index = {state: i for i, state in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    for i, (a, b) in enumerate(states):
        p_join = p.get((a, b), 0.0)
        if coupling == "X":
            meet = p_join
        else:
            meet = min(1.0, r[a] + r[b]) - r[a] - r[b] + 2 * p_join
        for v in g.adjacency[a]:
            if v != b:
                q[i, index[v, b]] += p[a, v]
        for w in g.adjacency[b]:
            if w != a:
                q[i, index[a, w]] += p[b, w]
        q[i, i] += 1.0 - meet - (r[a] - p_join) - (r[b] - p_join)
    return float(np.linalg.solve(np.eye(len(states)) - q, np.ones(len(states)))[index[x, y]])


@pytest.mark.parametrize("g,x,y,coupling,exact,seed", [
    (line_graph(9), 0, 8, "X", 124.076, 601),
    (line_graph(9), 0, 8, "Xprime", 103.125, 602),
    (line_graph(9), 0, 1, "X", 20.829, 603),
    (line_graph(9), 0, 1, "Xprime", 8.824, 604),
    (star_graph(11), 1, 2, "X", 60.0, 605),
    (star_graph(11), 1, 2, "Xprime", 60.0, 606),
    # the other token sits inside the mover's row, not only at its ends
    (lollipop_graph(8, 5), 1, 3, "X", 26.271, 607),
    (lollipop_graph(8, 5), 1, 3, "Xprime", 12.156, 608),
])
def test_pair_meeting_means_match_the_exact_pair_chain(g, x, y, coupling, exact, seed):
    chain = _exact_meeting(g, x, y, coupling)
    assert chain == pytest.approx(exact, abs=1e-3)
    runs = 20_000
    sample = sample_pair_meetings(g, x, y, seed, runs, coupling)
    se = sample.std(ddof=1) / math.sqrt(runs)
    assert abs(sample.mean() - chain) <= MC_SIGMAS * se


# Each sampler on line(9) from node 0: every run needs at least 8 ticks.
SAMPLERS = {
    "hitting": (sample_hitting, simulate_hitting, (0, 8), {}),
    "X": (sample_pair_meetings, simulate_pair_meeting, (0, 8), {"coupling": "X"}),
    "Xprime": (sample_pair_meetings, simulate_pair_meeting, (0, 8), {"coupling": "Xprime"}),
    "meet_all": (sample_meet_all, simulate_meet_all, (0, range(1, 9)), {}),
}


def _sample(name, seed, runs, **budget):
    sample, _, args, kwargs = SAMPLERS[name]
    return sample(line_graph(9), *args, seed, runs, **kwargs, **budget)


def _simulate(name, rng, **budget):
    _, simulate, args, kwargs = SAMPLERS[name]
    return simulate(line_graph(9), *args, rng, **kwargs, **budget)


@pytest.mark.parametrize("name", SAMPLERS)
def test_samples_are_a_function_of_seed_and_runs(name):
    first = _sample(name, 70, 40)
    assert first.dtype == np.int64 and first.shape == (40,) and first.min() >= 8
    np.testing.assert_array_equal(_sample(name, 70, 40), first)
    np.testing.assert_array_equal(_sample(name, np.random.SeedSequence(70), 40), first)
    assert not np.array_equal(_sample(name, 71, 40), first)


@pytest.mark.parametrize("name", SAMPLERS)
def test_one_simulated_run_is_the_one_run_sample(name):
    for seed in range(5):
        assert _simulate(name, np.random.default_rng(seed)) == _sample(name, seed, 1)[0]


@pytest.mark.parametrize("name", SAMPLERS)
@pytest.mark.parametrize("max_ticks", [0, 3, 7])
def test_every_sampler_stops_at_its_tick_budget(name, max_ticks):
    for call in (lambda: _sample(name, 80, 25, max_ticks=max_ticks),
                 lambda: _simulate(name, np.random.default_rng(80), max_ticks=max_ticks)):
        with pytest.raises(TickBudgetError) as info:
            call()
        assert info.value.ticks == max_ticks


@pytest.mark.parametrize("name", SAMPLERS)
def test_a_budget_of_the_longest_run_changes_nothing(name):
    full = _sample(name, 90, 30)
    longest = int(full.max())
    np.testing.assert_array_equal(_sample(name, 90, 30, max_ticks=longest), full)
    with pytest.raises(TickBudgetError):
        _sample(name, 90, 30, max_ticks=longest - 1)


def test_token_runs_reject_an_isolated_node():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    rng = np.random.default_rng(5)
    for call in (lambda: sample_hitting(g, 0, 2, 0, 5),
                 lambda: sample_pair_meetings(g, 0, 2, 0, 5),
                 lambda: simulate_meet_all(g, 0, [2], rng)):
        with pytest.raises(ValueError, match="every node needs a neighbor"):
            call()


@given(connected_graphs(min_n=2, max_n=9))
@settings(max_examples=40, deadline=None)
def test_conditional_moves_stay_on_the_graph_and_off_the_other_token(g):
    moves = walks._Moves(g)
    grid = 4096
    for u in range(g.n):
        row = range(moves.off[u], moves.last[u] + 1)
        for skip in [None, *row]:
            if skip is None:
                excluded, p_skip = -1, 0.0
            elif moves.deg[u] > 1:
                excluded, p_skip = moves.nbr[skip], moves.p[skip]
            else:
                continue  # a token whose only neighbor is the other token never moves
            width = moves.rate[u] - p_skip
            # evenly spaced points, both ends, and the floats around each entry
            # boundary, before and after the skipped mass moves it
            bounds = moves.start[moves.off[u]:moves.last[u] + 2] - moves.start[moves.off[u]]
            edges = np.concatenate([bounds, bounds - p_skip]) / width
            r = np.concatenate([(np.arange(grid) + 0.5) / grid, [0.0, 1.0], edges,
                                np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
            r = np.clip(r, 0.0, np.nextafter(1.0, 0.0))
            us = np.full(r.size, u)
            if skip is None:
                picked = moves.pick(us, r)
            else:
                picked = moves.pick(us, r, np.full(r.size, skip), np.full(r.size, p_skip))
            assert set(picked.tolist()) <= set(g.adjacency[u]) - {excluded}
            # the evenly spaced points follow p_uv / (r_u - p_skip)
            counts = np.bincount(picked[:grid], minlength=g.n)
            for k in row:
                v = moves.nbr[k]
                expected = 0.0 if v == excluded else moves.p[k] / width
                assert abs(counts[v] / grid - expected) <= 1.0 / grid


# ------------------------------------------------------------------ CSV export

def test_matrix_csv_round_trip(tmp_path):
    g = star_graph(4)
    table = hitting_table(transition_matrix(g, "biased"))
    path = tmp_path / "hitting.csv"
    write_matrix_csv(path, table.h)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node,0,1,2,3"
    cells = lines[2].split(",")
    assert cells[0] == "1"
    assert float(cells[2]) == 0.0
    assert float(cells[1]) == pytest.approx(table.h[1, 0])
