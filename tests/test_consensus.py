import gc
import subprocess
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qconsensus import ckernel, consensus, harness
from qconsensus.chains import convergence_ticks
from qconsensus.consensus import (
    STRONG_NEG,
    STRONG_POS,
    WEAK_NEG,
    WEAK_POS,
    _FIRST_BATCH,
    _MAX_BATCH,
    BinaryState,
    QuantizedState,
    apply_binary_edge,
    apply_quantized_edge,
    binary_converged,
    binary_init,
    binary_step,
    binary_update,
    lyapunov,
    quantized_converged,
    quantized_step,
    quantized_update,
    read_binary_votes,
    read_quantized_values,
    run_to_convergence,
    write_trace_csv,
)
from qconsensus.checks import (
    check_binary_conservation,
    check_quantized_conservation,
    check_update_table,
    named_graph,
)
from qconsensus.graphs import (
    Graph,
    TopologySpec,
    build_graph,
    line_graph,
    read_edge_list,
    star_graph,
)

from conftest import KERNEL_PATHS, connected_graphs, kernel_path, needs_cc


OPINIONS = (2, 1, -1, -2)


def test_binary_update_matches_table_on_all_16_pairs():
    res = check_update_table()
    assert res.ok, res.detail


def test_binary_update_symmetric_in_argument_order():
    for a in OPINIONS:
        for b in OPINIONS:
            na, nb = binary_update(a, b)
            assert binary_update(b, a) == (nb, na)


def test_binary_update_spec_cases():
    assert binary_update(STRONG_POS, STRONG_NEG) == (WEAK_NEG, WEAK_POS)
    assert binary_update(STRONG_POS, WEAK_NEG) == (WEAK_POS, STRONG_POS)
    assert binary_update(WEAK_POS, WEAK_POS) == (WEAK_POS, WEAK_POS)
    assert binary_update(WEAK_POS, WEAK_NEG) == (WEAK_NEG, WEAK_POS)


def test_binary_update_conserves_signed_strong_surplus():
    def surplus(*ops):
        return sum(1 for o in ops if o == 2) - sum(1 for o in ops if o == -2)

    for a in OPINIONS:
        for b in OPINIONS:
            na, nb = binary_update(a, b)
            assert surplus(a, b) == surplus(na, nb)


def test_binary_update_strong_count_drops_only_by_two():
    def strong(*ops):
        return sum(1 for o in ops if abs(o) == 2)

    for a in OPINIONS:
        for b in OPINIONS:
            na, nb = binary_update(a, b)
            drop = strong(a, b) - strong(na, nb)
            assert drop in (0, 2)


# ------------------------------------------------------------------- init

def test_binary_init_all_positive_votes_is_converged():
    g = star_graph(5)
    s = binary_init(g, [1] * 5, np.random.default_rng(0))
    assert s.counts == (5, 0, 0, 0)
    assert binary_converged(s)


def test_binary_init_split_votes():
    g = line_graph(7)
    votes = [1, 1, 1, 1, -1, -1, -1]
    s = binary_init(g, votes, np.random.default_rng(0))
    assert s.counts == (4, 3, 0, 0)


def test_binary_init_abstainers_split_evenly():
    # binomial oracle: #W+ over seeds ~ Binomial(n-1, 1/2)
    g = star_graph(41)
    votes = [1] + [None] * 40
    totals = 0
    seeds = 200
    for seed in range(seeds):
        s = binary_init(g, votes, np.random.default_rng(seed))
        s_plus, s_minus, w_plus, w_minus = s.counts
        assert s_plus == 1 and s_minus == 0
        assert w_plus + w_minus == 40
        totals += w_plus
    mean = totals / seeds
    sigma = (40 * 0.25 / seeds) ** 0.5
    assert abs(mean - 20.0) <= 4 * sigma


def test_binary_init_requires_a_vote():
    with pytest.raises(ValueError):
        binary_init(star_graph(3), [None, None, None], np.random.default_rng(0))


def test_binary_init_requires_matching_length():
    with pytest.raises(ValueError):
        binary_init(star_graph(3), [1], np.random.default_rng(0))


def test_binary_state_rejects_bad_opinion():
    with pytest.raises(ValueError):
        BinaryState.from_opinions([2, 0, 1])


def test_binary_state_rejects_an_opinion_that_is_not_an_integer():
    with pytest.raises(ValueError, match="2.0 is not an integer"):
        BinaryState.from_opinions([2.0, -2, 2])
    s = BinaryState.from_opinions(np.array([2, -2, 1]))
    assert s.opinions == [2, -2, 1] and {type(o) for o in s.opinions} == {int}


def test_quantized_state_rejects_a_value_that_is_not_an_integer():
    with pytest.raises(ValueError, match="2.7 is not an integer"):
        QuantizedState.from_values([2.7, 0, 1])
    s = QuantizedState.from_values(np.array([2, 0, 1]))
    assert (s.values, s.q_sum) == ([2, 0, 1], 3) and {type(v) for v in s.values} == {int}


@pytest.mark.parametrize("container", [list, tuple, iter])
def test_a_state_names_its_first_bad_entry(container):
    # A whole list is checked at once; the message still names its first bad entry.
    with pytest.raises(ValueError, match=r"^quantized value 2\.7 is not an integer$"):
        QuantizedState.from_values(container([1, 2.7, "x", 4]))
    with pytest.raises(ValueError, match=r"^invalid opinion value 3$"):
        BinaryState.from_opinions(container([2, 3, 0, -1]))
    with pytest.raises(ValueError, match=r"^opinion value 'x' is not an integer$"):
        BinaryState.from_opinions(container([2, 3, "x", 2.7]))


# ------------------------------------------------------------------- steps

def test_binary_step_on_consensus_is_noop():
    g = star_graph(5)
    s = BinaryState.from_opinions([STRONG_POS] * 5)
    binary_step(s, g, np.random.default_rng(3))
    assert s.opinions == [STRONG_POS] * 5
    assert s.tick == 1


def test_binary_forced_edge_rule4():
    # (S+, S-, W+) with edge (0,1) activated: opposite strongs turn weak
    s = BinaryState.from_opinions([STRONG_POS, STRONG_NEG, WEAK_POS])
    apply_binary_edge(s, 0, 1)
    assert s.opinions == [WEAK_NEG, WEAK_POS, WEAK_POS]
    assert s.counts == (0, 0, 2, 1)


def test_binary_forced_edge_strong_moves():
    s = BinaryState.from_opinions([STRONG_POS, WEAK_NEG, WEAK_POS])
    apply_binary_edge(s, 0, 1)
    assert s.opinions == [WEAK_POS, STRONG_POS, WEAK_POS]


def test_binary_conservation_over_random_ticks():
    res = check_binary_conservation(named_graph("erdos_renyi", 51, seed=51), 20_000, seed=9)
    assert res.ok, res.detail


def test_binary_converged_cases():
    assert binary_converged(BinaryState.from_opinions([STRONG_POS, WEAK_POS, WEAK_POS]))
    assert not binary_converged(BinaryState.from_opinions([WEAK_POS, WEAK_NEG]))
    assert binary_converged(BinaryState.from_opinions([WEAK_NEG]))


# ------------------------------------------------------------ quantized rules

def test_quantized_update_cases():
    assert quantized_update(0, 2) == (1, 1)
    assert quantized_update(5, 6) == (6, 5)
    assert quantized_update(4, 4) == (4, 4)
    assert quantized_update(7, 3) == (6, 4)
    assert quantized_update(-3, 1) == (-2, 0)


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_quantized_update_properties(a, b):
    na, nb = quantized_update(a, b)
    assert na + nb == a + b
    assert abs(na - nb) <= abs(a - b)
    if abs(a - b) >= 2:
        assert abs(na - nb) == abs(a - b) - 2
    else:
        assert {na, nb} == {a, b}


def test_quantized_forced_edge_converges_line3():
    s = QuantizedState.from_values([2, 0, 1])
    apply_quantized_edge(s, 0, 1)
    assert s.values == [1, 1, 1]
    assert quantized_converged(s)


def test_quantized_step_uniform_state_swaps_only():
    g = line_graph(4)
    s = QuantizedState.from_values([3, 3, 3, 3])
    quantized_step(s, g, np.random.default_rng(0))
    assert s.values == [3, 3, 3, 3]
    assert s.tick == 1


def test_quantized_sum_conserved_over_random_ticks():
    res = check_quantized_conservation(named_graph("erdos_renyi", 100, seed=100), 20_000, seed=10)
    assert res.ok, res.detail


def test_quantized_converged_cases():
    assert quantized_converged(QuantizedState.from_values([4, 4, 4]))
    s = QuantizedState.from_values([1, 1, 2])  # sum 4, q=1: both values allowed
    assert s.q == 1 and s.r == 1
    assert quantized_converged(s)
    assert not quantized_converged(QuantizedState.from_values([0, 2, 2]))


def test_quantized_negative_values_use_floor_decomposition():
    s = QuantizedState.from_values([-2, -1, -1])  # sum -4 = -2*3 + 2
    assert (s.q, s.r) == (-2, 2)
    assert quantized_converged(s)


# ---------------------------------------------------------------- Lyapunov

def test_lyapunov_uniform_is_zero():
    assert lyapunov(QuantizedState.from_values([7, 7, 7])) == 0.0


def test_lyapunov_drops_by_two_on_nontrivial_exchange():
    s = QuantizedState.from_values([2, 0, 1])
    assert lyapunov(s) == pytest.approx(2.0)
    apply_quantized_edge(s, 0, 1)
    assert lyapunov(s) == pytest.approx(0.0)


def test_lyapunov_half_and_half():
    m_val, big, n = 3, 11, 10
    values = [big] * (n // 2) + [m_val] * (n // 2)
    expected = (big - m_val) ** 2 * n / 4
    assert lyapunov(QuantizedState.from_values(values)) == pytest.approx(expected)


# --------------------------------------------------------- run_to_convergence

def test_line3_quantized_expected_ticks_oracle():
    [expected] = convergence_ticks(line_graph(3), "quantized", [(2, 0, 1)])
    assert expected == pytest.approx(3.0, abs=1e-12)
    g = line_graph(3)
    runs = 40_000
    rng = np.random.default_rng(123)
    samples = []
    for _ in range(runs):
        s = QuantizedState.from_values([2, 0, 1])
        res = run_to_convergence("quantized", g, s, rng, 10**6)
        samples.append(res.ticks)
    mean = np.mean(samples)
    se = np.std(samples, ddof=1) / np.sqrt(runs)
    assert abs(mean - expected) <= 3 * se


def test_run_already_converged_is_zero_ticks():
    g = star_graph(5)
    s = BinaryState.from_opinions([STRONG_POS] * 5)
    res = run_to_convergence("binary", g, s, np.random.default_rng(0), 100)
    assert res.ticks == 0 and res.converged
    q = QuantizedState.from_values([3, 3, 3, 3, 3])
    res = run_to_convergence("quantized", g, q, np.random.default_rng(0), 100)
    assert res.ticks == 0 and res.converged


def test_run_timeout_is_flagged():
    g = line_graph(9)
    s = QuantizedState.from_values([9, 0, 0, 0, 0, 0, 0, 0, 0])
    res = run_to_convergence("quantized", g, s, np.random.default_rng(1), max_ticks=1)
    assert not res.converged
    assert res.ticks == 1
    assert res.detail == "timeout"


def test_run_rejects_mismatched_state():
    g = line_graph(3)
    for path in KERNEL_PATHS:
        with kernel_path(path):
            with pytest.raises(ValueError):
                run_to_convergence("binary", g, QuantizedState.from_values([1, 2, 3]),
                                   np.random.default_rng(0), 10)
            with pytest.raises(ValueError):
                run_to_convergence("ternary", g, QuantizedState.from_values([1, 2, 3]),
                                   np.random.default_rng(0), 10)
            for n in (2, 4):
                for protocol, s in (("binary", BinaryState.from_opinions([STRONG_POS] * n)),
                                    ("quantized", QuantizedState.from_values(range(n)))):
                    before = s.copy()
                    with pytest.raises(ValueError, match=f"{n} nodes but the graph has 3"):
                        run_to_convergence(protocol, g, s, np.random.default_rng(0), 10**4)
                    assert s == before


def test_fast_loop_matches_stepwise_trajectory_binary():
    g = build_graph(TopologySpec("erdos_renyi", 15, p=0.4, seed=3))
    opinions = [STRONG_POS] * 8 + [STRONG_NEG] * 7
    fast = BinaryState.from_opinions(list(opinions))
    res = run_to_convergence("binary", g, fast, np.random.default_rng(77), 10**6)
    slow = BinaryState.from_opinions(list(opinions))
    rng = np.random.default_rng(77)
    ticks = 0
    while not binary_converged(slow) and ticks < 10**6:
        binary_step(slow, g, rng)
        ticks += 1
    assert res.ticks == ticks
    assert fast.opinions == slow.opinions


def test_fast_loop_matches_stepwise_trajectory_quantized():
    g = build_graph(TopologySpec("erdos_renyi", 15, p=0.4, seed=3))
    values = np.random.default_rng(1).integers(1, 100, size=15).tolist()
    fast = QuantizedState.from_values(list(values))
    res = run_to_convergence("quantized", g, fast, np.random.default_rng(78), 10**6)
    slow = QuantizedState.from_values(list(values))
    rng = np.random.default_rng(78)
    ticks = 0
    while not quantized_converged(slow) and ticks < 10**6:
        quantized_step(slow, g, rng)
        ticks += 1
    assert res.ticks == ticks
    assert fast.values == slow.values


@given(connected_graphs(min_n=3, max_n=10), st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_binary_runs_converge_to_majority_on_random_graphs(g, seed):
    n = g.n if g.n % 2 == 1 else g.n - 1
    votes = [1] * ((n + 1) // 2) + [-1] * (n // 2) + [None] * (g.n - n)
    rng = np.random.default_rng(seed)
    s = binary_init(g, votes, rng)
    res = run_to_convergence("binary", g, s, rng, 150 * g.n**3)
    assert res.converged
    assert s.positive == g.n  # the strict + majority always wins
    assert res.detail == "all_positive"


def test_negative_majority_converges_all_negative():
    g = star_graph(7)
    rng = np.random.default_rng(31)
    s = binary_init(g, [-1, -1, -1, -1, 1, 1, 1], rng)
    res = run_to_convergence("binary", g, s, rng, 150 * 7**3)
    assert res.converged
    assert res.detail == "all_negative"
    assert s.positive == 0


def test_traced_run_records_stride_rows():
    g = line_graph(9)
    s = QuantizedState.from_values([9, 0, 0, 0, 0, 0, 0, 0, 0])
    res = run_to_convergence("quantized", g, s, np.random.default_rng(5), 10**6,
                             trace_stride=10)
    assert res.converged
    assert res.trace_header == ("tick", "lyapunov", "value_min", "value_max")
    assert res.trace[0][0] == 0
    assert res.trace[-1][0] == res.ticks
    lyap = [row[1] for row in res.trace]
    assert all(b <= a + 1e-9 for a, b in zip(lyap, lyap[1:]))
    spreads = [row[3] - row[2] for row in res.trace]
    assert all(b <= a for a, b in zip(spreads, spreads[1:]))


def test_traced_binary_counts_columns(tmp_path):
    g = star_graph(7)
    s = BinaryState.from_opinions([2, -2, 2, -2, 2, -2, 2])
    res = run_to_convergence("binary", g, s, np.random.default_rng(6), 10**6,
                             trace_stride=5)
    assert res.trace_header == ("tick", "s_plus", "s_minus", "w_plus", "w_minus")
    for row in res.trace:
        assert sum(row[1:]) == 7
    path = tmp_path / "trace.csv"
    write_trace_csv(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "tick,s_plus,s_minus,w_plus,w_minus"
    assert len(lines) == len(res.trace) + 1


def test_write_trace_csv_refuses_an_untraced_run(tmp_path):
    s = QuantizedState.from_values([9, 0, 0, 0, 0])
    res = run_to_convergence("quantized", line_graph(5), s, np.random.default_rng(0), 100)
    assert res.trace_header == ()
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="trace_stride"):
        write_trace_csv(res, path)
    assert not path.exists()


# ------------------------------------ both kernel paths vs reference stepper

def _reference_run(protocol, g, s, rng, max_ticks, stride):
    """``run_to_convergence`` rebuilt from the per-tick stepper, counting from the values."""
    binary = protocol == "binary"
    step, done = (binary_step, binary_converged) if binary else (quantized_step, quantized_converged)

    def row():
        return ((s.tick, *s.counts) if binary
                else (s.tick, lyapunov(s), min(s.values), max(s.values)))

    rows = [row()]
    ticks = 0
    while not done(s) and ticks < max_ticks:
        step(s, g, rng)
        ticks += 1
        if stride and ticks % stride == 0 and not done(s):
            rows.append(row())
    if rows[-1][0] != s.tick:
        rows.append(row())
    converged = done(s)
    if not converged:
        detail = "timeout"
    elif binary:
        detail = "all_positive" if s.positive == s.n else "all_negative"
    else:
        detail = f"q={s.q} r={s.r}"
    return ticks, converged, detail, tuple(rows) if stride else ()


def _random_state(protocol, n, seed):
    rng = np.random.default_rng([seed, n])
    if protocol == "binary":
        return BinaryState.from_opinions(rng.choice(OPINIONS, size=n).tolist())
    return QuantizedState.from_values(rng.integers(-5, 15, size=n).tolist())


def _assert_kernel_matches_stepper(protocol, g, seed, budget, stride, start=_random_state):
    """On each of KERNEL_PATHS, a run from ``start(protocol, n, seed)`` equals the
    reference stepper's, tick for tick: ticks, outcome, trace and final state."""
    slow = start(protocol, g.n, seed)
    ticks, converged, detail, rows = _reference_run(
        protocol, g, slow, np.random.default_rng(seed), budget, stride)
    for path in KERNEL_PATHS:
        fast = start(protocol, g.n, seed)
        with kernel_path(path):
            res = run_to_convergence(protocol, g, fast, np.random.default_rng(seed), budget,
                                     stride)
        assert (res.ticks, res.converged, res.detail) == (ticks, converged, detail), path
        assert res.trace == rows, path
        assert bool(res.trace_header) == bool(stride), path
        assert fast.tick == slow.tick == ticks, path
        if protocol == "binary":
            assert fast.opinions == slow.opinions, path
        else:
            assert fast.values == slow.values, path


# Budgets end at 0, mid-batch, and exactly on the batch edges 64, 192 and 448.
KERNEL_BUDGETS = (0, 1, 37, 64, 65, 192, 300, 448, 449, 3000)


@given(connected_graphs(min_n=3, max_n=10), st.sampled_from(("binary", "quantized")),
       st.integers(0, 2**31), st.sampled_from(KERNEL_BUDGETS),
       st.sampled_from((0, 1, 7, 64, 100)))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference_stepper(g, protocol, seed, budget, stride):
    _assert_kernel_matches_stepper(protocol, g, seed, budget, stride)


def test_kernel_batch_draws_equal_one_draw():
    sizes = [2 * min(_FIRST_BATCH << i, _MAX_BATCH) for i in range(10)]
    for seed in (0, 1, 2**31 - 1):
        split = np.random.default_rng(seed)
        parts = np.concatenate([split.random(k) for k in sizes])
        assert np.array_equal(parts, np.random.default_rng(seed).random(sum(sizes)))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(np.concatenate([a.random(37), a.random(91)]), b.random(128))


def test_kernel_truncation_equals_int():
    just_below_one = np.nextafter(1.0, 0.0)
    rs = np.array([0.0, 0.5, 1 - 2**-52, just_below_one] + np.random.default_rng(0).random(8).tolist())
    for k in (1, 2, 3, 7, 64, 1000, 2**20 - 1, 999_983, 10**6):
        got = (rs * k).astype(np.int64).tolist()
        assert got == [int(r * k) for r in rs.tolist()]
        assert max(got) == k - 1


def _expected_rows(ticks, stride):
    return 1 if ticks == 0 else 2 + (ticks - 1) // stride


def test_trace_convergence_on_stride_multiple():
    g = line_graph(9)
    for protocol in ("binary", "quantized"):
        slow = _random_state(protocol, 9, 4)
        ticks, converged, _, _ = _reference_run(protocol, g, slow, np.random.default_rng(4),
                                                10**5, 0)
        assert converged and ticks > 1
        divisors = [d for d in range(1, ticks + 1) if ticks % d == 0]
        for stride in (divisors[len(divisors) // 2], ticks):
            _assert_kernel_matches_stepper(protocol, g, 4, 10**5, stride)
            res = run_to_convergence(protocol, g, _random_state(protocol, 9, 4),
                                     np.random.default_rng(4), 10**5, stride)
            assert len(res.trace) == _expected_rows(ticks, stride)
            assert [r[0] for r in res.trace] == sorted({r[0] for r in res.trace})


def test_trace_timeout_on_stride_multiple():
    g = line_graph(9)
    s = QuantizedState.from_values([90, 0, 0, 0, 0, 0, 0, 0, 0])
    res = run_to_convergence("quantized", g, s, np.random.default_rng(5), 30, trace_stride=10)
    assert not res.converged and res.ticks == 30
    assert [row[0] for row in res.trace] == [0, 10, 20, 30]
    _assert_kernel_matches_stepper("quantized", g, 5, 30, 10)


def test_trace_rows_across_batch_edges():
    # Weak opinions only: the run never converges, so every stride row is due.
    g = line_graph(9)
    s = BinaryState.from_opinions([WEAK_POS, WEAK_NEG] * 4 + [WEAK_POS])
    res = run_to_convergence("binary", g, s, np.random.default_rng(3), 1000, trace_stride=7)
    assert [row[0] for row in res.trace] == list(range(0, 1000, 7)) + [1000]
    for stride in (7, 100, 448):
        _assert_kernel_matches_stepper("binary", g, 3, 1000, stride)
        _assert_kernel_matches_stepper("quantized", g, 3, 1000, stride)


def test_trace_stride_one_records_every_tick():
    g = star_graph(7)
    for protocol in ("binary", "quantized"):
        s = _random_state(protocol, 7, 8)
        res = run_to_convergence(protocol, g, s, np.random.default_rng(8), 500, trace_stride=1)
        assert [row[0] for row in res.trace] == list(range(res.ticks + 1))
        _assert_kernel_matches_stepper(protocol, g, 8, 500, 1)


def test_trace_already_converged_start_is_one_row():
    g = star_graph(5)
    s = BinaryState.from_opinions([STRONG_POS, WEAK_POS, WEAK_POS, STRONG_POS, WEAK_POS])
    s.tick = 17
    res = run_to_convergence("binary", g, s, np.random.default_rng(0), 100, trace_stride=3)
    assert res.ticks == 0 and res.converged
    assert res.trace == ((17, 2, 0, 3, 0),)
    q = QuantizedState.from_values([4, 5, 4, 4, 5])
    res = run_to_convergence("quantized", g, q, np.random.default_rng(0), 100, trace_stride=3)
    assert res.ticks == 0 and res.converged
    assert res.trace == ((0, lyapunov(q), 4, 5),)


def test_trace_budget_below_stride():
    g = line_graph(9)
    s = QuantizedState.from_values([90, 0, 0, 0, 0, 0, 0, 0, 0])
    res = run_to_convergence("quantized", g, s, np.random.default_rng(2), 5, trace_stride=10)
    assert [row[0] for row in res.trace] == [0, 5]
    assert len(res.trace) == _expected_rows(5, 10)
    _assert_kernel_matches_stepper("quantized", g, 2, 5, 10)


def test_run_rejects_negative_budget_and_stride():
    g = line_graph(3)
    s = QuantizedState.from_values([3, 0, 0])
    with pytest.raises(ValueError, match="max_ticks"):
        run_to_convergence("quantized", g, s, np.random.default_rng(0), -3)
    with pytest.raises(ValueError, match="trace_stride"):
        run_to_convergence("quantized", g, s, np.random.default_rng(0), 10, trace_stride=-5)
    assert s.values == [3, 0, 0] and s.tick == 0


def test_run_rejects_isolated_node():
    g = Graph.from_edges(3, [(0, 1)])
    s = QuantizedState.from_values([3, 0, 0])
    with pytest.raises(ValueError, match="neighbor"):
        run_to_convergence("quantized", g, s, np.random.default_rng(0), 10)


def test_runs_cut_into_chunks_match_the_stepper(monkeypatch):
    # Untraced runs call the kernel once per chunk; cut them at 5 ticks.
    monkeypatch.setattr(consensus, "_CHUNK", 5)
    g = line_graph(9)
    for protocol in ("binary", "quantized"):
        for budget, stride in ((10**5, 0), (10**5, 7), (23, 0), (25, 10)):
            _assert_kernel_matches_stepper(protocol, g, 6, budget, stride)


def _never_converges_within_100(protocol, n, seed):
    # Weak opinions only swap, and a node far above the mean sheds one unit per tick at most.
    if protocol == "binary":
        return BinaryState.from_opinions([WEAK_POS, WEAK_NEG] * (n // 2) + [WEAK_POS] * (n % 2))
    return QuantizedState.from_values([100 * n] + [0] * (n - 1))


def _converges_on_a_multiple_of(protocol, g, multiple):
    """A seed whose run on ``g`` converges on a multiple of ``multiple`` ticks, and its ticks."""
    for seed in range(200):
        ticks, converged, _, _ = _reference_run(protocol, g, _random_state(protocol, g.n, seed),
                                                np.random.default_rng(seed), 10**5, 0)
        if converged and ticks >= 2 * multiple and ticks % multiple == 0:
            return seed, ticks
    raise AssertionError(f"no seed converges on a multiple of {multiple}")


@pytest.mark.parametrize("protocol", ["binary", "quantized"])
def test_trace_rows_across_row_buffers(protocol, monkeypatch):
    # Three rows per call, so that one short run fills several row buffers.
    monkeypatch.setattr(consensus, "_TRACE_ROWS", 3)
    g = line_graph(9)
    for stride in (1, 7):
        _assert_kernel_matches_stepper(protocol, g, 6, 10**5, stride)
    # Convergence on the last row of the first and of the second full buffer.
    seed, ticks = _converges_on_a_multiple_of(protocol, g, 6)
    for stride in (ticks // 3, ticks // 6):
        _assert_kernel_matches_stepper(protocol, g, seed, 10**5, stride)
    # A timeout on the last row of a full buffer, and a budget below the stride.
    for budget, stride in ((2 * 3 * 7, 7), (5, 10)):
        _assert_kernel_matches_stepper(protocol, g, 6, budget, stride,
                                       start=_never_converges_within_100)
    # Strides past _CHUNK, where a row comes due across calls, and past int64.
    monkeypatch.setattr(consensus, "_CHUNK", 5)
    for stride in (7, 12, 2**64 + 7):
        for start in (_random_state, _never_converges_within_100):
            _assert_kernel_matches_stepper(protocol, g, 6, 100, stride, start=start)


def _start_at(values):
    return lambda protocol, n, seed: QuantizedState.from_values(values)


@pytest.mark.parametrize("values", [
    [2**70, 3, -2**70, 0, 7],  # past int64: only the batch kernel can run it
    [2**62, 0, 1, 2, -2**62],  # the smallest magnitude the C loop refuses
    [2**62 - 1, 0, 1, 2, 1 - 2**62],  # the widest values the C loop takes
])
def test_quantized_values_at_the_int64_edge_match_the_stepper(values):
    _assert_kernel_matches_stepper("quantized", line_graph(5), 11, 3000, 97,
                                   start=_start_at(values))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("stride", [0, 1])
def test_quantized_runs_that_converge_at_the_ends_of_the_c_range_match_the_stepper(sign, stride):
    # The edge cases above never converge, so they never reach the end test of the
    # compiled loop's counter of values outside {q, q+1}; these runs do, with q within
    # 8 of +-(2**62 - 1), the widest values the loop takes.
    values = [sign * (2**62 - 1 - k) for k in (0, 3, 8, 1, 6)]
    s = QuantizedState.from_values(values)
    assert -2**62 < min(values) and max(values) < 2**62 and abs(s.q) > 2**62 - 9
    _, converged, _, _ = _reference_run("quantized", line_graph(5), s,
                                        np.random.default_rng(11), 3000, stride)
    assert converged
    _assert_kernel_matches_stepper("quantized", line_graph(5), 11, 3000, stride,
                                   start=_start_at(values))


@pytest.mark.parametrize("values", [
    [2**53 - 1, 2**53 + 7, 2**53 + 1, -2**53 - 3, 8, 2**53 - 3],
    [-2**53 - 1, -2**53 - 7, 2**53 - 1, -2**53 - 5, -2**53 - 9, 7],
])
def test_quantized_trace_rows_at_rounding_edges_match_the_stepper(values):
    # Odd values past 2**53 round on their way to a float, and the mean of mixed
    # signs has every mantissa bit in use: on some of these runs' rows libm's
    # pow(d, 2.0) and d * d round apart, so a compiled row must call pow as
    # Python's ** does, summed in lyapunov()'s order.
    _assert_kernel_matches_stepper("quantized", line_graph(6), 11, 200, 1, start=_start_at(values))


def test_quantized_trace_row_memo_keeps_pow_bits():
    # Values span 157 integers, so a compiled traced run memoises each value's term.
    # The term of 84 rounds apart through pow and through d * d: the memo must hold pow's.
    values = [84, -73] + [0] * 11
    d = 84 - 11 / 13
    assert d**2 == 6914.562130177515 != d * d == 6914.562130177516
    products = 0.0
    for v in values:
        products += (v - 11 / 13) * (v - 11 / 13)
    assert lyapunov(QuantizedState.from_values(values)) != products  # and so does the first row
    _assert_kernel_matches_stepper("quantized", line_graph(13), 3, 300, 1, start=_start_at(values))


@pytest.mark.parametrize("spread", [consensus._SQUARES_SPAN - 1, consensus._SQUARES_SPAN])
def test_quantized_trace_rows_at_the_memo_cap_match_the_stepper(spread):
    # spread < _SQUARES_SPAN takes the memo, whose first and last slots the nodes
    # at lo and hi read; spread == _SQUARES_SPAN calls pow on every row.
    values = [-7, spread - 7, 3, spread // 3, 0]
    _assert_kernel_matches_stepper("quantized", line_graph(5), 4, 300, 1, start=_start_at(values))


def test_a_budget_past_int64_runs_as_the_default_budget(monkeypatch):
    # ctypes keeps only the low 64 bits of an int64 argument (2**64 + 1 would
    # pass as 1, 2**70 as 0), so each compiled call must get a limit that fits,
    # and no call asks for 0 ticks.
    kernel = ckernel.load()
    if kernel is not None:
        def checked(loop):
            def call(address, limit):
                assert 0 < limit < 2**63, limit
                return loop(address, limit)
            return call

        checked_kernel = SimpleNamespace(**{**vars(kernel), "binary": checked(kernel.binary),
                                            "quantized": checked(kernel.quantized)})
        monkeypatch.setattr(ckernel, "load", lambda: checked_kernel)
    g = star_graph(7)
    for path in KERNEL_PATHS:
        with kernel_path(path):
            for protocol in ("binary", "quantized"):
                for stride in (0, 50):
                    runs = []
                    for budget in (150 * 7**3, 2**64 + 1, 2**70):
                        s = _random_state(protocol, 7, 12)
                        res = run_to_convergence(protocol, g, s, np.random.default_rng(12),
                                                 budget, stride)
                        runs.append((res, s))
                    assert runs[0][0].converged and runs[0][0].ticks > 0
                    assert runs[1] == runs[2] == runs[0], (path, protocol, stride)


@needs_cc
@pytest.mark.parametrize("protocol", ["binary", "quantized"])
def test_a_compiled_run_holds_its_csr_arrays_when_the_memo_drops_them(protocol, monkeypatch):
    # A compiled call releases the GIL, so another thread's run on another graph can
    # evict the one-entry memo of g's arrays between two calls of a run on g. Evict it
    # before every call, 5 ticks apart: the run must still hold the arrays its calls read.
    kernel = ckernel.load()
    monkeypatch.setattr(consensus, "_CHUNK", 5)
    g, other = line_graph(9), star_graph(4)
    flat = weakref.ref(consensus._csr_pointers(g)[0][2])
    calls = []

    def evicting(loop):
        def call(address, limit):
            consensus._csr_pointers(other)
            gc.collect()
            assert flat() is not None, "a compiled call would read freed memory"
            calls.append(limit)
            return loop(address, limit)
        return call

    monkeypatch.setattr(ckernel, "load", lambda: SimpleNamespace(
        **{**vars(kernel), protocol: evicting(getattr(kernel, protocol))}))
    for stride in (0, 7):
        calls.clear()
        s = _never_converges_within_100(protocol, g.n, 0)
        res = run_to_convergence(protocol, g, s, np.random.default_rng(3), 100, stride)
        assert not res.converged and len(calls) == 20
        gc.collect()
        assert flat() is None  # and a finished run lets them go
        flat = weakref.ref(consensus._csr_pointers(g)[0][2])


@needs_cc
def test_compiled_kernel_loads_where_a_compiler_is_found(monkeypatch):
    assert ckernel.load() is not None
    assert ckernel.library_path().is_file()

    def batch_step(*args):
        raise AssertionError("the batch kernel ran")

    monkeypatch.setattr(consensus, "_batch_step", batch_step)
    for protocol in ("binary", "quantized"):
        res = run_to_convergence(protocol, line_graph(9), _random_state(protocol, 9, 1),
                                 np.random.default_rng(1), 10**5, 10)
        assert res.converged


@needs_cc
def test_compiled_run_stops_the_generator_at_its_last_tick():
    for protocol in ("binary", "quantized"):
        rng = np.random.default_rng(3)
        res = run_to_convergence(protocol, line_graph(9), _random_state(protocol, 9, 3), rng,
                                 10**5)
        assert res.converged and res.ticks > 0
        assert rng.random() == np.random.default_rng(3).random(2 * res.ticks + 1)[-1]


@needs_cc
@pytest.mark.parametrize("stride", [0, 7])
@pytest.mark.parametrize("protocol, g, seed", [
    pytest.param("binary", star_graph(21), 5, id="binary-star21"),
    pytest.param("quantized", line_graph(9), 3, id="quantized-line9"),
])
def test_a_compiled_run_leaves_the_generator_two_floats_a_tick_on(protocol, g, seed, stride):
    # Converged or timed out, traced or not, a compiled run draws exactly the two
    # floats of each tick it runs, so the next draw is float 2 * ticks + 1 of the stream.
    ticks = run_to_convergence(protocol, g, _random_state(protocol, g.n, seed),
                               np.random.default_rng(seed), 10**5).ticks
    assert ticks > 10 * 7  # many rows at stride 7
    for budget in (10**5, ticks // 2):
        rng = np.random.default_rng(seed)
        res = run_to_convergence(protocol, g, _random_state(protocol, g.n, seed), rng, budget,
                                 stride)
        assert res.converged == (budget > ticks) and res.ticks == min(budget, ticks)
        assert rng.random() == np.random.default_rng(seed).random(2 * res.ticks + 1)[-1]


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM])
@pytest.mark.parametrize("protocol", ["binary", "quantized"])
def test_other_bit_generators_take_the_batch_step(bit_generator, protocol, monkeypatch):
    # The loops step PCG64's LCG themselves, so a run on any other bit generator
    # must never reach them, and still equals the stepper on that generator's stream.
    def refuse(address, limit):
        raise AssertionError("a compiled loop ran")

    monkeypatch.setattr(ckernel, "load", lambda: SimpleNamespace(binary=refuse, quantized=refuse))
    g = build_graph(TopologySpec("lollipop", 12, m=5))
    with pytest.raises(AssertionError, match="a compiled loop ran"):  # PCG64 reaches them
        run_to_convergence(protocol, g, _random_state(protocol, g.n, 5),
                           np.random.default_rng(5), 10**5)
    for stride in (0, 7):
        slow, fast = _random_state(protocol, g.n, 5), _random_state(protocol, g.n, 5)
        expected = _reference_run(protocol, g, slow, np.random.Generator(bit_generator(5)),
                                  10**5, stride)
        res = run_to_convergence(protocol, g, fast, np.random.Generator(bit_generator(5)),
                                 10**5, stride)
        assert res.converged
        assert (res.ticks, res.converged, res.detail, res.trace) == expected
        assert fast == slow


@needs_cc
def test_a_library_whose_draws_differ_from_numpys_is_not_loaded(monkeypatch):
    kernel = ckernel.load()
    assert ckernel._draws_match(kernel.lib) and ckernel._words_match(kernel.seed_words)
    g = build_graph(TopologySpec("lollipop", 12, m=5))

    def runs():
        return [run_to_convergence(protocol, g, _random_state(protocol, g.n, 5),
                                   np.random.default_rng(5), 10**5, 7)
                for protocol in ("binary", "quantized")], harness.round_rng(41, 5, 7)

    expected, rng = runs()
    for guard in ("_draws_match", "_words_match"):  # PCG64 draws, SeedSequence words
        with monkeypatch.context() as mp:
            mp.setattr(ckernel, guard, lambda lib: False)
            ckernel.load.cache_clear()
            try:
                assert ckernel.load() is None
                again, fallback = runs()
                assert again == expected
                assert fallback.bit_generator.state == rng.bit_generator.state
            finally:
                ckernel.load.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 9, 101])
def test_binary_table_leaves_every_equal_pair_and_the_count_alone(n):
    # qc_binary writes every pair and adds every count change without testing a == b.
    table, c_table, _ = consensus._binary_table(n)
    for a in OPINIONS:
        assert table[a][a] == (a, a, 0)
        at = 3 * (5 * (a + 2) + (a + 2))
        assert c_table[at:at + 3] == [a, a, 0]


@needs_cc
def test_a_build_removes_stale_libraries(tmp_path, monkeypatch):
    stale = tmp_path / "qckernel-0123456789abcdef.so"
    stale.write_bytes(b"a library built from an older source")
    kept = [tmp_path / "qckernel-notes.txt", tmp_path / "other.so"]
    for path in kept:
        path.write_bytes(b"")
    monkeypatch.setattr(ckernel, "CACHE_DIR", tmp_path)
    ckernel.load.cache_clear()
    try:
        assert ckernel.load() is not None
    finally:
        ckernel.load.cache_clear()
    assert sorted(tmp_path.iterdir()) == sorted([ckernel.library_path(), *kept])


@pytest.mark.parametrize("cc", [
    ("no-such-compiler-qc", *ckernel.CC[1:]),  # no compiler
    (*ckernel.CC, "-include", "no-such-header-qc.h"),  # a compile error
])
def test_failed_build_falls_back_with_identical_results(cc, tmp_path, monkeypatch):
    g = build_graph(TopologySpec("lollipop", 12, m=5))

    def runs():
        out = []
        for protocol in ("binary", "quantized"):
            for stride in (0, 7):
                s = _random_state(protocol, g.n, 5)
                out.append((run_to_convergence(protocol, g, s, np.random.default_rng(5), 10**5,
                                               stride), s))
        return out

    expected = runs()
    monkeypatch.setattr(ckernel, "CC", cc)
    monkeypatch.setattr(ckernel, "CACHE_DIR", tmp_path)
    ckernel.load.cache_clear()
    try:
        assert ckernel.load() is None
        assert runs() == expected
    finally:
        ckernel.load.cache_clear()
    assert list(tmp_path.iterdir()) == []  # no library, whole or partial, is left behind


@needs_cc
def test_the_c_source_compiles_without_a_warning(tmp_path):
    # cc itself, not _build: a build removes the cache's other libraries
    out = tmp_path / "warnings.so"
    done = subprocess.run([ckernel.CC[0], "-x", "c", "-", *ckernel.CC[1:], "-Wall", "-Wextra",
                           "-Werror", "-o", str(out)], input=ckernel.SOURCE.encode(),
                          capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    assert out.is_file()


# ------------------------------------------------------------------ file IO

def test_read_binary_votes(tmp_path):
    path = tmp_path / "votes.txt"
    path.write_text("# header comment\n+\n-\n.\n+\n")
    assert read_binary_votes(path) == [1, -1, None, 1]
    bad = tmp_path / "bad.txt"
    bad.write_text("x\n")
    with pytest.raises(ValueError):
        read_binary_votes(bad)


def test_read_quantized_values(tmp_path):
    path = tmp_path / "values.txt"
    path.write_text("5\n-3\n# comment\n12\n")
    assert read_quantized_values(path) == [5, -3, 12]
    bad = tmp_path / "bad.txt"
    bad.write_text("2.5\n")
    with pytest.raises(ValueError):
        read_quantized_values(bad)


def _read_graph(path):
    g = read_edge_list(path)
    return g.n, g.edges()


# reader, three data lines, what they read as, what a file of comments reads as
READERS = {
    "votes": (read_binary_votes, ("+", "-", "."), [1, -1, None], []),
    "values": (read_quantized_values, ("5", "-3", "12"), [5, -3, 12], []),
    "edges": (_read_graph, ("0 1", "1 2", "0 2"), (3, [(0, 1), (0, 2), (1, 2)]), (1, [])),
}


@pytest.mark.parametrize("name", READERS)
def test_readers_share_one_line_format(name, tmp_path):
    read, (first, second, third), parsed, no_data = READERS[name]
    path = tmp_path / "in.txt"
    path.write_bytes(f"# header\r\n{first}#x\r\n \t \r\n{second}  # note\r\n#\r\n"
                     f"{third}\r\n".encode())
    assert read(path) == parsed
    path.write_bytes(b"# only\r\n   # comments\n\n \t\r\n")
    assert read(path) == no_data
