import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from qconsensus.graphs import (
    Graph,
    TopologySpec,
    build_graph,
    er_probability,
    line_graph,
    star_graph,
)

from conftest import connected_graphs


# Hand-enumerated oracle for the four pairwise voting rules:
#   1. equal opinions stay put;
#   2. a strong opinion flips an opposing weak one and moves across;
#   3. a strong opinion swaps with an agreeing weak one;
#   4. exact opposites both turn weak, exchanging signs.
UPDATE_TABLE = {
    (2, 2): (2, 2),
    (1, 1): (1, 1),
    (-1, -1): (-1, -1),
    (-2, -2): (-2, -2),
    (2, -2): (-1, 1),
    (-2, 2): (1, -1),
    (1, -1): (-1, 1),
    (-1, 1): (1, -1),
    (2, 1): (1, 2),
    (1, 2): (2, 1),
    (-2, -1): (-1, -2),
    (-1, -2): (-2, -1),
    (2, -1): (1, 2),
    (-1, 2): (2, 1),
    (-2, 1): (-1, -2),
    (1, -2): (-2, -1),
}

OPINIONS = (2, 1, -1, -2)


def test_binary_update_matches_table_on_all_16_pairs():
    for a in OPINIONS:
        for b in OPINIONS:
            assert binary_update(a, b) == UPDATE_TABLE[(a, b)], (a, b)


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
        assert s.s_plus == 1 and s.s_minus == 0
        assert s.w_plus + s.w_minus == 40
        totals += s.w_plus
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
    g = build_graph(TopologySpec("erdos_renyi", 51, p=er_probability(51), seed=51))
    rng = np.random.default_rng(9)
    opinions = [STRONG_POS] * 26 + [STRONG_NEG] * 25
    rng.shuffle(opinions)
    s = BinaryState.from_opinions(list(opinions))
    surplus = s.s_plus - s.s_minus
    strong = s.s_plus + s.s_minus
    for _ in range(20_000):
        binary_step(s, g, rng)
        assert s.s_plus - s.s_minus == surplus
        now = s.s_plus + s.s_minus
        assert now <= strong and (strong - now) % 2 == 0
        strong = now
    assert s.counts == (
        s.opinions.count(2), s.opinions.count(-2),
        s.opinions.count(1), s.opinions.count(-1),
    )


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
    g = build_graph(TopologySpec("erdos_renyi", 100, p=er_probability(100), seed=100))
    rng = np.random.default_rng(10)
    s = QuantizedState.from_values(rng.integers(1, 101, size=100).tolist())
    total = s.q_sum
    spread = s.spread
    for _ in range(20_000):
        quantized_step(s, g, rng)
        assert s.spread <= spread
        spread = s.spread
    assert sum(s.values) == total
    assert s.vmin == min(s.values) and s.vmax == max(s.values)


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

def _first_step_expected_ticks():
    """Independent oracle: exact expected ticks for line(3) from (2, 0, 1).

    Enumerates the reachable states of the two-edge activation chain (each
    edge fires with probability 1/2 per tick) and solves the linear system
    of first-step equations.
    """
    def successors(vals):
        out = []
        for (u, v) in ((0, 1), (1, 2)):
            a, b = vals[u], vals[v]
            if a - b >= 2:
                na, nb = a - 1, b + 1
            elif b - a >= 2:
                na, nb = a + 1, b - 1
            else:
                na, nb = b, a
            w = list(vals)
            w[u], w[v] = na, nb
            out.append(tuple(w))
        return out

    def absorbed(vals):
        return all(v in (1, 2) for v in vals)

    states = set()
    frontier = [(2, 0, 1)]
    while frontier:
        state = frontier.pop()
        if state in states:
            continue
        states.add(state)
        if not absorbed(state):
            frontier.extend(successors(state))
    order = {state: i for i, state in enumerate(sorted(states))}
    a = np.eye(len(states))
    b = np.zeros(len(states))
    for state, i in order.items():
        if absorbed(state):
            continue
        b[i] = 1.0
        for nxt in successors(state):
            a[i, order[nxt]] -= 0.5
    expected = np.linalg.solve(a, b)
    return expected[order[(2, 0, 1)]]


def test_line3_quantized_expected_ticks_oracle():
    expected = _first_step_expected_ticks()
    assert expected == pytest.approx(3.0, abs=1e-12)
    g = line_graph(3)
    runs = 40_000
    total = 0
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
    with pytest.raises(ValueError):
        run_to_convergence("binary", g, QuantizedState.from_values([1, 2, 3]),
                           np.random.default_rng(0), 10)
    with pytest.raises(ValueError):
        run_to_convergence("ternary", g, QuantizedState.from_values([1, 2, 3]),
                           np.random.default_rng(0), 10)


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
    assert fast.counts == slow.counts


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
    assert (fast.vmin, fast.vmax, fast.off_target) == (slow.vmin, slow.vmax, slow.off_target)


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


# ------------------------------------------- batch kernel vs reference stepper

def _reference_run(protocol, g, s, rng, max_ticks, stride):
    """``run_to_convergence`` rebuilt from the per-tick stepper and its caches."""
    binary = protocol == "binary"
    step, done = (binary_step, binary_converged) if binary else (quantized_step, quantized_converged)

    def row():
        return (s.tick, *s.counts) if binary else (s.tick, lyapunov(s), s.vmin, s.vmax)

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


def _assert_kernel_matches_stepper(protocol, g, seed, budget, stride):
    fast = _random_state(protocol, g.n, seed)
    slow = _random_state(protocol, g.n, seed)
    res = run_to_convergence(protocol, g, fast, np.random.default_rng(seed), budget, stride)
    ticks, converged, detail, rows = _reference_run(
        protocol, g, slow, np.random.default_rng(seed), budget, stride)
    assert (res.ticks, res.converged, res.detail) == (ticks, converged, detail)
    assert res.trace == rows
    assert bool(res.trace_header) == bool(stride)
    assert fast.tick == slow.tick == ticks
    if protocol == "binary":
        assert fast.opinions == slow.opinions
        assert fast.counts == slow.counts
    else:
        assert fast.values == slow.values
        assert (fast.vmin, fast.vmax, fast.off_target) == (slow.vmin, slow.vmax, slow.off_target)
        assert fast._counts == slow._counts


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
