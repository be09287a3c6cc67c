import csv
import io
import json
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qconsensus import ckernel, harness
from qconsensus.consensus import (
    QuantizedState,
    binary_init,
    quantized_converged,
    read_binary_votes,
    read_quantized_values,
    run_to_convergence,
)
from qconsensus.graphs import TopologySpec, build_graph, line_graph, star_graph
from qconsensus.harness import (
    REFERENCE_CURVES,
    SWEEP_CSV_HEADER,
    SweepConfig,
    SweepRecord,
    default_n_values,
    fit_scaling,
    init_majority_one,
    init_q_setting1,
    init_q_setting2,
    initial_state,
    iter_sweep,
    lollipop_clique_size,
    round_rng,
    seed_sequence,
    write_curves_csv,
    write_rounds_csv,
    write_sweep_csv,
    write_sweep_table,
)
from qconsensus.rows import open_out

from conftest import KERNEL_PATHS, kernel_path, needs_cc


# ------------------------------------------------------------------- inits

def test_majority_one_counts():
    s = init_majority_one(21, np.random.default_rng(0))
    assert s.counts == (11, 10, 0, 0)
    s = init_majority_one(3, np.random.default_rng(1))
    assert (s.s_plus, s.s_minus) == (2, 1)


def test_majority_one_rejects_even_n():
    with pytest.raises(ValueError, match="odd"):
        init_majority_one(22, np.random.default_rng(0))


def test_majority_one_positions_vary_but_counts_dont():
    placements = set()
    for seed in range(100):
        s = init_majority_one(9, np.random.default_rng(seed))
        assert (s.s_plus, s.s_minus) == (5, 4)
        placements.add(tuple(s.opinions))
    assert len(placements) > 50


def test_q_setting1_line3_is_permutation():
    s = init_q_setting1(line_graph(3), np.random.default_rng(2))
    assert sorted(s.values) == [0, 1, 2]
    assert s.q_sum == 3


def test_q_setting1_sum_is_n_and_target_all_ones():
    g = line_graph(11)
    s = init_q_setting1(g, np.random.default_rng(3))
    assert s.q_sum == g.n
    assert (s.q, s.r) == (1, 0)
    rng = np.random.default_rng(4)
    res = run_to_convergence("quantized", g, s, rng, 150 * g.n**3)
    assert res.converged
    assert s.values == [1] * g.n


def test_q_setting1_excludes_star_hub():
    g = star_graph(9)
    for seed in range(60):
        s = init_q_setting1(g, np.random.default_rng(seed), exclude=(0,))
        assert s.values[0] == 1


def test_q_setting1_requires_three_nodes():
    with pytest.raises(ValueError):
        init_q_setting1(line_graph(2), np.random.default_rng(0))


def _q_setting1_by_eligible_list(n, rng, exclude):
    """The values of init_q_setting1 as it was first written: the draws index a list of
    the eligible nodes."""
    excluded = set(exclude)
    eligible = [i for i in range(n) if i not in excluded]
    i, j = rng.choice(len(eligible), size=2, replace=False)
    values = [1] * n
    values[eligible[int(i)]] = 2
    values[eligible[int(j)]] = 0
    return values


@given(st.integers(3, 40), st.integers(0, 2**32 - 1),
       st.lists(st.integers(-3, 45), max_size=6))
@example(9, 0, [0])  # the star hub
@example(3, 5, [1, 1, 7, -1])  # repeats and out-of-range nodes
@example(5, 2, [0, 1, 2])  # two eligible nodes left
def test_q_setting1_picks_the_nodes_of_the_eligible_list(n, seed, exclude):
    if n - len({i for i in exclude if 0 <= i < n}) < 2:
        with pytest.raises(ValueError, match="two eligible nodes"):
            init_q_setting1(line_graph(n), np.random.default_rng(seed), exclude)
        return
    for k in range(3):  # several streams per case
        ours, reference = np.random.default_rng([seed, k]), np.random.default_rng([seed, k])
        s = init_q_setting1(line_graph(n), ours, exclude)
        assert s.values == _q_setting1_by_eligible_list(n, reference, exclude)
        assert ours.bit_generator.state == reference.bit_generator.state


def test_q_setting2_degenerate_range_converges_immediately():
    s = init_q_setting2(8, np.random.default_rng(0), lo=5, hi=5)
    assert s.values == [5] * 8
    assert quantized_converged(s)


def test_q_setting2_bounds_and_mean():
    rng = np.random.default_rng(5)
    s = init_q_setting2(4000, rng, lo=1, hi=100)
    assert min(s.values) >= 1 and max(s.values) <= 100
    # uniform oracle: mean 50.5, sd sqrt((100^2-1)/12)
    se = math.sqrt((100**2 - 1) / 12 / 4000)
    assert abs(np.mean(s.values) - 50.5) <= 4 * se


def test_q_setting2_rejects_bad_range():
    with pytest.raises(ValueError):
        init_q_setting2(5, np.random.default_rng(0), lo=7, hi=3)


@pytest.mark.parametrize("protocol, init, kind, direct", [
    ("binary", "majority_one", "line", lambda g, rng, path: init_majority_one(g.n, rng)),
    ("binary", "file", "line",
     lambda g, rng, path: binary_init(g, read_binary_votes(path / "votes"), rng)),
    ("quantized", "q_setting1", "star", lambda g, rng, path: init_q_setting1(g, rng, (0,))),
    ("quantized", "q_setting1", "line", lambda g, rng, path: init_q_setting1(g, rng)),
    ("quantized", "q_setting2", "line", lambda g, rng, path: init_q_setting2(g.n, rng, 3, 9)),
    ("quantized", "file", "star",
     lambda g, rng, path: QuantizedState.from_values(read_quantized_values(path / "values"))),
])
def test_initial_state_matches_the_init_functions(protocol, init, kind, direct, tmp_path):
    (tmp_path / "votes").write_text("+\n.\n-\n.\n+\n.\n-\n.\n+\n")
    (tmp_path / "values").write_text("\n".join(map(str, range(9))))
    init_file = tmp_path / ("votes" if protocol == "binary" else "values")
    g = build_graph(TopologySpec(kind, 9))
    rng, reference = np.random.default_rng(11), np.random.default_rng(11)
    state = initial_state(protocol, init, g, rng, kind, 3, 9, init_file)
    assert state == direct(g, reference, tmp_path)
    assert rng.random() == reference.random()  # the run continues on the same stream


def test_initial_state_rejects_an_init_of_the_other_protocol():
    g = build_graph(TopologySpec("line", 9))
    with pytest.raises(ValueError, match="binary protocol cannot use init 'q_setting2'"):
        initial_state("binary", "q_setting2", g, np.random.default_rng(0))
    with pytest.raises(ValueError, match="quantized protocol cannot use init 'majority_one'"):
        initial_state("quantized", "majority_one", g, np.random.default_rng(0))
    with pytest.raises(ValueError, match="requires an initial-state file"):
        initial_state("quantized", "file", g, np.random.default_rng(0))


# ------------------------------------------------------------------ config

def test_sweep_config_validation():
    with pytest.raises(ValueError, match="odd"):
        SweepConfig("star", (10, 20), "binary", "majority_one", 2, 1)
    with pytest.raises(ValueError, match="increasing"):
        SweepConfig("star", (9, 9), "binary", "majority_one", 2, 1)
    with pytest.raises(ValueError, match="rounds"):
        SweepConfig("star", (9,), "binary", "majority_one", 0, 1)
    with pytest.raises(ValueError, match="init"):
        SweepConfig("star", (9,), "binary", "q_setting1", 2, 1)
    with pytest.raises(ValueError, match="init"):
        SweepConfig("star", (9,), "quantized", "majority_one", 2, 1)
    with pytest.raises(ValueError, match="protocol"):
        SweepConfig("star", (9,), "ternary", "majority_one", 2, 1)
    with pytest.raises(ValueError, match="max_ticks"):
        SweepConfig("star", (9,), "binary", "majority_one", 2, 1, max_ticks=-1)
    with pytest.raises(ValueError, match="lo must be <= hi"):
        SweepConfig("star", (9,), "quantized", "q_setting2", 2, 1, lo=9, hi=3)
    with pytest.raises(ValueError, match="cannot use an edge list"):
        SweepConfig("edge_list", (9,), "binary", "majority_one", 2, 1)
    with pytest.raises(ValueError, match="erdos_renyi requires 0 < p <= 1, got p=0"):
        SweepConfig("erdos_renyi", (9, 11), "binary", "majority_one", 2, 1, p=0.0)
    with pytest.raises(ValueError, match="lollipop requires 3 <= m <= n, got m=2, n=9"):
        SweepConfig("lollipop", (9,), "binary", "majority_one", 2, 1, m=2)
    with pytest.raises(ValueError, match="lollipop requires 3 <= m <= n, got m=7, n=5"):
        SweepConfig("lollipop", (5, 7), "quantized", "q_setting2", 2, 1, m=7)
    with pytest.raises(ValueError, match="q_setting1 requires n >= 3, got 2"):
        SweepConfig("line", (2, 3), "quantized", "q_setting1", 2, 1)
    with pytest.raises(ValueError, match="unknown topology kind 'ring'"):
        SweepConfig("ring", (9,), "binary", "majority_one", 2, 1)


@pytest.mark.parametrize("kind", ["star", "line", "lollipop", "erdos_renyi"])
def test_sweep_config_rejects_a_negative_seed_at_construction(kind):
    with pytest.raises(ValueError):
        SweepConfig(kind, (5,), "binary", "majority_one", 1, master_seed=-1)


def test_initial_state_checks_lo_and_hi_for_every_init():
    g = build_graph(TopologySpec("line", 5))
    for protocol, init in (("binary", "majority_one"), ("quantized", "q_setting1")):
        with pytest.raises(ValueError, match="lo must be <= hi, got lo=9, hi=3"):
            initial_state(protocol, init, g, np.random.default_rng(0), lo=9, hi=3)


def test_spec_for_lollipop_uses_extremal_clique():
    cfg = SweepConfig("lollipop", (9, 15), "binary", "majority_one", 1, 1)
    spec = cfg.spec_for(15)
    assert spec.m == lollipop_clique_size(15) == 10


def test_spec_for_er_derives_seed_from_master_and_n():
    cfg = SweepConfig("erdos_renyi", (21,), "binary", "majority_one", 1, master_seed=5)
    again = SweepConfig("erdos_renyi", (21,), "binary", "majority_one", 1, master_seed=5)
    assert cfg.spec_for(21) == again.spec_for(21)
    other = SweepConfig("erdos_renyi", (21,), "binary", "majority_one", 1, master_seed=6)
    assert other.spec_for(21).seed != cfg.spec_for(21).seed


def test_default_max_ticks_is_50x_hitting_bound():
    cfg = SweepConfig("star", (9,), "binary", "majority_one", 1, 1)
    assert cfg.max_ticks_for(9) == 50 * 3 * 9**3
    capped = SweepConfig("star", (9,), "binary", "majority_one", 1, 1, max_ticks=123)
    assert capped.max_ticks_for(9) == 123


def test_default_grids():
    assert default_n_values("star") == tuple(range(21, 202, 20))
    assert default_n_values("line") == tuple(range(9, 66, 8))
    assert default_n_values("lollipop") == tuple(range(9, 64, 6))
    assert default_n_values("star", full_grid=True)[-1] == 481
    assert all(n % 2 == 1 for kind in ("star", "line", "lollipop", "erdos_renyi")
               for n in default_n_values(kind))


# ------------------------------------------------------------------- sweeps

def test_run_sweep_single_point():
    cfg = SweepConfig("star", (3,), "quantized", "q_setting1", 1, master_seed=2)
    records = list(iter_sweep(cfg))
    assert len(records) == 1
    rec = records[0]
    assert rec.n == 3
    assert rec.rounds_total == 1
    assert rec.rounds_converged == 1
    assert math.isfinite(rec.mean_ticks)
    assert rec.std_ticks == 0.0


def test_run_sweep_reproducible():
    cfg = SweepConfig("erdos_renyi", (9, 11), "quantized", "q_setting2", 3, master_seed=42)
    a = list(iter_sweep(cfg))
    b = list(iter_sweep(cfg))
    assert a == b  # bit-identical records, including float means


def test_sweep_rounds_are_order_independent():
    cfg = SweepConfig("line", (9,), "quantized", "q_setting2", 4, master_seed=3)
    rec = list(iter_sweep(cfg))[0]
    # re-running any single round from its derived seed reproduces its ticks
    g = build_graph(cfg.spec_for(9))
    for ri, ticks, ok in rec.round_ticks[::-1]:
        rng = round_rng(cfg.master_seed, 9, ri)
        state = initial_state(cfg.protocol, cfg.init, g, rng, cfg.kind, cfg.lo, cfg.hi)
        res = run_to_convergence(cfg.protocol, g, state, rng, cfg.max_ticks_for(9))
        assert (res.ticks, res.converged) == (ticks, ok)


def test_sweep_records_timeouts_not_fatal():
    cfg = SweepConfig("line", (9,), "quantized", "q_setting2", 3, master_seed=1, max_ticks=1)
    rec = list(iter_sweep(cfg))[0]
    assert rec.rounds_total == 3
    assert rec.rounds_converged == 0
    assert math.isnan(rec.mean_ticks)
    assert all(not ok for _, _, ok in rec.round_ticks)


def test_sweep_mean_over_converged_rounds_matches_dump():
    cfg = SweepConfig("star", (7,), "quantized", "q_setting2", 5, master_seed=8)
    rec = list(iter_sweep(cfg))[0]
    ticks = [t for _, t, ok in rec.round_ticks if ok]
    assert rec.mean_ticks == pytest.approx(float(np.mean(ticks)))
    assert rec.std_ticks == pytest.approx(float(np.std(ticks, ddof=1)))


# numpy's pairwise sum adds 8 or more items in another order than fewer
@example([2**62, 1, 2**62 - 1, 3, 0, 2**61, 7])
@example([2**62, 1, 2**62 - 1, 3, 0, 2**61, 7, 2**40])
@example([2**62 - k for k in range(40)])
@given(st.lists(st.integers(0, 2**62), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_sweep_record_mean_and_std_are_numpys_bit_for_bit(ticks):
    rounds = iter(ticks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "run_to_convergence",
                   lambda *args: SimpleNamespace(ticks=next(rounds), converged=True))
        cfg = SweepConfig("line", (3,), "quantized", "q_setting1", len(ticks), master_seed=0)
        [rec] = iter_sweep(cfg)
    assert [t for _, t, _ in rec.round_ticks] == ticks
    std = float(np.std(ticks, ddof=1)) if len(ticks) > 1 else 0.0
    assert (rec.mean_ticks.hex(), rec.std_ticks.hex()) == (float(np.mean(ticks)).hex(), std.hex())


# ---------------------------------------------------------------- scaling fit

def records(points):
    """One converged-round SweepRecord per (n, mean ticks) point."""
    return [SweepRecord(n, mean, 0.0, 1, 1) for n, mean in points]


def test_fit_recovers_pure_cubic_exactly():
    points = [(n, 2.5 * n**3) for n in (10, 20, 40, 80)]
    fit = fit_scaling(records(points))
    assert abs(fit.exponent - 3.0) <= 1e-9
    assert fit.coefficient == pytest.approx(2.5, rel=1e-9)
    assert fit.residual <= 1e-18


def test_fit_constant_data_has_zero_exponent():
    fit = fit_scaling(records((n, 7.0) for n in (5, 10, 20)))
    assert abs(fit.exponent) <= 1e-9


def test_fit_power_model_on_n2_logn_curve():
    # evaluating c*n^2*ln(n) on the sweep grid and fitting a pure power law
    # must land between 2 and 2.5 (the log factor inflates the slope)
    points = [(n, 0.63 * n * n * math.log(n)) for n in range(21, 482, 20)]
    fit = fit_scaling(records(points))
    assert 2.0 < fit.exponent < 2.5


def test_fit_requires_three_points():
    with pytest.raises(ValueError):
        fit_scaling(records([(3, 5.0), (5, 9.0)]))
    # a size whose rounds all timed out gives no point
    timed_out = SweepRecord(7, float("nan"), float("nan"), 0, 2)
    with pytest.raises(ValueError, match="at least 3 points, got 2"):
        fit_scaling(records([(3, 5.0), (5, 9.0)]) + [timed_out])


def test_fit_leaves_out_sizes_with_a_mean_of_zero():
    points = [(3, 5.0), (5, 9.0), (7, 14.0)]
    assert fit_scaling(records([(1, 0.0)] + points)) == fit_scaling(records(points))
    with pytest.raises(ValueError, match="at least 3 points, got 2"):
        fit_scaling(records([(1, 0.0)] + points[:2]))


@given(st.floats(0.1, 100), st.floats(0.1, 3.5))
@settings(max_examples=40)
def test_fit_recovers_random_power_laws(c, a):
    points = [(n, c * n**a) for n in (8, 16, 32, 64, 128)]
    fit = fit_scaling(records(points))
    assert fit.exponent == pytest.approx(a, abs=1e-7)
    assert fit.coefficient == pytest.approx(c, rel=1e-6)


# ------------------------------------------------------------------ CSV files

def test_sweep_csv_schema(tmp_path):
    cfg = SweepConfig("star", (5, 7), "quantized", "q_setting1", 2, master_seed=9)
    records = list(iter_sweep(cfg))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(cfg, records, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(SWEEP_CSV_HEADER)
    assert rows[1][:4] == ["star", "quantized", "q_setting1", "5"]
    assert rows[1][8] == "9"
    assert float(rows[2][6]) == pytest.approx(records[1].mean_ticks)


class FlushLog(io.StringIO):
    """A text buffer that remembers what it held at its last flush."""

    flushed = ""

    def flush(self):
        super().flush()
        self.flushed = self.getvalue()


def test_sweep_rows_stream_each_row_before_the_next_record():
    cfg = SweepConfig("star", (5, 7, 9), "quantized", "q_setting1", 2, master_seed=9)
    records = list(iter_sweep(cfg))
    fh = FlushLog()

    def paced():
        for k, rec in enumerate(records):
            lines = fh.flushed.splitlines()
            assert len(lines) == k + 1 and lines[0] == ",".join(SWEEP_CSV_HEADER)
            assert [line.split(",")[3] for line in lines[1:]] == [str(r.n) for r in records[:k]]
            yield rec

    assert write_sweep_table(fh, "csv", cfg, paced()) == records
    assert fh.flushed == fh.getvalue() and len(fh.flushed.splitlines()) == 4


def test_a_streamed_sweep_file_holds_only_its_header_and_the_rows_written(tmp_path):
    cfg = SweepConfig("star", (5, 7, 9), "quantized", "q_setting1", 2, master_seed=9)
    records = list(iter_sweep(cfg))
    path = tmp_path / "sweep.csv"
    path.write_text("an,older,file\n" * 1000)

    def lines_so_far(k):
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_CSV_HEADER)
        assert [line.split(",")[3] for line in lines[1:]] == [str(r.n) for r in records[:k]]

    def paced():
        for k, rec in enumerate(records):
            lines_so_far(k)
            yield rec
        lines_so_far(len(records))

    with open_out(path) as fh:
        assert write_sweep_table(fh, "csv", cfg, paced()) == records
    lines_so_far(len(records))


def test_a_json_sweep_leaves_an_older_file_whole_until_its_last_record(tmp_path):
    cfg = SweepConfig("star", (5, 7), "quantized", "q_setting1", 2, master_seed=9)
    records = list(iter_sweep(cfg))
    path = tmp_path / "sweep.json"
    path.write_text("an older file\n" * 1000)

    def paced():
        for rec in records:
            assert path.read_text() == "an older file\n" * 1000
            yield rec

    with open_out(path) as fh:
        assert write_sweep_table(fh, "json", cfg, paced()) == records
    assert [row["n"] for row in json.loads(path.read_text())] == [5, 7]


def test_rounds_csv(tmp_path):
    cfg = SweepConfig("star", (5,), "quantized", "q_setting2", 3, master_seed=9)
    records = list(iter_sweep(cfg))
    path = tmp_path / "rounds.csv"
    write_rounds_csv(records, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "n,round,ticks,converged"
    assert len(rows) == 4


def test_curves_csv_has_reference_columns(tmp_path):
    cfg = SweepConfig("star", (21, 41), "binary", "majority_one", 1, master_seed=1)
    records = list(iter_sweep(cfg))
    path = tmp_path / "curves.csv"
    write_curves_csv(cfg, records, path)
    rows = list(csv.reader(path.read_text().strip().splitlines()))
    assert rows[0] == ["n", "mean_ticks", "0.63*n^2*ln(n)"]
    assert float(rows[1][2]) == pytest.approx(0.63 * 21 * 21 * math.log(21))


def test_reference_curves_cover_all_figure_settings():
    kinds = ("star", "line", "lollipop", "erdos_renyi")
    for kind in kinds:
        assert (kind, "binary", "majority_one") in REFERENCE_CURVES
        assert (kind, "quantized", "q_setting1") in REFERENCE_CURVES
        assert (kind, "quantized", "q_setting2") in REFERENCE_CURVES


# Words at the edges of the uint32 fast path and of numpy's 32-bit word split.
_EDGE_WORDS = (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1)
_WORDS = st.lists(st.one_of(
    st.sampled_from(_EDGE_WORDS),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**32 - 1).map(np.uint32),
), max_size=4)


@given(_WORDS)
@settings(max_examples=200)
def test_seed_sequence_keeps_the_stream_of_the_word_list(words):
    fast = np.random.default_rng(seed_sequence(*words)).random(64)
    listed = np.random.default_rng(np.random.SeedSequence(list(words))).random(64)
    assert np.array_equal(fast, listed)


@pytest.mark.parametrize("words", [
    (-1,), (3, -5), (np.int64(-3),), (1.5,), (2, 0.0), (np.float64(1.0),), (2**32, -1),
])
def test_seed_sequence_rejects_what_the_word_list_rejects(words):
    with pytest.raises(Exception) as listed:
        np.random.SeedSequence(list(words))
    with pytest.raises(listed.type):
        seed_sequence(*words)


@given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=9))  # > 4: the third loop
@settings(max_examples=300)
@example([2**32 - 1] * 9)
def test_seed_words_are_numpys(words):
    numpys = np.random.SeedSequence(list(words))
    ours = seed_sequence(*words)
    for k in (1, 4, 8):
        for dtype in (np.uint32, np.uint64):
            state = ours.generate_state(k, dtype)
            assert state.dtype == dtype
            np.testing.assert_array_equal(state, numpys.generate_state(k, dtype))


@needs_cc
def test_seed_sequence_takes_the_compiled_words_only_for_32_bit_words():
    assert isinstance(seed_sequence(0, 2**32 - 1), ckernel.SeedWords)
    assert isinstance(seed_sequence(1, 2**32), np.random.SeedSequence)
    with pytest.raises(ValueError, match="only support uint32 or uint64"):
        seed_sequence(1, 2).generate_state(4, np.int64)


@pytest.mark.parametrize("path", KERNEL_PATHS)
@pytest.mark.parametrize("words", [(41, 5, 7), (0, 1, 0), (2**32 - 1, 481, 2**32 - 1)])
def test_round_rng_is_seeded_as_numpy_seeds_the_words(path, words):
    with kernel_path(path):
        rng = round_rng(*words)
    expected = np.random.default_rng(np.random.SeedSequence(list(words)))
    assert rng.bit_generator.state == expected.bit_generator.state


@needs_cc
def test_seed_words_survive_a_pickle_and_a_missing_library(monkeypatch):
    rng = round_rng(41, 5, 7)
    again = pickle.loads(pickle.dumps(rng))
    assert again.bit_generator.state == rng.bit_generator.state
    words = rng.bit_generator.seed_seq
    expected = np.random.SeedSequence([41, 5, 7]).generate_state(4, np.uint64)
    monkeypatch.setattr(ckernel, "load", lambda: None)
    np.testing.assert_array_equal(words.generate_state(4, np.uint64), expected)
