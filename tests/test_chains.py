"""The exact chains of ``qconsensus.chains`` against pinned means, the kernels and
the meeting-time bounds."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

from qconsensus.chains import convergence_ticks, meeting_table
from qconsensus.checks import MC_SIGMAS
from qconsensus.consensus import STRONG_NEG, STRONG_POS, BinaryState, run_to_convergence
from qconsensus.graphs import Graph, complete_graph, line_graph, star_graph
from qconsensus.walks import (COUPLINGS, SolverError, hidden_vertex, hitting_table, potential,
                              transition_matrix)

from conftest import KERNEL_PATHS, connected_graphs, kernel_path

SPLIT = Graph.from_edges(4, [(0, 1), (2, 3)])


def majority_one_placements(n: int) -> list[tuple[int, ...]]:
    """Every start of the majority_one init on n nodes: floor(n/2) strong negatives."""
    return [tuple(STRONG_NEG if i in neg else STRONG_POS for i in range(n))
            for neg in itertools.combinations(range(n), n // 2)]


@pytest.mark.parametrize("g,low,mean,high", [
    (line_graph(5), 27.467, 32.638, 42.377),
    (star_graph(5), 22.978, 23.353, 23.916),
    (complete_graph(5), 20.5, 20.5, 20.5),
])
def test_binary_means_over_every_majority_one_placement(g, low, mean, high):
    ticks = convergence_ticks(g, "binary", majority_one_placements(5))
    assert ticks.shape == (10,)
    assert (ticks.min(), ticks.mean(), ticks.max()) == pytest.approx((low, mean, high), abs=1e-3)


def test_quantized_mean_on_line6_from_one_heavy_end():
    [ticks] = convergence_ticks(line_graph(6), "quantized", [(8, 0, 0, 0, 0, 0)])
    assert ticks == pytest.approx(57.386, abs=1e-3)


@pytest.mark.parametrize("path", KERNEL_PATHS)
@pytest.mark.parametrize("g,seed", [(line_graph(5), 341), (star_graph(5), 342)])
def test_both_kernel_paths_hit_the_exact_binary_mean(path, g, seed):
    start = (STRONG_POS,) * 3 + (STRONG_NEG,) * 2
    [exact] = convergence_ticks(g, "binary", [start])
    runs = 4000
    rng = np.random.default_rng(seed)
    with kernel_path(path):
        ticks = [run_to_convergence("binary", g, BinaryState.from_opinions(start), rng,
                                    10**6).ticks for _ in range(runs)]
    se = np.std(ticks, ddof=1) / math.sqrt(runs)
    assert abs(np.mean(ticks) - exact) <= MC_SIGMAS * se


def _meeting_tables(g: Graph) -> tuple[dict, float, np.ndarray]:
    """Both couplings' meeting tables, checked against the bounds they obey on every
    connected graph, with H_max and the potential table phi of the biased walk."""
    h = hitting_table(transition_matrix(g, "biased"))
    t = hidden_vertex(h)
    phi = np.array([[potential(h, t, x, y) for y in range(g.n)] for x in range(g.n)])
    off = ~np.eye(g.n, dtype=bool)
    tables = {coupling: meeting_table(g, coupling) for coupling in COUPLINGS}
    for m in tables.values():
        np.testing.assert_allclose(m, m.T, rtol=1e-9)
        assert not m[~off].any()
        assert m.max() <= h.max_hitting() * (1 + 1e-9)
        assert (m[off] <= phi[off] * (1 + 1e-9)).all()
    assert tables["X"].max() <= 2 * tables["Xprime"].max() * (1 + 1e-9)
    return tables, h.max_hitting(), phi


@given(connected_graphs(max_n=8))
@settings(max_examples=40, deadline=None)
def test_meeting_tables_obey_the_hitting_and_potential_bounds(g):
    _meeting_tables(g)


def test_complete_graph_meets_every_meeting_bound_with_equality():
    g = complete_graph(9)
    tables, h_max, phi = _meeting_tables(g)
    off = ~np.eye(g.n, dtype=bool)
    assert h_max == pytest.approx(36.0, rel=1e-12)
    for bound in (h_max, phi[off], 2 * tables["Xprime"][off]):
        np.testing.assert_allclose(tables["X"][off], bound, rtol=1e-12)


@given(connected_graphs(max_n=7))
@settings(max_examples=40, deadline=None)
def test_the_meeting_table_is_the_q_setting1_chain(g):
    # A 2 at a and a 0 at b among 1s converge exactly when the edge joining them fires,
    # and any other firing that touches one of them moves it: coupling X's meeting.
    # convergence_ticks enumerates that chain state by state, with no use of the operator.
    pairs = [(a, b) for a in range(g.n) for b in range(g.n) if a != b]
    starts = [[2 if i == a else 0 if i == b else 1 for i in range(g.n)] for a, b in pairs]
    table = meeting_table(g, "X")
    np.testing.assert_allclose([table[pair] for pair in pairs],
                               convergence_ticks(g, "quantized", starts), rtol=1e-9)


@pytest.mark.parametrize("n", [5, 11, 21, 41])
def test_star_leaves_meet_in_n_squared_minus_one_over_two_ticks(n):
    leaves = meeting_table(star_graph(n), "X")[1:, 1:]
    np.testing.assert_allclose(leaves[~np.eye(n - 1, dtype=bool)], (n * n - 1) / 2, rtol=1e-9)


@pytest.mark.parametrize("solve", [
    lambda: meeting_table(SPLIT, "X"),
    lambda: convergence_ticks(SPLIT, "binary", [(STRONG_POS,) * 2 + (STRONG_NEG,) * 2]),
])
def test_a_disconnected_graph_has_no_exact_mean(solve):
    with pytest.raises(SolverError, match="reducible"):
        solve()


def test_a_converged_start_is_zero_ticks_without_a_solve(monkeypatch):
    def solve(*args):
        raise AssertionError("no solve expected")

    monkeypatch.setattr(np.linalg, "solve", solve)
    g = star_graph(5)
    converged = [(STRONG_POS,) * 5, (-1, STRONG_NEG, -1, -1, -1)]
    assert convergence_ticks(g, "binary", converged).tolist() == [0.0, 0.0]
    assert convergence_ticks(g, "quantized", [(3, 4, 4, 3, 4)]).tolist() == [0.0]
    assert convergence_ticks(g, "quantized", []).tolist() == []
    monkeypatch.undo()
    # a converged start beside one that needs the solve
    ticks = convergence_ticks(g, "binary", [converged[0], (STRONG_POS,) * 3 + (STRONG_NEG,) * 2])
    assert ticks[0] == 0.0 and ticks[1] > 0
