"""Each invariant check fails, with its detail text, when the code it guards is broken."""

import re

import numpy as np
import pytest

from qconsensus import checks, walks
from qconsensus import consensus as cons
from qconsensus.checks import (
    BINARY_UPDATE_TABLE,
    CheckResult,
    check_binary_conservation,
    check_hitting_bound,
    check_majority_outcome,
    check_quantized_conservation,
    check_quantized_final_state,
)
from qconsensus.cli import EXIT_INVARIANT, main
from qconsensus.consensus import SimResult
from qconsensus.graphs import Graph, line_graph
from qconsensus.harness import init_majority_one, init_q_setting2

from conftest import scalar_ticks

LINE9 = ("line(9)", line_graph(9))


def _once_off_the_edge(apply, change):
    """``apply``, then ``change(s, w)`` on the first call only, w a node off the edge."""
    calls = []

    def wrapped(s, u, v):
        apply(s, u, v)
        if not calls:
            calls.append((u, v))
            change(s, min({0, 1, 2} - {u, v}))
    return wrapped


def _binary_rule(table):
    """Patch the hand table and make every binary update follow it."""
    def patch(mp):
        def apply(s, u, v):
            s.opinions[u], s.opinions[v] = table[s.opinions[u], s.opinions[v]]
        mp.setattr(checks, "BINARY_UPDATE_TABLE", table)
        mp.setattr(cons, "apply_binary_edge", apply)
    return patch


def _binary_apply(apply):
    return lambda mp: mp.setattr(cons, "apply_binary_edge", apply)


def _weaken(s, w):
    s.opinions[w] //= 2  # a strong opinion turns weak, keeping its sign


@pytest.mark.parametrize("patch, detail", [
    (_binary_apply(lambda s, u, v: None), r"update table broken at tick \d+"),
    # a table that creates strength: a weak supporter of a strong voter turns strong ...
    (_binary_rule({**BINARY_UPDATE_TABLE, (2, 1): (2, 2)}),
     r"signed strong surplus changed at tick \d+"),
    # ... or two weak opposites turn strong, which keeps the surplus
    (_binary_rule({**BINARY_UPDATE_TABLE, (1, -1): (2, -2)}),
     r"strong count did not step down by 2 at tick \d+"),
    # a write off the edge escapes the per-tick checks; the final recount sees it
    (_binary_apply(_once_off_the_edge(cons.apply_binary_edge, _weaken)),
     "tracked strong surplus or count disagrees with the opinions"),
])
def test_binary_conservation_reports_a_broken_update(monkeypatch, patch, detail):
    patch(monkeypatch)
    res = check_binary_conservation(LINE9, 5000, 1)
    assert not res.ok and res.name == "binary_conservation"
    assert re.fullmatch(detail + r" on line\(9\)", res.detail), res.detail


def _bump(s, w):
    s.values[w] += 1


def _undercut(s, w):
    s.values[w] = min(s.values) - 2


def _swap(s, u, v):
    s.values[u], s.values[v] = s.values[v], s.values[u]


def _spread_equal_values(s, u, v):
    """The averaging rule, except that equal values move one apart."""
    a, b = s.values[u], s.values[v]
    s.values[u], s.values[v] = (a + 1, b - 1) if a == b else cons.quantized_update(a, b)


@pytest.mark.parametrize("apply, detail", [
    (lambda s, u, v: _bump(s, u), r"value sum changed at tick 1"),
    (_swap, r"non-trivial exchange dropped Lyapunov by < 2 at tick \d+"),
    (_spread_equal_values, r"trivial exchange changed the Lyapunov value at tick \d+"),
    (_once_off_the_edge(cons.apply_quantized_edge, _bump),
     "tracked counts or extrema disagree with the values"),
    # two below the minimum, so the next exchange there leaves one below it
    (_once_off_the_edge(cons.apply_quantized_edge, _undercut), r"max-min increased at tick \d+"),
])
def test_quantized_conservation_reports_a_broken_update(monkeypatch, apply, detail):
    monkeypatch.setattr(cons, "apply_quantized_edge", apply)
    res = check_quantized_conservation(LINE9, 5000, 2)
    assert not res.ok and res.name == "quantized_conservation"
    assert re.fullmatch(detail + r" on line\(9\)", res.detail), res.detail


@pytest.mark.parametrize("check, init, apply", [
    (check_binary_conservation, init_majority_one, "apply_binary_edge"),
    (check_quantized_conservation, init_q_setting2, "apply_quantized_edge"),
])
def test_conservation_checks_apply_the_scalar_tick_stream(monkeypatch, check, init, apply):
    graph = checks.named_graph("erdos_renyi", 21, seed=21)
    ticks = 9000  # more than two of the chunks in which the checks draw their edges
    edges = []

    def record(s, u, v, original=getattr(cons, apply)):
        edges.append((u, v))
        original(s, u, v)
    monkeypatch.setattr(cons, apply, record)
    assert check(graph, ticks, 7).ok
    rng = np.random.default_rng(7)
    init(graph[1].n, rng)
    assert edges == scalar_ticks(graph[1], rng, ticks)


@pytest.mark.parametrize("check", [check_binary_conservation, check_quantized_conservation])
def test_conservation_checks_reject_a_node_without_a_neighbor(check):
    # A tick drawn at the isolated node 1 would apply the non-edge (1, 0).
    with pytest.raises(ValueError, match="^every node needs a neighbor$"):
        check(("isolated", Graph(3, ((2,), (), (0,)))), 100, 7)


def _converged_at_once(end=None):
    """A run_to_convergence that reports convergence at tick 0, after ``end(state)``."""
    def run(protocol, g, state, rng, max_ticks, trace_stride=0):
        if end:
            end(state)
        return SimResult(protocol, g.n, 0, True, "converged")
    return run


def _all_at_q(state):
    state.values[:] = [state.q] * state.n


@pytest.mark.parametrize("check, run, detail", [
    (check_majority_outcome, None, "timed out"),
    (check_quantized_final_state, None, "timed out"),
    (check_majority_outcome, _converged_at_once(), "converged to the minority sign"),
    (check_quantized_final_state, _converged_at_once(), "has a value outside {q, q+1}"),
    (check_quantized_final_state, _converged_at_once(_all_at_q),
     "has wrong multiplicity of q+1"),
])
def test_outcome_checks_report_a_wrong_end(monkeypatch, check, run, detail):
    if run is None:
        monkeypatch.setattr(checks, "default_max_ticks", lambda n: 0)
    else:
        monkeypatch.setattr(cons, "run_to_convergence", run)
    res = check([("line(7)", line_graph(7))], 2, 3)
    assert not res.ok
    assert res.detail == f"line(7) run 0 {detail}"


def _inflate(monkeypatch, x, y, value):
    """Make hitting_table's (x, y) entry read ``value``."""
    table = walks.hitting_table

    def inflated(m):
        h = table(m).h.copy()
        h[x, y] = value
        return walks.HittingTable(m.kind, h)
    monkeypatch.setattr(walks, "hitting_table", inflated)


def test_hitting_bound_reports_each_broken_bound(monkeypatch):
    # line(5): general bound 3 * 5^3 = 375, path-refined bound of (0, 4)
    # 5 * 5 * (1 + 2 + 2 + 1) = 150, exact H(0, 4) = 125/3
    graphs = [("line(5)", line_graph(5))]
    assert walks.hitting_bounds_from(line_graph(5), 0)[4] == (375.0, 150.0)
    with monkeypatch.context() as mp:
        _inflate(mp, 0, 4, 225.0)
        assert check_hitting_bound(graphs) == CheckResult(
            "hitting_bound", False, "line(5): bound ordering broken at (0,4)")
    with monkeypatch.context() as mp:
        _inflate(mp, 0, 4, 375.0)
        assert check_hitting_bound(graphs) == CheckResult(
            "hitting_bound", False, "line(5): H=375.0 >= 375.0")
    with monkeypatch.context() as mp:
        mp.setattr(checks, "path_degree_sums_from", lambda g, x: [0] * (g.n - 1) + [3 * g.n])
        assert check_hitting_bound(graphs) == CheckResult(
            "hitting_bound", False, "line(5): path degree sum >= 3n at (0,4)")
    assert check_hitting_bound(graphs).ok


def test_check_exits_4_and_counts_the_failures(monkeypatch, capsys):
    results = [CheckResult("a", True, "fine"), CheckResult("b", False, "broken"),
               CheckResult("c", False, "broken too")]
    monkeypatch.setattr(checks, "run_all_checks", lambda quick, seed: results)
    assert main(["check", "--quick"]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == "PASS a: fine\nFAIL b: broken\nFAIL c: broken too\n"
    assert captured.err == "2 invariant check(s) failed\n"
