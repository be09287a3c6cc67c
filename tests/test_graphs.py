import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qconsensus
from qconsensus import graphs
from qconsensus.graphs import (
    Graph,
    GraphConstructionError,
    TopologySpec,
    bfs_tree,
    build_graph,
    complete_graph,
    csr,
    er_probability,
    erdos_renyi_graph,
    is_connected,
    line_graph,
    lollipop_graph,
    path_degree_sums_from,
    read_edge_list,
    star_graph,
    tick_edges,
)
from qconsensus.consensus import run_to_convergence
from qconsensus.harness import (DESK_N_VALUES, FULL_N_VALUES, default_n_values, init_majority_one,
                                round_rng, topology_spec)
from qconsensus.walks import sample_hitting

from conftest import connected_graphs, scalar_ticks, tree_path


def test_star_shape():
    g = star_graph(5)
    assert g.degree(0) == 4
    assert all(g.degree(i) == 1 for i in range(1, 5))
    assert g.edge_count() == 4


def test_line_shape():
    g = line_graph(6)
    assert g.edge_count() == 5
    assert g.degree(0) == g.degree(5) == 1
    assert all(g.degree(i) == 2 for i in range(1, 5))


def test_complete_edge_count():
    g = complete_graph(7)
    assert g.edge_count() == 21
    assert all(g.degree(i) == 6 for i in range(7))


def test_lollipop_shape():
    g = lollipop_graph(10, 7)
    for i in range(7):
        for j in range(7):
            if i != j:
                assert j in g.adjacency[i]
    assert g.degree(6) == 7  # junction: 6 clique neighbors plus the tail
    assert g.degree(7) == 2
    assert g.degree(8) == 2
    assert g.degree(9) == 1
    assert g.edge_count() == 7 * 6 // 2 + 3


def test_lollipop_without_tail_is_clique():
    g = lollipop_graph(5, 5)
    assert g.edge_count() == 10


def test_erdos_renyi_edge_count_within_4_sigma():
    n = 50
    p = 5 * math.log(n) / n
    g = build_graph(TopologySpec("erdos_renyi", n, p=p, seed=7))
    assert is_connected(g)
    trials = n * (n - 1) // 2
    mean = trials * p
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(g.edge_count() - mean) <= 4 * sigma


def test_erdos_renyi_deterministic():
    a = erdos_renyi_graph(30, 0.2, 11)
    b = erdos_renyi_graph(30, 0.2, 11)
    assert a.adjacency == b.adjacency
    assert a.meta is not b.meta and star_graph(3).meta == {}  # each graph its own meta


def test_erdos_renyi_reseeds_until_connected():
    # p low enough that some seeds get rejected, and the retry count says so.
    g = erdos_renyi_graph(20, 0.08, 1)
    assert is_connected(g)
    assert g.meta["er_retries"] >= 1
    assert g.meta["er_seed"] == 1 + g.meta["er_retries"]
    again = erdos_renyi_graph(20, 0.08, 1)
    assert again.adjacency == g.adjacency


def _erdos_renyi_reference(n, p, seed):
    """erdos_renyi_graph's rule over a Python list of the pairs i < j: (adjacency, meta)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for retries in range(graphs.ER_MAX_SAMPLES):
        mask = np.random.default_rng(seed + retries).random(len(pairs)) < p
        nbrs = [set() for _ in range(n)]
        for i, j in [e for e, keep in zip(pairs, mask) if keep]:
            nbrs[i].add(j)
            nbrs[j].add(i)
        rows = tuple(tuple(sorted(row)) for row in nbrs)
        if is_connected(Graph(n, rows)):
            return rows, {"er_retries": retries, "er_seed": seed + retries}
    raise AssertionError("no connected sample")


def test_erdos_renyi_keeps_the_graphs_of_the_pair_list_rule():
    specs = [topology_spec("erdos_renyi", n, seed)
             for seed in (11, 2012) for n in DESK_N_VALUES["erdos_renyi"]]
    specs += [TopologySpec("erdos_renyi", 20, p=0.08, seed=1)]  # 246 retries
    specs += [TopologySpec("erdos_renyi", n, p=p, seed=5)
              for n, p in ((1, 0.5), (2, 0.5), (481, er_probability(481)))]
    # p = 1 keeps every pair, the last row's (n - 2, n - 1) included: the complete graph.
    specs += [TopologySpec("erdos_renyi", n, p=1.0, seed=5) for n in (7, 60)]
    for spec in specs:
        g = build_graph(spec)
        assert (g.adjacency, g.meta) == _erdos_renyi_reference(spec.n, spec.p, spec.seed)
        if spec.p == 1.0:
            assert g.adjacency == complete_graph(spec.n).adjacency


def test_erdos_renyi_gives_up_after_its_sample_bound(monkeypatch):
    with pytest.raises(GraphConstructionError, match=re.escape(
            f"no connected G(n=2, p=1e-09) in {graphs.ER_MAX_SAMPLES} samples")):
        erdos_renyi_graph(2, 1e-9, 0)
    # (20, 0.08, 1) draws 247 samples: the bound counts the connected one too.
    monkeypatch.setattr(graphs, "ER_MAX_SAMPLES", 247)
    assert erdos_renyi_graph(20, 0.08, 1).meta["er_retries"] == 246
    monkeypatch.setattr(graphs, "ER_MAX_SAMPLES", 246)
    with pytest.raises(GraphConstructionError, match=r"p=0\.08\) in 246 samples"):
        erdos_renyi_graph(20, 0.08, 1)


def test_is_connected():
    assert is_connected(star_graph(5))
    assert is_connected(line_graph(100))
    assert not is_connected(Graph.from_edges(2, []))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_shortest_path_line_ends():
    assert bfs_tree(line_graph(5), 0) == ([0, 1, 2, 3, 4], [0, 0, 1, 2, 3])
    assert tree_path(line_graph(5), 0, 4) == [0, 1, 2, 3, 4]


def test_shortest_path_star_leaves():
    assert bfs_tree(star_graph(5), 1) == ([1, 0, 2, 3, 4], [1, 1, 0, 0, 0])
    assert tree_path(star_graph(5), 1, 2) == [1, 0, 2]


def test_shortest_path_identity():
    assert bfs_tree(line_graph(5), 3) == ([3, 2, 4, 1, 0], [1, 2, 3, 3, 3])
    assert tree_path(line_graph(5), 3, 3) == [3]


def test_shortest_path_prefers_smallest_predecessor():
    # Two equal-length routes 0-1-3 and 0-2-3; the BFS must pick 1.
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert bfs_tree(g, 0) == ([0, 1, 2, 3], [0, 0, 0, 1])
    assert bfs_tree(g, 3) == ([3, 1, 2, 0], [1, 3, 3, 3])
    assert tree_path(g, 0, 3) == [0, 1, 3]
    assert tree_path(g, 3, 0) == [3, 1, 0]


def test_path_degree_sum_below_3n():
    for g in (star_graph(9), line_graph(9), lollipop_graph(12, 7), complete_graph(8)):
        for x in range(g.n):
            assert max(path_degree_sums_from(g, x)) < 3 * g.n


@given(connected_graphs())
def test_path_degree_sums_from_match_per_pair_sums(g):
    for x in range(g.n):
        assert path_degree_sums_from(g, x) == [sum(map(g.degree, tree_path(g, x, y)))
                                               for y in range(g.n)]


def test_path_degree_sums_from_rejects_unreachable_nodes():
    with pytest.raises(ValueError, match="node 2 is unreachable from node 0"):
        path_degree_sums_from(Graph.from_edges(4, [(0, 1), (2, 3)]), 0)


def test_complete_graph_matches_from_edges():
    # complete, line and lollipop graphs build their rows directly
    for n in (*range(1, 41), 481):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert complete_graph(n).adjacency == Graph.from_edges(n, pairs).adjacency
        path = [(i, i + 1) for i in range(n - 1)]
        assert line_graph(n).adjacency == Graph.from_edges(n, path).adjacency
        for m in {3, max(3, (2 * n + 1) // 3), n} if n >= 3 else ():
            edges = [(i, j) for i in range(m) for j in range(i + 1, m)] + path[m - 1:]
            assert lollipop_graph(n, m).adjacency == Graph.from_edges(n, edges).adjacency


def test_graph_rejects_self_loop():
    with pytest.raises(GraphConstructionError, match="self-loop at node 0"):
        Graph(2, ((0, 1), (0,)))


def test_graph_rejects_asymmetry():
    cases = (
        (((1,), (0, 2), ()), "(1,2)"),
        # every degree count balances; only the direction of the cycle is wrong
        (((1,), (2,), (3,), (0,)), "(0,1)"),
        (((1, 2), (0,), ()), "(0,2)"),
        (((), (2,), (0, 1)), "(2,0)"),
        (((3,), (0,), (), (0,)), "(1,0)"),
    )
    for adjacency, edge in cases:
        with pytest.raises(GraphConstructionError, match=re.escape(f"edge {edge} is not symmetric")):
            Graph(len(adjacency), adjacency)


def test_graph_rejects_duplicates():
    with pytest.raises(GraphConstructionError, match="duplicate neighbor at node 0"):
        Graph(2, ((1, 1), (0,)))
    with pytest.raises(GraphConstructionError, match="duplicate neighbor at node 0"):
        Graph(4, ((2, 1, 2), (0,), (0,), ()))
    with pytest.raises(GraphConstructionError, match="duplicate neighbor at node 0"):
        Graph(2, ((1, 1), (0, 0)))  # symmetric as a multiset
    # the edge builder normalizes repeated edges instead
    assert Graph.from_edges(2, [(0, 1), (1, 0)]).edge_count() == 1


def test_graph_rejects_bad_shapes_unsorted_rows_and_outside_neighbors():
    with pytest.raises(GraphConstructionError, match="n must be >= 1"):
        Graph(0, ())
    with pytest.raises(GraphConstructionError, match="adjacency length must equal node count"):
        Graph(3, ((1,), (0,)))
    with pytest.raises(GraphConstructionError, match=r"adjacency of node 0 is not sorted"):
        Graph(3, ((2, 1), (0,), (0,)))
    with pytest.raises(GraphConstructionError, match=r"node 1 has a neighbor outside 0\.\.2"):
        Graph(3, ((1,), (0, 3), ()))
    with pytest.raises(GraphConstructionError, match=r"node 0 has a neighbor outside 0\.\.2"):
        Graph(3, ((-1, 1), (0,), ()))
    # an unsorted row is reported by its first fault in the order above
    with pytest.raises(GraphConstructionError, match="outside"):
        Graph(3, ((5, 1), (0,), ()))
    with pytest.raises(GraphConstructionError, match="self-loop"):
        Graph(3, ((1, 0), (0,), ()))


def _first_fault(n, rows):
    """The message of the first fault of ``rows``, found on sets; for asymmetry, its end."""
    for i, row in enumerate(rows):
        if not set(row) <= set(range(n)):
            return f"node {i} has a neighbor outside 0..{n - 1}"
        if i in row:
            return f"self-loop at node {i}"
        if len(set(row)) < len(row):
            return f"duplicate neighbor at node {i}"
        if list(row) != sorted(row):
            return f"adjacency of node {i} is not sorted"
    arcs = {(i, j) for i, row in enumerate(rows) for j in row}
    return None if arcs == {(j, i) for i, j in arcs} else "is not symmetric"


@given(st.integers(1, 7), st.data())
@settings(max_examples=200)
def test_graph_accepts_exactly_the_symmetric_adjacencies(n, data):
    # A symmetric graph with up to two directed entries toggled, then up to
    # three entries inserted (any value in -2..n+1: outside, negative,
    # duplicate, self-loop or asymmetric), deleted (asymmetric) or swapped
    # with the next (unsorted). Reference: _first_fault, on sets.
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = data.draw(st.sets(pairs))
    arcs = (edges | {(v, u) for u, v in edges}) ^ data.draw(st.sets(pairs, max_size=2))
    rows = [sorted(v for u, v in arcs if u == i) for i in range(n)]
    for _ in range(data.draw(st.integers(0, 3))):
        row = rows[data.draw(st.integers(0, n - 1))]
        k = data.draw(st.integers(0, len(row)))
        op = data.draw(st.sampled_from(("insert", "delete", "swap")))
        if op == "insert":
            row.insert(k, data.draw(st.integers(-2, n + 1)))
        elif op == "delete" and k < len(row):
            del row[k]
        elif op == "swap" and k + 1 < len(row):
            row[k], row[k + 1] = row[k + 1], row[k]
    rows = tuple(map(tuple, rows))
    expected = _first_fault(n, rows)
    if expected is None:
        assert Graph(n, rows).adjacency == rows
    else:
        with pytest.raises(GraphConstructionError, match=re.escape(expected)):
            Graph(n, rows)


def _assert_passes_the_walk(g):
    assert g.n >= 1 and len(g.adjacency) == g.n
    graphs._check_rows(g.n, g.adjacency)


@given(st.integers(1, 40), st.floats(0.3, 1.0), st.integers(0, 10**6), st.data())
@settings(max_examples=100)
def test_built_rows_pass_the_walk(n, p, seed, data):
    # The generators and from_edges build rows that Graph(...) does not check
    # again; the walk is their oracle.
    for g in (star_graph(n), line_graph(n), complete_graph(n), erdos_renyi_graph(n, p, seed),
              *(lollipop_graph(n, m) for m in range(3, n + 1))):
        _assert_passes_the_walk(g)
    node = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                               max_size=3 * n))
    edges += [(v, u) for u, v in edges[::2]] + edges[:1]  # both directions and repeats
    rows = graphs._rows(n, *np.array(edges, np.int64).reshape(-1, 2).T)
    arcs = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
    assert rows == tuple(tuple(sorted(v for u, v in arcs if u == i)) for i in range(n))
    g = Graph.from_edges(n, edges)
    assert g.adjacency == rows
    _assert_passes_the_walk(g)


def test_built_rows_pass_the_walk_at_the_sweep_sizes():
    for kind in ("star", "line", "lollipop", "erdos_renyi", "complete"):
        for n in sorted({*default_n_values(kind), *FULL_N_VALUES}):
            _assert_passes_the_walk(build_graph(topology_spec(kind, n, 11)))


def test_entries_numpy_cannot_hold_exactly_are_checked_untruncated():
    with pytest.raises(GraphConstructionError, match=re.escape("edge (1,0) is not symmetric")):
        Graph(2, ((1.5,), (0,)))
    with pytest.raises(GraphConstructionError, match=r"node 0 has a neighbor outside 0\.\.1"):
        Graph(2, ((2**70,), (0,)))
    assert Graph(2, ((1.0,), (0,))).edge_count() == 1  # equal to an int, as before
    for edge in ((0, 1.5), (0, "1"), ("0", 5), (0, 5.5)):
        with pytest.raises(GraphConstructionError, match=re.escape(
                f"edge ({edge[0]},{edge[1]}) has a node that is not an integer")):
            Graph.from_edges(3, [(0, 1), edge])
    with pytest.raises(GraphConstructionError, match=re.escape(
            "edge (0,1180591620717411303424) outside 0..2")):
        Graph.from_edges(3, [(0, 2**70)])


def test_from_edges_names_the_first_bad_edge_in_input_order():
    for edges, message in (([(0, 1), (1, 3), (2, 2)], "edge (1,3) outside 0..2"),
                           ([(0, 1), (2, 2), (1, 3)], "self-loop at node 2"),
                           ([(0, 1), (-1, 2)], "edge (-1,2) outside 0..2")):
        for given_as in (list, np.array):
            with pytest.raises(GraphConstructionError, match=re.escape(message)):
                Graph.from_edges(3, given_as(edges))


def test_numpy_integer_edges_give_rows_of_python_ints():
    for edges in (np.array([[1, 0], [1, 2]]), [(np.int32(1), np.int64(0)), (1, np.int16(2))]):
        g = Graph.from_edges(3, edges)
        assert repr(g.adjacency) == "((1,), (0, 2), (1,))"


def test_spec_validation_errors():
    with pytest.raises(GraphConstructionError, match="m <= n"):
        build_graph(TopologySpec("lollipop", 5, m=7))
    with pytest.raises(GraphConstructionError, match="0 < p"):
        build_graph(TopologySpec("erdos_renyi", 5, p=0.0, seed=1))
    with pytest.raises(GraphConstructionError, match="connected"):
        build_graph(TopologySpec("edge_list", 4, edges=((0, 1), (2, 3))))
    with pytest.raises(GraphConstructionError, match="kind"):
        build_graph(TopologySpec("ring", 5))


def test_edge_list_round_trip(tmp_path):
    g = lollipop_graph(8, 5)
    path = tmp_path / "graph.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
    assert read_edge_list(path).adjacency == g.adjacency


def test_edge_list_comments_and_errors(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a triangle\n0 1\n1 2   # last edge\n\n0 2\n")
    g = read_edge_list(path)
    assert g.edge_count() == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2\n")
    with pytest.raises(GraphConstructionError):
        read_edge_list(bad)


def test_er_probability_capped():
    assert er_probability(3) == 1.0
    assert 0 < er_probability(201) < 1


def test_er_probability_of_one_node_is_one():
    # 5 ln(1) / 1 is 0, which erdos_renyi_graph rejects; one node is connected at any p.
    assert er_probability(1) == 1.0
    assert erdos_renyi_graph(1, er_probability(1), 0).adjacency == ((),)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("build", [
    star_graph, line_graph, complete_graph, lambda n: erdos_renyi_graph(n, 0.5, 1),
    lambda n: Graph.from_edges(n, []), lambda n: Graph(n, ()),
], ids=["star", "line", "complete", "erdos_renyi", "from_edges", "Graph"])
def test_every_constructor_rejects_fewer_than_one_node(build, n):
    with pytest.raises(GraphConstructionError, match=r"^n must be >= 1$"):
        build(n)


@given(connected_graphs())
@settings(max_examples=50)
def test_random_graph_invariants(g):
    assert is_connected(g)
    for i, nbrs in enumerate(g.adjacency):
        assert i not in nbrs
        assert list(nbrs) == sorted(set(nbrs))
        for j in nbrs:
            assert i in g.adjacency[j]


@given(st.integers(2, 40))
def test_generator_edge_counts(n):
    assert star_graph(n).edge_count() == n - 1
    assert line_graph(n).edge_count() == n - 1
    assert complete_graph(n).edge_count() == n * (n - 1) // 2
    if n >= 3:
        m = max(3, (2 * n + 1) // 3)
        assert lollipop_graph(n, m).edge_count() == m * (m - 1) // 2 + (n - m)


@given(st.integers(2, 30), st.integers(0, 10**6))
@settings(max_examples=25)
def test_er_graphs_are_connected_and_valid(n, seed):
    g = erdos_renyi_graph(n, er_probability(n), seed)
    assert is_connected(g)
    for i, nbrs in enumerate(g.adjacency):
        assert i not in nbrs
        for j in nbrs:
            assert i in g.adjacency[j]


@given(connected_graphs(min_n=2, max_n=10), st.data())
@settings(max_examples=50)
def test_shortest_path_is_shortest(g, data):
    # BFS oracle: breadth-first levels give the true hop distance.
    x = data.draw(st.integers(0, g.n - 1))
    y = data.draw(st.integers(0, g.n - 1))
    dist = {x: 0}
    frontier = [x]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    path = tree_path(g, x, y)
    assert path[0] == x and path[-1] == y
    assert len(path) - 1 == dist[y]
    for a, b in zip(path, path[1:]):
        assert b in g.adjacency[a]


def _csr_lists(g):
    """csr(g) built from the adjacency by hand: degrees, row offsets, concatenated rows."""
    deg = [len(row) for row in g.adjacency]
    return deg, [sum(deg[:i]) for i in range(g.n)], [v for row in g.adjacency for v in row]


def test_csr_memo_returns_each_graphs_own_read_only_arrays():
    g1, g2 = star_graph(5), lollipop_graph(9, 6)
    for g in (g1, g2, g1, g2, g1):
        arrays = csr(g)
        assert [a.tolist() for a in arrays] == list(_csr_lists(g))
        assert all(a.dtype == np.int64 for a in arrays)
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 1
    assert csr(g1) is csr(g1)
    same_rows = star_graph(5)  # equal adjacency, another graph: its own entry
    assert csr(same_rows) is not csr(g1)

    # from_edges hands its sort's arrays to the memo: the first call builds nothing
    g3 = Graph.from_edges(7, [(5, 1), (0, 1), (6, 2), (1, 2), (3, 4), (2, 4), (1, 0)])
    handed = graphs._csr_memo
    arrays = csr(g3)
    assert handed[0] is g3 and arrays is handed[1]
    assert [a.tolist() for a in arrays] == list(_csr_lists(g3))
    assert all(a.dtype == np.int64 and not a.flags.writeable for a in arrays)
    assert csr(g3) is arrays
    Graph.from_edges(3, [(0, 1), (1, 2)])  # the next graph evicts g3's entry
    rebuilt = csr(g3)
    assert rebuilt is not arrays
    assert [a.tolist() for a in rebuilt] == list(_csr_lists(g3))


@given(connected_graphs(), st.integers(0, 300), st.integers(0, 2**32 - 1),
       st.sampled_from([np.random.PCG64, np.random.MT19937]))
@settings(max_examples=60, deadline=None)
def test_tick_edges_draws_the_ticks_of_the_scalar_draws(g, k, seed, bit_generator):
    rng, scalar = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    u, v = tick_edges(g, rng, k)
    assert u.dtype == v.dtype == np.int64
    assert list(zip(u.tolist(), v.tolist())) == scalar_ticks(g, scalar, k)
    np.testing.assert_equal(rng.bit_generator.state, scalar.bit_generator.state)


def _memo_probe(alternate: bool) -> list:
    """A kernel run and a token sample on star(7), with csr's memo switched to
    line(6) before each call when ``alternate``."""
    g, other = star_graph(7), line_graph(6)
    if alternate:
        for h in (g, other, g, other):
            csr(h)
    rng = round_rng(3, g.n, 0)
    run = run_to_convergence("binary", g, init_majority_one(g.n, rng), rng, 10**6)
    if alternate:
        csr(other)
    return [run.ticks, run.detail, sample_hitting(g, 1, 2, 5, 200).tolist()]


def test_csr_memo_leaves_runs_as_in_a_fresh_process():
    path = [str(Path(qconsensus.__file__).parents[1]), str(Path(__file__).parent)]
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import json; from test_graphs import _memo_probe; "
         "print(json.dumps(_memo_probe(False)))"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        check=True, capture_output=True, text=True).stdout
    assert _memo_probe(True) == json.loads(fresh)
