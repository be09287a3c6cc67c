import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from qconsensus.graphs import (
    Graph,
    GraphConstructionError,
    TopologySpec,
    build_graph,
    complete_graph,
    er_probability,
    erdos_renyi_graph,
    expected_er_edges,
    is_connected,
    line_graph,
    lollipop_graph,
    path_degree_sum,
    path_degree_sums_from,
    read_edge_list,
    shortest_path,
    star_graph,
    write_edge_list,
)

from conftest import connected_graphs


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
                assert g.has_edge(i, j)
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
    mean = expected_er_edges(n, p)
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(g.edge_count() - mean) <= 4 * sigma


def test_erdos_renyi_deterministic():
    a = erdos_renyi_graph(30, 0.2, 11)
    b = erdos_renyi_graph(30, 0.2, 11)
    assert a.adjacency == b.adjacency


def test_erdos_renyi_reseeds_until_connected():
    # p low enough that some seeds get rejected, and the retry count says so.
    g = erdos_renyi_graph(20, 0.08, 1)
    assert is_connected(g)
    assert g.meta["er_retries"] >= 1
    assert g.meta["er_seed"] == 1 + g.meta["er_retries"]
    again = erdos_renyi_graph(20, 0.08, 1)
    assert again.adjacency == g.adjacency


def test_is_connected():
    assert is_connected(star_graph(5))
    assert is_connected(line_graph(100))
    assert not is_connected(Graph.from_edges(2, []))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_shortest_path_line_ends():
    assert shortest_path(line_graph(5), 0, 4) == [0, 1, 2, 3, 4]


def test_shortest_path_star_leaves():
    assert shortest_path(star_graph(5), 1, 2) == [1, 0, 2]


def test_shortest_path_identity():
    assert shortest_path(line_graph(5), 3, 3) == [3]


def test_shortest_path_prefers_smallest_predecessor():
    # Two equal-length routes 0-1-3 and 0-2-3; the BFS must pick 1.
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert shortest_path(g, 0, 3) == [0, 1, 3]
    assert shortest_path(g, 3, 0) == [3, 1, 0]


def test_path_degree_sum_below_3n():
    for g in (star_graph(9), line_graph(9), lollipop_graph(12, 7), complete_graph(8)):
        for x in range(g.n):
            for y in range(g.n):
                assert path_degree_sum(g, x, y) < 3 * g.n


@given(connected_graphs())
def test_path_degree_sums_from_match_per_pair_sums(g):
    for x in range(g.n):
        assert path_degree_sums_from(g, x) == [path_degree_sum(g, x, y) for y in range(g.n)]


def test_path_degree_sums_from_rejects_unreachable_nodes():
    with pytest.raises(ValueError, match="node 2 is unreachable from node 0"):
        path_degree_sums_from(Graph.from_edges(4, [(0, 1), (2, 3)]), 0)


def test_complete_graph_matches_from_edges():
    for n in (*range(2, 41), 481):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert complete_graph(n).adjacency == Graph.from_edges(n, pairs).adjacency


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
    # the edge builder normalizes repeated edges instead
    assert Graph.from_edges(2, [(0, 1), (1, 0)]).edge_count() == 1


def test_graph_rejects_bad_shapes_unsorted_rows_and_outside_neighbors():
    with pytest.raises(GraphConstructionError, match="node count must be >= 1"):
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


@given(st.integers(2, 7), st.data())
@settings(max_examples=200)
def test_graph_accepts_exactly_the_symmetric_adjacencies(n, data):
    # A symmetric graph with up to two directed entries toggled; reference:
    # the set of directed pairs must equal its reverse.
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = data.draw(st.sets(pairs))
    arcs = (edges | {(v, u) for u, v in edges}) ^ data.draw(st.sets(pairs, max_size=2))
    rows = tuple(tuple(sorted(v for u, v in arcs if u == i)) for i in range(n))
    if arcs == {(v, u) for u, v in arcs}:
        assert Graph(n, rows).edge_count() == len(arcs) // 2
    else:
        with pytest.raises(GraphConstructionError, match="is not symmetric"):
            Graph(n, rows)


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
    write_edge_list(g, path)
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
    path = shortest_path(g, x, y)
    assert path[0] == x and path[-1] == y
    assert len(path) - 1 == dist[y]
    for a, b in zip(path, path[1:]):
        assert g.has_edge(a, b)
