"""Each graph, node and run rule has one message, and every entry point that applies it
says it."""

import re

import numpy as np
import pytest

from qconsensus import walks
from qconsensus.checks import check_binary_conservation, check_quantized_conservation
from qconsensus.cli import EXIT_USAGE, main
from qconsensus.consensus import BinaryState, run_to_convergence
from qconsensus.graphs import (Graph, TopologySpec, bfs_tree, build_graph, check_nodes,
                               erdos_renyi_graph, lollipop_graph, path_degree_sums_from,
                               require_neighbors, star_graph)
from qconsensus.harness import SweepConfig, topology_spec

ISOLATED = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])  # node 4 has no neighbor
SPLIT = Graph.from_edges(4, [(0, 1), (2, 3)])  # nodes 2 and 3 are unreachable from 0
STAR5 = star_graph(5)
STAR5_WALK = walks.transition_matrix(STAR5, "biased")

RULES = {
    "n must be >= 1": [
        lambda: star_graph(0),
        lambda: lollipop_graph(0, 3),
        lambda: erdos_renyi_graph(0, 0.5, 1),
        lambda: Graph(0, ()),
        lambda: TopologySpec("star", 0).validate(),
        lambda: build_graph(TopologySpec("line", -1)),
        lambda: topology_spec("star", 0, 7),
        lambda: topology_spec("erdos_renyi", 0, 7),
        ("simulate", "--topo", "star", "--n", "0", "--protocol", "binary"),
        ("sweep", "--topo", "line", "--n-values", "0", "--protocol", "binary"),
    ],
    "lollipop requires 3 <= m <= n, got m=2, n=9": [
        lambda: lollipop_graph(9, 2),
        lambda: TopologySpec("lollipop", 9, m=2).validate(),
        lambda: build_graph(topology_spec("lollipop", 9, 7, m=2)),
        lambda: SweepConfig("lollipop", (9,), "binary", "majority_one", 1, 7, m=2),
        ("simulate", "--topo", "lollipop", "--n", "9", "--m", "2", "--protocol", "binary"),
    ],
    "erdos_renyi requires 0 < p <= 1, got p=0.0": [
        lambda: erdos_renyi_graph(9, 0.0, 1),
        lambda: TopologySpec("erdos_renyi", 9, p=0.0, seed=1).validate(),
        lambda: build_graph(topology_spec("erdos_renyi", 9, 7, p=0.0)),
        ("simulate", "--topo", "erdos_renyi", "--n", "9", "--p", "0", "--protocol", "binary"),
    ],
    "every node needs a neighbor": [
        lambda: require_neighbors(ISOLATED),
        lambda: run_to_convergence("binary", ISOLATED, BinaryState([2, -2, 1, 1, 1]),
                                   np.random.default_rng(0), 10),
        lambda: walks.transition_matrix(ISOLATED, "simple"),
        lambda: walks.sample_hitting(ISOLATED, 0, 2, 0, 5),
        lambda: walks.sample_pair_meetings(ISOLATED, 0, 2, 0, 5),
        lambda: walks.sample_meet_all(ISOLATED, 0, [2], 0, 5),
        lambda: check_binary_conservation(("isolated", ISOLATED), 10, 0),
        lambda: check_quantized_conservation(("isolated", ISOLATED), 10, 0),
    ],
    "nodes must be in 0..4": [
        lambda: check_nodes(5, 5),
        lambda: bfs_tree(STAR5, -1),
        lambda: walks.hitting_times(STAR5_WALK, 5),
        lambda: walks.effective_resistance(STAR5_WALK, 0, 5),
        lambda: walks.sample_hitting(STAR5, 0, 5, 0, 5),
        ("hitting", "--topo", "star", "--n", "5", "--target", "5"),
        ("bound", "--topo", "star", "--n", "5", "--x", "0", "--y", "5"),
        ("resistance", "--topo", "star", "--n", "5", "--x", "0", "--y", "5"),
        ("meet", "--topo", "star", "--n", "5", "--x", "0", "--y", "5"),
    ],
    "unknown walk kind 'lazy'": [
        lambda: walks.transition_matrix(STAR5, "lazy"),
        lambda: walks.WalkMatrix("lazy", STAR5_WALK.p),
    ],
    "max_ticks must be >= 0, got -1": [
        lambda: run_to_convergence("binary", STAR5, BinaryState([2, 2, 2, -2, -2]),
                                   np.random.default_rng(0), -1),
        lambda: SweepConfig("star", (5,), "binary", "majority_one", 1, 7, max_ticks=-1),
        lambda: walks.sample_hitting(STAR5, 0, 2, 0, 5, -1),
        lambda: walks.sample_pair_meetings(STAR5, 0, 2, 0, 5, "X", -1),
        lambda: walks.sample_meet_all(STAR5, 0, [2], 0, 5, -1),
        ("simulate", "--topo", "star", "--n", "5", "--protocol", "binary", "--max-ticks", "-1"),
        ("sweep", "--topo", "star", "--n-values", "5", "--protocol", "binary",
         "--max-ticks", "-1"),
        ("meet", "--topo", "star", "--n", "5", "--x", "0", "--y", "2", "--max-ticks", "-1"),
    ],
    "node 2 is unreachable from node 0": [
        lambda: walks.hitting_bounds_from(SPLIT, 0),
        lambda: path_degree_sums_from(SPLIT, 0),
        lambda: walks.sample_hitting(SPLIT, 0, 2, 0, 5),
        lambda: walks.sample_pair_meetings(SPLIT, 0, 2, 0, 5),
        lambda: walks.sample_meet_all(SPLIT, 0, [1, 2], 0, 5),
    ],
    "unknown protocol 'x'": [
        lambda: run_to_convergence("x", STAR5, BinaryState([2, 2, 2, -2, -2]),
                                   np.random.default_rng(0), 10),
        lambda: SweepConfig("star", (5,), "x", "majority_one", 1, 7),
    ],
}


@pytest.mark.parametrize("message, entry", [
    pytest.param(message, entry, id=f"{message[:24]}-{k}")
    for message, entries in RULES.items() for k, entry in enumerate(entries)
])
def test_every_entry_point_of_a_rule_raises_its_one_message(message, entry, capsys):
    if isinstance(entry, tuple):  # a CLI argv
        assert main(list(entry)) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry()
