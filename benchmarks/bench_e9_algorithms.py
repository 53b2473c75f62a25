"""E9 -- Micro-benchmarks of the routing algorithms.

Not a paper artifact; documents that every graph computation is far below
the routing daemon's decision cadence (sub-millisecond on a 12-node
overlay), which is what makes precomputation plus dynamic recomputation
practical.
"""

from __future__ import annotations

import common

from repro.core.builders import (
    problem_graphs,
    time_constrained_flooding_graph,
    two_disjoint_paths_graph,
)
from repro.core.encoding import decode_graph, encode_graph


def test_e9_shortest_path(benchmark):
    index = common.topology().routing_index
    path = benchmark(index.shortest_path, index.latencies, "NYC", "SJC")
    assert path[0] == "NYC"


def test_e9_two_disjoint_paths(benchmark):
    index = common.topology().routing_index
    network = index.network("NYC", "SJC")
    # A copy of the base latencies is a view like any other: it is
    # solved each time, where the base tuple's answer is kept.
    result = benchmark(network.disjoint_paths, list(index.latencies), 2)
    assert len(result) == 2


def test_e9_two_disjoint_graph_builder(benchmark):
    graph = benchmark(
        two_disjoint_paths_graph, common.topology(), "NYC", "SJC"
    )
    assert graph.connects()


def test_e9_flooding_builder(benchmark):
    graph = benchmark(
        time_constrained_flooding_graph, common.topology(), "NYC", "SJC", 65.0
    )
    assert graph.num_edges > 20


def test_e9_problem_graph_builder(benchmark):
    graphs = benchmark(
        problem_graphs, common.topology(), "NYC", "SJC", deadline_ms=65.0
    )
    assert all(graph.connects() for graph in graphs)


def test_e9_graph_encoding_round_trip(benchmark):
    topology = common.topology()
    graph = time_constrained_flooding_graph(topology, "NYC", "SJC", 65.0)

    def round_trip():
        return decode_graph(topology, encode_graph(topology, graph))

    decoded = benchmark(round_trip)
    assert decoded.edges == graph.edges
