"""Dissemination-graph builders: every family the paper evaluates."""

from __future__ import annotations

import pytest

from repro.core.algorithms import NoPathError
from repro.core.builders import (
    k_disjoint_paths_graph,
    problem_graphs,
    single_path_graph,
    time_constrained_flooding_graph,
    two_disjoint_paths_graph,
)
from repro.core.graph import Topology
from repro.util.validation import ValidationError

DEADLINE = 65.0


def base_latency(topology):
    return lambda u, v: topology.latency(u, v)


class TestSinglePath:
    def test_is_shortest(self, reference_topology):
        graph = single_path_graph(reference_topology, "NYC", "SJC")
        assert graph.sorted_edges() == (
            ("CHI", "DEN"),
            ("DEN", "SJC"),
            ("NYC", "CHI"),
        )

    def test_requires_frozen(self):
        topology = Topology()
        topology.add_node("A")
        topology.add_node("B")
        topology.add_link("A", "B", 1.0)
        with pytest.raises(ValidationError):
            single_path_graph(topology, "A", "B")

    def test_unknown_flow_endpoint(self, reference_topology):
        with pytest.raises(ValidationError):
            single_path_graph(reference_topology, "NYC", "ZZZ")

    def test_disconnection_raises(self):
        topology = Topology("one-way")
        for node in ("S", "M", "T"):
            topology.add_node(node)
        topology.add_link("S", "M", 1.0, bidirectional=False)
        topology.add_link("T", "M", 1.0, bidirectional=False)
        topology.freeze()
        for builder in (single_path_graph, two_disjoint_paths_graph):
            with pytest.raises(NoPathError):
                builder(topology, "S", "T")


class TestDisjointPaths:
    def test_two_disjoint_structure(self, reference_topology):
        graph = two_disjoint_paths_graph(reference_topology, "NYC", "SJC")
        assert graph.connects()
        # Destination has exactly two incoming edges (node-disjoint pair).
        assert len(graph.in_neighbors("SJC")) == 2
        assert len(graph.out_neighbors("NYC")) == 2

    def test_contains_shortest_path_cost_or_more(self, reference_topology):
        single = single_path_graph(reference_topology, "WAS", "LAX")
        pair = two_disjoint_paths_graph(reference_topology, "WAS", "LAX")
        assert pair.num_edges > single.num_edges

    def test_fallback_when_single_path_only(self, line):
        graph = k_disjoint_paths_graph(line, "S", "T", k=2)
        assert graph.sorted_edges() == (("M", "T"), ("S", "M"))

    def test_k_validation(self, reference_topology):
        with pytest.raises(ValidationError):
            k_disjoint_paths_graph(reference_topology, "NYC", "SJC", k=0)

    def test_every_reference_flow(self, reference_topology, flows):
        for flow in flows:
            graph = two_disjoint_paths_graph(
                reference_topology, flow.source, flow.destination
            )
            assert graph.connects(), flow.name
            assert len(graph.in_neighbors(flow.destination)) == 2


class TestTimeConstrainedFlooding:
    def test_within_deadline_criterion(self, reference_topology):
        graph = time_constrained_flooding_graph(
            reference_topology, "NYC", "SJC", DEADLINE
        )
        latency = base_latency(reference_topology)
        # Every edge admits an on-time route through it.
        index = reference_topology.routing_index
        d_from = index.distances(index.latencies, "NYC")
        d_to = index.distances(index.latencies, "SJC", reverse=True)
        rank = index.rank
        for u, v in graph.edges:
            assert d_from[rank[u]] + latency(u, v) + d_to[rank[v]] <= DEADLINE + 1e-9

    def test_excludes_transatlantic(self, reference_topology):
        graph = time_constrained_flooding_graph(
            reference_topology, "NYC", "SJC", DEADLINE
        )
        assert "LON" not in graph.nodes
        assert "FRA" not in graph.nodes

    def test_superset_of_other_schemes(self, reference_topology):
        flood = time_constrained_flooding_graph(
            reference_topology, "NYC", "SJC", DEADLINE
        )
        pair = two_disjoint_paths_graph(reference_topology, "NYC", "SJC")
        assert pair.edges <= flood.edges

    def test_tight_deadline_shrinks(self, reference_topology):
        wide = time_constrained_flooding_graph(reference_topology, "NYC", "SJC", 100.0)
        tight = time_constrained_flooding_graph(reference_topology, "NYC", "SJC", 30.0)
        assert tight.edges < wide.edges

    def test_impossible_deadline_empty(self, reference_topology):
        graph = time_constrained_flooding_graph(reference_topology, "NYC", "SJC", 5.0)
        assert graph.num_edges == 0

    def test_deadline_validation(self, reference_topology):
        with pytest.raises(ValidationError):
            time_constrained_flooding_graph(reference_topology, "NYC", "SJC", 0.0)

    def test_optimality_property(self, reference_topology):
        """If flooding cannot deliver on time, nothing can: flooding's
        best-case latency equals the overall shortest path."""
        flood = time_constrained_flooding_graph(
            reference_topology, "WAS", "SEA", DEADLINE
        )
        single = single_path_graph(reference_topology, "WAS", "SEA")
        latency = base_latency(reference_topology)
        assert flood.delivery_latency(latency) == pytest.approx(
            single.delivery_latency(latency)
        )


class TestProblemGraphs:
    def test_destination_graph_covers_all_entries(self, reference_topology):
        _base, _source, graph, _robust = problem_graphs(
            reference_topology, "NYC", "SJC"
        )
        entries = set(graph.in_neighbors("SJC"))
        assert entries == set(reference_topology.in_neighbors("SJC"))

    def test_source_graph_covers_all_exits(self, reference_topology):
        _base, graph, _destination, _robust = problem_graphs(
            reference_topology, "NYC", "SJC", deadline_ms=DEADLINE
        )
        exits = set(graph.out_neighbors("NYC"))
        # Trans-Atlantic exits cannot meet the deadline and are excluded.
        expected = {
            n
            for n in reference_topology.out_neighbors("NYC")
            if n not in ("LON", "FRA")
        }
        assert exits == expected

    def test_includes_base_two_disjoint(self, reference_topology):
        base = two_disjoint_paths_graph(reference_topology, "NYC", "SJC")
        problem_base, _source, graph, _robust = problem_graphs(
            reference_topology, "NYC", "SJC"
        )
        assert problem_base.edges == base.edges
        assert base.edges <= graph.edges

    def test_max_entry_links_limits(self, reference_topology):
        _base, _source, graph, _robust = problem_graphs(
            reference_topology, "NYC", "SJC", max_entry_links=2
        )
        assert len(graph.in_neighbors("SJC")) == 2

    def test_deadline_pruning_respects_flooding(self, reference_topology):
        flood = time_constrained_flooding_graph(
            reference_topology, "NYC", "SJC", DEADLINE
        )
        _base, *graphs = problem_graphs(
            reference_topology, "NYC", "SJC", deadline_ms=DEADLINE
        )
        for graph in graphs:
            assert graph.edges <= flood.edges, graph.name

    def test_robust_is_union(self, reference_topology):
        _base, source, destination, robust = problem_graphs(
            reference_topology, "WAS", "SEA", deadline_ms=DEADLINE
        )
        assert destination.edges <= robust.edges
        assert source.edges <= robust.edges

    def test_names_carry_the_prefix(self, reference_topology):
        graphs = problem_graphs(reference_topology, "WAS", "SEA", prefix="targeted/")
        assert [graph.name for graph in graphs] == [
            "targeted/base",
            "targeted/source-problem",
            "targeted/destination-problem",
            "targeted/robust",
        ]

    def test_problem_graphs_cheaper_than_flooding(self, reference_topology, flows):
        """The whole point: targeted redundancy at a fraction of the cost."""
        for flow in flows:
            flood = time_constrained_flooding_graph(
                reference_topology, flow.source, flow.destination, DEADLINE
            )
            _base, _source, _destination, robust = problem_graphs(
                reference_topology,
                flow.source,
                flow.destination,
                deadline_ms=DEADLINE,
            )
            assert robust.num_edges < flood.num_edges, flow.name

    def test_problem_graphs_deliver_on_time(self, reference_topology, flows):
        latency = base_latency(reference_topology)
        for flow in flows:
            _base, source, destination, _robust = problem_graphs(
                reference_topology,
                flow.source,
                flow.destination,
                deadline_ms=DEADLINE,
            )
            for graph in (destination, source):
                assert graph.delivers_within(latency, DEADLINE), (
                    flow.name,
                    graph.name,
                )

    def test_impossible_deadline_falls_back_unpruned(self, reference_topology):
        # Deadline below the shortest path: pruning would disconnect, so
        # the builder keeps the unpruned (best-effort) graph.
        _base, _source, graph, _robust = problem_graphs(
            reference_topology, "NYC", "SJC", deadline_ms=10.0
        )
        assert graph.connects()

    def test_deadline_validation(self, reference_topology):
        with pytest.raises(ValidationError):
            problem_graphs(reference_topology, "NYC", "SJC", deadline_ms=0.0)
