"""Shortest paths and distances on the routing index, cross-validated against
networkx and the Bellman-Ford oracle."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.core.algorithms.paths import NoPathError, bellman_ford
from repro.util.validation import ValidationError
from tests.core.graphutil import (
    adjacency_of,
    endpoints,
    path_weight,
    random_adjacency,
    to_networkx,
    topology_of,
)


SIMPLE = {
    "S": {"A": 1.0, "B": 4.0},
    "A": {"B": 1.0, "T": 5.0},
    "B": {"T": 1.0},
    "T": {},
}


def shortest_path(adjacency, source, target):
    index = topology_of(adjacency).routing_index
    return index.shortest_path(index.latencies, source, target)


def distances(adjacency, origin, reverse=False):
    """Finite distances by node name."""
    index = topology_of(adjacency).routing_index
    found = index.distances(index.latencies, origin, reverse=reverse)
    return {
        index.names[rank]: distance
        for rank, distance in enumerate(found)
        if distance != float("inf")
    }


class TestShortestPath:
    def test_simple(self):
        assert shortest_path(SIMPLE, "S", "T") == ["S", "A", "B", "T"]

    def test_direct_vs_indirect(self):
        adjacency = {"S": {"T": 10.0, "A": 1.0}, "A": {"T": 1.0}, "T": {}}
        assert shortest_path(adjacency, "S", "T") == ["S", "A", "T"]

    def test_source_equals_target(self):
        assert shortest_path(SIMPLE, "S", "S") == ["S"]

    def test_no_path(self):
        assert shortest_path({"S": {}, "T": {}}, "S", "T") is None

    def test_unknown_nodes(self):
        with pytest.raises(KeyError):
            shortest_path(SIMPLE, "Z", "T")
        with pytest.raises(KeyError):
            shortest_path(SIMPLE, "S", "Z")

    def test_negative_weight_rejected(self):
        """Negative latencies never reach the search: a topology refuses
        them, and the index routes only on frozen topologies."""
        with pytest.raises(ValidationError):
            topology_of({"S": {"T": -1.0}, "T": {}})

    def test_deterministic_tie_break(self):
        adjacency = {"S": {"A": 1.0, "B": 1.0}, "A": {"T": 1.0}, "B": {"T": 1.0}, "T": {}}
        paths = {tuple(shortest_path(adjacency, "S", "T")) for _ in range(10)}
        assert len(paths) == 1

    def test_on_reference_topology(self, reference_topology):
        index = reference_topology.routing_index
        path = index.shortest_path(index.latencies, "NYC", "SJC")
        assert path[0] == "NYC" and path[-1] == "SJC"
        weight = path_weight(adjacency_of(reference_topology), path)
        assert 20.0 < weight < 40.0  # coast-to-coast fiber latency

    @given(random_adjacency())
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, adjacency):
        source, target = endpoints(adjacency)
        graph = to_networkx(adjacency)
        try:
            expected = nx.shortest_path_length(
                graph, source, target, weight="weight"
            )
        except nx.NetworkXNoPath:
            assert shortest_path(adjacency, source, target) is None
            return
        path = shortest_path(adjacency, source, target)
        assert path_weight(adjacency, path) == pytest.approx(expected)


class TestSingleSourceDistances:
    def test_all_reachable(self):
        assert distances(SIMPLE, "S") == {"S": 0.0, "A": 1.0, "B": 2.0, "T": 3.0}

    def test_reverse(self):
        assert distances(SIMPLE, "T", reverse=True) == {
            "S": 3.0, "A": 2.0, "B": 1.0, "T": 0.0,
        }

    def test_unreachable_missing(self):
        adjacency = {"S": {"A": 1.0}, "A": {}, "X": {}}
        assert "X" not in distances(adjacency, "S")

    def test_unknown_source(self):
        with pytest.raises(KeyError):
            distances(SIMPLE, "Z")

    @given(random_adjacency())
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx(self, adjacency):
        source, target = endpoints(adjacency)
        graph = to_networkx(adjacency)
        for origin, reverse, reference in (
            (source, False, graph),
            (target, True, graph.reverse()),
        ):
            expected = nx.single_source_dijkstra_path_length(
                reference, origin, weight="weight"
            )
            found = distances(adjacency, origin, reverse=reverse)
            assert set(found) == set(expected)
            for node, value in expected.items():
                assert found[node] == pytest.approx(value)


class TestBellmanFord:
    def test_agrees_with_dijkstra_on_positive(self):
        dijkstra = distances(SIMPLE, "S")
        for target in ("A", "B", "T"):
            bellman = bellman_ford(SIMPLE, "S", target)
            assert bellman[1] == pytest.approx(dijkstra[target])

    @given(random_adjacency())
    @settings(max_examples=40, deadline=None)
    def test_oracle_for_shortest_path(self, adjacency):
        source, target = endpoints(adjacency)
        path = shortest_path(adjacency, source, target)
        if path is None:
            with pytest.raises(NoPathError):
                bellman_ford(adjacency, source, target)
            return
        _path, weight = bellman_ford(adjacency, source, target)
        assert path_weight(adjacency, path) == pytest.approx(weight)

    def test_handles_negative_edges(self):
        adjacency = {"S": {"A": 5.0, "B": 2.0}, "A": {"T": 1.0}, "B": {"A": -4.0}, "T": {}}
        path, weight = bellman_ford(adjacency, "S", "T")
        assert path == ["S", "B", "A", "T"]
        assert weight == pytest.approx(-1.0)

    def test_negative_cycle_detected(self):
        adjacency = {"S": {"A": 1.0}, "A": {"B": -2.0}, "B": {"A": 1.0, "T": 1.0}, "T": {}}
        with pytest.raises(ValueError, match="negative cycle"):
            bellman_ford(adjacency, "S", "T")

    def test_no_path(self):
        with pytest.raises(NoPathError):
            bellman_ford({"S": {}, "T": {}}, "S", "T")

    def test_unreachable_negative_cycle_ignored(self):
        adjacency = {
            "S": {"T": 1.0},
            "T": {},
            "X": {"Y": -2.0},
            "Y": {"X": 1.0},
        }
        path, weight = bellman_ford(adjacency, "S", "T")
        assert path == ["S", "T"]
