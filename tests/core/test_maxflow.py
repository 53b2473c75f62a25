"""Edmonds-Karp max flow, cross-validated against networkx."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.core.algorithms.maxflow import (
    max_disjoint_path_count,
    max_flow_unit_capacities,
)
from tests.core.graphutil import adjacency_of, endpoints, random_adjacency, to_networkx


class TestMaxFlow:
    def test_diamond_two(self, diamond):
        adjacency = adjacency_of(diamond)
        assert max_flow_unit_capacities(adjacency, "S", "T") == 2

    def test_line_one(self, line):
        adjacency = adjacency_of(line)
        assert max_flow_unit_capacities(adjacency, "S", "T") == 1

    def test_disconnected_zero(self):
        assert max_flow_unit_capacities({"S": {}, "T": {}}, "S", "T") == 0

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            max_flow_unit_capacities({"S": {}}, "S", "S")

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            max_flow_unit_capacities({"S": {}}, "S", "Z")

    @given(random_adjacency(max_nodes=8))
    @settings(max_examples=50, deadline=None)
    def test_matches_networkx(self, adjacency):
        source, target = endpoints(adjacency)
        graph = to_networkx(adjacency)
        nx.set_edge_attributes(graph, 1, "capacity")
        expected = nx.maximum_flow_value(graph, source, target)
        assert max_flow_unit_capacities(adjacency, source, target) == expected


class TestDisjointCounts:
    def test_node_vs_edge_disjoint(self):
        # Two edge-disjoint paths share M; only one node-disjoint path.
        adjacency = {
            "S": {"A": 1.0, "B": 1.0},
            "A": {"M": 1.0},
            "B": {"M": 1.0},
            "M": {"C": 1.0, "D": 1.0},
            "C": {"T": 1.0},
            "D": {"T": 1.0},
            "T": {},
        }
        assert max_disjoint_path_count(adjacency, "S", "T", node_disjoint=False) == 2
        assert max_disjoint_path_count(adjacency, "S", "T", node_disjoint=True) == 1

    def test_reference_flows_have_two_disjoint(self, reference_topology, flows):
        """Every transcontinental flow supports the paper's base scheme."""
        adjacency = adjacency_of(reference_topology)
        for flow in flows:
            count = max_disjoint_path_count(adjacency, flow.source, flow.destination)
            assert count >= 2, f"{flow.name} has only {count} disjoint paths"

    def test_direct_edge_counts(self):
        adjacency = {"S": {"T": 1.0}, "T": {}}
        assert max_disjoint_path_count(adjacency, "S", "T") == 1
