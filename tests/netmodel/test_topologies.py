"""Synthetic topology generation."""

from __future__ import annotations

import pytest

from repro.core.algorithms.maxflow import max_disjoint_path_count
from repro.netmodel.topologies import (
    coast_to_coast_flows,
    synthetic_continental_topology,
)
from repro.util.validation import ValidationError
from tests.core.graphutil import adjacency_of


class TestGeneration:
    @pytest.mark.parametrize("num_sites", [6, 12, 24])
    def test_site_count(self, num_sites):
        topology = synthetic_continental_topology(num_sites, seed=3)
        assert topology.num_nodes == num_sites
        assert topology.frozen

    def test_deterministic(self):
        a = synthetic_continental_topology(10, seed=9)
        b = synthetic_continental_topology(10, seed=9)
        assert a.edges == b.edges

    def test_seed_changes_layout(self):
        a = synthetic_continental_topology(10, seed=1)
        b = synthetic_continental_topology(10, seed=2)
        assert a.edges != b.edges or a.node_attributes("S00") != b.node_attributes(
            "S00"
        )

    def test_min_degree_respected(self):
        topology = synthetic_continental_topology(15, seed=4, min_degree=3)
        for node in topology.nodes:
            assert len(topology.out_neighbors(node)) >= 3

    def test_too_few_sites_rejected(self):
        with pytest.raises(ValidationError):
            synthetic_continental_topology(3)

    def test_links_bidirectional_and_symmetric(self):
        topology = synthetic_continental_topology(10, seed=5)
        for u, v in topology.edges:
            assert topology.has_edge(v, u)
            assert topology.latency(u, v) == topology.latency(v, u)


class TestBiconnectivity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_two_disjoint_paths_everywhere(self, seed):
        """The generator's contract: every pair admits two node-disjoint
        paths, so every routing scheme in the paper is deployable."""
        topology = synthetic_continental_topology(12, seed=seed)
        adjacency = adjacency_of(topology)
        nodes = topology.nodes
        # Sampling all pairs is O(n^2) maxflows; spot-check a spread.
        for i in range(0, len(nodes), 3):
            for j in range(1, len(nodes), 4):
                if nodes[i] == nodes[j]:
                    continue
                assert (
                    max_disjoint_path_count(adjacency, nodes[i], nodes[j]) >= 2
                ), (seed, nodes[i], nodes[j])


class TestFlows:
    def test_requested_count(self):
        topology = synthetic_continental_topology(16, seed=6)
        flows = coast_to_coast_flows(topology, 8)
        assert len(flows) == 8
        assert len(set(flows)) == 8

    def test_east_to_west_direction(self):
        topology = synthetic_continental_topology(16, seed=6)
        for flow in coast_to_coast_flows(topology, 6):
            source_lon = topology.node_attributes(flow.source)["lon"]
            destination_lon = topology.node_attributes(flow.destination)["lon"]
            assert source_lon > destination_lon  # east of destination

    def test_small_topology(self):
        topology = synthetic_continental_topology(4, seed=7)
        flows = coast_to_coast_flows(topology, 2)
        assert 1 <= len(flows) <= 2
