"""The reference overlay and service specification."""

from __future__ import annotations

import pytest

from repro.core.algorithms.maxflow import max_disjoint_path_count
from repro.netmodel.topology import (
    EAST_SITES,
    WEST_SITES,
    FlowSpec,
    ServiceSpec,
    build_reference_topology,
    reference_flows,
)
from repro.util.validation import ValidationError
from tests.core.graphutil import adjacency_of


class TestReferenceTopology:
    def test_twelve_nodes(self, reference_topology):
        assert reference_topology.num_nodes == 12

    def test_frozen_and_valid(self, reference_topology):
        assert reference_topology.frozen
        reference_topology.validate()

    def test_every_node_has_degree_two_plus(self, reference_topology):
        for node in reference_topology.nodes:
            assert len(reference_topology.out_neighbors(node)) >= 2, node

    def test_biconnected_for_flows(self, reference_topology, flows):
        adjacency = adjacency_of(reference_topology)
        for flow in flows:
            assert (
                max_disjoint_path_count(adjacency, flow.source, flow.destination)
                >= 2
            )

    def test_coast_to_coast_within_deadline(self, reference_topology, flows):
        """Claim C1: every flow's shortest path is well under 65 ms."""
        index = reference_topology.routing_index
        for flow in flows:
            latency = index.distances(index.latencies, flow.source)[
                index.rank[flow.destination]
            ]
            assert latency < 45.0, flow.name

    def test_latencies_symmetric(self, reference_topology):
        for u, v in reference_topology.edges:
            assert reference_topology.latency(u, v) == reference_topology.latency(
                v, u
            )

    def test_build_is_deterministic(self):
        a = build_reference_topology()
        b = build_reference_topology()
        assert a.edges == b.edges
        for edge in a.edges:
            assert a.latency(*edge) == b.latency(*edge)


class TestFlows:
    def test_sixteen_flows(self, flows):
        assert len(flows) == 16

    def test_east_to_west(self, flows):
        for flow in flows:
            assert flow.source in EAST_SITES
            assert flow.destination in WEST_SITES

    def test_unique(self, flows):
        assert len({flow.name for flow in flows}) == 16

    def test_flow_name(self):
        assert FlowSpec("NYC", "SJC").name == "NYC->SJC"

    def test_flow_same_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            FlowSpec("NYC", "NYC")

    def test_reference_flows_fresh_tuple(self):
        assert reference_flows() == reference_flows()


class TestServiceSpec:
    def test_defaults_match_paper(self):
        service = ServiceSpec()
        assert service.deadline_ms == 65.0
        assert service.rtt_budget_ms == 130.0
        assert service.send_interval_ms == 10.0
        assert service.packets_per_second == 100.0

    def test_deadline_must_fit_rtt(self):
        ServiceSpec(deadline_ms=100.0)  # within the 130 ms budget
        with pytest.raises(ValidationError):
            ServiceSpec(deadline_ms=140.0)  # exceeds it

    def test_positive_fields(self):
        with pytest.raises(ValidationError):
            ServiceSpec(deadline_ms=0.0)
        with pytest.raises(ValidationError):
            ServiceSpec(send_interval_ms=-1.0)
