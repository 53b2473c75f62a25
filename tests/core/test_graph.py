"""Topology substrate."""

from __future__ import annotations

import pytest

from repro.core.graph import Link, Topology
from repro.util.validation import ValidationError


class TestLink:
    def test_edge_property(self):
        assert Link("A", "B", 5.0).edge == ("A", "B")

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Link("A", "A", 1.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValidationError):
            Link("A", "B", -1.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            Link("A", "B", 1.0, cost=-0.1)


def build_pair() -> Topology:
    topology = Topology("pair")
    topology.add_node("A")
    topology.add_node("B")
    topology.add_link("A", "B", 10.0)
    return topology


class TestConstruction:
    def test_bidirectional_by_default(self):
        topology = build_pair()
        assert topology.has_edge("A", "B")
        assert topology.has_edge("B", "A")

    def test_unidirectional(self):
        topology = Topology()
        topology.add_node("A")
        topology.add_node("B")
        topology.add_link("A", "B", 1.0, bidirectional=False)
        assert topology.has_edge("A", "B")
        assert not topology.has_edge("B", "A")

    def test_duplicate_node_rejected(self):
        topology = Topology()
        topology.add_node("A")
        with pytest.raises(ValidationError):
            topology.add_node("A")

    def test_duplicate_link_rejected(self):
        topology = build_pair()
        with pytest.raises(ValidationError):
            topology.add_link("A", "B", 2.0)

    def test_link_to_unknown_node_rejected(self):
        topology = Topology()
        topology.add_node("A")
        with pytest.raises(ValidationError):
            topology.add_link("A", "Z", 1.0)

    def test_empty_node_id_rejected(self):
        with pytest.raises(ValidationError):
            Topology().add_node("")

    def test_node_attributes(self):
        topology = Topology()
        topology.add_node("A", lat=1.5, lon=-2.0)
        assert topology.node_attributes("A") == {"lat": 1.5, "lon": -2.0}


class TestFreeze:
    def test_freeze_blocks_mutation(self):
        topology = build_pair().freeze()
        with pytest.raises(ValidationError):
            topology.add_node("C")
        with pytest.raises(ValidationError):
            topology.add_link("A", "B", 1.0)

    def test_freeze_idempotent(self):
        topology = build_pair().freeze()
        assert topology.freeze() is topology

    def test_edge_index_requires_frozen(self):
        topology = build_pair()
        with pytest.raises(ValidationError):
            _ = topology.edge_index

    def test_edge_index_stable_and_sorted(self):
        topology = build_pair().freeze()
        index = topology.edge_index
        assert index[("A", "B")] == 0
        assert index[("B", "A")] == 1


class TestQueries:
    def test_latency(self):
        assert build_pair().latency("A", "B") == 10.0

    def test_latency_unknown_edge(self):
        with pytest.raises(ValidationError):
            build_pair().latency("B", "Z")

    def test_neighbors(self, reference_topology):
        assert "CHI" in reference_topology.out_neighbors("NYC")
        assert "NYC" in reference_topology.in_neighbors("CHI")

    def test_adjacent_edges_both_directions(self, diamond):
        edges = diamond.adjacent_edges("S")
        assert ("S", "A") in edges
        assert ("A", "S") in edges
        assert len(edges) == 4

    def test_contains(self, diamond):
        assert "S" in diamond
        assert "Z" not in diamond

    def test_counts(self, diamond):
        assert diamond.num_nodes == 4
        assert diamond.num_edges == 8

    def test_iter_links_sorted(self, diamond):
        edges = [link.edge for link in diamond.iter_links()]
        assert edges == sorted(edges)


class TestConnectivity:
    def test_connected(self, diamond):
        assert diamond.is_connected()

    def test_disconnected(self):
        topology = Topology()
        topology.add_node("A")
        topology.add_node("B")
        assert not topology.is_connected()

    def test_validate_rejects_disconnected(self):
        topology = Topology()
        topology.add_node("A")
        topology.add_node("B")
        with pytest.raises(ValidationError):
            topology.validate()

    def test_validate_rejects_trivial(self):
        topology = Topology()
        topology.add_node("A")
        with pytest.raises(ValidationError):
            topology.validate()

    def test_one_way_ring_is_connected(self):
        topology = Topology()
        for node in "ABC":
            topology.add_node(node)
        topology.add_link("A", "B", 1.0, bidirectional=False)
        topology.add_link("B", "C", 1.0, bidirectional=False)
        topology.add_link("C", "A", 1.0, bidirectional=False)
        assert topology.is_connected()
