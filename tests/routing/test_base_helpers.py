"""Shared routing helpers: observed weights on the routing index, timely edges."""

from __future__ import annotations

import pytest

from repro.core.graph import Topology
from repro.netmodel.conditions import LinkState
from repro.routing.base import (
    degraded_edge_set,
    observed_weights,
    timely_edge_latencies,
)


class TestDegradedEdgeSet:
    def test_threshold_applied(self):
        observed = {
            ("A", "B"): LinkState(loss_rate=0.5),
            ("B", "C"): LinkState(loss_rate=0.01),
        }
        assert degraded_edge_set(observed, 0.02) == {("A", "B")}

    def test_empty(self):
        assert degraded_edge_set({}, 0.02) == frozenset()


class TestObservedAdjacency:
    """The observed view as the routing index sees it: weights by link id."""

    @staticmethod
    def weight(topology, weights, edge):
        return weights[topology.routing_index.link_id[edge]]

    def test_base_latencies(self, diamond):
        weights = observed_weights(diamond.routing_index, {})
        assert self.weight(diamond, weights, ("S", "A")) == 2.0
        # A view that changes no weight is the base view itself, which
        # the flow networks answer once.
        assert weights is diamond.routing_index.latencies
        clean = {("S", "A"): LinkState(loss_rate=0.01)}
        assert observed_weights(diamond.routing_index, clean) is weights
        penalized = observed_weights(diamond.routing_index, clean, penalize_loss=True)
        assert list(penalized) != list(weights)
        assert list(diamond.routing_index.latencies) == [
            diamond.latency(*edge) for edge in diamond.routing_index.edges
        ]

    def test_inflation_added(self, diamond):
        observed = {("S", "A"): LinkState(extra_latency_ms=10.0)}
        weights = observed_weights(diamond.routing_index, observed)
        assert self.weight(diamond, weights, ("S", "A")) == 12.0
        assert self.weight(diamond, weights, ("A", "S")) == 2.0

    def test_exclusion(self, diamond):
        index = diamond.routing_index
        weights = observed_weights(index, {})
        assert index.shortest_path(weights, "S", "T") == ["S", "A", "T"]
        excluded = index.link_ids({("S", "A")})
        assert index.shortest_path(weights, "S", "T", excluded) == ["S", "B", "T"]
        both = index.link_ids({("S", "A"), ("S", "B")})
        assert index.shortest_path(weights, "S", "T", both) is None

    def test_loss_penalty(self, diamond):
        observed = {("S", "A"): LinkState(loss_rate=0.5)}
        plain = observed_weights(diamond.routing_index, observed)
        penalized = observed_weights(
            diamond.routing_index, observed, penalize_loss=True
        )
        assert self.weight(diamond, plain, ("S", "A")) == 2.0
        assert self.weight(diamond, penalized, ("S", "A")) == pytest.approx(
            2.0 + 500.0
        )


def usable_edges(topology, observed, source, destination, deadline_ms):
    """The edges whose through-latency meets the deadline."""
    return frozenset(
        edge
        for edge, through in timely_edge_latencies(
            topology, observed, source, destination
        ).items()
        if through <= deadline_ms
    )


class TestOnTimeEdges:
    def test_clean_reference(self, reference_topology):
        usable = usable_edges(reference_topology, {}, "NYC", "SJC", 65.0)
        # Matches the flooding builder's edge set under clean conditions.
        from repro.core.builders import time_constrained_flooding_graph

        flooding = time_constrained_flooding_graph(
            reference_topology, "NYC", "SJC", 65.0
        )
        assert flooding.edges <= usable

    def test_inflation_disqualifies_edges(self, reference_topology):
        observed = {
            ("CHI", "DEN"): LinkState(extra_latency_ms=100.0),
        }
        usable = usable_edges(reference_topology, observed, "NYC", "SJC", 65.0)
        assert ("CHI", "DEN") not in usable

    def test_tight_deadline_empty(self, reference_topology):
        usable = usable_edges(reference_topology, {}, "NYC", "SJC", 5.0)
        assert usable == frozenset()

    def test_generous_deadline_includes_transatlantic(self, reference_topology):
        usable = usable_edges(reference_topology, {}, "NYC", "SJC", 200.0)
        assert ("NYC", "LON") in usable

    def test_edges_in_sorted_order(self, reference_topology):
        through = timely_edge_latencies(reference_topology, {}, "NYC", "SJC")
        assert list(through) == sorted(through)

    def test_edges_off_every_route_left_out(self):
        # X cannot be reached from S, and Y cannot reach T.
        topology = Topology("one-way")
        for node in ("S", "M", "T", "X", "Y"):
            topology.add_node(node)
        for tail, head in (("S", "M"), ("M", "T"), ("X", "S"), ("M", "Y")):
            topology.add_link(tail, head, 1.0, bidirectional=False)
        through = timely_edge_latencies(topology.freeze(), {}, "S", "T")
        assert through == {("M", "T"): 2.0, ("S", "M"): 2.0}
