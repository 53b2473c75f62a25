"""The targeted-redundancy policy (the paper's contribution)."""

from __future__ import annotations

import pytest

from repro.core.detection import ProblemType
from repro.netmodel.conditions import LinkState
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing.targeted import TargetedRedundancyPolicy
from repro.util.validation import ValidationError

FLOW = FlowSpec("NYC", "SJC")


def make(topology, **kwargs):
    return TargetedRedundancyPolicy(**kwargs).attach(topology, FLOW, ServiceSpec())


def degraded(*edges, rate=0.6):
    return {edge: LinkState(loss_rate=rate) for edge in edges}


def destination_problem():
    return degraded(("DEN", "SJC"), ("LAX", "SJC"), ("SEA", "SJC"))


def source_problem():
    return degraded(("NYC", "CHI"), ("NYC", "WAS"))


class TestGraphSelection:
    def test_clean_uses_two_disjoint(self, reference_topology):
        policy = make(reference_topology)
        graph = policy.update(0.0, {})
        assert graph.name.endswith("/base")
        assert len(graph.in_neighbors("SJC")) == 2

    def test_destination_problem_switches(self, reference_topology):
        policy = make(reference_topology)
        policy.update(0.0, {})
        graph = policy.update(1.0, destination_problem())
        assert graph.name.endswith("/destination-problem")
        # Every in-link of the destination is covered.
        assert set(graph.in_neighbors("SJC")) == set(
            reference_topology.in_neighbors("SJC")
        )

    def test_source_problem_switches(self, reference_topology):
        policy = make(reference_topology)
        graph = policy.update(0.0, source_problem())
        assert graph.name.endswith("/source-problem")
        # All timely exits covered (trans-Atlantic ones excluded).
        assert set(graph.out_neighbors("NYC")) == {"CHI", "JHU", "WAS"}

    def test_both_problems_use_robust(self, reference_topology):
        policy = make(reference_topology)
        graph = policy.update(0.0, {**source_problem(), **destination_problem()})
        assert graph.name.endswith("/robust")

    def test_middle_problem_reroutes(self, reference_topology):
        policy = make(reference_topology)
        graph = policy.update(0.0, degraded(("CHI", "DEN"), rate=0.9))
        assert graph.name.endswith("/reroute")
        assert ("CHI", "DEN") not in graph.edges
        assert len(graph.in_neighbors("SJC")) == 2

    def test_problem_graphs_precomputed(self, reference_topology):
        policy = make(reference_topology)
        graphs = policy.problem_graphs
        assert set(graphs) == {
            ProblemType.SOURCE,
            ProblemType.DESTINATION,
            ProblemType.SOURCE_AND_DESTINATION,
        }
        for graph in graphs.values():
            assert graph.connects()


class TestHoldDown:
    def test_problem_graph_held_through_gap(self, reference_topology):
        policy = make(reference_topology, hold_down_s=10.0)
        policy.update(0.0, destination_problem())
        held = policy.update(5.0, {})  # burst gap
        assert held.name.endswith("/destination-problem")

    def test_reverts_after_hold_down(self, reference_topology):
        policy = make(reference_topology, hold_down_s=10.0)
        policy.update(0.0, destination_problem())
        graph = policy.update(11.0, {})
        assert graph.name.endswith("/base")

    def test_sticky_middle_exclusion(self, reference_topology):
        """A middle link seen lossy stays excluded through burst gaps."""
        policy = make(reference_topology, hold_down_s=10.0)
        policy.update(0.0, degraded(("CHI", "DEN"), rate=0.9))
        during_gap = policy.update(5.0, {})
        assert ("CHI", "DEN") not in during_gap.edges


class TestTimeliness:
    def test_reroute_stays_on_time(self, reference_topology):
        """Even under heavy exclusions, installed paths meet the deadline."""
        policy = make(reference_topology)
        observed = degraded(("CHI", "DEN"), ("WAS", "ATL"), rate=0.9)
        graph = policy.update(0.0, observed)
        assert graph.delivers_within(
            lambda u, v: reference_topology.latency(u, v), 65.0
        )

    def test_problem_graphs_meet_deadline(self, reference_topology):
        policy = make(reference_topology)
        latency = lambda u, v: reference_topology.latency(u, v)
        for graph in policy.problem_graphs.values():
            assert graph.delivers_within(latency, 65.0)

    def test_overlap_unions_reroute(self, reference_topology):
        """Endpoint problem + degraded middle edge of the problem graph."""
        policy = make(reference_topology)
        base_problem = policy.problem_graphs[ProblemType.DESTINATION]
        # Find a middle edge of the destination-problem graph to degrade.
        middle_edges = [
            e
            for e in base_problem.edges
            if "NYC" not in e and "SJC" not in e
        ]
        observed = {**destination_problem(), **degraded(middle_edges[0], rate=0.9)}
        graph = policy.update(0.0, observed)
        # Still protects all destination entries...
        assert set(graph.in_neighbors("SJC")) == set(
            reference_topology.in_neighbors("SJC")
        )
        # ...and is a strict superset of the precomputed problem graph
        # (the timely reroute was unioned in).
        assert base_problem.edges <= graph.edges


class TestCost:
    def test_problem_graphs_cost_bounded(self, reference_topology):
        """Problem graphs are pricier than the base pair but far below
        flooding -- the cost story of claim C6."""
        from repro.core.builders import time_constrained_flooding_graph

        policy = make(reference_topology)
        base = policy.update(0.0, {})
        flood = time_constrained_flooding_graph(
            reference_topology, "NYC", "SJC", 65.0
        )
        for graph in policy.problem_graphs.values():
            assert base.num_edges <= graph.num_edges < flood.num_edges


class TestValidation:
    def test_bad_hold_down(self):
        with pytest.raises(ValidationError):
            TargetedRedundancyPolicy(hold_down_s=-1.0)

    def test_bad_entry_limit(self):
        with pytest.raises(ValidationError):
            TargetedRedundancyPolicy(max_entry_links=0)

    @pytest.mark.parametrize("loss_threshold", [1.5, -0.1])
    def test_bad_loss_threshold_rejected_at_construction(self, loss_threshold):
        with pytest.raises(ValidationError, match="loss_threshold"):
            TargetedRedundancyPolicy(loss_threshold=loss_threshold)

    def test_bad_endpoint_link_threshold_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="endpoint_link_threshold"):
            TargetedRedundancyPolicy(endpoint_link_threshold=0)
