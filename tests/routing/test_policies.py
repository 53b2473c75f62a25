"""Routing policies: static, dynamic, flooding."""

from __future__ import annotations

import pytest

from repro.netmodel.conditions import LinkState
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing import (
    DynamicSinglePathPolicy,
    DynamicTwoDisjointPolicy,
    StaticKDisjointPolicy,
    StaticSinglePathPolicy,
    TimeConstrainedFloodingPolicy,
)
from repro.util.validation import ValidationError

FLOW = FlowSpec("NYC", "SJC")


def attach(policy, topology, flow=FLOW, service=None):
    return policy.attach(topology, flow, service or ServiceSpec())


def degraded(*edges, rate=0.5):
    return {edge: LinkState(loss_rate=rate) for edge in edges}


class TestLifecycle:
    def test_update_before_attach_rejected(self, reference_topology):
        with pytest.raises(ValidationError):
            StaticSinglePathPolicy().update(0.0, {})

    def test_double_attach_rejected(self, reference_topology):
        policy = attach(StaticSinglePathPolicy(), reference_topology)
        with pytest.raises(ValidationError):
            policy.attach(reference_topology, FLOW, ServiceSpec())

    def test_time_must_advance(self, reference_topology):
        policy = attach(StaticSinglePathPolicy(), reference_topology)
        policy.update(5.0, {})
        with pytest.raises(ValidationError):
            policy.update(4.0, {})

    def test_unknown_flow_endpoint(self, reference_topology):
        with pytest.raises(ValidationError):
            attach(StaticSinglePathPolicy(), reference_topology, FlowSpec("NYC", "XX"))


class TestStaticPolicies:
    def test_single_never_changes(self, reference_topology):
        policy = attach(StaticSinglePathPolicy(), reference_topology)
        clean = policy.update(0.0, {})
        under_loss = policy.update(1.0, degraded(("CHI", "DEN"), rate=1.0))
        assert clean == under_loss
        assert not policy.is_dynamic

    def test_two_disjoint_structure(self, reference_topology):
        policy = attach(StaticKDisjointPolicy(k=2), reference_topology)
        graph = policy.update(0.0, {})
        assert len(graph.in_neighbors("SJC")) == 2

    def test_scheme_names(self):
        assert StaticKDisjointPolicy(k=2).name == "static-two-disjoint"
        assert StaticKDisjointPolicy(k=3).name == "static-three-disjoint"

    def test_bad_k(self):
        with pytest.raises(ValidationError):
            StaticKDisjointPolicy(k=0)


class TestFloodingPolicy:
    def test_uses_service_deadline(self, reference_topology):
        policy = attach(TimeConstrainedFloodingPolicy(), reference_topology)
        graph = policy.update(0.0, {})
        assert "LON" not in graph.nodes  # over the 65 ms budget

    def test_deadline_override(self, reference_topology):
        generous = attach(
            TimeConstrainedFloodingPolicy(deadline_ms=150.0), reference_topology
        )
        graph = generous.update(0.0, {})
        assert "LON" in graph.nodes

    def test_static_under_loss(self, reference_topology):
        policy = attach(TimeConstrainedFloodingPolicy(), reference_topology)
        clean = policy.update(0.0, {})
        assert policy.update(1.0, degraded(("CHI", "DEN"))) == clean


class TestDynamicSingle:
    def test_avoids_degraded_link(self, reference_topology):
        policy = attach(DynamicSinglePathPolicy(), reference_topology)
        baseline = policy.update(0.0, {})
        assert ("CHI", "DEN") in baseline.edges
        rerouted = policy.update(1.0, degraded(("CHI", "DEN"), rate=0.8))
        assert ("CHI", "DEN") not in rerouted.edges
        assert rerouted.connects()

    def test_ignores_subthreshold_loss(self, reference_topology):
        policy = attach(DynamicSinglePathPolicy(loss_threshold=0.02), reference_topology)
        baseline = policy.update(0.0, {})
        same = policy.update(1.0, degraded(("CHI", "DEN"), rate=0.01))
        assert same == baseline

    def test_reverts_when_clean(self, reference_topology):
        policy = attach(DynamicSinglePathPolicy(), reference_topology)
        baseline = policy.update(0.0, {})
        policy.update(1.0, degraded(("CHI", "DEN"), rate=0.8))
        assert policy.update(2.0, {}) == baseline

    def test_latency_inflation_reroutes(self, reference_topology):
        policy = attach(DynamicSinglePathPolicy(), reference_topology)
        inflated = {("CHI", "DEN"): LinkState(extra_latency_ms=50.0)}
        graph = policy.update(0.0, inflated)
        assert ("CHI", "DEN") not in graph.edges

    def test_least_lossy_fallback(self, line):
        """When every route is lossy the policy still routes (best effort)."""
        policy = DynamicSinglePathPolicy().attach(
            line, FlowSpec("S", "T"), ServiceSpec()
        )
        graph = policy.update(0.0, degraded(("S", "M"), ("M", "T"), rate=0.9))
        assert graph.connects()


class TestDynamicTwoDisjoint:
    def test_avoids_degraded(self, reference_topology):
        policy = attach(DynamicTwoDisjointPolicy(), reference_topology)
        graph = policy.update(0.0, degraded(("DEN", "SJC"), rate=0.9))
        assert ("DEN", "SJC") not in graph.edges
        assert len(graph.in_neighbors("SJC")) == 2

    def test_penalized_fallback_picks_least_lossy(self, reference_topology):
        """All destination links lossy: the pair uses the two best."""
        policy = attach(DynamicTwoDisjointPolicy(), reference_topology)
        observed = degraded(
            ("DEN", "SJC"), ("SEA", "SJC"), rate=0.9
        ) | degraded(("LAX", "SJC"), rate=0.3)
        graph = policy.update(0.0, observed)
        # The least-lossy entry (LAX) must be one of the two used.
        assert ("LAX", "SJC") in graph.edges

    def test_decision_cached_between_identical_views(self, reference_topology):
        policy = attach(DynamicTwoDisjointPolicy(), reference_topology)
        view = degraded(("CHI", "DEN"))
        first = policy.update(0.0, view)
        second = policy.update(1.0, dict(view))
        assert first is second  # same object: cache hit
