"""Deterministic work counts of the routing decisions.

The dynamic and targeted policies compute each distinct routing input
once: targeted's timely candidate set once per distinct latency
inflation and a re-route once per distinct re-route key, and a dynamic
decision once per distinct fingerprint, unless the loss-penalised
fallback made it.  A return to per-update
recomputation multiplies these counts, which a wall-clock bound could
not catch reliably.  Counted on the seed-7 9-hour trace of the 12-site
overlay, all 16 flows.  Targeted's attach solves its base pair and
builds its flooding graph once, counted per attach on the same overlay.
Every flow has one node-split network per topology, shared by all six
schemes, and its base view is solved once.

The topology's routing index keeps each flow's network and base-view
answer for its life, so every test counts on a freshly built overlay:
the counts must not depend on what an earlier test left memoised.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.routing.targeted as targeted_module
from repro.core.algorithms import RoutingIndex, SplitNetwork
from repro.core.algorithms.mincostflow import MinCostFlow
from repro.netmodel import scenarios
from repro.netmodel.topology import (
    ServiceSpec,
    build_reference_topology,
    reference_flows,
)
from repro.routing.dynamic import DynamicTwoDisjointPolicy
from repro.routing.registry import STANDARD_SCHEME_NAMES, make_policy
from repro.routing.targeted import TargetedRedundancyPolicy
from repro.simulation.timeline import (
    build_decision_timeline,
    decision_boundaries,
    observed_views_with_deltas,
)


@pytest.fixture(scope="module")
def trace():
    _events, timeline = scenarios.generate_timeline(
        build_reference_topology(), scenarios.Scenario(duration_s=9 * 3600.0), seed=7
    )
    boundaries = decision_boundaries(timeline, 1.0)
    views, deltas = observed_views_with_deltas(timeline, boundaries, 1.0)
    return timeline, boundaries, views, deltas


@pytest.fixture
def topology():
    """A reference overlay no other test has routed on."""
    return build_reference_topology()


def counting(monkeypatch, target, attribute, calls: list) -> None:
    """Append to ``calls`` on every call of ``target.attribute``."""
    original = getattr(target, attribute)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(target, attribute, counted)


def step(trace, topology, flow, policy) -> None:
    """Step an attached ``policy`` through the trace."""
    timeline, boundaries, views, deltas = trace
    build_decision_timeline(
        topology, timeline, flow, ServiceSpec(), policy,
        detection_delay_s=1.0,
        boundaries=list(boundaries),
        observed_views=list(views),
        observed_deltas=deltas,
    )


def step_all_flows(trace, topology, make, monkeypatch, target, attribute):
    """Step a fresh policy per flow; count calls of ``target.attribute``.

    Counting starts after attach, so the graphs precomputed at attach do
    not count.
    """
    calls: list = []
    for flow in reference_flows():
        policy = make()
        policy.attach(topology, flow, ServiceSpec())
        with monkeypatch.context() as patch:
            counting(patch, target, attribute, calls)
            step(trace, topology, flow, policy)
    return len(calls)


def test_targeted_timely_pass_once_per_inflation_key(trace, topology, monkeypatch):
    assert len(reference_flows()) == 16
    passes = step_all_flows(
        trace, topology, TargetedRedundancyPolicy, monkeypatch,
        targeted_module, "timely_edge_latencies",
    )
    # Every re-route of a flow on this trace sees one inflation key;
    # recomputing per update made 2,652 passes.
    assert passes == 16


def test_dynamic_two_disjoint_flow_solves(trace, topology, monkeypatch):
    solves = step_all_flows(
        trace, topology, DynamicTwoDisjointPolicy, monkeypatch, MinCostFlow, "send"
    )
    # 376 distinct fingerprints the un-penalised search decides, one solve
    # each, plus 148 fallbacks of two solves each (the failed un-penalised
    # one and the penalised one).  Recomputing at every fingerprint change
    # made 1,348 solves.  Nothing else routed on this overlay, so each
    # flow's clean fingerprint, its base view, is one of the 376.
    assert solves == 672


def test_targeted_reroute_solves(trace, topology, monkeypatch):
    solves = step_all_flows(
        trace, topology, TargetedRedundancyPolicy, monkeypatch, MinCostFlow, "send"
    )
    # Each re-route the un-penalised search found is kept per
    # (sticky degraded, timely, inflation) key; loss-penalised fallbacks
    # are reused only while the key repeats.  Keeping one re-route at a
    # time made 376 solves.
    assert solves == 268


@pytest.mark.parametrize(
    ("target", "step_name", "calls"),
    [
        pytest.param(target, step_name, calls, id=f"{label}-{calls}")
        for target, step_name, label, calls in (
            (SplitNetwork, "__init__", "__init__", 1),
            (SplitNetwork, "disjoint_paths", "disjoint_paths", 1),
            (RoutingIndex, "steiner_arborescence", "steiner_arborescence", 2),
            # The passes themselves: the flooding graph reads the two the
            # neighbour choice took from the index's memo.
            (RoutingIndex, "_distances", "distances", 2),
        )
    ],
)
def test_targeted_attach_builds_each_problem_graph_once(
    monkeypatch, target, step_name, calls
):
    """One builder call solves the base pair once on one network, and
    its two base-latency distance passes serve both the neighbour choice
    and the one flooding graph that prunes all three problem graphs.
    Building each problem graph on its own made 3 networks and 3 solves,
    and 8 distance passes (two per flooding graph, two for the neighbour
    choice).  Each attach gets an overlay of its own, since flows that
    share an endpoint share its distance pass."""
    counted: list = []
    counting(monkeypatch, target, step_name, counted)
    for flow in reference_flows():
        counted.clear()
        TargetedRedundancyPolicy().attach(
            build_reference_topology(), flow, ServiceSpec()
        )
        assert len(counted) == calls, flow.name


def test_one_network_and_one_base_solve_per_flow(trace, topology, monkeypatch):
    """All six schemes of a flow route on one network, in every order.

    ``static-two-disjoint`` attaches first and solves the base view;
    targeted's attach reads its base pair from that answer and
    ``dynamic-two-disjoint``'s clean fingerprint does too, so each makes
    one solve fewer than on a fresh overlay (672 above).  Before the
    networks were shared a flow built four of them (64 in all): one per
    disjoint-path builder call and one per re-routing policy.  A
    base-latency distance pass runs once per origin and direction: from
    each of the 4 sources and to each of the 4 destinations (96 before:
    two per attach of targeted and of flooding, two per timely pass).
    """
    networks: list = []
    sends: list = []
    passes: list = []
    counting(monkeypatch, SplitNetwork, "__init__", networks)
    counting(monkeypatch, MinCostFlow, "send", sends)
    counting(monkeypatch, RoutingIndex, "_distances", passes)
    per_scheme: Counter = Counter()
    for flow in reference_flows():
        for name in STANDARD_SCHEME_NAMES:
            before = len(sends)
            policy = make_policy(name)
            policy.attach(topology, flow, ServiceSpec())
            step(trace, topology, flow, policy)
            per_scheme[name] += len(sends) - before
    assert len(networks) == 16
    assert len(passes) == 8
    assert per_scheme == {
        "static-single": 0,
        "dynamic-single": 0,
        "static-two-disjoint": 16,
        "dynamic-two-disjoint": 656,
        "targeted": 268,
        "flooding": 0,
    }
    flows = sorted((flow.source, flow.destination) for flow in reference_flows())
    memo = topology.routing_index._memo
    assert sorted(key[1:] for key in memo if key[0] == "network") == flows
    networks_built = [memo[("network", *flow)] for flow in flows]
    assert all(list(network._base) == [2] for network in networks_built)
