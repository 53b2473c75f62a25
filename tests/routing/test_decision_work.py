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
"""

from __future__ import annotations

import pytest

import repro.routing.targeted as targeted_module
from repro.core.algorithms import RoutingIndex, SplitNetwork
from repro.core.algorithms.mincostflow import MinCostFlow
from repro.netmodel import scenarios
from repro.netmodel.topology import ServiceSpec
from repro.routing.dynamic import DynamicTwoDisjointPolicy
from repro.routing.targeted import TargetedRedundancyPolicy
from repro.simulation.timeline import (
    build_decision_timeline,
    decision_boundaries,
    observed_views_with_deltas,
)
from repro.topogen import resolve_workload


@pytest.fixture(scope="module")
def trace():
    workload = resolve_workload()
    _events, timeline = scenarios.generate_timeline(
        workload.topology, scenarios.Scenario(duration_s=9 * 3600.0), seed=7
    )
    boundaries = decision_boundaries(timeline, 1.0)
    views, deltas = observed_views_with_deltas(timeline, boundaries, 1.0)
    return workload, timeline, boundaries, views, deltas


def step_all_flows(trace, make_policy, monkeypatch, target, attribute):
    """Step a fresh policy per flow; count calls of ``target.attribute``.

    Counting starts after attach, so the graphs precomputed at attach do
    not count.
    """
    workload, timeline, boundaries, views, deltas = trace
    calls = []
    original = getattr(target, attribute)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for flow in workload.flows:
        policy = make_policy()
        policy.attach(workload.topology, flow, ServiceSpec())
        with monkeypatch.context() as patch:
            patch.setattr(target, attribute, counting)
            build_decision_timeline(
                workload.topology, timeline, flow, ServiceSpec(), policy,
                detection_delay_s=1.0,
                boundaries=list(boundaries),
                observed_views=list(views),
                observed_deltas=deltas,
            )
    return len(calls)


def test_targeted_timely_pass_once_per_inflation_key(trace, monkeypatch):
    workload, *_rest = trace
    assert len(workload.flows) == 16
    passes = step_all_flows(
        trace, TargetedRedundancyPolicy, monkeypatch,
        targeted_module, "timely_edge_latencies",
    )
    # Every re-route of a flow on this trace sees one inflation key;
    # recomputing per update made 2,652 passes.
    assert passes == 16


def test_dynamic_two_disjoint_flow_solves(trace, monkeypatch):
    solves = step_all_flows(
        trace, DynamicTwoDisjointPolicy, monkeypatch, MinCostFlow, "send"
    )
    # 376 distinct fingerprints the un-penalised search decides, one solve
    # each, plus 148 fallbacks of two solves each (the failed un-penalised
    # one and the penalised one).  Recomputing at every fingerprint change
    # made 1,348 solves.
    assert solves == 672


def test_targeted_reroute_solves(trace, monkeypatch):
    solves = step_all_flows(
        trace, TargetedRedundancyPolicy, monkeypatch, MinCostFlow, "send"
    )
    # Each re-route the un-penalised search found is kept per
    # (sticky degraded, timely, inflation) key; loss-penalised fallbacks
    # are reused only while the key repeats.  Keeping one re-route at a
    # time made 376 solves.
    assert solves == 268


@pytest.mark.parametrize(
    ("target", "step", "calls"),
    [
        pytest.param(target, step, calls, id=f"{step}-{calls}")
        for target, step, calls in (
            (SplitNetwork, "__init__", 1),
            (SplitNetwork, "disjoint_paths", 1),
            (RoutingIndex, "steiner_arborescence", 2),
            (RoutingIndex, "distances", 2),
        )
    ],
)
def test_targeted_attach_builds_each_problem_graph_once(
    trace, monkeypatch, target, step, calls
):
    """One builder call solves the base pair once on one network, and
    its two base-latency distance passes serve both the neighbour choice
    and the one flooding graph that prunes all three problem graphs.
    Building each problem graph on its own made 3 networks and 3 solves,
    and 8 distance passes (two per flooding graph, two for the neighbour
    choice)."""
    workload, *_rest = trace
    counted = []
    original = getattr(target, step)

    def counting(*args, **kwargs):
        counted.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(target, step, counting)
    for flow in workload.flows:
        counted.clear()
        TargetedRedundancyPolicy().attach(workload.topology, flow, ServiceSpec())
        assert len(counted) == calls, flow.name
