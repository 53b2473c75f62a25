"""An independent reference replay for the engine's equivalence tests.

The engine (:class:`repro.exec.plan.ShardContext` under
:func:`repro.exec.engine.run_replay_parallel`) shares one set of views
and one probability memo across pairs, hands policies changed-edge
hints, batches runs of windows under one graph, skips the windows whose
changes miss the installed graph, and answers windows from the memo's
canonical keys, clean answers and on-time skips.  This replay does none
of that: each pair gets a fresh policy, its policy sees per-boundary
views rebuilt from scratch with no hints, and every window is computed
straight from :mod:`repro.simulation.reliability`, with no memo at all.
The engine's reuse layers are correct exactly when they agree with it
bitwise.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.dgraph import DisseminationGraph
from repro.core.graph import Edge, Topology
from repro.netmodel.conditions import ConditionTimeline, LinkState
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing.base import RoutingPolicy
from repro.routing.registry import make_policy
from repro.simulation.reliability import (
    DeliveryProbabilities,
    ReliabilityLimitError,
    accumulate_probabilities,
    classify_indexed,
    delivery_probabilities_indexed,
    index_graph,
)
from repro.simulation.results import FlowSchemeStats, ReplayConfig, ReplayResult
from repro.simulation.timeline import (
    build_decision_timeline,
    decision_boundaries,
    observed_view,
)


def reference_probabilities(
    topology: Topology,
    graph: DisseminationGraph,
    degraded: dict[Edge, LinkState],
    deadline_ms: float,
    config: ReplayConfig,
) -> DeliveryProbabilities:
    """One window's outcome, computed from scratch.

    Per slot, the latency is the base latency plus the view's inflation
    (one addition, as the memo makes it) and the loss is the view's loss
    rate, 0.0 on an edge the view leaves clean.  Hop recovery classifies
    with recovered copies at ``3 * latency + recovery_extra_ms`` and
    falls back to the plain computation above the ternary cap.
    """
    indexed = index_graph(graph)
    latencies = []
    losses = []
    for edge in indexed.edges:
        latency = topology.latency(*edge)
        state = degraded.get(edge)
        if state is None:
            latencies.append(latency)
            losses.append(0.0)
        else:
            latencies.append(latency + state.extra_latency_ms)
            losses.append(state.loss_rate)
    if config.hop_recovery:
        recovery = [3.0 * latency + config.recovery_extra_ms for latency in latencies]
        try:
            classification, lossy_losses = classify_indexed(
                indexed,
                deadline_ms,
                latencies,
                losses,
                config.max_recovery_lossy_edges,
                recovery,
            )
        except ReliabilityLimitError:
            pass
        else:
            return accumulate_probabilities(classification, [lossy_losses])[0]
    return delivery_probabilities_indexed(
        indexed, deadline_ms, latencies, losses, config.max_lossy_edges
    )


def reference_replay_flow(
    topology: Topology,
    timeline: ConditionTimeline,
    flow: FlowSpec,
    service: ServiceSpec,
    policy: RoutingPolicy,
    config: ReplayConfig = ReplayConfig(),
) -> FlowSchemeStats:
    """One pair, window by window, honouring every ``config`` field."""
    delay = config.detection_delay_s
    boundaries = decision_boundaries(timeline, delay)
    spans = build_decision_timeline(
        topology,
        timeline,
        flow,
        service,
        policy,
        detection_delay_s=delay,
        boundaries=boundaries,
        observed_views=[observed_view(timeline, b, delay) for b in boundaries[:-1]],
    )
    stats = FlowSchemeStats(flow=flow, scheme=policy.name)
    stats.decision_changes = len(spans) - 1
    span_index = 0
    for start, end in zip(boundaries, boundaries[1:]):
        while spans[span_index].end_s <= start:
            span_index += 1
        graph = spans[span_index].graph
        probabilities = reference_probabilities(
            topology, graph, timeline.degraded_at(start), service.deadline_ms, config
        )
        stats.add_window(
            start,
            end,
            graph.name,
            graph.num_edges,
            probabilities.on_time,
            probabilities.lost,
            probabilities.late,
            collect=config.collect_windows,
        )
    return stats


def reference_run_replay(
    topology: Topology,
    timeline: ConditionTimeline,
    flows: Sequence[FlowSpec],
    service: ServiceSpec,
    scheme_names: Sequence[str],
    config: ReplayConfig = ReplayConfig(),
) -> ReplayResult:
    """Every pair through :func:`reference_replay_flow`, scheme-major."""
    result = ReplayResult(service, config)
    for scheme in scheme_names:
        for flow in flows:
            result.add(
                reference_replay_flow(
                    topology, timeline, flow, service, make_policy(scheme), config
                )
            )
    return result
