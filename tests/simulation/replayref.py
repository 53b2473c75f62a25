"""An independent reference replay for the engine's equivalence tests.

The engine (:class:`repro.exec.plan.ShardContext` under
:func:`repro.exec.engine.run_replay_parallel`) shares one set of views
and one probability memo across pairs, hands policies changed-edge
hints, batches runs of windows under one graph, and skips the windows
whose changes miss the installed graph.  This replay does none of
that: each pair gets a fresh policy and a fresh ``_ProbabilityCache``,
its policy sees per-boundary views rebuilt from scratch with no hints,
and every window is looked up on its own.  The engine's reuse layers
are correct exactly when they agree with it bitwise.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.graph import Topology
from repro.netmodel.conditions import ConditionTimeline
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing.base import RoutingPolicy
from repro.routing.registry import make_policy
from repro.simulation.interval import _ProbabilityCache
from repro.simulation.results import FlowSchemeStats, ReplayConfig, ReplayResult
from repro.simulation.timeline import (
    build_decision_timeline,
    decision_boundaries,
    observed_view,
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
    cache = _ProbabilityCache(
        service.deadline_ms,
        config.max_lossy_edges,
        hop_recovery=config.hop_recovery,
        recovery_extra_ms=config.recovery_extra_ms,
        max_recovery_lossy_edges=config.max_recovery_lossy_edges,
    )
    stats = FlowSchemeStats(flow=flow, scheme=policy.name)
    stats.decision_changes = len(spans) - 1
    span_index = 0
    for start, end in zip(boundaries, boundaries[1:]):
        while spans[span_index].end_s <= start:
            span_index += 1
        graph = spans[span_index].graph
        probabilities = cache.probabilities(
            topology, graph, timeline.degraded_at(start)
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
