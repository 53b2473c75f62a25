"""Work-plan layer: decompose a replay into independent shards.

A full replay is a grid of (flow, scheme) pairs, and each pair's replay
is independent of every other pair's.  A :class:`ShardSpec` names one
pair; :func:`build_plan` produces the canonical shard list.  Every shard
runs on a :class:`ShardContext` and returns the pair's
:class:`~repro.simulation.results.FlowSchemeStats`, which is what pool
workers send home and the disk cache stores; :func:`merge_results`
collects those stats, in plan order, into a
:class:`~repro.simulation.results.ReplayResult`.

The merge is *exact* equality with a serial run, not tolerance-based
equality: a shard steps its policy and accumulates its windows the way
a serial replay of the pair does, so its stats are the pair's result as
they stand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.graph import Topology
from repro.netmodel.conditions import ConditionTimeline
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing.base import RoutingPolicy
from repro.routing.registry import make_policy
from repro.simulation.interval import _ProbabilityCache, _replay_windows
from repro.simulation.results import FlowSchemeStats, ReplayConfig, ReplayResult
from repro.simulation.timeline import (
    DecisionSpan,
    build_decision_timeline,
    decision_boundaries,
    observed_views_with_deltas,
)
from repro.util.validation import fail, require

__all__ = [
    "ShardSpec",
    "ShardContext",
    "build_plan",
    "merge_results",
]


@dataclass(frozen=True)
class ShardSpec:
    """One independent unit of replay work: one (flow, scheme) pair."""

    flow: FlowSpec
    scheme: str

    @property
    def label(self) -> str:
        """Human-readable shard name for telemetry and logs."""
        return f"{self.scheme}/{self.flow.name}"


def build_plan(
    flows: Sequence[FlowSpec], scheme_names: Sequence[str]
) -> list[ShardSpec]:
    """The canonical shard list: scheme-major, flow-minor.

    The merged :class:`ReplayResult` iterates schemes and flows in this
    order.  A repeated (scheme, flow) pair is rejected here, before any
    policy is built.
    """
    require(bool(flows), "need at least one flow")
    require(bool(scheme_names), "need at least one scheme")
    pairs = Counter((scheme, flow.name) for scheme in scheme_names for flow in flows)
    for (scheme, flow_name), count in pairs.items():
        if not (count == 1):
            fail(f"duplicate (scheme, flow) pair {scheme}/{flow_name}")
    return [ShardSpec(flow, scheme) for scheme in scheme_names for flow in flows]


class ShardContext:
    """The one replay path: per-trace state, and the steps that replay a pair.

    The merged boundary list, the per-boundary views with their deltas,
    and the probability memo are built once and shared by every pair.
    :meth:`run` replays an engine shard and :meth:`replay` a caller-built
    policy, through one decision step and one accumulation step.

    ``shard_keys`` maps ``(context digest, shard)`` to the shard's cache
    key: the engine derives each key once per digest while it runs on
    this context, and the keys go with it.
    """

    def __init__(
        self,
        topology: Topology,
        timeline: ConditionTimeline,
        service: ServiceSpec,
        config: ReplayConfig,
    ) -> None:
        self.topology = topology
        self.timeline = timeline
        self.service = service
        self.config = config
        self.boundaries = decision_boundaries(timeline, config.detection_delay_s)
        self.observed_views, self.observed_deltas = observed_views_with_deltas(
            timeline, self.boundaries, config.detection_delay_s
        )
        self.actual_views, self.actual_deltas = timeline.degraded_views(
            list(self.boundaries[:-1])
        )
        self.probability_cache = _ProbabilityCache(service.deadline_ms, config)
        self.shard_keys: dict[tuple[str, ShardSpec], str] = {}

    def replay(self, flow: FlowSpec, policy: RoutingPolicy) -> FlowSchemeStats:
        """Replay ``flow`` under the caller's ``policy`` over the whole trace."""
        return self._accumulate(flow, policy.name, self._decide(flow, policy))

    def run(
        self, shard: ShardSpec, tracer=None, parent_id: int | None = None
    ) -> FlowSchemeStats:
        """Execute one shard: policy stepping, then window accumulation.

        Returns the pair's stats.  ``tracer`` (a :class:`repro.obs.Tracer`,
        or ``None`` for the uninstrumented hot path) records the shard's
        two phases -- policy stepping and window accumulation -- as child
        spans of ``parent_id``.
        """
        phase_start = tracer.now() if tracer is not None else 0.0
        policy = make_policy(shard.scheme)
        spans = self._decide(shard.flow, policy)
        if tracer is not None:
            tracer.complete(
                "shard.policy", "exec", phase_start, tracer.now(),
                parent_id=parent_id, shard=shard.label,
            )
            phase_start = tracer.now()
        stats = self._accumulate(shard.flow, policy.name, spans)
        if tracer is not None:
            tracer.complete(
                "shard.windows", "exec", phase_start, tracer.now(),
                parent_id=parent_id, shard=shard.label,
                decision_changes=stats.decision_changes,
            )
        return stats

    def _decide(self, flow: FlowSpec, policy: RoutingPolicy) -> list[DecisionSpan]:
        """The decision step: ``policy``'s spans over the shared views."""
        return build_decision_timeline(
            self.topology,
            self.timeline,
            flow,
            self.service,
            policy,
            detection_delay_s=self.config.detection_delay_s,
            boundaries=list(self.boundaries),
            observed_views=list(self.observed_views),
            observed_deltas=self.observed_deltas,
        )

    def _accumulate(
        self, flow: FlowSpec, scheme: str, spans: list[DecisionSpan]
    ) -> FlowSchemeStats:
        """The accumulation step: the pair's windows over the whole trace."""
        stats = FlowSchemeStats(flow=flow, scheme=scheme)
        stats.decision_changes = len(spans) - 1
        _replay_windows(
            stats,
            self.probability_cache,
            self.topology,
            self.boundaries,
            spans,
            self.actual_views,
            self.actual_deltas,
            f"{scheme}/{flow.name}",
            self.config.collect_windows,
        )
        return stats


def merge_results(
    service: ServiceSpec,
    config: ReplayConfig,
    plan: Sequence[ShardSpec],
    results: Mapping[ShardSpec, FlowSchemeStats],
) -> ReplayResult:
    """Deterministic merge: shard outputs -> one :class:`ReplayResult`.

    ``plan`` must be the canonical plan the shards came from; its order
    dictates the result's scheme/flow iteration order.
    """
    require(bool(plan), "empty plan")
    merged = ReplayResult(service, config)
    for shard in plan:
        if not (shard in results):
            fail(f"missing result for shard {shard.label}")
        merged.add(results[shard])
    return merged
