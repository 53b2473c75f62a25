"""Work-plan layer: decompose a replay into independent shards.

A full replay is a grid of (flow, scheme) pairs; each pair's window
accumulation is independent of every other pair, and -- because windows
are accumulated additively -- the time axis of one pair can additionally
be cut at any decision boundary.  A :class:`ShardSpec` names one such
unit of work; :func:`build_plan` produces the canonical shard list.
Every shard runs on a :class:`ShardContext` and returns the pair's
:class:`~repro.simulation.results.FlowSchemeStats` over its time range,
which is what pool workers send home and the disk cache stores;
:func:`merge_results` reassembles those stats into a
:class:`~repro.simulation.results.ReplayResult`.

The merge is *exact* equality with a serial, unsharded run, not
tolerance-based equality:

* a full-range shard's stats are the pair's result, because the shard
  *is* the serial loop;
* a time shard's stats carry its per-window records, and the merge re-runs
  ``add_window`` over all windows in chronological order -- the same
  floating-point addition sequence one full-range shard performs;
* every shard reads its policy's decision timeline over the *whole* trace
  (policies carry history-dependent state such as hysteresis), so
  decision timelines and ``decision_changes`` are the serial values
  regardless of sharding; only the expensive probability accumulation is
  windowed.  A context steps the policy once and reuses the timeline for
  the pair's following shards.
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
    "time_cuts",
]


@dataclass(frozen=True)
class ShardSpec:
    """One independent unit of replay work.

    ``index`` / ``of`` place the shard on the pair's time axis; a pair
    that is not time-sharded has a single shard with ``of == 1`` covering
    the whole trace.
    """

    flow: FlowSpec
    scheme: str
    start_s: float
    end_s: float
    index: int
    of: int

    def __post_init__(self) -> None:
        require(self.end_s > self.start_s, "shard window must have positive length")
        require(0 <= self.index < self.of, "shard index out of range")

    @property
    def full_range(self) -> bool:
        """True when the shard covers the pair's whole trace."""
        return self.of == 1

    @property
    def label(self) -> str:
        """Human-readable shard name for telemetry and logs."""
        suffix = "" if self.full_range else f" [{self.index + 1}/{self.of}]"
        return f"{self.scheme}/{self.flow.name}{suffix}"


def time_cuts(
    timeline: ConditionTimeline, detection_delay_s: float, time_shards: int
) -> list[float]:
    """Cut the trace into at most ``time_shards`` window-aligned pieces.

    Cuts fall on decision boundaries so no accumulation window straddles
    a shard edge; fewer pieces are returned when the trace has fewer
    windows than requested shards.
    """
    require(time_shards >= 1, "time_shards must be >= 1")
    if time_shards == 1:
        return [0.0, timeline.duration_s]
    boundaries = decision_boundaries(timeline, detection_delay_s)
    window_count = len(boundaries) - 1
    shards = min(time_shards, window_count)
    cuts = {boundaries[round(i * window_count / shards)] for i in range(shards + 1)}
    return sorted(cuts)


def build_plan(
    timeline: ConditionTimeline,
    flows: Sequence[FlowSpec],
    scheme_names: Sequence[str],
    config: ReplayConfig,
    time_shards: int = 1,
) -> list[ShardSpec]:
    """The canonical shard list: scheme-major, flow-minor, time-ascending.

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
    cuts = time_cuts(timeline, config.detection_delay_s, time_shards)
    pieces = list(zip(cuts, cuts[1:]))
    plan: list[ShardSpec] = []
    for scheme in scheme_names:
        for flow in flows:
            for index, (start, end) in enumerate(pieces):
                plan.append(
                    ShardSpec(
                        flow=flow,
                        scheme=scheme,
                        start_s=start,
                        end_s=end,
                        index=index,
                        of=len(pieces),
                    )
                )
    return plan


class ShardContext:
    """The one replay path: per-trace state, and the steps that replay a pair.

    The merged boundary list, the per-boundary views with their deltas,
    and the probability memo are built once and shared by every pair.
    :meth:`run` replays an engine shard and :meth:`replay` a caller-built
    policy, through one decision step and one accumulation step.
    Consecutive shards of one (flow, scheme) pair also share its decision
    timeline, so a time-sharded pair steps its policy once per context.
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
        self.probability_cache = _ProbabilityCache(
            service.deadline_ms,
            config.max_lossy_edges,
            hop_recovery=config.hop_recovery,
            recovery_extra_ms=config.recovery_extra_ms,
            max_recovery_lossy_edges=config.max_recovery_lossy_edges,
        )
        # The last pair's decision timeline: a pair's time shards run next
        # to each other in the plan, and each needs the whole timeline.
        # One entry keeps a long-lived context at one timeline.
        self._last_pair: tuple[tuple[str, FlowSpec], str, list] | None = None

    def replay(self, flow: FlowSpec, policy: RoutingPolicy) -> FlowSchemeStats:
        """Replay ``flow`` under the caller's ``policy`` over the whole trace."""
        return self._accumulate(
            flow,
            policy.name,
            self._decide(flow, policy),
            (0.0, self.timeline.duration_s),
            self.config.collect_windows,
        )

    def run(
        self, shard: ShardSpec, tracer=None, parent_id: int | None = None
    ) -> FlowSchemeStats:
        """Execute one shard: full policy stepping, windowed accumulation.

        Returns the pair's stats over the shard's time range.  For a
        full-range shard that is the pair's result; a time shard's
        stats carry its window records for the merge.

        ``tracer`` (a :class:`repro.obs.Tracer`, or ``None`` for the
        uninstrumented hot path) records the shard's two phases --
        policy stepping and window accumulation -- as child spans of
        ``parent_id``.
        """
        phase_start = tracer.now() if tracer is not None else 0.0
        pair = (shard.scheme, shard.flow)
        last = self._last_pair
        if last is not None and last[0] == pair:
            _pair, scheme_name, spans = last
        else:
            policy = make_policy(shard.scheme)
            spans = self._decide(shard.flow, policy)
            scheme_name = policy.name
            self._last_pair = (pair, scheme_name, spans)
        if tracer is not None:
            tracer.complete(
                "shard.policy", "exec", phase_start, tracer.now(),
                parent_id=parent_id, shard=shard.label,
            )
            phase_start = tracer.now()
        # A time shard always records its windows: the merge re-accumulates
        # them.  A full-range shard records them only for the caller.
        collect = not shard.full_range or self.config.collect_windows
        stats = self._accumulate(
            shard.flow, scheme_name, spans, (shard.start_s, shard.end_s), collect
        )
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
        self,
        flow: FlowSpec,
        scheme: str,
        spans: list[DecisionSpan],
        shard_range: tuple[float, float],
        collect: bool,
    ) -> FlowSchemeStats:
        """The accumulation step: the pair's windows inside ``shard_range``."""
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
            collect,
            shard_range,
        )
        return stats


def _merge_pair(
    shards: Sequence[ShardSpec],
    results: Mapping[ShardSpec, FlowSchemeStats],
    config: ReplayConfig,
) -> FlowSchemeStats:
    """Reassemble one (flow, scheme) pair from its time shards."""
    first = results[shards[0]]
    if shards[0].full_range:
        return first
    for shard in shards:
        if not (results[shard].decision_changes == first.decision_changes):
            fail(f"inconsistent decision timelines across shards of {shard.label}")
    stats = FlowSchemeStats(flow=first.flow, scheme=first.scheme)
    stats.decision_changes = first.decision_changes
    for shard in sorted(shards, key=lambda s: s.start_s):
        windows = results[shard].windows
        # Cuts fall on decision boundaries, so a time shard has a window.
        if not windows:
            fail(f"time shard {shard.label} is missing its window records")
        for window in windows:
            stats.add_window(
                window.start_s,
                window.end_s,
                window.graph_name,
                window.graph_edges,
                window.on_time_probability,
                window.lost_probability,
                window.late_probability,
                collect=config.collect_windows,
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
    for shard in plan:
        if not (shard in results):
            fail(f"missing result for shard {shard.label}")
    merged = ReplayResult(service, config)
    groups: dict[tuple[str, str], list[ShardSpec]] = {}
    for shard in plan:
        groups.setdefault((shard.scheme, shard.flow.name), []).append(shard)
    for shards in groups.values():
        merged.add(_merge_pair(shards, results, config))
    return merged
