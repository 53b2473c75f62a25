"""Work-plan layer: decompose a replay into independent shards.

A full replay is a grid of (flow, scheme) pairs; each pair's window
accumulation is independent of every other pair, and -- because windows
are accumulated additively -- the time axis of one pair can additionally
be cut at any decision boundary.  A :class:`ShardSpec` names one such
unit of work; :func:`build_plan` produces the canonical shard list and
:func:`merge_results` reassembles shard outputs into a
:class:`~repro.simulation.results.ReplayResult`.

The merge contract is *exact* equality with the serial engine, not
tolerance-based equality:

* a full-range shard runs the very same accumulation loop as
  :func:`repro.simulation.interval.replay_flow`, so its totals are
  bitwise identical to the serial totals;
* a time shard returns its per-window records, and the merge re-runs
  ``add_window`` over all windows in chronological order -- the same
  floating-point addition sequence the serial engine performs;
* every shard steps its policy through the *whole* trace (policies carry
  history-dependent state such as hysteresis), so decision timelines and
  ``decision_changes`` are the serial values regardless of sharding; only
  the expensive probability accumulation is windowed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.graph import Topology
from repro.netmodel.conditions import ConditionTimeline
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing.registry import make_policy
from repro.simulation.interval import _ProbabilityCache, _replay_windows
from repro.simulation.results import (
    FlowSchemeStats,
    ReplayConfig,
    ReplayResult,
    WindowRecord,
)
from repro.simulation.timeline import (
    build_decision_timeline,
    decision_boundaries,
    observed_views_with_deltas,
)
from repro.util.validation import require

__all__ = [
    "ShardSpec",
    "ShardResult",
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


@dataclass
class ShardResult:
    """The outcome of one shard: accumulated totals plus window records.

    ``windows`` is ``None`` only for full-range shards whose caller did
    not ask for window collection; time shards always carry their windows
    because the merge re-accumulates them chronologically.
    """

    flow_source: str
    flow_destination: str
    scheme: str
    start_s: float
    end_s: float
    index: int
    of: int
    duration_s: float
    unavailable_s: float
    lost_s: float
    late_s: float
    message_seconds: float
    decision_changes: int
    windows: list[WindowRecord] | None

    # -- cache serialisation ---------------------------------------------------

    def to_payload(self, key: str) -> dict:
        """JSON-safe payload for the content-addressed cache."""
        windows = None
        if self.windows is not None:
            windows = [
                [
                    w.start_s,
                    w.end_s,
                    w.graph_name,
                    w.graph_edges,
                    w.on_time_probability,
                    w.lost_probability,
                    w.late_probability,
                ]
                for w in self.windows
            ]
        return {
            "key": key,
            "flow": [self.flow_source, self.flow_destination],
            "scheme": self.scheme,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "index": self.index,
            "of": self.of,
            "duration_s": self.duration_s,
            "unavailable_s": self.unavailable_s,
            "lost_s": self.lost_s,
            "late_s": self.late_s,
            "message_seconds": self.message_seconds,
            "decision_changes": self.decision_changes,
            "windows": windows,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "ShardResult":
        """Rebuild a result from its cache payload (raises on bad shape)."""
        windows = payload["windows"]
        if windows is not None:
            windows = [
                WindowRecord(
                    float(w[0]),
                    float(w[1]),
                    str(w[2]),
                    int(w[3]),
                    float(w[4]),
                    float(w[5]),
                    float(w[6]),
                )
                for w in windows
            ]
        flow = payload["flow"]
        return cls(
            flow_source=str(flow[0]),
            flow_destination=str(flow[1]),
            scheme=str(payload["scheme"]),
            start_s=float(payload["start_s"]),
            end_s=float(payload["end_s"]),
            index=int(payload["index"]),
            of=int(payload["of"]),
            duration_s=float(payload["duration_s"]),
            unavailable_s=float(payload["unavailable_s"]),
            lost_s=float(payload["lost_s"]),
            late_s=float(payload["late_s"]),
            message_seconds=float(payload["message_seconds"]),
            decision_changes=int(payload["decision_changes"]),
            windows=windows,
        )


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

    The ordering mirrors the serial engine's insertion order, so a merge
    over this plan produces a :class:`ReplayResult` whose scheme/flow
    iteration order is identical to ``run_replay``'s.  A repeated
    (scheme, flow) pair is an error, as it is for ``run_replay``.
    """
    require(bool(flows), "need at least one flow")
    require(bool(scheme_names), "need at least one scheme")
    pairs = Counter((scheme, flow.name) for scheme in scheme_names for flow in flows)
    for (scheme, flow_name), count in pairs.items():
        require(count == 1, f"duplicate (scheme, flow) pair {scheme}/{flow_name}")
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
    """Shared per-replay state reused across every shard run in one process.

    Mirrors the reuse structure of :func:`repro.simulation.interval.run_replay`:
    the merged boundary list, per-boundary views, and the probability
    memo are computed once and shared by all shards this context runs.
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

    def run(
        self, shard: ShardSpec, tracer=None, parent_id: int | None = None
    ) -> ShardResult:
        """Execute one shard: full policy stepping, windowed accumulation.

        ``tracer`` (a :class:`repro.obs.Tracer`, or ``None`` for the
        uninstrumented hot path) records the shard's two phases --
        policy stepping and window accumulation -- as child spans of
        ``parent_id``.
        """
        policy = make_policy(shard.scheme)
        phase_start = tracer.now() if tracer is not None else 0.0
        spans = build_decision_timeline(
            self.topology,
            self.timeline,
            shard.flow,
            self.service,
            policy,
            detection_delay_s=self.config.detection_delay_s,
            boundaries=list(self.boundaries),
            observed_views=list(self.observed_views),
            observed_deltas=self.observed_deltas,
        )
        if tracer is not None:
            tracer.complete(
                "shard.policy", "exec", phase_start, tracer.now(),
                parent_id=parent_id, shard=shard.label,
            )
            phase_start = tracer.now()
        group = f"{policy.name}/{shard.flow.name}"
        stats = FlowSchemeStats(flow=shard.flow, scheme=policy.name)
        stats.decision_changes = len(spans) - 1
        _replay_windows(
            stats,
            self.probability_cache,
            self.topology,
            self.boundaries,
            spans,
            self.actual_views,
            self.actual_deltas,
            group,
            True,
            shard_range=(shard.start_s, shard.end_s),
        )
        if tracer is not None:
            tracer.complete(
                "shard.windows", "exec", phase_start, tracer.now(),
                parent_id=parent_id, shard=shard.label,
                decision_changes=stats.decision_changes,
            )
        windows: list[WindowRecord] | None = stats.windows
        if shard.full_range and not self.config.collect_windows:
            windows = None
        return ShardResult(
            flow_source=shard.flow.source,
            flow_destination=shard.flow.destination,
            scheme=policy.name,
            start_s=shard.start_s,
            end_s=shard.end_s,
            index=shard.index,
            of=shard.of,
            duration_s=stats.duration_s,
            unavailable_s=stats.unavailable_s,
            lost_s=stats.lost_s,
            late_s=stats.late_s,
            message_seconds=stats.message_seconds,
            decision_changes=stats.decision_changes,
            windows=windows,
        )


def _merge_pair(
    flow: FlowSpec,
    shards: Sequence[ShardSpec],
    results: Mapping[ShardSpec, ShardResult],
    config: ReplayConfig,
) -> FlowSchemeStats:
    """Reassemble one (flow, scheme) pair from its time shards."""
    first = results[shards[0]]
    if len(shards) == 1 and shards[0].full_range:
        stats = FlowSchemeStats(
            flow=flow,
            scheme=first.scheme,
            duration_s=first.duration_s,
            unavailable_s=first.unavailable_s,
            lost_s=first.lost_s,
            late_s=first.late_s,
            message_seconds=first.message_seconds,
        )
        stats.decision_changes = first.decision_changes
        if config.collect_windows:
            require(
                first.windows is not None,
                f"shard {shards[0].label} lacks windows for collection",
            )
            stats.windows = list(first.windows)
        return stats
    stats = FlowSchemeStats(flow=flow, scheme=first.scheme)
    stats.decision_changes = first.decision_changes
    for shard in sorted(shards, key=lambda s: s.start_s):
        result = results[shard]
        require(
            result.decision_changes == first.decision_changes,
            f"inconsistent decision timelines across shards of {shard.label}",
        )
        require(
            result.windows is not None,
            f"time shard {shard.label} is missing its window records",
        )
        for window in result.windows:
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
    results: Mapping[ShardSpec, ShardResult],
) -> ReplayResult:
    """Deterministic merge: shard outputs -> one :class:`ReplayResult`.

    ``plan`` must be the canonical plan the shards came from; its order
    dictates the result's scheme/flow iteration order.
    """
    require(bool(plan), "empty plan")
    for shard in plan:
        require(shard in results, f"missing result for shard {shard.label}")
    merged = ReplayResult(service, config)
    groups: dict[tuple[str, str], list[ShardSpec]] = {}
    for shard in plan:
        groups.setdefault((shard.scheme, shard.flow.name), []).append(shard)
    for shards in groups.values():
        merged.add(_merge_pair(shards[0].flow, shards, results, config))
    return merged
