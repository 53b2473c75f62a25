"""Per-flow decision timelines: which graph is installed when.

A routing policy's decisions depend on its *observed* view of the network,
which lags reality by the detection delay (loss-rate estimation windows
plus link-state propagation).  Conditions change at the trace's change
times; the policy's view therefore changes at those times *shifted* by the
delay.  Between consecutive boundaries of the merged set, both the real
conditions and every scheme's installed graph are constant -- the unit of
work for the analytic engine, and the schedule the packet engine follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.dgraph import DisseminationGraph
from repro.core.graph import Edge, Topology
from repro.netmodel.conditions import ConditionTimeline, LinkState
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing.base import RoutingPolicy
from repro.util.validation import fail, require, require_non_negative

__all__ = [
    "DecisionSpan",
    "build_decision_timeline",
    "decision_boundaries",
    "observed_views_with_deltas",
]

#: Boundaries closer than this are merged into one.  Detection-delay
#: echoes (``change + delay``) can land within float noise of another
#: change time; without the tolerance the merged boundary list contains
#: near-duplicate entries that turn into zero-width accumulation windows.
_BOUNDARY_EPS = 1e-9


@dataclass(frozen=True)
class DecisionSpan:
    """One interval during which a scheme keeps one graph installed."""

    start_s: float
    end_s: float
    graph: DisseminationGraph

    def __post_init__(self) -> None:
        require(self.end_s > self.start_s, "span must have positive length")

    @property
    def duration_s(self) -> float:
        """Span length in seconds."""
        return self.end_s - self.start_s


def decision_boundaries(
    timeline: ConditionTimeline, detection_delay_s: float
) -> list[float]:
    """Merged boundary set: condition changes and their delayed echoes."""
    require_non_negative(detection_delay_s, "detection_delay_s")
    boundaries = set(timeline.change_times)
    if detection_delay_s > 0:
        for change in timeline.change_times:
            echoed = change + detection_delay_s
            if echoed < timeline.duration_s:
                boundaries.add(echoed)
    boundaries.add(0.0)
    boundaries.add(timeline.duration_s)
    ordered = sorted(b for b in boundaries if 0.0 <= b <= timeline.duration_s)
    return _dedupe_boundaries(ordered, timeline.duration_s)


def _dedupe_boundaries(ordered: list[float], duration_s: float) -> list[float]:
    """Collapse boundaries within :data:`_BOUNDARY_EPS` of each other.

    Each near-duplicate cluster keeps its first (smallest) member, except
    that an exact ``duration_s`` always survives so the trace keeps its
    closing boundary.  Boundary lists without near-duplicates -- every
    reference trace -- pass through unchanged.
    """
    deduped: list[float] = []
    for boundary in ordered:
        if not deduped or boundary - deduped[-1] > _BOUNDARY_EPS:
            deduped.append(boundary)
        elif boundary == duration_s:
            if deduped[-1] == 0.0:  # degenerate sub-epsilon trace
                deduped.append(boundary)
            else:
                deduped[-1] = boundary
    return deduped


def observed_view(
    timeline: ConditionTimeline, now_s: float, detection_delay_s: float
) -> dict:
    """The network view a daemon holds at ``now_s``: reality at ``now - delay``."""
    observed_time = now_s - detection_delay_s
    if observed_time < 0.0:
        return {}
    return timeline.degraded_at(observed_time)


def observed_views_with_deltas(
    timeline: ConditionTimeline,
    boundaries: Sequence[float],
    detection_delay_s: float,
) -> tuple[list[dict], list[frozenset[Edge]]]:
    """Per-boundary observed views plus changed-edge sets, in one walk.

    Equivalent to ``[observed_view(timeline, b, delay) for b in
    boundaries[:-1]]`` but computed incrementally by a single delta walk
    over the compiled condition segments instead of a full per-boundary
    edge scan.  ``deltas[i]`` names the edges whose observed state
    differs from boundary ``i - 1``'s view (``deltas[0]`` is relative to
    an empty view), the hint :func:`build_decision_timeline` forwards to
    the policies.
    """
    require_non_negative(detection_delay_s, "detection_delay_s")
    query_times = [b - detection_delay_s for b in boundaries[:-1]]
    return timeline.degraded_views(query_times)


def build_decision_timeline(
    topology: Topology,
    timeline: ConditionTimeline,
    flow: FlowSpec,
    service: ServiceSpec,
    policy: RoutingPolicy,
    detection_delay_s: float = 1.0,
    boundaries: list[float] | None = None,
    observed_views: list[dict] | None = None,
    observed_deltas: Sequence[frozenset[Edge]] | None = None,
) -> list[DecisionSpan]:
    """Step ``policy`` through the trace; return its installed-graph spans.

    The policy must be attached to ``(topology, flow, service)`` already,
    or unattached (it will be attached here).  Consecutive spans with the
    same graph are merged, so static schemes yield a single span (they
    are stepped exactly once: ``is_dynamic`` is False means the decision
    cannot depend on conditions or time).

    ``boundaries``/``observed_views``/``observed_deltas`` let callers
    precompute the merged boundary list and the per-boundary observed
    views once and share them across the many (flow, scheme) pairs of a
    full replay.  ``observed_deltas[i]`` must name exactly the edges
    whose state differs between views ``i - 1`` and ``i`` (see
    :func:`observed_views_with_deltas`); it is forwarded to
    ``policy.update`` so caching policies can skip irrelevant changes.
    Boundaries must be strictly increasing -- zero-width windows are a
    build error, not something to skip silently.
    """
    if policy._topology is None:  # noqa: SLF001 - attach-once convenience
        policy.attach(topology, flow, service)
    if boundaries is None:
        boundaries = decision_boundaries(timeline, detection_delay_s)
    require(len(boundaries) >= 2, "need at least two decision boundaries")
    for left, right in zip(boundaries, boundaries[1:]):
        if not (right > left):
            fail(f"boundaries must be strictly increasing ({right} after {left})")
    if observed_views is None:
        observed_views, observed_deltas = observed_views_with_deltas(
            timeline, boundaries, detection_delay_s
        )
    require(
        len(observed_views) == len(boundaries) - 1,
        "observed_views must align with boundaries",
    )
    require(
        observed_deltas is None or len(observed_deltas) == len(observed_views),
        "observed_deltas must align with observed_views",
    )
    if not policy.is_dynamic:
        graph = policy.update(boundaries[0], observed_views[0])
        return [DecisionSpan(boundaries[0], boundaries[-1], graph)]
    spans: list[DecisionSpan] = []
    for index in range(len(boundaries) - 1):
        start, end = boundaries[index], boundaries[index + 1]
        changed = None if observed_deltas is None else observed_deltas[index]
        graph = policy.update(start, observed_views[index], changed=changed)
        if spans and spans[-1].graph == graph:
            spans[-1] = DecisionSpan(spans[-1].start_s, end, graph)
        else:
            spans.append(DecisionSpan(start, end, graph))
    return spans
