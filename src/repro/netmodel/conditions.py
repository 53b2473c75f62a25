"""Piecewise-constant per-link condition timelines.

The paper's data set records, for every overlay link, its loss rate and
latency over time.  :class:`ConditionTimeline` is that recording: for each
directed edge, a sequence of constant-condition segments.  It is built
from *contributions* (possibly overlapping degradation intervals emitted
by the scenario generator or read from a trace file) and compiled into a
non-overlapping segment list per edge:

* overlapping loss rates combine as independent drops,
  ``1 - (1-p1)(1-p2)``;
* overlapping extra latencies combine as their maximum.

The replay engines rely on two access patterns: point queries
(``state_at``) and the global list of change times, between which *every*
link's conditions are constant -- the unit of work for the analytic
interval engine.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.core.graph import Edge, Topology
from repro.util.digest import stable_hash
from repro.util.validation import (
    fail,
    require,
    require_non_negative,
    require_probability,
)

__all__ = ["LinkState", "Contribution", "ConditionTimeline", "CLEAN"]


@dataclass(frozen=True)
class LinkState:
    """Conditions on one directed edge during one segment."""

    loss_rate: float = 0.0
    extra_latency_ms: float = 0.0

    def __post_init__(self) -> None:
        require_probability(self.loss_rate, "loss_rate")
        require_non_negative(self.extra_latency_ms, "extra_latency_ms")

    @property
    def clean(self) -> bool:
        """True when the state carries no loss and no latency inflation."""
        return self.loss_rate == 0.0 and self.extra_latency_ms == 0.0

    def combine(self, other: "LinkState") -> "LinkState":
        """Compose two overlapping degradations on the same edge."""
        loss = 1.0 - (1.0 - self.loss_rate) * (1.0 - other.loss_rate)
        extra = max(self.extra_latency_ms, other.extra_latency_ms)
        return LinkState(loss, extra)


CLEAN = LinkState()


@dataclass(frozen=True)
class Contribution:
    """One degradation interval on one directed edge."""

    edge: Edge
    start_s: float
    end_s: float
    state: LinkState

    def __post_init__(self) -> None:
        require(self.end_s > self.start_s, "contribution must have positive length")
        require_non_negative(self.start_s, "start_s")


class ConditionTimeline:
    """Compiled, queryable network conditions over ``[0, duration_s)``."""

    def __init__(
        self,
        topology: Topology,
        duration_s: float,
        contributions: Iterable[Contribution] = (),
    ) -> None:
        require(duration_s > 0, "duration must be positive")
        self.topology = topology
        self.duration_s = float(duration_s)
        per_edge: dict[Edge, list[Contribution]] = {}
        for contribution in contributions:
            if not (topology.has_edge(*contribution.edge)):
                fail(
                    "contribution references unknown edge "
                    f"{contribution.edge!r}"
                )
            clipped = self._clip(contribution)
            if clipped is not None:
                per_edge.setdefault(clipped.edge, []).append(clipped)
        # Compiled form: per edge, parallel arrays (segment starts, states).
        self._times: dict[Edge, list[float]] = {}
        self._states: dict[Edge, list[LinkState]] = {}
        for edge, edge_contributions in per_edge.items():
            times, states = self._compile_edge(edge_contributions)
            self._times[edge] = times
            self._states[edge] = states
        self._change_times = self._global_change_times()
        self._digest: str | None = None

    def _clip(self, contribution: Contribution) -> Contribution | None:
        start = max(0.0, contribution.start_s)
        end = min(self.duration_s, contribution.end_s)
        if end <= start:
            return None
        if start == contribution.start_s and end == contribution.end_s:
            return contribution
        return Contribution(contribution.edge, start, end, contribution.state)

    @staticmethod
    def _compile_edge(
        contributions: list[Contribution],
    ) -> tuple[list[float], list[LinkState]]:
        boundaries = sorted(
            {0.0}
            | {c.start_s for c in contributions}
            | {c.end_s for c in contributions}
        )
        times: list[float] = []
        states: list[LinkState] = []
        for index, start in enumerate(boundaries):
            if index + 1 < len(boundaries):
                midpoint = (start + boundaries[index + 1]) / 2.0
            else:
                midpoint = start
            state = CLEAN
            for contribution in contributions:
                if contribution.start_s <= midpoint < contribution.end_s:
                    state = state.combine(contribution.state)
            if states and states[-1] == state:
                continue  # merge identical adjacent segments
            times.append(start)
            states.append(state)
        if not times or times[0] != 0.0:
            times.insert(0, 0.0)
            states.insert(0, CLEAN)
        return times, states

    def _global_change_times(self) -> list[float]:
        times = {0.0, self.duration_s}
        for edge_times in self._times.values():
            times.update(edge_times)
        return sorted(t for t in times if 0.0 <= t <= self.duration_s)

    # -- queries ---------------------------------------------------------------

    def state_at(self, edge: Edge, time_s: float) -> LinkState:
        """Conditions on ``edge`` at ``time_s`` (clean outside any record)."""
        if not (0.0 <= time_s <= self.duration_s):
            fail(f"time {time_s} outside [0, {self.duration_s}]")
        times = self._times.get(edge)
        if times is None:
            return CLEAN
        index = bisect.bisect_right(times, time_s) - 1
        return self._states[edge][index]

    def loss_at(self, edge: Edge, time_s: float) -> float:
        """Loss rate on ``edge`` at ``time_s``."""
        return self.state_at(edge, time_s).loss_rate

    def degraded_at(self, time_s: float) -> dict[Edge, LinkState]:
        """All edges with non-clean conditions at ``time_s``."""
        result: dict[Edge, LinkState] = {}
        for edge in self._times:
            state = self.state_at(edge, time_s)
            if not state.clean:
                result[edge] = state
        return result

    def degraded_views(
        self, times: Iterable[float]
    ) -> tuple[list[dict[Edge, LinkState]], list[frozenset[Edge]]]:
        """Degraded views of many query times in one incremental walk.

        For non-decreasing ``times``, returns ``(views, deltas)`` where
        ``views[i]`` equals :meth:`degraded_at` at ``times[i]`` (an empty
        view for times before the trace starts) and ``deltas[i]`` is the
        set of edges whose state differs between ``views[i - 1]`` and
        ``views[i]`` (``deltas[0]`` is relative to an empty view).  The
        replay engines call this once per boundary list instead of
        rescanning every edge at every boundary, and feed the deltas to
        policies and caches so untouched decisions can be skipped.
        """
        events: list[tuple[float, Edge, LinkState]] = []
        for edge, edge_times in self._times.items():
            states = self._states[edge]
            for segment_start, state in zip(edge_times, states):
                events.append((segment_start, edge, state))
        events.sort(key=lambda event: event[0])
        views: list[dict[Edge, LinkState]] = []
        deltas: list[frozenset[Edge]] = []
        current: dict[Edge, LinkState] = {}
        pending: dict[Edge, LinkState] = {}
        cursor = 0
        previous_time = float("-inf")
        for time_s in times:
            if not (time_s >= previous_time):
                fail(
                    f"view query times must be non-decreasing "
                    f"({time_s} after {previous_time})"
                )
            previous_time = time_s
            # Drain every segment start up to the query time; per edge only
            # the latest one matters, which the dict overwrite keeps.
            while cursor < len(events) and events[cursor][0] <= time_s:
                _start, edge, state = events[cursor]
                pending[edge] = state
                cursor += 1
            changed: set[Edge] = set()
            for edge, state in pending.items():
                if state.clean:
                    if current.pop(edge, None) is not None:
                        changed.add(edge)
                elif current.get(edge) != state:
                    current[edge] = state
                    changed.add(edge)
            pending.clear()
            # Share the previous view object across unchanged boundaries:
            # long replays on large topologies have many boundaries whose
            # delta is empty for this timeline, and consumers treat views
            # as read-only snapshots.
            if changed or not views:
                views.append(dict(current))
            else:
                views.append(views[-1])
            deltas.append(frozenset(changed))
        return views, deltas

    def loss_rates_at(self, time_s: float) -> dict[Edge, float]:
        """Loss rate per degraded edge at ``time_s`` (clean edges omitted)."""
        return {
            edge: state.loss_rate
            for edge, state in self.degraded_at(time_s).items()
            if state.loss_rate > 0.0
        }

    @property
    def change_times(self) -> tuple[float, ...]:
        """Times at which any edge's conditions change (incl. 0 and end)."""
        return tuple(self._change_times)

    def segments(self) -> Iterator[tuple[float, float]]:
        """Consecutive ``(start, end)`` windows of globally constant conditions."""
        for start, end in zip(self._change_times, self._change_times[1:]):
            if end > start:
                yield (start, end)

    def edge_segments(self, edge: Edge) -> list[tuple[float, float, LinkState]]:
        """Per-edge compiled segments as ``(start, end, state)``."""
        times = self._times.get(edge)
        if times is None:
            return [(0.0, self.duration_s, CLEAN)]
        states = self._states[edge]
        result = []
        for index, start in enumerate(times):
            end = times[index + 1] if index + 1 < len(times) else self.duration_s
            if end > start:
                result.append((start, end, states[index]))
        return result

    def recorded_edges(self) -> tuple[Edge, ...]:
        """Edges that have at least one non-clean segment."""
        return tuple(
            sorted(
                edge
                for edge, states in self._states.items()
                if any(not state.clean for state in states)
            )
        )

    @property
    def digest(self) -> str:
        """Hex SHA-256 of the compiled conditions, computed once.

        It covers the duration and every non-clean compiled segment, read
        straight from the per-edge segment arrays, so timelines built
        from different (overlapping) contribution sets but with equal
        compiled segments digest equal.  A timeline has no mutators, so
        the first read's value holds for good; two threads racing on it
        compute the same string.
        """
        if self._digest is None:
            self._digest = stable_hash(
                {
                    "duration_s": self.duration_s,
                    "segments": [
                        [
                            edge[0],
                            edge[1],
                            start,
                            end,
                            state.loss_rate,
                            state.extra_latency_ms,
                        ]
                        for edge in sorted(self._times)
                        for start, end, state in self.edge_segments(edge)
                        if not state.clean
                    ],
                }
            )
        return self._digest

    def to_contributions(self) -> list[Contribution]:
        """Export the compiled non-clean segments (for trace persistence)."""
        result = []
        for edge in sorted(self._times):
            for start, end, state in self.edge_segments(edge):
                if not state.clean:
                    result.append(Contribution(edge, start, end, state))
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConditionTimeline(duration={self.duration_s:g}s, "
            f"{len(self._change_times)} change points, "
            f"{len(self.recorded_edges())} degraded edges)"
        )
