"""Replay configuration and result containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.simulation.reliability import (
    MAX_EXACT_LOSSY_EDGES,
    MAX_RECOVERY_LOSSY_EDGES,
)
from repro.util.validation import require, require_non_negative

__all__ = [
    "ReplayConfig",
    "WindowRecord",
    "FlowSchemeStats",
    "SchemeTotals",
    "ReplayResult",
]


@dataclass(frozen=True)
class ReplayConfig:
    """Knobs of a replay (the packet engine reads ``detection_delay_s``).

    ``detection_delay_s`` models the end-to-end reaction latency of the
    monitoring + link-state machinery: a condition change becomes visible
    to routing decisions that much later.  The paper's overlay reacts
    within a couple of seconds; the E8 ablation sweeps this.
    """

    detection_delay_s: float = 1.0
    max_lossy_edges: int = MAX_EXACT_LOSSY_EDGES
    collect_windows: bool = False
    #: Model one hop-by-hop retransmission per overlay link (the Spines
    #: link-layer recovery extension).  A recovered copy crosses an edge
    #: at ack-timeout (~2x link latency + ``recovery_extra_ms``) plus the
    #: retransmission's flight time, i.e. ~3x latency + extra.
    hop_recovery: bool = False
    recovery_extra_ms: float = 10.0
    #: Ternary enumeration cap when hop_recovery is on (3^L states).
    max_recovery_lossy_edges: int = MAX_RECOVERY_LOSSY_EDGES

    def __post_init__(self) -> None:
        require_non_negative(self.detection_delay_s, "detection_delay_s")
        require(self.max_lossy_edges >= 1, "max_lossy_edges must be >= 1")
        require_non_negative(self.recovery_extra_ms, "recovery_extra_ms")
        require(
            self.max_recovery_lossy_edges >= 1,
            "max_recovery_lossy_edges must be >= 1",
        )


@dataclass(frozen=True)
class WindowRecord:
    """One constant-conditions window of one (flow, scheme) replay."""

    start_s: float
    end_s: float
    graph_name: str
    graph_edges: int
    on_time_probability: float
    lost_probability: float
    late_probability: float

    @property
    def duration_s(self) -> float:
        """Window length in seconds."""
        return self.end_s - self.start_s


@dataclass
class FlowSchemeStats:
    """Accumulated replay outcome for one flow under one scheme.

    *Unavailable seconds* follows the paper's framing: the expected total
    time during which a packet sent would not arrive within the deadline.
    ``lost`` (never delivered) and ``late`` (delivered past deadline) are
    its two components.
    """

    flow: FlowSpec
    scheme: str
    duration_s: float = 0.0
    unavailable_s: float = 0.0
    lost_s: float = 0.0
    late_s: float = 0.0
    message_seconds: float = 0.0  # integral of (graph edges) over time
    decision_changes: int = 0
    windows: list[WindowRecord] = field(default_factory=list)

    def add_window(
        self,
        start_s: float,
        end_s: float,
        graph_name: str,
        graph_edges: int,
        on_time: float,
        lost: float,
        late: float,
        collect: bool = False,
    ) -> None:
        """Accumulate one constant-conditions window into the totals."""
        duration = end_s - start_s
        require(duration >= 0, "window duration must be >= 0")
        self.duration_s += duration
        self.unavailable_s += (1.0 - on_time) * duration
        self.lost_s += lost * duration
        self.late_s += late * duration
        self.message_seconds += graph_edges * duration
        if collect:
            self.windows.append(
                WindowRecord(start_s, end_s, graph_name, graph_edges, on_time, lost, late)
            )

    # -- derived metrics --------------------------------------------------------

    @property
    def availability(self) -> float:
        """Fraction of time a packet sent would arrive on time."""
        if self.duration_s == 0:
            return 1.0
        return 1.0 - self.unavailable_s / self.duration_s

    @property
    def average_cost_messages(self) -> float:
        """Time-weighted average messages sent per packet."""
        if self.duration_s == 0:
            return 0.0
        return self.message_seconds / self.duration_s

    def expected_bad_packets(self, service: ServiceSpec) -> float:
        """Expected number of lost-or-late packets over the replay."""
        return self.unavailable_s * service.packets_per_second


@dataclass(frozen=True)
class SchemeTotals:
    """One scheme's results aggregated over all flows."""

    scheme: str
    flows: int
    duration_s: float
    unavailable_s: float
    lost_s: float
    late_s: float
    average_cost_messages: float

    @property
    def availability(self) -> float:
        """Fraction of time a packet sent would arrive on time."""
        if self.duration_s == 0:
            return 1.0
        return 1.0 - self.unavailable_s / self.duration_s

    def expected_bad_packets(self, service: ServiceSpec) -> float:
        """Expected lost-or-late packets over the replay."""
        return self.unavailable_s * service.packets_per_second


class ReplayResult:
    """All (flow, scheme) stats of one replay, with aggregation helpers."""

    def __init__(self, service: ServiceSpec, config: ReplayConfig) -> None:
        self.service = service
        self.config = config
        self._stats: dict[tuple[str, str], FlowSchemeStats] = {}

    def add(self, stats: FlowSchemeStats) -> None:
        """Record one (flow, scheme) stats object (duplicates rejected)."""
        key = (stats.flow.name, stats.scheme)
        require(key not in self._stats, f"duplicate stats for {key}")
        self._stats[key] = stats

    def get(self, flow: FlowSpec | str, scheme: str) -> FlowSchemeStats:
        """Stats for one (flow, scheme) pair (raises if absent)."""
        flow_name = flow if isinstance(flow, str) else flow.name
        key = (flow_name, scheme)
        require(key in self._stats, f"no stats recorded for {key}")
        return self._stats[key]

    @property
    def schemes(self) -> tuple[str, ...]:
        """Scheme names in insertion order."""
        seen: dict[str, None] = {}
        for _flow, scheme in self._stats:
            seen.setdefault(scheme, None)
        return tuple(seen)

    @property
    def flow_names(self) -> tuple[str, ...]:
        """Flow names in insertion order."""
        seen: dict[str, None] = {}
        for flow, _scheme in self._stats:
            seen.setdefault(flow, None)
        return tuple(seen)

    def per_flow(self, scheme: str) -> Mapping[str, FlowSchemeStats]:
        """Mapping of flow name to stats for one scheme."""
        return {
            flow: stats
            for (flow, stats_scheme), stats in self._stats.items()
            if stats_scheme == scheme
        }

    def totals(self, scheme: str) -> SchemeTotals:
        """One scheme's results aggregated over all flows."""
        entries = list(self.per_flow(scheme).values())
        require(bool(entries), f"no stats for scheme {scheme!r}")
        duration = sum(e.duration_s for e in entries)
        message_seconds = sum(e.message_seconds for e in entries)
        return SchemeTotals(
            scheme=scheme,
            flows=len(entries),
            duration_s=duration,
            unavailable_s=sum(e.unavailable_s for e in entries),
            lost_s=sum(e.lost_s for e in entries),
            late_s=sum(e.late_s for e in entries),
            average_cost_messages=message_seconds / duration if duration else 0.0,
        )

    def all_totals(self) -> list[SchemeTotals]:
        """Aggregated totals for every scheme."""
        return [self.totals(scheme) for scheme in self.schemes]

    def __iter__(self) -> Iterable[FlowSchemeStats]:
        return iter(self._stats.values())
