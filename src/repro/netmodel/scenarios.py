"""Calibrated synthetic problem-event generation.

The paper replayed routing schemes over recorded real-world conditions and
*observed* that (a) loss problems are bursty episodes lasting seconds to
minutes, with loss coming and going within an episode, and (b) the
episodes that defeat two disjoint paths cluster around nodes -- i.e.
around flow sources and destinations (claim C3).  Lacking the proprietary
recording, this module generates traces with that structure:

* **node events** degrade a site's adjacent links (the situations only
  targeted redundancy handles, when the site is a flow endpoint); which
  adjacent links are hit, and how badly, is re-drawn for every burst, so a
  reactive scheme that just re-routed onto a clean adjacent link can be
  hit again by the next burst;
* **link events** degrade a single overlay link (classic middle problems:
  re-routing or a second disjoint path suffices);
* **latency events** inflate a single link's latency past usefulness
  (steady congestion: one burst spanning the episode);
* **background events** add light sub-threshold loss.

Event arrivals are Poisson per kind; episode durations are log-normal
(heavy-tailed); within an episode, loss bursts alternate with clean gaps,
both exponential.  Everything is driven by
:class:`~repro.util.rng.DeterministicStream`, so a scenario plus a seed
fully determines the trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.graph import Edge, NodeId, Topology
from repro.netmodel.conditions import ConditionTimeline, LinkState
from repro.netmodel.events import Burst, EventKind, LinkDegradation, ProblemEvent
from repro.util.rng import DeterministicStream
from repro.util.validation import require, require_positive, require_probability

__all__ = ["Scenario", "generate_events", "generate_timeline", "DAY_S", "WEEK_S"]

DAY_S = 86_400.0
WEEK_S = 7 * DAY_S


@dataclass(frozen=True)
class Scenario:
    """Parameters of a synthetic multi-week condition trace.

    Rates are network-wide events per day.  Defaults are calibrated so the
    reproduction lands in the paper's regime: overall availability well
    above 99.9% on any scheme, with the residual gap distributed across
    problem types as the paper observed (destination/source-heavy).
    """

    duration_s: float = 4 * WEEK_S
    node_event_rate_per_day: float = 5.0
    link_event_rate_per_day: float = 6.0
    latency_event_rate_per_day: float = 3.0
    background_event_rate_per_day: float = 18.0

    # Episode durations: log-normal, median seconds, heavy tail, hard cap.
    event_duration_median_s: float = 120.0
    event_duration_sigma: float = 1.0
    event_duration_cap_s: float = 1800.0

    # Burst structure within an episode (exponential lengths).
    burst_mean_s: float = 5.0
    gap_mean_s: float = 8.0

    # Node events come in two flavours, per the two failure shapes real
    # traces show around a site:
    #
    # * *sustained*: every adjacent link carries partial loss for the whole
    #   episode (severity re-drawn per phase).  No reroute escapes --
    #   only the breadth of redundancy (how many adjacent links carry
    #   copies) determines delivery, which is the regime that separates
    #   targeted redundancy from two disjoint paths.
    # * *flapping*: a shifting subset of adjacent links goes fully bad in
    #   bursts with clean gaps -- the regime where reaction speed matters.
    node_sustained_probability: float = 0.6
    sustained_phase_mean_s: float = 20.0
    sustained_edge_clean_probability: float = 0.05
    sustained_blackout_probability: float = 0.10
    sustained_loss_low: float = 0.45
    sustained_loss_high: float = 0.85

    # Flapping node events: probability each adjacent directed edge is hit
    # in a given burst, and the severity mix for a hit edge.
    node_edge_hit_probability: float = 0.75
    blackout_probability: float = 0.30
    partial_loss_low: float = 0.25
    partial_loss_high: float = 0.95

    # Link events: per-direction hit probability per burst.
    link_direction_hit_probability: float = 0.8

    # Latency events: inflation range (milliseconds).
    latency_inflation_low_ms: float = 15.0
    latency_inflation_high_ms: float = 80.0

    # Background loss range (kept below typical detection thresholds).
    background_loss_low: float = 0.003
    background_loss_high: float = 0.015

    def __post_init__(self) -> None:
        require_positive(self.duration_s, "duration_s")
        for name in (
            "node_event_rate_per_day",
            "link_event_rate_per_day",
            "latency_event_rate_per_day",
            "background_event_rate_per_day",
        ):
            require(getattr(self, name) >= 0, f"{name} must be >= 0")
        require_positive(self.event_duration_median_s, "event_duration_median_s")
        require_positive(self.event_duration_cap_s, "event_duration_cap_s")
        require_positive(self.burst_mean_s, "burst_mean_s")
        require_positive(self.gap_mean_s, "gap_mean_s")
        require_probability(
            self.node_sustained_probability, "node_sustained_probability"
        )
        require_positive(self.sustained_phase_mean_s, "sustained_phase_mean_s")
        require_probability(
            self.sustained_edge_clean_probability,
            "sustained_edge_clean_probability",
        )
        require_probability(
            self.sustained_blackout_probability, "sustained_blackout_probability"
        )
        require(
            0.0 < self.sustained_loss_low <= self.sustained_loss_high <= 1.0,
            "sustained loss range must satisfy 0 < low <= high <= 1",
        )
        require_probability(self.node_edge_hit_probability, "node_edge_hit_probability")
        require_probability(self.blackout_probability, "blackout_probability")
        require_probability(
            self.link_direction_hit_probability, "link_direction_hit_probability"
        )
        require(
            0.0 < self.partial_loss_low <= self.partial_loss_high <= 1.0,
            "partial loss range must satisfy 0 < low <= high <= 1",
        )


def _event_times(
    stream: DeterministicStream, rate_per_day: float, duration_s: float, kind: str
) -> list[float]:
    """Poisson arrival times over ``[0, duration_s)`` for one event kind."""
    if rate_per_day <= 0:
        return []
    mean_gap_s = DAY_S / rate_per_day
    times: list[float] = []
    clock = 0.0
    index = 0
    while True:
        clock += stream.exponential(mean_gap_s, kind, "gap", index)
        if clock >= duration_s:
            return times
        times.append(clock)
        index += 1


def _event_duration(
    stream: DeterministicStream, scenario: Scenario, kind: str, index: int
) -> float:
    duration = stream.lognormal(
        scenario.event_duration_median_s,
        scenario.event_duration_sigma,
        kind,
        "duration",
        index,
    )
    return min(duration, scenario.event_duration_cap_s)


def _burst_windows(
    stream: DeterministicStream,
    scenario: Scenario,
    start_s: float,
    duration_s: float,
    kind: str,
    index: int,
) -> list[tuple[float, float]]:
    """Alternating burst/gap windows covering the episode span."""
    windows: list[tuple[float, float]] = []
    clock = start_s
    end = start_s + duration_s
    burst_index = 0
    while clock < end:
        burst_length = stream.exponential(
            scenario.burst_mean_s, kind, index, "burst", burst_index
        )
        burst_end = min(clock + max(burst_length, 0.5), end)
        windows.append((clock, burst_end))
        gap = stream.exponential(
            scenario.gap_mean_s, kind, index, "pause", burst_index
        )
        clock = burst_end + max(gap, 0.5)
        burst_index += 1
    return windows


def _loss_severity(
    stream: DeterministicStream, scenario: Scenario, *key: object
) -> float:
    if stream.bernoulli(scenario.blackout_probability, *key, "blackout"):
        return 1.0
    return stream.uniform_between(
        scenario.partial_loss_low, scenario.partial_loss_high, *key, "partial"
    )


def _phase_windows(
    stream: DeterministicStream,
    scenario: Scenario,
    start_s: float,
    duration_s: float,
    kind: str,
    index: int,
) -> list[tuple[float, float]]:
    """Contiguous severity phases covering the episode span."""
    windows: list[tuple[float, float]] = []
    clock = start_s
    end = start_s + duration_s
    phase_index = 0
    while clock < end:
        length = stream.exponential(
            scenario.sustained_phase_mean_s, kind, index, "phase", phase_index
        )
        phase_end = min(clock + max(length, 1.0), end)
        windows.append((clock, phase_end))
        clock = phase_end
        phase_index += 1
    return windows


def _sustained_node_event(
    topology: Topology,
    scenario: Scenario,
    stream: DeterministicStream,
    node: NodeId,
    start_s: float,
    duration: float,
    index: int,
) -> ProblemEvent | None:
    """All adjacent links at partial loss for the whole episode."""
    adjacent = topology.adjacent_edges(node)
    bursts: list[Burst] = []
    for phase_number, (phase_start, phase_end) in enumerate(
        _phase_windows(stream, scenario, start_s, duration, "node", index)
    ):
        degradations: list[LinkDegradation] = []
        for edge in adjacent:
            if stream.bernoulli(
                scenario.sustained_edge_clean_probability,
                "node", index, "clean", phase_number, edge,
            ):
                continue
            if stream.bernoulli(
                scenario.sustained_blackout_probability,
                "node", index, "sblack", phase_number, edge,
            ):
                loss = 1.0
            else:
                loss = stream.uniform_between(
                    scenario.sustained_loss_low,
                    scenario.sustained_loss_high,
                    "node", index, "sloss", phase_number, edge,
                )
            degradations.append(LinkDegradation(edge, LinkState(loss_rate=loss)))
        if degradations:
            bursts.append(
                Burst(phase_start, phase_end - phase_start, tuple(degradations))
            )
    if not bursts:
        return None
    return ProblemEvent(EventKind.NODE, node, start_s, duration, tuple(bursts))


def _node_event(
    topology: Topology,
    scenario: Scenario,
    stream: DeterministicStream,
    start_s: float,
    index: int,
) -> ProblemEvent | None:
    node: NodeId = stream.choice(list(topology.nodes), "node", index, "site")
    duration = _event_duration(stream, scenario, "node", index)
    if stream.bernoulli(
        scenario.node_sustained_probability, "node", index, "mode"
    ):
        return _sustained_node_event(
            topology, scenario, stream, node, start_s, duration, index
        )
    adjacent = topology.adjacent_edges(node)
    bursts: list[Burst] = []
    for burst_number, (burst_start, burst_end) in enumerate(
        _burst_windows(stream, scenario, start_s, duration, "node", index)
    ):
        degradations: list[LinkDegradation] = []
        for edge in adjacent:
            if not stream.bernoulli(
                scenario.node_edge_hit_probability,
                "node", index, "hit", burst_number, edge,
            ):
                continue
            loss = _loss_severity(
                stream, scenario, "node", index, "sev", burst_number, edge
            )
            degradations.append(LinkDegradation(edge, LinkState(loss_rate=loss)))
        if degradations:
            bursts.append(
                Burst(burst_start, burst_end - burst_start, tuple(degradations))
            )
    if not bursts:
        return None
    return ProblemEvent(EventKind.NODE, node, start_s, duration, tuple(bursts))


def _pick_physical_link(
    topology: Topology, stream: DeterministicStream, *key: object
) -> tuple[Edge, Edge]:
    """Pick an undirected overlay link; return its two directed edges."""
    physical = sorted({tuple(sorted(edge)) for edge in topology.edges})
    a, b = stream.choice(physical, *key)
    return (a, b), (b, a)


def _link_event(
    topology: Topology,
    scenario: Scenario,
    stream: DeterministicStream,
    start_s: float,
    index: int,
) -> ProblemEvent | None:
    forward, backward = _pick_physical_link(topology, stream, "link", index, "pick")
    duration = _event_duration(stream, scenario, "link", index)
    bursts: list[Burst] = []
    for burst_number, (burst_start, burst_end) in enumerate(
        _burst_windows(stream, scenario, start_s, duration, "link", index)
    ):
        degradations: list[LinkDegradation] = []
        for edge in (forward, backward):
            if stream.bernoulli(
                scenario.link_direction_hit_probability,
                "link", index, "hit", burst_number, edge,
            ):
                loss = _loss_severity(
                    stream, scenario, "link", index, "sev", burst_number, edge
                )
                degradations.append(LinkDegradation(edge, LinkState(loss_rate=loss)))
        if degradations:
            bursts.append(
                Burst(burst_start, burst_end - burst_start, tuple(degradations))
            )
    if not bursts:
        return None
    return ProblemEvent(EventKind.LINK, forward, start_s, duration, tuple(bursts))


def _latency_event(
    topology: Topology,
    scenario: Scenario,
    stream: DeterministicStream,
    start_s: float,
    index: int,
) -> ProblemEvent:
    forward, backward = _pick_physical_link(topology, stream, "lat", index, "pick")
    duration = _event_duration(stream, scenario, "lat", index)
    inflation = stream.uniform_between(
        scenario.latency_inflation_low_ms,
        scenario.latency_inflation_high_ms,
        "lat",
        index,
        "amount",
    )
    state = LinkState(extra_latency_ms=inflation)
    burst = Burst(
        start_s,
        duration,
        (LinkDegradation(forward, state), LinkDegradation(backward, state)),
    )
    return ProblemEvent(EventKind.LATENCY, forward, start_s, duration, (burst,))


def _background_event(
    topology: Topology,
    scenario: Scenario,
    stream: DeterministicStream,
    start_s: float,
    index: int,
) -> ProblemEvent:
    edge: Edge = stream.choice(list(topology.edges), "bg", index, "pick")
    duration = _event_duration(stream, scenario, "bg", index)
    loss = stream.uniform_between(
        scenario.background_loss_low,
        scenario.background_loss_high,
        "bg",
        index,
        "amount",
    )
    burst = Burst(
        start_s, duration, (LinkDegradation(edge, LinkState(loss_rate=loss)),)
    )
    return ProblemEvent(EventKind.BACKGROUND, edge, start_s, duration, (burst,))


def generate_events(
    topology: Topology, scenario: Scenario, seed: int
) -> list[ProblemEvent]:
    """Generate the full event list for one trace, sorted by start time."""
    require(topology.frozen, "scenario generation requires a frozen topology")
    stream = DeterministicStream(seed, "scenario")
    events: list[ProblemEvent] = []
    makers = (
        ("node", scenario.node_event_rate_per_day, _node_event),
        ("link", scenario.link_event_rate_per_day, _link_event),
        ("lat", scenario.latency_event_rate_per_day, _latency_event),
        ("bg", scenario.background_event_rate_per_day, _background_event),
    )
    for kind, rate, maker in makers:
        for index, start in enumerate(
            _event_times(stream, rate, scenario.duration_s, kind)
        ):
            event = maker(topology, scenario, stream, start, index)
            if event is not None:
                events.append(event)
    events.sort(key=lambda event: (event.start_s, event.kind.value, repr(event.location)))
    return events


def generate_timeline(
    topology: Topology, scenario: Scenario, seed: int
) -> tuple[list[ProblemEvent], ConditionTimeline]:
    """Generate events and compile them into a condition timeline."""
    events = generate_events(topology, scenario, seed)
    contributions = [c for event in events for c in event.contributions()]
    timeline = ConditionTimeline(topology, scenario.duration_s, contributions)
    return events, timeline
