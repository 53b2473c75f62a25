"""Cross-engine validation: the analytic replay against the packet engine.

The analytic interval engine and the packet-level Monte-Carlo engine
compute the same quantity two completely different ways; agreement
between them is the strongest internal-consistency check the replay
pipeline has.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import pytest

from repro.core.graph import Topology
from repro.netmodel.conditions import ConditionTimeline, Contribution, LinkState
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing.registry import make_policy
from repro.simulation.interval import replay_flow
from repro.simulation.packet_sim import simulate_packets
from repro.simulation.results import ReplayConfig
from repro.util.validation import require

FLOW = FlowSpec("S", "T")
SERVICE = ServiceSpec(deadline_ms=15.0, send_interval_ms=10.0, rtt_budget_ms=30.0)


@dataclass(frozen=True)
class EngineComparison:
    """One (flow, scheme) comparison between the two replay engines."""

    flow: FlowSpec
    scheme: str
    window_s: tuple[float, float]
    analytic_on_time_fraction: float
    packet_on_time_fraction: float
    packets: int

    @property
    def difference(self) -> float:
        """Absolute disagreement between the two engines."""
        return abs(self.analytic_on_time_fraction - self.packet_on_time_fraction)

    @property
    def tolerance(self) -> float:
        """Three-sigma binomial sampling tolerance for this sample size.

        The packet engine samples ``packets`` Bernoulli outcomes whose
        mean the analytic engine computes exactly, so the difference
        should stay within ~3 standard errors (plus a small allowance for
        boundary quantisation of the packet grid).
        """
        p = min(max(self.analytic_on_time_fraction, 1e-6), 1 - 1e-6)
        sigma = math.sqrt(p * (1 - p) / max(self.packets, 1))
        return 3.0 * sigma + 0.002

    @property
    def consistent(self) -> bool:
        """True when the engines agree within sampling tolerance."""
        return self.difference <= self.tolerance


def compare_engines(
    topology: Topology,
    timeline: ConditionTimeline,
    flow: FlowSpec,
    service: ServiceSpec,
    scheme_names: Sequence[str],
    window: tuple[float, float] | None = None,
    seed: int = 0,
    config: ReplayConfig = ReplayConfig(),
) -> list[EngineComparison]:
    """Compare both engines for one flow across schemes.

    Each scheme is replayed once, with window records; a sub-window's
    analytic fraction is the overlap-weighted mean of those records.
    The packet engine models no hop-by-hop recovery, so a config that
    turns it on is refused rather than compared against another model.
    """
    require(
        not config.hop_recovery,
        "the packet engine has no hop recovery to compare against",
    )
    if window is None:
        window = (0.0, timeline.duration_s)
    start, end = window
    analytic_config = dataclasses.replace(config, collect_windows=True)
    comparisons = []
    for scheme in scheme_names:
        analytic = replay_flow(
            topology, timeline, flow, service, make_policy(scheme), analytic_config
        )
        if (start, end) == (0.0, timeline.duration_s):
            analytic_fraction = 1.0 - analytic.unavailable_s / analytic.duration_s
        else:
            covered = 0.0
            on_time_weighted = 0.0
            for record in analytic.windows:
                overlap = min(end, record.end_s) - max(start, record.start_s)
                if overlap <= 0:
                    continue
                covered += overlap
                on_time_weighted += record.on_time_probability * overlap
            analytic_fraction = on_time_weighted / covered if covered else 1.0
        outcome = simulate_packets(
            topology,
            timeline,
            flow,
            service,
            make_policy(scheme),
            start,
            end,
            seed=seed,
            config=config,
            jitter_ms=0.0,
        )
        comparisons.append(
            EngineComparison(
                flow=flow,
                scheme=scheme,
                window_s=(start, end),
                analytic_on_time_fraction=analytic_fraction,
                packet_on_time_fraction=outcome.on_time_fraction,
                packets=outcome.packets,
            )
        )
    return comparisons


def timeline(diamond, *contributions, duration=300.0):
    return ConditionTimeline(diamond, duration, contributions)


class TestCompareEngines:
    def test_clean_trace_exact_agreement(self, diamond):
        comparisons = compare_engines(
            diamond,
            timeline(diamond),
            FLOW,
            SERVICE,
            scheme_names=("static-single", "flooding"),
        )
        for comparison in comparisons:
            assert comparison.analytic_on_time_fraction == 1.0
            assert comparison.packet_on_time_fraction == 1.0
            assert comparison.consistent

    def test_lossy_trace_within_tolerance(self, diamond):
        tl = timeline(
            diamond,
            Contribution(("S", "A"), 50.0, 250.0, LinkState(loss_rate=0.5)),
        )
        comparisons = compare_engines(
            diamond,
            tl,
            FLOW,
            SERVICE,
            scheme_names=("static-single", "static-two-disjoint", "targeted"),
            seed=5,
        )
        for comparison in comparisons:
            assert comparison.consistent, (
                comparison.scheme,
                comparison.analytic_on_time_fraction,
                comparison.packet_on_time_fraction,
            )

    def test_windowed_comparison(self, diamond):
        tl = timeline(
            diamond,
            Contribution(("S", "A"), 50.0, 250.0, LinkState(loss_rate=1.0)),
        )
        comparisons = compare_engines(
            diamond,
            tl,
            FLOW,
            SERVICE,
            scheme_names=("static-single",),
            window=(100.0, 200.0),
            seed=5,
        )
        comparison = comparisons[0]
        # Window lies entirely inside the blackout.
        assert comparison.analytic_on_time_fraction == pytest.approx(0.0)
        assert comparison.packet_on_time_fraction == pytest.approx(0.0)
        assert comparison.consistent

    def test_tolerance_scales_with_packets(self, diamond):
        tl = timeline(
            diamond,
            Contribution(("S", "A"), 0.0, 300.0, LinkState(loss_rate=0.5)),
        )
        short = compare_engines(
            diamond, tl, FLOW, SERVICE, ("static-single",), window=(0.0, 10.0)
        )[0]
        long = compare_engines(
            diamond, tl, FLOW, SERVICE, ("static-single",), window=(0.0, 200.0)
        )[0]
        assert long.tolerance < short.tolerance

    def test_each_scheme_replays_once(self, diamond, monkeypatch):
        replayed = []
        original = replay_flow

        def counting(topology, timeline, flow, service, policy, config):
            replayed.append((policy.name, config.collect_windows))
            return original(topology, timeline, flow, service, policy, config)

        monkeypatch.setitem(globals(), "replay_flow", counting)
        tl = timeline(
            diamond,
            Contribution(("S", "A"), 50.0, 250.0, LinkState(loss_rate=0.5)),
        )
        compare_engines(
            diamond, tl, FLOW, SERVICE, ("static-single", "targeted"),
            window=(100.0, 200.0),
        )
        assert replayed == [("static-single", True), ("targeted", True)]

    def test_hop_recovery_is_refused(self, diamond):
        with pytest.raises(ValueError, match="no hop recovery"):
            compare_engines(
                diamond, timeline(diamond), FLOW, SERVICE, ("flooding",),
                config=ReplayConfig(hop_recovery=True),
            )
