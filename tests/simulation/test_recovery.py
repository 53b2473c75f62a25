"""Analytic hop-by-hop recovery model."""

from __future__ import annotations

import pytest

from repro.core.dgraph import DisseminationGraph
from repro.netmodel.conditions import ConditionTimeline, Contribution, LinkState
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing.registry import make_policy
from repro.simulation.interval import _ProbabilityCache, replay_flow
from repro.simulation.reliability import (
    DeliveryProbabilities,
    ReliabilityLimitError,
    delivery_probabilities,
    delivery_probabilities_with_recovery,
)
from repro.simulation.results import ReplayConfig
from repro.util.validation import ValidationError

SINGLE = DisseminationGraph.from_path(["S", "A", "T"])
FLOW = FlowSpec("S", "T")
SERVICE = ServiceSpec(deadline_ms=15.0, send_interval_ms=10.0, rtt_budget_ms=30.0)


def constant(value):
    return lambda edge: value


def losses(mapping):
    return lambda edge: mapping.get(edge, 0.0)


class TestRecoveryProbabilities:
    def test_recovery_in_time(self):
        """Recovered copy fits the deadline: delivery = 1 - p^2."""
        result = delivery_probabilities_with_recovery(
            SINGLE,
            30.0,
            constant(5.0),
            losses({("S", "A"): 0.4}),
            constant(20.0),  # recovered copy: 20 + 5 = 25 <= 30
        )
        assert result.on_time == pytest.approx(1 - 0.4**2)
        assert result.lost == pytest.approx(0.4**2)

    def test_recovery_too_slow_is_late(self):
        result = delivery_probabilities_with_recovery(
            SINGLE,
            12.0,
            constant(5.0),
            losses({("S", "A"): 0.4}),
            constant(20.0),  # recovered arrival 25 > 12: late
        )
        assert result.on_time == pytest.approx(0.6)
        assert result.late == pytest.approx(0.4 * 0.6)
        assert result.lost == pytest.approx(0.16)

    def test_dead_link_stays_dead(self):
        result = delivery_probabilities_with_recovery(
            SINGLE, 30.0, constant(5.0), losses({("S", "A"): 1.0}), constant(20.0)
        )
        assert result.on_time == 0.0
        assert result.lost == 1.0

    def test_never_worse_than_plain(self):
        loss_map = {("S", "A"): 0.5, ("A", "T"): 0.3}
        plain = delivery_probabilities(
            SINGLE, 30.0, constant(5.0), losses(loss_map)
        )
        recovered = delivery_probabilities_with_recovery(
            SINGLE, 30.0, constant(5.0), losses(loss_map), constant(16.0)
        )
        assert recovered.on_time >= plain.on_time
        assert recovered.eventually >= plain.eventually

    def test_two_lossy_edges_exact(self):
        """Hand computation with recovery on both hops, deadline generous."""
        loss_map = {("S", "A"): 0.5, ("A", "T"): 0.5}
        result = delivery_probabilities_with_recovery(
            SINGLE, 100.0, constant(5.0), losses(loss_map), constant(20.0)
        )
        per_edge = 1 - 0.5**2
        assert result.on_time == pytest.approx(per_edge**2)

    def test_ternary_cap(self):
        wide = DisseminationGraph(
            "S",
            "T",
            frozenset({("S", f"M{i}") for i in range(13)} | {("M0", "T")}),
        )
        with pytest.raises(ReliabilityLimitError):
            delivery_probabilities_with_recovery(
                wide,
                30.0,
                constant(5.0),
                constant(0.5),
                constant(20.0),
                max_lossy_edges=5,
            )

    def test_ternary_cap_spares_windows_the_baseline_decides(self):
        """13 lossy spokes against a cap of 5: the clean direct edge is
        on time by itself, so the window is exact, not an error."""
        spokes = frozenset({("S", f"M{i}") for i in range(13)})
        wide = DisseminationGraph("S", "T", spokes | {("M0", "T"), ("S", "T")})
        result = delivery_probabilities_with_recovery(
            wide,
            30.0,
            constant(5.0),
            losses({edge: 0.5 for edge in spokes}),
            constant(20.0),
            max_lossy_edges=5,
        )
        assert result == DeliveryProbabilities(1.0, 1.0)

    def test_baseline_decided_window_is_no_fallback(self, diamond):
        """Over the ternary cap but on time without its lossy edges (the
        clean 6 ms S-B-T path): the memo answers exactly and counts no
        lower-bound fallback."""
        both = DisseminationGraph.from_paths([["S", "A", "T"], ["S", "B", "T"]])
        cache = _ProbabilityCache(
            deadline_ms=15.0,
            max_lossy_edges=20,
            hop_recovery=True,
            max_recovery_lossy_edges=1,
        )
        degraded = {
            ("S", "A"): LinkState(loss_rate=0.5),
            ("A", "T"): LinkState(loss_rate=0.5),
        }
        result = cache.probabilities(diamond, both, degraded)
        assert result == DeliveryProbabilities(1.0, 1.0)
        assert cache.recovery_fallbacks == 0

    @pytest.mark.parametrize("bad", [-5.0, float("nan")])
    def test_bad_latency_rejected(self, bad):
        """The recovery engine validates latencies like the plain engine;
        the classification is only exact on non-negative weights."""
        with pytest.raises(ValidationError, match="negative latency on"):
            delivery_probabilities_with_recovery(
                SINGLE,
                10.0,
                constant(bad),
                losses({("S", "A"): 0.3}),
                constant(15.0),
            )

    @pytest.mark.parametrize("bad", [-15.0, float("nan")])
    def test_bad_recovery_latency_rejected(self, bad):
        with pytest.raises(ValidationError, match="negative recovery latency on"):
            delivery_probabilities_with_recovery(
                SINGLE,
                10.0,
                constant(5.0),
                losses({("S", "A"): 0.3}),
                constant(bad),
            )

    def test_latency_callback_read_once_per_edge(self):
        """Regression: the normal-latency callback must be consulted
        exactly once per edge.  The enumeration re-reads the stored
        values; a second invocation of a non-pure callable would let the
        two reads silently diverge."""
        calls: dict[tuple, int] = {}

        def counting_latency(edge):
            calls[edge] = calls.get(edge, 0) + 1
            return 5.0

        loss_map = {("S", "A"): 0.4, ("A", "T"): 0.3}
        result = delivery_probabilities_with_recovery(
            SINGLE, 30.0, counting_latency, losses(loss_map), constant(16.0)
        )
        assert set(calls) == set(SINGLE.edges)
        assert all(count == 1 for count in calls.values()), calls
        # And the values are the stored ones: same as a pure callable.
        assert result == delivery_probabilities_with_recovery(
            SINGLE, 30.0, constant(5.0), losses(loss_map), constant(16.0)
        )


class TestRecoveryReplay:
    def test_replay_halves_quadratically(self, diamond):
        """Blackout-free partial loss: recovery turns p into ~p^2."""
        timeline = ConditionTimeline(
            diamond,
            100.0,
            [Contribution(("S", "A"), 20.0, 60.0, LinkState(loss_rate=0.4))],
        )
        plain = replay_flow(
            diamond, timeline, FLOW, SERVICE, make_policy("static-single"),
            ReplayConfig(hop_recovery=False),
        )
        recovered = replay_flow(
            diamond, timeline, FLOW, SERVICE, make_policy("static-single"),
            ReplayConfig(hop_recovery=True),
        )
        assert plain.unavailable_s == pytest.approx(0.4 * 40.0)
        # Recovered copy: 3 * 2 ms + 10 ms = 16 ms crossing, total path
        # 16 + 2 = 18 > 15 ms deadline -- recovery is late here, so
        # unavailability stays (late, not lost).
        assert recovered.unavailable_s == pytest.approx(0.4 * 40.0)
        assert recovered.late_s > 0.0
        assert recovered.lost_s < plain.lost_s

    def test_recovery_with_slack_deadline(self, diamond):
        """With deadline slack the recovered copies count as on time."""
        service = ServiceSpec(
            deadline_ms=25.0, send_interval_ms=10.0, rtt_budget_ms=50.0
        )
        timeline = ConditionTimeline(
            diamond,
            100.0,
            [Contribution(("S", "A"), 20.0, 60.0, LinkState(loss_rate=0.4))],
        )
        recovered = replay_flow(
            diamond, timeline, FLOW, service, make_policy("static-single"),
            ReplayConfig(hop_recovery=True),
        )
        assert recovered.unavailable_s == pytest.approx(0.4**2 * 40.0)

    def test_ordering_survives_recovery(self, reference_topology):
        contributions = [
            Contribution(edge, 10.0, 70.0, LinkState(loss_rate=0.5))
            for edge in reference_topology.adjacent_edges("SJC")
        ]
        timeline = ConditionTimeline(reference_topology, 100.0, contributions)
        flow = FlowSpec("NYC", "SJC")
        config = ReplayConfig(hop_recovery=True)
        unavailable = {}
        for scheme in ("static-two-disjoint", "targeted", "flooding"):
            stats = replay_flow(
                reference_topology, timeline, flow, ServiceSpec(),
                make_policy(scheme), config,
            )
            unavailable[scheme] = stats.unavailable_s
        assert unavailable["targeted"] < unavailable["static-two-disjoint"]
        assert unavailable["flooding"] <= unavailable["targeted"] + 1e-9
