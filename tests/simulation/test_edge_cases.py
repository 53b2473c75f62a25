"""Edge cases across the simulation layer."""

from __future__ import annotations

import pytest

from repro.netmodel.conditions import ConditionTimeline, Contribution, LinkState
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing.registry import make_policy
from repro.simulation.interval import replay_flow, run_replay
from repro.simulation.packet_sim import simulate_packets
from repro.simulation.reliability import ReliabilityLimitError
from repro.simulation.timeline import build_decision_timeline

FLOW = FlowSpec("S", "T")
SERVICE = ServiceSpec(deadline_ms=15.0, send_interval_ms=10.0, rtt_budget_ms=30.0)


class TestReliabilityLimits:
    def test_replay_fails_loudly_past_cap(self, braided):
        """Dense simultaneous loss beyond the enumeration cap must raise,
        not silently approximate."""
        from repro.simulation.results import ReplayConfig

        contributions = [
            Contribution(edge, 10.0, 20.0, LinkState(loss_rate=0.5))
            for edge in braided.edges
        ]
        timeline = ConditionTimeline(braided, 100.0, contributions)
        with pytest.raises(ReliabilityLimitError):
            replay_flow(
                braided,
                timeline,
                FLOW,
                SERVICE,
                make_policy("flooding"),
                ReplayConfig(max_lossy_edges=3),
            )

    def test_limit_error_names_graph_and_window(self, braided):
        """The cap error must be diagnosable: which pair's installed
        graph, between which endpoints, in which window hit it."""
        from repro.simulation.results import ReplayConfig

        contributions = [
            Contribution(edge, 10.0, 20.0, LinkState(loss_rate=0.5))
            for edge in braided.edges
        ]
        timeline = ConditionTimeline(braided, 100.0, contributions)
        with pytest.raises(ReliabilityLimitError) as excinfo:
            replay_flow(
                braided,
                timeline,
                FLOW,
                SERVICE,
                make_policy("flooding"),
                ReplayConfig(max_lossy_edges=3),
            )
        assert str(excinfo.value) == (
            "16 lossy edges exceed the exact-enumeration cap (3) of the 2^L "
            "cases [graph 'flooding' (S -> T); pair flooding/S->T, "
            "window [10s, 11s)]"
        )

    def test_default_cap_handles_node_event(self, reference_topology):
        """A full sustained node event (all adjacent links lossy) stays
        within the default enumeration budget for every scheme."""
        from repro.simulation.results import ReplayConfig

        contributions = [
            Contribution(edge, 10.0, 40.0, LinkState(loss_rate=0.6))
            for edge in reference_topology.adjacent_edges("SJC")
        ]
        timeline = ConditionTimeline(reference_topology, 100.0, contributions)
        result = run_replay(
            reference_topology,
            timeline,
            [FlowSpec("NYC", "SJC")],
            ServiceSpec(),
            config=ReplayConfig(),
        )
        assert result.totals("flooding").unavailable_s >= 0.0


class TestPacketSimExtras:
    def test_precomputed_spans_reused(self, diamond):
        timeline = ConditionTimeline(diamond, 50.0)
        policy = make_policy("static-single")
        spans = build_decision_timeline(
            diamond, timeline, FLOW, SERVICE, policy, detection_delay_s=1.0
        )
        outcome = simulate_packets(
            diamond,
            timeline,
            FLOW,
            SERVICE,
            make_policy("static-single"),
            0.0,
            5.0,
            spans=spans,
        )
        assert outcome.packets == 500

    def test_jitter_spreads_latencies(self, diamond):
        timeline = ConditionTimeline(diamond, 20.0)
        jittered = simulate_packets(
            diamond, timeline, FLOW, SERVICE,
            make_policy("static-single"), 0.0, 10.0, jitter_ms=1.0,
        )
        flat = simulate_packets(
            diamond, timeline, FLOW, SERVICE,
            make_policy("static-single"), 0.0, 10.0, jitter_ms=0.0,
        )
        assert len(set(flat.latencies_ms())) == 1
        assert len(set(jittered.latencies_ms())) > 100

    def test_graph_names_recorded(self, diamond):
        timeline = ConditionTimeline(
            diamond,
            100.0,
            [Contribution(("S", "A"), 10.0, 90.0, LinkState(loss_rate=1.0))],
        )
        outcome = simulate_packets(
            diamond, timeline, FLOW, SERVICE,
            make_policy("dynamic-single"), 0.0, 40.0,
        )
        names = {record.graph_name for record in outcome.records}
        assert len(names) >= 1


class TestSchemeInvariantsUnderStress:
    def test_total_blackout_everyone_fails(self, diamond):
        """When every edge is dead even flooding delivers nothing --
        and the accounting still adds up."""
        contributions = [
            Contribution(edge, 10.0, 20.0, LinkState(loss_rate=1.0))
            for edge in diamond.edges
        ]
        timeline = ConditionTimeline(diamond, 50.0, contributions)
        for scheme in ("static-single", "flooding", "targeted"):
            stats = replay_flow(
                diamond, timeline, FLOW, SERVICE, make_policy(scheme)
            )
            assert stats.unavailable_s == pytest.approx(10.0), scheme
            assert stats.lost_s == pytest.approx(10.0), scheme

    def test_flow_to_neighbor(self, reference_topology):
        """A one-hop flow: single path is already optimal-ish."""
        timeline = ConditionTimeline(reference_topology, 30.0)
        flow = FlowSpec("NYC", "WAS")
        for scheme in ("static-single", "targeted", "flooding"):
            stats = replay_flow(
                reference_topology, timeline, flow, ServiceSpec(),
                make_policy(scheme),
            )
            assert stats.unavailable_s == 0.0

    def test_deadline_tighter_than_topology(self, reference_topology):
        """An infeasible deadline: everything is late all the time."""
        service = ServiceSpec(deadline_ms=5.0, send_interval_ms=10.0)
        timeline = ConditionTimeline(reference_topology, 30.0)
        stats = replay_flow(
            reference_topology,
            timeline,
            FlowSpec("NYC", "SJC"),
            service,
            make_policy("static-single"),
        )
        assert stats.unavailable_s == pytest.approx(30.0)
        assert stats.late_s == pytest.approx(30.0)
        assert stats.lost_s == 0.0
