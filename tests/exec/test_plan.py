"""Shard/merge equivalence: the engine's output is exactly the reference replay's."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import Topology
from repro.exec.engine import run_replay_parallel
from repro.exec.plan import build_plan
from repro.netmodel.conditions import ConditionTimeline, Contribution, LinkState
from repro.netmodel.scenarios import WEEK_S, Scenario, generate_timeline
from repro.netmodel.topology import (
    FlowSpec,
    ServiceSpec,
    build_reference_topology,
    reference_flows,
)
from repro.routing.registry import STANDARD_SCHEME_NAMES
from repro.simulation.results import ReplayConfig

from tests.simulation.replayref import reference_run_replay

SMALL_SCHEMES = ("dynamic-single", "static-two-disjoint", "targeted")


def assert_exactly_equal(serial, sharded):
    """Field-for-field exact equality of two ReplayResults."""
    assert serial.schemes == sharded.schemes
    assert serial.flow_names == sharded.flow_names
    for scheme in serial.schemes:
        for flow in serial.flow_names:
            a = serial.get(flow, scheme)
            b = sharded.get(flow, scheme)
            for field in (
                "duration_s",
                "unavailable_s",
                "lost_s",
                "late_s",
                "message_seconds",
                "decision_changes",
            ):
                assert getattr(a, field) == getattr(b, field), (scheme, flow, field)
            assert a.windows == b.windows, (scheme, flow)


def braided_topology() -> Topology:
    topology = Topology("braided")
    for node in ("S", "A", "B", "C", "D", "T"):
        topology.add_node(node)
    topology.add_link("S", "A", 1.0)
    topology.add_link("A", "B", 1.0)
    topology.add_link("B", "T", 1.0)
    topology.add_link("S", "C", 2.0)
    topology.add_link("C", "D", 2.0)
    topology.add_link("D", "T", 2.0)
    topology.add_link("A", "C", 1.0)
    topology.add_link("B", "D", 1.0)
    return topology.freeze()


def run_both(topology, timeline, flows, service, config):
    """(independent reference replay, in-process engine run)."""
    serial = reference_run_replay(
        topology, timeline, flows, service, SMALL_SCHEMES, config
    )
    sharded, _telemetry = run_replay_parallel(
        topology,
        timeline,
        flows,
        service,
        SMALL_SCHEMES,
        config,
        max_workers=0,
        use_cache=False,
    )
    return serial, sharded


class TestPlan:
    def test_plan_order_is_scheme_major(self):
        flows = (FlowSpec("S", "T"), FlowSpec("T", "S"))
        plan = build_plan(flows, SMALL_SCHEMES)
        assert [s.scheme for s in plan[:2]] == [SMALL_SCHEMES[0]] * 2
        assert [s.flow.name for s in plan[:2]] == ["S->T", "T->S"]
        assert len(plan) == len(flows) * len(SMALL_SCHEMES)

    @pytest.mark.parametrize("repeat", ("scheme", "flow"))
    def test_repeated_pair_is_rejected(self, repeat):
        flows = [FlowSpec("S", "T")]
        schemes = ["targeted", "flooding"]
        if repeat == "scheme":
            schemes.append("targeted")
        else:
            flows.append(FlowSpec("S", "T"))
        pattern = r"duplicate \(scheme, flow\) pair targeted/S->T"
        with pytest.raises(ValueError, match=pattern):
            build_plan(flows, schemes)


class TestExactEquivalence:
    def test_sharded_equals_serial_on_reference_topology(self):
        """Acceptance: sharded replay == the reference, all six schemes."""
        topology = build_reference_topology()
        flows = reference_flows()
        service = ServiceSpec()
        config = ReplayConfig()
        _events, timeline = generate_timeline(
            topology, Scenario(duration_s=0.01 * WEEK_S), seed=7
        )
        serial = reference_run_replay(
            topology, timeline, flows, service, STANDARD_SCHEME_NAMES, config
        )
        sharded, telemetry = run_replay_parallel(
            topology,
            timeline,
            flows,
            service,
            config=config,
            max_workers=0,
            use_cache=False,
        )
        assert serial.schemes == sharded.schemes
        assert serial.flow_names == sharded.flow_names
        for scheme in serial.schemes:
            for flow in serial.flow_names:
                a, b = serial.get(flow, scheme), sharded.get(flow, scheme)
                assert a.duration_s == b.duration_s
                assert a.unavailable_s == b.unavailable_s
                assert a.lost_s == b.lost_s
                assert a.late_s == b.late_s
                assert a.message_seconds == b.message_seconds
                assert a.decision_changes == b.decision_changes
        for sa, sb in zip(serial.all_totals(), sharded.all_totals()):
            assert sa == sb
        assert telemetry.shards_total == len(flows) * len(serial.schemes)

    def test_collect_windows_survives_sharding(self):
        topology = braided_topology()
        timeline = ConditionTimeline(
            topology,
            900.0,
            [
                Contribution(("S", "A"), 30.0, 120.0, LinkState(loss_rate=0.8)),
                Contribution(("D", "T"), 300.0, 480.0, LinkState(loss_rate=1.0)),
                Contribution(("A", "B"), 500.0, 700.0, LinkState(extra_latency_ms=40.0)),
            ],
        )
        config = ReplayConfig(collect_windows=True)
        serial, sharded = run_both(
            topology, timeline, (FlowSpec("S", "T"),), ServiceSpec(deadline_ms=8.0),
            config,
        )
        assert_exactly_equal(serial, sharded)
        stats = sharded.get("S->T", "targeted")
        assert stats.windows  # collection actually happened

    @settings(max_examples=20, deadline=None)
    @given(
        contributions=st.lists(
            st.tuples(
                st.sampled_from(
                    [("S", "A"), ("A", "B"), ("B", "T"), ("S", "C"), ("C", "D"), ("D", "T")]
                ),
                st.floats(min_value=0.0, max_value=500.0),
                st.floats(min_value=1.0, max_value=300.0),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=60.0),
            ),
            max_size=6,
        ),
        detection_delay_s=st.sampled_from([0.0, 1.0, 2.5]),
        deadline_ms=st.sampled_from([4.0, 8.0, 100.0]),
        hop_recovery=st.booleans(),
    )
    def test_property_sharded_equals_serial(
        self, contributions, detection_delay_s, deadline_ms, hop_recovery
    ):
        topology = braided_topology()
        timeline = ConditionTimeline(
            topology,
            600.0,
            [
                Contribution(edge, start, start + length, LinkState(loss, extra))
                for edge, start, length, loss, extra in contributions
            ],
        )
        config = ReplayConfig(
            detection_delay_s=detection_delay_s, hop_recovery=hop_recovery
        )
        serial, sharded = run_both(
            topology,
            timeline,
            (FlowSpec("S", "T"),),
            ServiceSpec(deadline_ms=deadline_ms),
            config,
        )
        assert_exactly_equal(serial, sharded)


class TestWindowRecords:
    def test_full_range_shards_build_no_window_records(self, monkeypatch):
        """Records are built only when ``collect_windows`` asks for them."""
        import repro.simulation.results as results_module

        built = []
        original = results_module.WindowRecord

        def counting(*args, **kwargs):
            built.append(args[:2])
            return original(*args, **kwargs)

        monkeypatch.setattr(results_module, "WindowRecord", counting)
        topology = braided_topology()
        timeline = ConditionTimeline(
            topology,
            600.0,
            [
                Contribution(("S", "A"), 50.0, 100.0, LinkState(loss_rate=0.5)),
                Contribution(("B", "T"), 200.0, 400.0, LinkState(loss_rate=0.9)),
            ],
        )

        def replay(collect_windows):
            result, _telemetry = run_replay_parallel(
                topology,
                timeline,
                (FlowSpec("S", "T"),),
                ServiceSpec(deadline_ms=8.0),
                SMALL_SCHEMES,
                ReplayConfig(collect_windows=collect_windows),
                max_workers=0,
                use_cache=False,
            )
            return result

        replay(False)
        assert built == []
        # The patch does see the records a collecting run builds.
        collected = replay(True)
        assert len(built) == sum(len(stats.windows) for stats in collected)


class TestDecisionTimelineReuse:
    def test_each_pair_builds_one_decision_timeline(self, monkeypatch):
        """A serial run steps each (flow, scheme) pair's policy once."""
        import repro.exec.plan as plan_module

        calls = []
        original = plan_module.build_decision_timeline

        def counting(topology, timeline, flow, service, policy, **kwargs):
            calls.append((policy.name, flow.name))
            return original(topology, timeline, flow, service, policy, **kwargs)

        monkeypatch.setattr(plan_module, "build_decision_timeline", counting)
        topology = build_reference_topology()
        flows = reference_flows()[:3]
        _events, timeline = generate_timeline(
            topology, Scenario(duration_s=0.01 * WEEK_S), seed=7
        )
        _result, telemetry = run_replay_parallel(
            topology,
            timeline,
            flows,
            ServiceSpec(),
            SMALL_SCHEMES,
            ReplayConfig(),
            max_workers=0,
            use_cache=False,
        )
        assert telemetry.shards_total == len(flows) * len(SMALL_SCHEMES)
        assert sorted(calls) == sorted(
            (scheme, flow.name) for scheme in SMALL_SCHEMES for flow in flows
        )
