"""Shard/merge equivalence: sharded output is exactly the serial output."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import Topology
from repro.exec.engine import run_replay_parallel
from repro.exec.plan import build_plan, time_cuts
from repro.netmodel.conditions import ConditionTimeline, Contribution, LinkState
from repro.netmodel.scenarios import WEEK_S, Scenario, generate_timeline
from repro.netmodel.topology import (
    FlowSpec,
    ServiceSpec,
    build_reference_topology,
    reference_flows,
)
from repro.simulation.interval import run_replay
from repro.simulation.results import ReplayConfig

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


def run_both(topology, timeline, flows, service, config, time_shards):
    serial = run_replay(
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
        time_shards=time_shards,
        use_cache=False,
    )
    return serial, sharded


class TestPlan:
    def test_time_cuts_align_with_boundaries(self):
        topology = braided_topology()
        timeline = ConditionTimeline(
            topology,
            600.0,
            [
                Contribution(("S", "A"), 50.0, 100.0, LinkState(loss_rate=0.5)),
                Contribution(("B", "T"), 200.0, 400.0, LinkState(loss_rate=0.9)),
            ],
        )
        cuts = time_cuts(timeline, 1.0, 4)
        assert cuts[0] == 0.0
        assert cuts[-1] == 600.0
        assert cuts == sorted(set(cuts))
        # every interior cut is a decision boundary
        from repro.simulation.timeline import decision_boundaries

        boundaries = set(decision_boundaries(timeline, 1.0))
        assert all(cut in boundaries for cut in cuts)

    def test_plan_order_is_scheme_major(self):
        topology = braided_topology()
        timeline = ConditionTimeline(topology, 100.0, [])
        flows = (FlowSpec("S", "T"), FlowSpec("T", "S"))
        plan = build_plan(timeline, flows, SMALL_SCHEMES, ReplayConfig(), 1)
        assert [s.scheme for s in plan[:2]] == [SMALL_SCHEMES[0]] * 2
        assert [s.flow.name for s in plan[:2]] == ["S->T", "T->S"]
        assert len(plan) == len(flows) * len(SMALL_SCHEMES)

    @pytest.mark.parametrize("repeat", ("scheme", "flow"))
    def test_repeated_pair_is_rejected(self, repeat):
        topology = braided_topology()
        timeline = ConditionTimeline(topology, 100.0)
        flows = [FlowSpec("S", "T")]
        schemes = ["targeted", "flooding"]
        if repeat == "scheme":
            schemes.append("targeted")
        else:
            flows.append(FlowSpec("S", "T"))
        pattern = r"duplicate \(scheme, flow\) pair targeted/S->T"
        with pytest.raises(ValueError, match=pattern):
            build_plan(timeline, flows, schemes, ReplayConfig(), 2)

    def test_more_shards_than_windows_degrades_gracefully(self):
        topology = braided_topology()
        timeline = ConditionTimeline(topology, 100.0, [])
        plan = build_plan(
            timeline, (FlowSpec("S", "T"),), SMALL_SCHEMES, ReplayConfig(), 50
        )
        # a clean timeline has very few boundaries; the plan shrinks to fit
        per_pair = len(plan) // len(SMALL_SCHEMES)
        assert per_pair >= 1
        assert all(shard.of == per_pair for shard in plan)


class TestExactEquivalence:
    def test_time_sharded_equals_serial_on_reference_topology(self):
        """Acceptance: sharded replay == serial run_replay, all six schemes."""
        topology = build_reference_topology()
        flows = reference_flows()
        service = ServiceSpec()
        config = ReplayConfig()
        _events, timeline = generate_timeline(
            topology, Scenario(duration_s=0.01 * WEEK_S), seed=7
        )
        serial = run_replay(topology, timeline, flows, service, config=config)
        sharded, telemetry = run_replay_parallel(
            topology,
            timeline,
            flows,
            service,
            config=config,
            max_workers=0,
            time_shards=4,
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
        assert telemetry.shards_total > len(flows) * len(serial.schemes)

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
            config, 3,
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
        time_shards=st.integers(min_value=1, max_value=5),
        detection_delay_s=st.sampled_from([0.0, 1.0, 2.5]),
        deadline_ms=st.sampled_from([4.0, 8.0, 100.0]),
    )
    def test_property_sharded_equals_serial(
        self, contributions, time_shards, detection_delay_s, deadline_ms
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
        config = ReplayConfig(detection_delay_s=detection_delay_s)
        serial, sharded = run_both(
            topology,
            timeline,
            (FlowSpec("S", "T"),),
            ServiceSpec(deadline_ms=deadline_ms),
            config,
            time_shards,
        )
        assert_exactly_equal(serial, sharded)
