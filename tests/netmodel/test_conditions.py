"""Condition timelines: compilation, composition, queries."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netmodel.conditions import (
    CLEAN,
    ConditionTimeline,
    Contribution,
    LinkState,
)
from repro.util.validation import ValidationError

EDGE = ("S", "A")
OTHER = ("A", "T")


@pytest.fixture()
def topology(diamond):
    return diamond


def timeline(topology, *contributions, duration=100.0):
    return ConditionTimeline(topology, duration, contributions)


class TestLinkState:
    def test_clean(self):
        assert CLEAN.clean
        assert not LinkState(loss_rate=0.1).clean
        assert not LinkState(extra_latency_ms=5.0).clean

    def test_combine_losses_independent(self):
        combined = LinkState(loss_rate=0.5).combine(LinkState(loss_rate=0.5))
        assert combined.loss_rate == pytest.approx(0.75)

    def test_combine_latency_max(self):
        combined = LinkState(extra_latency_ms=10.0).combine(
            LinkState(extra_latency_ms=30.0)
        )
        assert combined.extra_latency_ms == 30.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            LinkState(loss_rate=1.5)
        with pytest.raises(ValidationError):
            LinkState(extra_latency_ms=-1.0)


class TestCompilation:
    def test_clean_everywhere_without_contributions(self, topology):
        tl = timeline(topology)
        assert tl.state_at(EDGE, 50.0) == CLEAN
        assert tl.degraded_at(50.0) == {}

    def test_single_interval(self, topology):
        state = LinkState(loss_rate=0.4)
        tl = timeline(topology, Contribution(EDGE, 10.0, 20.0, state))
        assert tl.state_at(EDGE, 5.0) == CLEAN
        assert tl.state_at(EDGE, 10.0) == state
        assert tl.state_at(EDGE, 19.999) == state
        assert tl.state_at(EDGE, 20.0) == CLEAN

    def test_overlapping_same_edge_compose(self, topology):
        tl = timeline(
            topology,
            Contribution(EDGE, 0.0, 20.0, LinkState(loss_rate=0.5)),
            Contribution(EDGE, 10.0, 30.0, LinkState(loss_rate=0.5)),
        )
        assert tl.state_at(EDGE, 5.0).loss_rate == pytest.approx(0.5)
        assert tl.state_at(EDGE, 15.0).loss_rate == pytest.approx(0.75)
        assert tl.state_at(EDGE, 25.0).loss_rate == pytest.approx(0.5)

    def test_distinct_edges_independent(self, topology):
        tl = timeline(
            topology,
            Contribution(EDGE, 0.0, 10.0, LinkState(loss_rate=0.3)),
            Contribution(OTHER, 5.0, 15.0, LinkState(loss_rate=0.6)),
        )
        assert tl.state_at(EDGE, 7.0).loss_rate == pytest.approx(0.3)
        assert tl.state_at(OTHER, 7.0).loss_rate == pytest.approx(0.6)

    def test_clipping_to_duration(self, topology):
        tl = timeline(
            topology,
            Contribution(EDGE, 90.0, 200.0, LinkState(loss_rate=1.0)),
        )
        assert tl.state_at(EDGE, 95.0).loss_rate == 1.0
        assert tl.edge_segments(EDGE)[-1][1] == 100.0

    def test_unknown_edge_rejected(self, topology):
        with pytest.raises(ValidationError):
            timeline(topology, Contribution(("S", "T"), 0.0, 1.0, CLEAN))

    def test_zero_length_contribution_rejected(self):
        with pytest.raises(ValidationError):
            Contribution(EDGE, 5.0, 5.0, CLEAN)

    def test_bad_duration(self, topology):
        with pytest.raises(ValidationError):
            ConditionTimeline(topology, 0.0)


class TestQueries:
    def test_loss_rates_at_excludes_latency_only(self, topology):
        tl = timeline(
            topology,
            Contribution(EDGE, 0.0, 10.0, LinkState(extra_latency_ms=20.0)),
            Contribution(OTHER, 0.0, 10.0, LinkState(loss_rate=0.2)),
        )
        assert tl.loss_rates_at(5.0) == {OTHER: pytest.approx(0.2)}

    def test_degraded_at(self, topology):
        tl = timeline(topology, Contribution(EDGE, 0.0, 10.0, LinkState(0.2)))
        assert set(tl.degraded_at(5.0)) == {EDGE}
        assert tl.degraded_at(15.0) == {}

    def test_out_of_range_time(self, topology):
        tl = timeline(topology)
        with pytest.raises(ValidationError):
            tl.state_at(EDGE, -1.0)
        with pytest.raises(ValidationError):
            tl.state_at(EDGE, 101.0)

    def test_change_times_sorted_and_bounded(self, topology):
        tl = timeline(
            topology,
            Contribution(EDGE, 10.0, 20.0, LinkState(0.5)),
            Contribution(OTHER, 15.0, 25.0, LinkState(0.5)),
        )
        changes = tl.change_times
        assert changes[0] == 0.0
        assert changes[-1] == 100.0
        assert list(changes) == sorted(changes)
        assert {10.0, 15.0, 20.0, 25.0} <= set(changes)

    def test_segments_cover_duration(self, topology):
        tl = timeline(topology, Contribution(EDGE, 10.0, 20.0, LinkState(0.5)))
        segments = list(tl.segments())
        assert segments[0][0] == 0.0
        assert segments[-1][1] == 100.0
        for (s1, e1), (s2, _e2) in zip(segments, segments[1:]):
            assert e1 == s2

    def test_recorded_edges(self, topology):
        tl = timeline(topology, Contribution(EDGE, 0.0, 5.0, LinkState(0.5)))
        assert tl.recorded_edges() == (EDGE,)

    def test_conditions_constant_within_segment(self, topology):
        tl = timeline(
            topology,
            Contribution(EDGE, 10.0, 20.0, LinkState(0.5)),
            Contribution(EDGE, 15.0, 30.0, LinkState(0.4)),
        )
        for start, end in tl.segments():
            probe_times = [start, (start + end) / 2, end - 1e-6]
            states = {tl.state_at(EDGE, t) for t in probe_times}
            assert len(states) == 1

    def test_to_contributions_round_trip(self, topology):
        tl = timeline(
            topology,
            Contribution(EDGE, 10.0, 20.0, LinkState(0.5)),
            Contribution(OTHER, 5.0, 25.0, LinkState(0.25)),
        )
        rebuilt = ConditionTimeline(topology, 100.0, tl.to_contributions())
        for t in (0.0, 7.0, 12.0, 22.0, 50.0):
            assert rebuilt.state_at(EDGE, t) == tl.state_at(EDGE, t)
            assert rebuilt.state_at(OTHER, t) == tl.state_at(OTHER, t)


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 90, allow_nan=False),
                st.floats(1, 30, allow_nan=False),
                st.floats(0.05, 1.0, allow_nan=False),
            ),
            max_size=8,
        )
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_composition_never_exceeds_one(self, diamond, intervals):
        contributions = [
            Contribution(EDGE, start, start + length, LinkState(loss_rate=loss))
            for start, length, loss in intervals
        ]
        tl = ConditionTimeline(diamond, 120.0, contributions)
        for start, end in tl.segments():
            state = tl.state_at(EDGE, (start + end) / 2)
            assert 0.0 <= state.loss_rate <= 1.0


class TestDegradedViews:
    def test_matches_per_time_degraded_at(self, topology):
        tl = timeline(
            topology,
            Contribution(EDGE, 10.0, 30.0, LinkState(0.4)),
            Contribution(EDGE, 20.0, 50.0, LinkState(0.2, 15.0)),
            Contribution(OTHER, 25.0, 60.0, LinkState(0.0, 40.0)),
        )
        times = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 45.0, 55.0, 70.0]
        views, deltas = tl.degraded_views(times)
        assert len(views) == len(deltas) == len(times)
        for time_s, view in zip(times, views):
            assert view == tl.degraded_at(time_s)

    def test_deltas_are_exact(self, topology):
        tl = timeline(
            topology,
            Contribution(EDGE, 10.0, 30.0, LinkState(0.4)),
            Contribution(OTHER, 25.0, 60.0, LinkState(0.0, 40.0)),
        )
        times = [0.0, 12.0, 26.0, 35.0, 65.0]
        views, deltas = tl.degraded_views(times)
        previous: dict = {}
        for view, delta in zip(views, deltas):
            changed = {
                edge
                for edge in set(previous) | set(view)
                if previous.get(edge) != view.get(edge)
            }
            assert delta == changed
            previous = view

    def test_change_and_revert_between_queries_nets_out(self, topology):
        # A blip that starts and ends entirely between two query times
        # leaves both views identical; the delta must be empty, not the
        # union of the intermediate transitions.
        tl = timeline(
            topology, Contribution(EDGE, 20.0, 25.0, LinkState(0.8))
        )
        views, deltas = tl.degraded_views([10.0, 30.0])
        assert views == [{}, {}]
        assert deltas == [frozenset(), frozenset()]

    def test_negative_times_are_clean(self, topology):
        tl = timeline(topology, Contribution(EDGE, 0.0, 30.0, LinkState(0.8)))
        views, deltas = tl.degraded_views([-5.0, -1.0, 0.0])
        assert views[0] == {}
        assert views[1] == {}
        assert views[2] == tl.degraded_at(0.0)
        assert deltas[2] == frozenset({EDGE})

    def test_rejects_decreasing_times(self, topology):
        tl = timeline(topology)
        with pytest.raises(ValidationError, match="non-decreasing"):
            tl.degraded_views([10.0, 5.0])

    def test_repeated_time_empty_delta(self, topology):
        tl = timeline(topology, Contribution(EDGE, 0.0, 30.0, LinkState(0.8)))
        views, deltas = tl.degraded_views([10.0, 10.0])
        assert views[0] == views[1]
        assert deltas[1] == frozenset()

    @given(
        query_times=st.lists(
            st.floats(-10.0, 110.0, allow_nan=False), min_size=1, max_size=12
        ).map(sorted)
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_walk_always_matches_point_queries(self, diamond, query_times):
        tl = ConditionTimeline(
            diamond,
            100.0,
            [
                Contribution(EDGE, 10.0, 30.0, LinkState(0.4)),
                Contribution(EDGE, 20.0, 50.0, LinkState(0.2, 15.0)),
                Contribution(OTHER, 25.0, 60.0, LinkState(0.0, 40.0)),
                Contribution(OTHER, 80.0, 95.0, LinkState(1.0)),
            ],
        )
        views, _deltas = tl.degraded_views(query_times)
        for time_s, view in zip(query_times, views):
            if 0.0 <= time_s <= 100.0:
                assert view == tl.degraded_at(time_s)
            else:
                # degraded_at rejects out-of-range queries; the walk
                # reports them as clean instead.
                assert view == {}
