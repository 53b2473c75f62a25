"""Decision timelines: boundaries, delayed observation, span merging."""

from __future__ import annotations

import pytest

from repro.netmodel.conditions import ConditionTimeline, Contribution, LinkState
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing.dynamic import DynamicSinglePathPolicy
from repro.routing.static import StaticSinglePathPolicy
from repro.simulation.timeline import (
    _BOUNDARY_EPS,
    build_decision_timeline,
    decision_boundaries,
    observed_view,
    observed_views_with_deltas,
)

FLOW = FlowSpec("S", "T")


def diamond_timeline(diamond, *contributions, duration=100.0):
    return ConditionTimeline(diamond, duration, contributions)


class TestBoundaries:
    def test_clean_trace_minimal(self, diamond):
        # Time 0 is always a change point, so its delayed echo appears too.
        tl = diamond_timeline(diamond)
        assert decision_boundaries(tl, 1.0) == [0.0, 1.0, 100.0]

    def test_changes_and_echoes(self, diamond):
        tl = diamond_timeline(
            diamond, Contribution(("S", "A"), 10.0, 20.0, LinkState(0.5))
        )
        boundaries = decision_boundaries(tl, 1.0)
        assert {0.0, 10.0, 11.0, 20.0, 21.0, 100.0} <= set(boundaries)

    def test_zero_delay_no_echo(self, diamond):
        tl = diamond_timeline(
            diamond, Contribution(("S", "A"), 10.0, 20.0, LinkState(0.5))
        )
        boundaries = decision_boundaries(tl, 0.0)
        assert boundaries == [0.0, 10.0, 20.0, 100.0]

    def test_echo_beyond_duration_clipped(self, diamond):
        tl = diamond_timeline(
            diamond, Contribution(("S", "A"), 95.0, 99.0, LinkState(0.5))
        )
        boundaries = decision_boundaries(tl, 10.0)
        assert all(b <= 100.0 for b in boundaries)

    def test_near_duplicate_boundaries_are_merged(self, diamond):
        # The 5.0 change's echo lands at 6.0; a second change begins
        # within float noise of it.  Regression: the merged list used to
        # keep both, creating a zero-width accumulation window.
        tl = diamond_timeline(
            diamond,
            Contribution(("S", "A"), 5.0, 50.0, LinkState(0.5)),
            Contribution(("A", "T"), 6.0 + _BOUNDARY_EPS / 2.0, 60.0, LinkState(0.5)),
        )
        boundaries = decision_boundaries(tl, 1.0)
        near_six = [b for b in boundaries if 5.5 < b < 6.5]
        assert near_six == [6.0]
        for left, right in zip(boundaries, boundaries[1:]):
            assert right - left > _BOUNDARY_EPS

    def test_duration_survives_nearby_boundary(self, diamond):
        # A change within float noise of the trace end must not displace
        # the exact closing boundary.
        tl = diamond_timeline(
            diamond,
            Contribution(
                ("S", "A"), 10.0, 100.0 - _BOUNDARY_EPS / 2.0, LinkState(0.5)
            ),
        )
        boundaries = decision_boundaries(tl, 0.0)
        assert boundaries[-1] == 100.0
        assert boundaries.count(100.0) == 1
        assert all(b == 100.0 or b < 100.0 - _BOUNDARY_EPS for b in boundaries)


class TestObservedView:
    def test_delay_shifts_view(self, diamond):
        tl = diamond_timeline(
            diamond, Contribution(("S", "A"), 10.0, 20.0, LinkState(0.5))
        )
        assert observed_view(tl, 10.5, 1.0) == {}  # not yet visible
        visible = observed_view(tl, 11.5, 1.0)
        assert ("S", "A") in visible

    def test_before_time_zero_clean(self, diamond):
        tl = diamond_timeline(diamond)
        assert observed_view(tl, 0.0, 5.0) == {}


class TestDecisionSpans:
    def test_static_single_span(self, diamond):
        tl = diamond_timeline(
            diamond, Contribution(("S", "A"), 10.0, 20.0, LinkState(0.5))
        )
        policy = StaticSinglePathPolicy()
        spans = build_decision_timeline(
            diamond, tl, FLOW, ServiceSpec(), policy, detection_delay_s=1.0
        )
        assert len(spans) == 1
        assert spans[0].start_s == 0.0
        assert spans[0].end_s == 100.0

    def test_dynamic_switches_after_delay(self, diamond):
        tl = diamond_timeline(
            diamond, Contribution(("S", "A"), 10.0, 20.0, LinkState(0.9))
        )
        policy = DynamicSinglePathPolicy()
        spans = build_decision_timeline(
            diamond, tl, FLOW, ServiceSpec(), policy, detection_delay_s=1.0
        )
        # base path until 11.0 (10.0 change + 1.0 delay), reroute until
        # 21.0, base again after.
        assert len(spans) == 3
        assert spans[0].end_s == pytest.approx(11.0)
        assert spans[1].end_s == pytest.approx(21.0)
        assert ("S", "A") not in spans[1].graph.edges
        assert spans[0].graph == spans[2].graph

    def test_spans_contiguous(self, diamond):
        tl = diamond_timeline(
            diamond,
            Contribution(("S", "A"), 10.0, 20.0, LinkState(0.9)),
            Contribution(("A", "T"), 30.0, 40.0, LinkState(0.9)),
        )
        spans = build_decision_timeline(
            diamond, tl, FLOW, ServiceSpec(), DynamicSinglePathPolicy(), 1.0
        )
        assert spans[0].start_s == 0.0
        assert spans[-1].end_s == 100.0
        for a, b in zip(spans, spans[1:]):
            assert a.end_s == b.start_s

    def test_attaches_unattached_policy(self, diamond):
        tl = diamond_timeline(diamond)
        policy = StaticSinglePathPolicy()
        build_decision_timeline(diamond, tl, FLOW, ServiceSpec(), policy, 1.0)
        assert policy.flow == FLOW

    def test_zero_width_boundaries_rejected(self, diamond):
        tl = diamond_timeline(diamond)
        with pytest.raises(ValueError, match="strictly increasing"):
            build_decision_timeline(
                diamond,
                tl,
                FLOW,
                ServiceSpec(),
                StaticSinglePathPolicy(),
                detection_delay_s=1.0,
                boundaries=[0.0, 1.0, 1.0, 2.0],
                observed_views=[{}, {}, {}],
            )

    def test_single_boundary_rejected(self, diamond):
        tl = diamond_timeline(diamond)
        with pytest.raises(ValueError, match="at least two"):
            build_decision_timeline(
                diamond,
                tl,
                FLOW,
                ServiceSpec(),
                StaticSinglePathPolicy(),
                detection_delay_s=1.0,
                boundaries=[0.0],
                observed_views=[],
            )


class TestObservedViewsWithDeltas:
    def test_matches_per_boundary_views(self, diamond):
        tl = diamond_timeline(
            diamond,
            Contribution(("S", "A"), 10.0, 20.0, LinkState(0.5)),
            Contribution(("A", "T"), 15.0, 30.0, LinkState(0.0, 25.0)),
        )
        boundaries = decision_boundaries(tl, 1.0)
        views, deltas = observed_views_with_deltas(tl, boundaries, 1.0)
        assert len(views) == len(deltas) == len(boundaries) - 1
        expected = [observed_view(tl, b, 1.0) for b in boundaries[:-1]]
        assert views == expected

    def test_deltas_name_exactly_the_changed_edges(self, diamond):
        tl = diamond_timeline(
            diamond, Contribution(("S", "A"), 10.0, 20.0, LinkState(0.5))
        )
        boundaries = decision_boundaries(tl, 1.0)
        views, deltas = observed_views_with_deltas(tl, boundaries, 1.0)
        previous: dict = {}
        for view, delta in zip(views, deltas):
            changed = {
                edge
                for edge in set(previous) | set(view)
                if previous.get(edge) != view.get(edge)
            }
            assert delta == changed
            previous = view
