"""Gap coverage and performance rows."""

from __future__ import annotations

import pytest

from repro.analysis.metrics import (
    gap_coverage,
    per_flow_gap_coverage,
    scheme_performance_rows,
)
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.simulation.results import FlowSchemeStats, ReplayConfig, ReplayResult
from repro.util.validation import ValidationError

FLOW_A = FlowSpec("S", "T")
FLOW_B = FlowSpec("S", "U")


def stats(flow, scheme, unavailable, duration=100.0, edges=2):
    entry = FlowSchemeStats(flow=flow, scheme=scheme)
    clean = duration - unavailable
    if clean > 0:
        entry.add_window(0.0, clean, "g", edges, 1.0, 0.0, 0.0)
    if unavailable > 0:
        entry.add_window(clean, duration, "g", edges, 0.0, 1.0, 0.0)
    return entry


def build_result(values_a, values_b):
    """values: scheme -> unavailable seconds for each flow."""
    result = ReplayResult(ServiceSpec(), ReplayConfig())
    for scheme, unavailable in values_a.items():
        result.add(stats(FLOW_A, scheme, unavailable))
    for scheme, unavailable in values_b.items():
        result.add(stats(FLOW_B, scheme, unavailable))
    return result


class TestGapCoverage:
    def test_half_coverage(self):
        result = build_result(
            {"dynamic-single": 100.0, "mid": 60.0, "flooding": 20.0},
            {"dynamic-single": 0.0, "mid": 0.0, "flooding": 0.0},
        )
        assert gap_coverage(result, "mid") == pytest.approx(0.5)

    def test_baseline_zero_optimal_one(self):
        result = build_result(
            {"dynamic-single": 100.0, "flooding": 20.0},
            {"dynamic-single": 0.0, "flooding": 0.0},
        )
        assert gap_coverage(result, "dynamic-single") == 0.0
        assert gap_coverage(result, "flooding") == 1.0

    def test_worse_than_baseline_negative(self):
        result = build_result(
            {"dynamic-single": 50.0, "bad": 80.0, "flooding": 10.0},
            {"dynamic-single": 0.0, "bad": 0.0, "flooding": 0.0},
        )
        assert gap_coverage(result, "bad") < 0.0

    def test_no_gap_rejected(self):
        result = build_result(
            {"dynamic-single": 10.0, "flooding": 10.0},
            {"dynamic-single": 0.0, "flooding": 0.0},
        )
        with pytest.raises(ValidationError):
            gap_coverage(result, "flooding")

    def test_custom_baseline(self):
        result = build_result(
            {"static-single": 200.0, "mid": 110.0, "flooding": 20.0},
            {"static-single": 0.0, "mid": 0.0, "flooding": 0.0},
        )
        assert gap_coverage(result, "mid", baseline="static-single") == pytest.approx(
            0.5
        )


class TestPerFlowGapCoverage:
    def test_flow_without_gap_is_none(self):
        result = build_result(
            {"dynamic-single": 100.0, "mid": 50.0, "flooding": 0.0},
            {"dynamic-single": 0.0, "mid": 0.0, "flooding": 0.0},
        )
        coverage = per_flow_gap_coverage(result, "mid")
        assert coverage["S->T"] == pytest.approx(0.5)
        assert coverage["S->U"] is None

    @pytest.mark.parametrize(
        "scheme, baseline, optimal",
        (
            ("targeted", "dynamic-single", "flooding"),  # scheme not replayed
            ("mid", "static-single", "flooding"),  # baseline not replayed
            ("mid", "dynamic-single", "oracle"),  # optimal not replayed
        ),
    )
    def test_missing_scheme_is_none_for_every_flow(self, scheme, baseline, optimal):
        result = build_result(
            {"dynamic-single": 100.0, "mid": 50.0, "flooding": 0.0},
            {"dynamic-single": 20.0, "mid": 10.0, "flooding": 0.0},
        )
        coverage = per_flow_gap_coverage(result, scheme, baseline, optimal)
        assert coverage == {"S->T": None, "S->U": None}


class TestPerformanceRows:
    def test_rows_complete(self):
        result = build_result(
            {"dynamic-single": 100.0, "mid": 40.0, "flooding": 20.0},
            {"dynamic-single": 20.0, "mid": 10.0, "flooding": 0.0},
        )
        rows = {row["scheme"]: row for row in scheme_performance_rows(result)}
        assert rows["mid"]["unavailable_s"] == pytest.approx(50.0)
        assert rows["mid"]["gap_coverage"] == pytest.approx(0.7)
        assert rows["dynamic-single"]["gap_coverage"] == 0.0
        assert rows["flooding"]["gap_coverage"] == 1.0
        assert rows["mid"]["availability"] == pytest.approx(1 - 50.0 / 200.0)
