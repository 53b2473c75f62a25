"""CSV exporters."""

from __future__ import annotations

import csv

import pytest

from repro.analysis.export import (
    export_per_flow_coverage,
    export_scheme_performance,
)
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.simulation.results import FlowSchemeStats, ReplayConfig, ReplayResult

FLOW = FlowSpec("S", "T")


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def build_result():
    result = ReplayResult(ServiceSpec(), ReplayConfig())
    for scheme, unavailable, edges in (
        ("dynamic-single", 100.0, 2),
        ("static-two-disjoint", 60.0, 6),
        ("dynamic-two-disjoint", 40.0, 6),
        ("targeted", 22.0, 7),
        ("flooding", 20.0, 30),
    ):
        entry = FlowSchemeStats(flow=FLOW, scheme=scheme)
        entry.add_window(0.0, 1000.0 - unavailable, "g", edges, 1.0, 0.0, 0.0)
        entry.add_window(1000.0 - unavailable, 1000.0, "g", edges, 0.0, 1.0, 0.0)
        result.add(entry)
    return result


class TestSchemePerformanceExport:
    def test_rows_and_header(self, tmp_path):
        path = tmp_path / "e2.csv"
        export_scheme_performance(build_result(), path)
        rows = read_csv(path)
        assert rows[0][0] == "scheme"
        assert len(rows) == 6  # header + 5 schemes
        targeted = next(row for row in rows if row[0] == "targeted")
        assert float(targeted[1]) == pytest.approx(22.0)
        assert float(targeted[5]) == pytest.approx((100 - 22) / (100 - 20))

    def test_values_parse_as_floats(self, tmp_path):
        path = tmp_path / "e2.csv"
        export_scheme_performance(build_result(), path)
        for row in read_csv(path)[1:]:
            float(row[1]), float(row[4]), float(row[6])


class TestPerFlowExport:
    def test_one_row_per_flow(self, tmp_path):
        path = tmp_path / "e5.csv"
        export_per_flow_coverage(build_result(), path)
        rows = read_csv(path)
        assert rows[0] == [
            "flow",
            "static-two-disjoint",
            "dynamic-two-disjoint",
            "targeted",
        ]
        assert rows[1][0] == "S->T"
        assert float(rows[1][3]) == pytest.approx((100 - 22) / (100 - 20))

    def test_empty_schemes_rejected(self, tmp_path):
        with pytest.raises(Exception):
            export_per_flow_coverage(build_result(), tmp_path / "x.csv", schemes=())
