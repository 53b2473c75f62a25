"""CSV export of experiment artifacts.

The headline scheme-performance table and the per-flow gap coverage can
also be written as CSV so downstream users can plot them with their tool
of choice.  The exporters take the same inputs as the report renderers,
so a replay computed once can be rendered and exported without
recomputing.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

from repro.analysis.metrics import (
    DEFAULT_BASELINE,
    DEFAULT_OPTIMAL,
    per_flow_gap_coverage,
    scheme_performance_rows,
)
from repro.simulation.results import ReplayResult
from repro.util.validation import require

__all__ = [
    "export_scheme_performance",
    "export_per_flow_coverage",
]


def _write_rows(
    path: str | Path, header: Sequence[str], rows: Sequence[Sequence[object]]
) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def export_scheme_performance(
    result: ReplayResult,
    path: str | Path,
    baseline: str = DEFAULT_BASELINE,
    optimal: str = DEFAULT_OPTIMAL,
) -> None:
    """The E2 table as CSV (one row per scheme)."""
    rows = []
    for row in scheme_performance_rows(result, baseline, optimal):
        coverage = row["gap_coverage"]
        rows.append(
            [
                row["scheme"],
                f"{row['unavailable_s']:.3f}",
                f"{row['lost_s']:.3f}",
                f"{row['late_s']:.3f}",
                f"{row['availability']:.8f}",
                "" if coverage is None else f"{coverage:.6f}",
                f"{row['cost_messages']:.4f}",
            ]
        )
    _write_rows(
        path,
        (
            "scheme",
            "unavailable_s",
            "lost_s",
            "late_s",
            "availability",
            "gap_coverage",
            "messages_per_packet",
        ),
        rows,
    )


def export_per_flow_coverage(
    result: ReplayResult,
    path: str | Path,
    schemes: Sequence[str] = (
        "static-two-disjoint",
        "dynamic-two-disjoint",
        "targeted",
    ),
    baseline: str = DEFAULT_BASELINE,
    optimal: str = DEFAULT_OPTIMAL,
) -> None:
    """The E5 figure data as CSV (one row per flow, one column per scheme)."""
    require(bool(schemes), "need at least one scheme")
    coverage_by_scheme = {
        scheme: per_flow_gap_coverage(result, scheme, baseline, optimal)
        for scheme in schemes
    }
    rows = []
    for flow_name in result.flow_names:
        row: list[object] = [flow_name]
        for scheme in schemes:
            value = coverage_by_scheme[scheme].get(flow_name)
            row.append("" if value is None else f"{value:.6f}")
        rows.append(row)
    _write_rows(path, ["flow", *schemes], rows)
