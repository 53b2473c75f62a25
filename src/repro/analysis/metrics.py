"""Unavailability and gap-coverage metrics.

The paper's headline comparison normalises each scheme's improvement to
the *performance gap* between a traditional single-path approach and the
optimal-but-expensive time-constrained flooding:

    coverage(s) = (unavail(baseline) - unavail(s))
                  / (unavail(baseline) - unavail(optimal))

so 0% == no better than single path, 100% == as good as flooding.  The
abstract's claims: targeted > 99%, dynamic two disjoint ~= 70%, static two
disjoint ~= 45%.  The baseline defaults to the *dynamic* single path (a
traditional routing protocol re-routes); pass ``baseline="static-single"``
to normalise against the fully static one.
"""

from __future__ import annotations

from repro.simulation.results import ReplayResult
from repro.util.validation import require

__all__ = [
    "gap_coverage",
    "per_flow_gap_coverage",
    "scheme_performance_rows",
    "DEFAULT_BASELINE",
    "DEFAULT_OPTIMAL",
]

DEFAULT_BASELINE = "dynamic-single"
DEFAULT_OPTIMAL = "flooding"


def gap_coverage(
    result: ReplayResult,
    scheme: str,
    baseline: str = DEFAULT_BASELINE,
    optimal: str = DEFAULT_OPTIMAL,
) -> float:
    """Fraction of the baseline->optimal gap closed by ``scheme``.

    Returns a fraction (1.0 == 100%).  Raises when the gap is not positive
    (the baseline already matches the optimal -- nothing to normalise by).
    """
    baseline_unavailable = result.totals(baseline).unavailable_s
    optimal_unavailable = result.totals(optimal).unavailable_s
    gap = baseline_unavailable - optimal_unavailable
    require(
        gap > 0,
        f"no positive gap between {baseline!r} and {optimal!r}; "
        "gap coverage is undefined",
    )
    scheme_unavailable = result.totals(scheme).unavailable_s
    return (baseline_unavailable - scheme_unavailable) / gap


def per_flow_gap_coverage(
    result: ReplayResult,
    scheme: str,
    baseline: str = DEFAULT_BASELINE,
    optimal: str = DEFAULT_OPTIMAL,
) -> dict[str, float | None]:
    """Gap coverage computed per flow (E5).

    Flows where the baseline saw no excess unavailability have no defined
    coverage and map to ``None``; so does every flow when the scheme, the
    baseline or the optimal scheme was not replayed.
    """
    if not {scheme, baseline, optimal} <= set(result.schemes):
        return dict.fromkeys(result.flow_names)
    coverages: dict[str, float | None] = {}
    for flow_name in result.flow_names:
        baseline_unavailable = result.get(flow_name, baseline).unavailable_s
        optimal_unavailable = result.get(flow_name, optimal).unavailable_s
        gap = baseline_unavailable - optimal_unavailable
        if gap <= 1e-9:
            coverages[flow_name] = None
            continue
        scheme_unavailable = result.get(flow_name, scheme).unavailable_s
        coverages[flow_name] = (baseline_unavailable - scheme_unavailable) / gap
    return coverages


def scheme_performance_rows(
    result: ReplayResult,
    baseline: str = DEFAULT_BASELINE,
    optimal: str = DEFAULT_OPTIMAL,
) -> list[dict]:
    """The E2 table, one dict per scheme.

    Columns: unavailability (seconds, summed over flows), its lost/late
    split, availability, expected lost-or-late packets, gap coverage, and
    average message cost per packet.
    """
    gap_defined = (
        baseline in result.schemes
        and optimal in result.schemes
        and result.totals(baseline).unavailable_s
        - result.totals(optimal).unavailable_s
        > 0
    )
    rows = []
    for scheme in result.schemes:
        totals = result.totals(scheme)
        if not gap_defined:
            coverage: float | None = None  # trace too quiet to normalise
        elif scheme in (baseline, optimal):
            coverage = {baseline: 0.0, optimal: 1.0}[scheme]
        else:
            coverage = gap_coverage(result, scheme, baseline, optimal)
        rows.append(
            {
                "scheme": scheme,
                "unavailable_s": totals.unavailable_s,
                "lost_s": totals.lost_s,
                "late_s": totals.late_s,
                "availability": totals.availability,
                "expected_bad_packets": totals.expected_bad_packets(result.service),
                "gap_coverage": coverage,
                "cost_messages": totals.average_cost_messages,
            }
        )
    return rows
