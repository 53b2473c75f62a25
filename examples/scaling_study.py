#!/usr/bin/env python3
"""Does targeted redundancy survive on other overlays?

The paper evaluates a single 12-site commercial topology.  This example
generates synthetic biconnected continental overlays of growing size
(the generator guarantees two node-disjoint paths between every pair)
and reruns the headline comparison on each — showing the approach's
advantage is a property of the method, not of one layout, and that the
cost argument *improves* with size: flooding's price grows with the
network while the targeted graphs stay near the two-path price.

Run:  python examples/scaling_study.py           (about a minute)
"""

from repro import ReplayConfig, ServiceSpec
from repro.analysis.metrics import gap_coverage
from repro.netmodel.scenarios import DAY_S, Scenario, generate_timeline
from repro.simulation.interval import run_replay
from repro.topogen import resolve_workload

SIZES = (12, 16, 20)
TRACE_DAYS = 2.0
SCHEMES = (
    "dynamic-single",
    "static-two-disjoint",
    "dynamic-two-disjoint",
    "targeted",
    "flooding",
)


def main() -> None:
    service = ServiceSpec()
    print(
        f"{'overlay':>10s} {'links':>6s} {'static-2':>9s} {'dynamic-2':>10s} "
        f"{'targeted':>9s} {'targeted $':>11s} {'flooding $':>11s}"
    )
    for size in SIZES:
        workload = resolve_workload("continental", size, size)
        topology, flows = workload.topology, workload.flows
        _events, timeline = generate_timeline(
            topology, Scenario(duration_s=TRACE_DAYS * DAY_S), seed=7
        )
        result = run_replay(
            topology,
            timeline,
            flows,
            service,
            scheme_names=SCHEMES,
            config=ReplayConfig(detection_delay_s=1.0),
        )
        print(
            f"{size:>7d} st {topology.num_edges // 2:6d} "
            f"{100 * gap_coverage(result, 'static-two-disjoint'):8.1f}% "
            f"{100 * gap_coverage(result, 'dynamic-two-disjoint'):9.1f}% "
            f"{100 * gap_coverage(result, 'targeted'):8.1f}% "
            f"{result.totals('targeted').average_cost_messages:10.2f} "
            f"{result.totals('flooding').average_cost_messages:10.2f}"
        )
    print(
        "\n($ columns: messages per packet — flooding's cost grows with the\n"
        " overlay while targeted redundancy stays near the two-path price)"
    )


if __name__ == "__main__":
    main()
