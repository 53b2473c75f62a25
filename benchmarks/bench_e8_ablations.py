"""E8 -- Ablations of the design choices DESIGN.md calls out.

Four sweeps over a shorter (one-week) trace:

1. **detection delay** -- the paper argues problems last long enough that
   reaction latency does not erase targeted redundancy's benefit;
2. **hold-down** -- reverting instantly after a burst re-exposes the flow
   to the episode's next burst;
3. **targeted-graph breadth** -- how many of the endpoint's adjacent
   links the problem graphs cover;
4. **flooding deadline** -- how the latency budget shapes the optimal
   scheme's edge set (and hence its cost).
"""

from __future__ import annotations

import common

from repro.analysis.metrics import gap_coverage
from repro.core.builders import time_constrained_flooding_graph
from repro.exec.plan import ShardContext
from repro.netmodel.scenarios import WEEK_S, Scenario, generate_timeline
from repro.routing.targeted import TargetedRedundancyPolicy
from repro.simulation.interval import run_replay
from repro.simulation.results import ReplayConfig
from repro.util.tables import render_table

ABLATION_WEEKS = 1.0


def ablation_trace():
    return generate_timeline(
        common.topology(),
        Scenario(duration_s=ABLATION_WEEKS * WEEK_S),
        seed=common.BENCH_SEED,
    )


def ablation_context(timeline) -> ShardContext:
    """One replay context for a sweep's policy settings: they share the
    trace's views and probability memo."""
    return ShardContext(
        common.topology(),
        timeline,
        common.service(),
        ReplayConfig(detection_delay_s=common.DETECTION_DELAY_S),
    )


def test_e8a_detection_delay(benchmark):
    _events, timeline = ablation_trace()

    def sweep():
        rows = []
        for delay in (0.0, 1.0, 3.0, 10.0):
            result = run_replay(
                common.topology(),
                timeline,
                common.flows(),
                common.service(),
                scheme_names=("dynamic-single", "targeted", "flooding"),
                config=ReplayConfig(detection_delay_s=delay),
            )
            rows.append(
                [
                    f"{delay:g}s",
                    f"{result.totals('targeted').unavailable_s:.1f}",
                    f"{100 * gap_coverage(result, 'targeted'):.1f}%",
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(common.banner("E8a: sensitivity to detection/propagation delay"))
    print(render_table(("detection delay", "targeted unavail s", "gap coverage"), rows))
    print("  (coverage degrades gracefully: problems outlast the reaction)")


def test_e8b_hold_down(benchmark):
    _events, timeline = ablation_trace()
    flow = common.flows()[0]

    def sweep():
        context = ablation_context(timeline)
        rows = []
        for hold in (0.0, 5.0, 30.0, 120.0):
            stats = context.replay(flow, TargetedRedundancyPolicy(hold_down_s=hold))
            rows.append(
                [
                    f"{hold:g}s",
                    f"{stats.unavailable_s:.1f}",
                    f"{stats.average_cost_messages:.2f}",
                    stats.decision_changes,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(common.banner(f"E8b: hold-down sweep (flow {flow.name})"))
    print(
        render_table(
            ("hold-down", "unavail s", "msgs/pkt", "graph switches"), rows
        )
    )
    print("  (longer hold-down: fewer switches, slightly higher cost)")


def test_e8c_targeted_breadth(benchmark):
    _events, timeline = ablation_trace()
    flow = common.flows()[0]

    def sweep():
        context = ablation_context(timeline)
        rows = []
        for limit in (1, 2, 3, None):
            stats = context.replay(
                flow,
                TargetedRedundancyPolicy(
                    max_entry_links=limit, max_exit_links=limit
                ),
            )
            rows.append(
                [
                    "all" if limit is None else str(limit),
                    f"{stats.unavailable_s:.1f}",
                    f"{stats.average_cost_messages:.2f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(common.banner(f"E8c: problem-graph breadth (flow {flow.name})"))
    print(render_table(("entry/exit links", "unavail s", "msgs/pkt"), rows))
    print("  (more covered links: better delivery, modestly higher cost)")


def test_e8d_flooding_deadline(benchmark):
    topology = common.topology()
    flow = common.flows()[0]

    def sweep():
        rows = []
        for deadline in (30.0, 40.0, 50.0, 65.0, 80.0, 100.0, 130.0):
            graph = time_constrained_flooding_graph(
                topology, flow.source, flow.destination, deadline
            )
            rows.append([f"{deadline:g} ms", graph.num_edges])
        return rows

    rows = benchmark(sweep)
    print(common.banner(f"E8d: flooding edge set vs latency budget ({flow.name})"))
    print(render_table(("deadline", "edges (msgs/pkt)"), rows))
    print("  (the optimal scheme's cost grows steeply with the budget)")
