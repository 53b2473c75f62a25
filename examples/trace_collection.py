#!/usr/bin/env python3
"""The paper's data pipeline, end to end.

The evaluation data in the paper was recorded by the overlay itself:
every daemon's link monitoring produced loss/latency estimates that were
logged and later replayed against candidate routing schemes.  This
example closes that loop:

1. define ground-truth conditions (a destination problem at LAX);
2. run the message-level overlay under them and record what the daemons'
   own monitoring *measures* (probe-based estimates, sampled every 5 s);
3. replay routing schemes against both the ground truth and the measured
   trace and compare.

The differences you see are the artefacts every trace-driven evaluation
carries: onset smeared by the estimation window, severities quantised by
the sampling cadence.

Run:  python examples/trace_collection.py
"""

from repro import FlowSpec, ReplayConfig, ServiceSpec, build_reference_topology
from repro.exec.plan import ShardContext
from repro.netmodel.conditions import ConditionTimeline, Contribution, LinkState
from repro.overlay.collect import collect_measured_trace
from repro.routing.registry import make_policy

FLOW = FlowSpec("WAS", "LAX")
RUN_S = 180.0
EPISODE = (40.0, 140.0)
SCHEMES = ("static-single", "static-two-disjoint", "targeted")


def main() -> None:
    topology = build_reference_topology()
    ground_truth = ConditionTimeline(
        topology,
        RUN_S,
        [
            Contribution(edge, EPISODE[0], EPISODE[1], LinkState(loss_rate=0.55))
            for edge in topology.adjacent_edges("LAX")
        ],
    )

    print("running the overlay to record its own measurements...")
    measured, samples = collect_measured_trace(
        topology, ground_truth, sample_interval_s=5.0, seed=11
    )
    degraded_samples = [s for s in samples if s.loss_rate > 0.05]
    print(
        f"collected {len(samples)} link samples "
        f"({len(degraded_samples)} showing loss) from "
        f"{topology.num_nodes} daemons\n"
    )

    print("what the monitoring measured on LAX's links mid-episode:")
    probe_time = (EPISODE[0] + EPISODE[1]) / 2
    for edge in topology.adjacent_edges("LAX"):
        truth = ground_truth.loss_at(edge, probe_time)
        seen = measured.loss_at(edge, probe_time)
        print(
            f"  {edge[0]:>3s} -> {edge[1]:<3s} truth {100 * truth:4.0f}%  "
            f"measured {100 * seen:4.0f}%"
        )

    print(
        "  (measured > truth: probes measure the round trip, so with both\n"
        "   directions degraded the estimate approaches 1-(1-p)^2 -- the\n"
        "   attribution bias described in docs/PROTOCOLS.md section 1)"
    )

    print("\nreplaying schemes against both traces "
          "(unavailable seconds over the run):")
    print(f"{'scheme':22s} {'ground truth':>14s} {'measured':>10s}")
    config = ReplayConfig(detection_delay_s=1.0)
    service = ServiceSpec()
    # One replay context per trace: every scheme shares its views and
    # probability memo.
    contexts = [
        ShardContext(topology, timeline, service, config)
        for timeline in (ground_truth, measured)
    ]
    for scheme in SCHEMES:
        row = [scheme]
        for context in contexts:
            stats = context.replay(FLOW, make_policy(scheme))
            row.append(stats.unavailable_s)
        print(f"{row[0]:22s} {row[1]:14.1f} {row[2]:10.1f}")
    print(
        "\nThe measured trace tells the same story as ground truth "
        "(same ordering, same problem window), with the onset smeared by "
        "the probe window -- exactly the bias the paper's recorded data "
        "carries."
    )


if __name__ == "__main__":
    main()
