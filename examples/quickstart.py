#!/usr/bin/env python3
"""Quickstart: dissemination graphs in five minutes.

Builds the reference 12-node overlay, shows every dissemination-graph
family for one transcontinental flow, then replays one simulated day of
network conditions under all six routing schemes and prints the paper's
headline table.

Run:  python examples/quickstart.py
"""

from repro import (
    ReplayConfig,
    Scenario,
    ServiceSpec,
    build_reference_topology,
    generate_timeline,
    reference_flows,
    run_replay,
)
from repro.analysis import format_cost_table, format_scheme_performance_table
from repro.core.builders import (
    problem_graphs,
    single_path_graph,
    time_constrained_flooding_graph,
    two_disjoint_paths_graph,
)

DAY_S = 86_400.0


def show_graph_families() -> None:
    """Part 1: the unified routing framework (paper Section III)."""
    topology = build_reference_topology()
    source, destination = "NYC", "SJC"
    print(f"== Dissemination-graph families for {source} -> {destination} ==\n")
    _base, _source, destination_problem, _robust = problem_graphs(
        topology, source, destination, deadline_ms=65.0
    )
    families = [
        single_path_graph(topology, source, destination),
        two_disjoint_paths_graph(topology, source, destination),
        destination_problem,
        time_constrained_flooding_graph(topology, source, destination, 65.0),
    ]
    latency = topology.latency
    for graph in families:
        arrival = graph.delivery_latency(latency)
        print(
            f"{graph.name:28s} cost = {graph.num_edges:2d} messages/packet, "
            f"best-case delivery = {arrival:.1f} ms"
        )
        for edge in graph.sorted_edges():
            print(f"    {edge[0]} -> {edge[1]}")
        print()


def replay_one_day() -> None:
    """Part 2: replay a day of synthetic conditions under every scheme."""
    print("== One simulated day, 16 transcontinental flows, 6 schemes ==\n")
    topology = build_reference_topology()
    service = ServiceSpec()  # 65 ms one-way deadline, packet every 10 ms
    events, timeline = generate_timeline(
        topology, Scenario(duration_s=DAY_S), seed=7
    )
    print(f"generated {len(events)} problem events\n")
    result = run_replay(
        topology,
        timeline,
        reference_flows(),
        service,
        config=ReplayConfig(detection_delay_s=1.0),
    )
    print(format_scheme_performance_table(result))
    print()
    print(format_cost_table(result))


if __name__ == "__main__":
    show_graph_families()
    replay_one_day()
