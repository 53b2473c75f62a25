"""Property-based invariants of the delivery-probability model.

These are the invariants the paper's whole argument rests on:

* redundancy can only help -- adding edges to a dissemination graph never
  lowers the on-time delivery probability;
* cleaner links can only help -- lowering a loss rate never lowers it;
* flooding is optimal -- no dissemination graph beats time-constrained
  flooding under any loss pattern.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.builders import (
    problem_graphs,
    single_path_graph,
    time_constrained_flooding_graph,
    two_disjoint_paths_graph,
)
from repro.simulation.reliability import delivery_probabilities

DEADLINE = 65.0

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def loss_pattern(draw, topology, max_lossy=6):
    edges = draw(
        st.sets(st.sampled_from(sorted(topology.edges)), max_size=max_lossy)
    )
    return {
        edge: draw(st.floats(0.05, 1.0, allow_nan=False)) for edge in edges
    }


class TestMonotonicity:
    @given(data=st.data())
    @SETTINGS
    def test_superset_graph_never_worse(self, reference_topology, data):
        losses = loss_pattern(data.draw, reference_topology)
        latency_of = lambda edge: reference_topology.latency(*edge)
        loss_of = lambda edge: losses.get(edge, 0.0)
        smaller = two_disjoint_paths_graph(reference_topology, "NYC", "SJC")
        _base, _source, larger, _robust = problem_graphs(
            reference_topology, "NYC", "SJC", deadline_ms=DEADLINE
        )
        assert smaller.edges <= larger.edges
        p_small = delivery_probabilities(smaller, DEADLINE, latency_of, loss_of)
        p_large = delivery_probabilities(larger, DEADLINE, latency_of, loss_of)
        assert p_large.on_time >= p_small.on_time - 1e-9

    @given(data=st.data())
    @SETTINGS
    def test_less_loss_never_worse(self, reference_topology, data):
        losses = loss_pattern(data.draw, reference_topology)
        graph = two_disjoint_paths_graph(reference_topology, "WAS", "SEA")
        latency_of = lambda edge: reference_topology.latency(*edge)
        before = delivery_probabilities(
            graph, DEADLINE, latency_of, lambda e: losses.get(e, 0.0)
        )
        halved = {edge: rate / 2 for edge, rate in losses.items()}
        after = delivery_probabilities(
            graph, DEADLINE, latency_of, lambda e: halved.get(e, 0.0)
        )
        assert after.on_time >= before.on_time - 1e-9

    @given(data=st.data())
    @SETTINGS
    def test_flooding_dominates_all_schemes(self, reference_topology, data):
        losses = loss_pattern(data.draw, reference_topology)
        latency_of = lambda edge: reference_topology.latency(*edge)
        loss_of = lambda edge: losses.get(edge, 0.0)
        flooding = time_constrained_flooding_graph(
            reference_topology, "ATL", "SJC", DEADLINE
        )
        p_flooding = delivery_probabilities(
            flooding, DEADLINE, latency_of, loss_of
        ).on_time
        _base, source_graph, destination_graph, _robust = problem_graphs(
            reference_topology, "ATL", "SJC", deadline_ms=DEADLINE
        )
        for graph in (
            single_path_graph(reference_topology, "ATL", "SJC"),
            two_disjoint_paths_graph(reference_topology, "ATL", "SJC"),
            source_graph,
            destination_graph,
        ):
            p = delivery_probabilities(graph, DEADLINE, latency_of, loss_of).on_time
            assert p <= p_flooding + 1e-9, graph.name

    @given(data=st.data())
    @SETTINGS
    def test_probabilities_well_formed(self, reference_topology, data):
        losses = loss_pattern(data.draw, reference_topology, max_lossy=8)
        latency_of = lambda edge: reference_topology.latency(*edge)
        loss_of = lambda edge: losses.get(edge, 0.0)
        _base, _source, graph, _robust = problem_graphs(
            reference_topology, "JHU", "LAX", deadline_ms=DEADLINE
        )
        result = delivery_probabilities(graph, DEADLINE, latency_of, loss_of)
        assert 0.0 <= result.on_time <= result.eventually <= 1.0
        assert result.lost + result.late + result.on_time == pytest.approx(1.0)
