"""Exact delivery-probability computation."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dgraph import DisseminationGraph
from repro.simulation.reliability import (
    DeliveryProbabilities,
    ReliabilityLimitError,
    classify_delivery_masks,
    delivery_probabilities,
    on_time_probability,
)
from repro.util.rng import DeterministicStream


def constant(value):
    return lambda edge: value


def losses(mapping, default=0.0):
    return lambda edge: mapping.get(edge, default)


def latencies(mapping, default=1.0):
    return lambda edge: mapping.get(edge, default)


SINGLE = DisseminationGraph.from_path(["S", "A", "T"])
PAIR = DisseminationGraph.from_paths([["S", "A", "T"], ["S", "B", "T"]])


class TestHandComputed:
    def test_clean_single_path(self):
        result = delivery_probabilities(SINGLE, 10.0, constant(1.0), constant(0.0))
        assert result.on_time == 1.0
        assert result.lost == 0.0

    def test_single_path_one_lossy_edge(self):
        result = delivery_probabilities(
            SINGLE, 10.0, constant(1.0), losses({("S", "A"): 0.3})
        )
        assert result.on_time == pytest.approx(0.7)
        assert result.lost == pytest.approx(0.3)
        assert result.late == 0.0

    def test_single_path_two_lossy_edges(self):
        result = delivery_probabilities(
            SINGLE, 10.0, constant(1.0), losses({("S", "A"): 0.3, ("A", "T"): 0.5})
        )
        assert result.on_time == pytest.approx(0.7 * 0.5)

    def test_two_disjoint_paths(self):
        result = delivery_probabilities(
            PAIR,
            10.0,
            constant(1.0),
            losses({("S", "A"): 0.4, ("S", "B"): 0.5}),
        )
        # Fails only when both first hops drop: 0.4 * 0.5 = 0.2.
        assert result.on_time == pytest.approx(0.8)

    def test_dead_edge(self):
        result = delivery_probabilities(
            SINGLE, 10.0, constant(1.0), losses({("S", "A"): 1.0})
        )
        assert result.on_time == 0.0
        assert result.lost == 1.0

    def test_late_delivery(self):
        # Path takes 2 ms against a 1.5 ms deadline: delivered but late.
        result = delivery_probabilities(SINGLE, 1.5, constant(1.0), constant(0.0))
        assert result.on_time == 0.0
        assert result.eventually == 1.0
        assert result.late == 1.0

    def test_late_vs_lost_split(self):
        # Fast path is lossy; slow path is clean but over deadline.
        def latency(edge):
            return 1.0 if edge[1] == "A" or edge[0] == "A" else 10.0

        result = delivery_probabilities(
            PAIR, 3.0, latency, losses({("S", "A"): 0.25})
        )
        assert result.on_time == pytest.approx(0.75)
        assert result.late == pytest.approx(0.25)
        assert result.lost == pytest.approx(0.0)

    def test_latency_inflation_makes_late(self):
        result = delivery_probabilities(
            SINGLE, 3.0, latencies({("S", "A"): 5.0}), constant(0.0)
        )
        assert result.on_time == 0.0
        assert result.late == 1.0

    def test_redundant_graph_beats_paths(self):
        """The braid: S->A->T, S->B->T with a cross edge A->B.

        With ("A","T") dead, copies still flow S->A->B->T and S->B->T.
        """
        graph = DisseminationGraph(
            "S",
            "T",
            frozenset({("S", "A"), ("A", "T"), ("S", "B"), ("B", "T"), ("A", "B")}),
        )
        result = delivery_probabilities(
            graph,
            10.0,
            constant(1.0),
            losses({("A", "T"): 1.0, ("S", "B"): 0.5}),
        )
        # Delivery fails only if S->B drops AND ... A->B->T path: S->A (clean),
        # A->B (clean), B->T (clean) always works.  So probability 1.
        assert result.on_time == 1.0


class TestEdgeCases:
    def test_empty_graph(self):
        empty = DisseminationGraph.empty("S", "T")
        result = delivery_probabilities(empty, 10.0, constant(1.0), constant(0.0))
        assert result.on_time == 0.0
        assert result.lost == 1.0

    def test_deadline_validation(self):
        with pytest.raises(Exception):
            delivery_probabilities(SINGLE, 0.0, constant(1.0), constant(0.0))

    def test_loss_out_of_range(self):
        with pytest.raises(Exception):
            delivery_probabilities(SINGLE, 1.0, constant(1.0), constant(1.5))

    def test_lossy_edge_cap(self):
        wide = DisseminationGraph(
            "S",
            "T",
            frozenset({("S", f"M{i}") for i in range(25)} | {("M0", "T")}),
        )
        with pytest.raises(ReliabilityLimitError):
            delivery_probabilities(
                wide, 10.0, constant(1.0), constant(0.5), max_lossy_edges=10
            )

    def test_cap_spares_windows_a_fast_path_decides(self):
        """The cap bounds enumeration only: 25 lossy edges against a cap
        of 10 still get the exact answer when a fast path decides."""
        spokes = frozenset({("S", f"M{i}") for i in range(25)})
        # Baseline: the clean direct edge is on time without the spokes.
        direct = DisseminationGraph("S", "T", spokes | {("M0", "T"), ("S", "T")})
        loss_map = {edge: 0.5 for edge in spokes}
        classification, read = classify_delivery_masks(
            direct, 10.0, constant(1.0), losses(loss_map), max_lossy_edges=10
        )
        assert classification.certain == DeliveryProbabilities(1.0, 1.0)
        assert len(read) == 25
        # Best case: the only way on to T is dead, so even with every
        # spoke surviving the packet cannot arrive.
        dead_end = DisseminationGraph("S", "T", spokes | {("M0", "T")})
        loss_map[("M0", "T")] = 1.0
        assert delivery_probabilities(
            dead_end, 10.0, constant(1.0), losses(loss_map), max_lossy_edges=10
        ) == DeliveryProbabilities(0.0, 0.0)

    def test_on_time_probability_wrapper(self):
        assert on_time_probability(
            SINGLE, 10.0, constant(1.0), losses({("S", "A"): 0.3})
        ) == pytest.approx(0.7)


class TestNoLossyFastPath:
    """Pin the certain-graph branch: past the all-clean fast path the
    baseline is always over deadline, so ``on_time`` is exactly 0."""

    def test_no_lossy_edges_late_graph(self):
        # Two 1 ms hops against a 1.5 ms deadline: certain, but late.
        classification, read = classify_delivery_masks(
            SINGLE, 1.5, constant(1.0), constant(0.0)
        )
        assert read == []
        assert classification.certain == DeliveryProbabilities(
            on_time=0.0, eventually=1.0
        )

    def test_no_lossy_edges_unreachable(self):
        # The only outgoing edge is fully dead: never delivered.
        classification, read = classify_delivery_masks(
            SINGLE, 1.5, constant(1.0), losses({("S", "A"): 1.0})
        )
        assert read == []
        assert classification.certain == DeliveryProbabilities(
            on_time=0.0, eventually=0.0
        )

    def test_no_lossy_edges_on_time(self):
        # The all-clean fast path fires first: certain (1, 1).
        classification, read = classify_delivery_masks(
            SINGLE, 10.0, constant(1.0), constant(0.0)
        )
        assert read == []
        assert classification.certain == DeliveryProbabilities(
            on_time=1.0, eventually=1.0
        )


class TestAgainstMonteCarlo:
    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_matches_sampling(self, seed):
        """Exact enumeration must agree with brute-force sampling."""
        stream = DeterministicStream(seed, "mc")
        graph = DisseminationGraph(
            "S",
            "T",
            frozenset(
                {("S", "A"), ("A", "T"), ("S", "B"), ("B", "T"), ("A", "B"), ("B", "A")}
            ),
        )
        loss_map = {
            ("S", "A"): stream.uniform("l1") * 0.9,
            ("A", "T"): stream.uniform("l2") * 0.9,
            ("S", "B"): stream.uniform("l3") * 0.9,
        }
        exact = delivery_probabilities(
            graph, 10.0, constant(1.0), losses(loss_map)
        ).on_time
        trials = 4000
        hits = 0
        for trial in range(trials):
            surviving = {
                edge
                for edge in graph.edges
                if not stream.bernoulli(loss_map.get(edge, 0.0), "t", trial, edge)
            }
            if graph.restrict(surviving).delivers_within(lambda u, v: 1.0, 10.0):
                hits += 1
        assert hits / trials == pytest.approx(exact, abs=0.035)
