"""Dissemination graphs: the unified routing abstraction."""

from __future__ import annotations

import pytest

from repro.core.dgraph import DisseminationGraph
from repro.util.validation import ValidationError


def latency_one(u: str, v: str) -> float:
    return 1.0


class TestConstruction:
    def test_from_path(self):
        graph = DisseminationGraph.from_path(["S", "A", "T"])
        assert graph.source == "S"
        assert graph.destination == "T"
        assert graph.edges == frozenset({("S", "A"), ("A", "T")})

    def test_from_path_too_short(self):
        with pytest.raises(ValidationError):
            DisseminationGraph.from_path(["S"])

    def test_from_path_with_loop_rejected(self):
        with pytest.raises(ValidationError):
            DisseminationGraph.from_path(["S", "A", "S", "T"])

    def test_from_paths_union(self):
        graph = DisseminationGraph.from_paths([["S", "A", "T"], ["S", "B", "T"]])
        assert graph.num_edges == 4

    def test_from_paths_shared_edges_counted_once(self):
        graph = DisseminationGraph.from_paths([["S", "A", "T"], ["S", "A", "T"]])
        assert graph.num_edges == 2

    def test_from_paths_mismatched_endpoints(self):
        with pytest.raises(ValidationError):
            DisseminationGraph.from_paths([["S", "T"], ["S", "X"]])

    def test_empty(self):
        graph = DisseminationGraph.empty("S", "T")
        assert graph.num_edges == 0
        assert not graph.connects()

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            DisseminationGraph("S", "S", frozenset())

    def test_self_loop_edge_rejected(self):
        with pytest.raises(ValidationError):
            DisseminationGraph("S", "T", frozenset({("A", "A")}))


class TestValueSemantics:
    def test_equality_ignores_name(self):
        a = DisseminationGraph.from_path(["S", "T"], name="one")
        b = DisseminationGraph.from_path(["S", "T"], name="two")
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_edges(self):
        a = DisseminationGraph.from_path(["S", "T"])
        b = DisseminationGraph.from_path(["S", "A", "T"])
        assert a != b

    def test_usable_as_dict_key(self):
        graph = DisseminationGraph.from_path(["S", "T"])
        assert {graph: 1}[DisseminationGraph.from_path(["S", "T"])] == 1


class TestTopologyQueries:
    def test_cost_equals_edges(self):
        graph = DisseminationGraph.from_paths([["S", "A", "T"], ["S", "B", "T"]])
        assert graph.num_edges == len(graph.edges) == 4

    def test_nodes_includes_endpoints(self):
        graph = DisseminationGraph.empty("S", "T")
        assert graph.nodes == frozenset({"S", "T"})

    def test_out_neighbors_sorted(self):
        graph = DisseminationGraph(
            "S", "T", frozenset({("S", "B"), ("S", "A"), ("A", "T"), ("B", "T")})
        )
        assert graph.out_neighbors("S") == ("A", "B")

    def test_in_neighbors(self):
        graph = DisseminationGraph.from_paths([["S", "A", "T"], ["S", "B", "T"]])
        assert graph.in_neighbors("T") == ("A", "B")

    def test_reachable_from_source(self):
        graph = DisseminationGraph(
            "S", "T", frozenset({("S", "A"), ("B", "T")})
        )
        assert graph.reachable_from_source() == frozenset({"S", "A"})
        assert not graph.connects()


class TestArrivalTimes:
    def test_single_path(self):
        graph = DisseminationGraph.from_path(["S", "A", "T"])
        times = graph.arrival_times(latency_one)
        assert times == {"S": 0.0, "A": 1.0, "T": 2.0}

    def test_earliest_copy_wins(self):
        def latency(u, v):
            return {"SA": 1.0, "AT": 1.0, "SB": 5.0, "BT": 5.0}[u + v]

        graph = DisseminationGraph.from_paths([["S", "A", "T"], ["S", "B", "T"]])
        assert graph.delivery_latency(latency) == 2.0

    def test_unreachable_destination(self):
        graph = DisseminationGraph("S", "T", frozenset({("S", "A")}))
        assert graph.delivery_latency(latency_one) is None

    def test_delivers_within(self):
        graph = DisseminationGraph.from_path(["S", "A", "T"])
        assert graph.delivers_within(latency_one, 2.0)
        assert not graph.delivers_within(latency_one, 1.9)


class TestAlgebra:
    def test_union(self):
        a = DisseminationGraph.from_path(["S", "A", "T"])
        b = DisseminationGraph.from_path(["S", "B", "T"])
        union = a.union(b)
        assert union.num_edges == 4

    def test_union_mismatched_flow_rejected(self):
        a = DisseminationGraph.from_path(["S", "T"])
        b = DisseminationGraph.from_path(["S", "X"])
        with pytest.raises(ValidationError):
            a.union(b)

    def test_restrict(self):
        graph = DisseminationGraph.from_paths([["S", "A", "T"], ["S", "B", "T"]])
        surviving = graph.restrict({("S", "A"), ("A", "T")})
        assert surviving.edges == frozenset({("S", "A"), ("A", "T")})


class TestPruning:
    def test_removes_dead_branch(self):
        # S->A->T plus a dangling S->X edge that cannot reach T.
        graph = DisseminationGraph(
            "S", "T", frozenset({("S", "A"), ("A", "T"), ("S", "X")})
        )
        pruned = graph.pruned()
        assert pruned.edges == frozenset({("S", "A"), ("A", "T")})

    def test_removes_unreachable_upstream(self):
        graph = DisseminationGraph(
            "S", "T", frozenset({("S", "A"), ("A", "T"), ("Y", "T")})
        )
        assert graph.pruned().edges == frozenset({("S", "A"), ("A", "T")})

    def test_keeps_redundant_paths(self):
        graph = DisseminationGraph.from_paths([["S", "A", "T"], ["S", "B", "T"]])
        assert graph.pruned().edges == graph.edges

    def test_disconnected_prunes_to_empty(self):
        graph = DisseminationGraph("S", "T", frozenset({("S", "A")}))
        assert graph.pruned().num_edges == 0

    def test_pruning_preserves_delivery(self):
        graph = DisseminationGraph(
            "S",
            "T",
            frozenset({("S", "A"), ("A", "T"), ("A", "B"), ("S", "X"), ("B", "T")}),
        )
        assert graph.pruned().delivery_latency(latency_one) == graph.delivery_latency(
            latency_one
        )
