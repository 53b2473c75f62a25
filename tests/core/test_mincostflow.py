"""Min-cost-flow solver internals."""

from __future__ import annotations

import pytest

from repro.core.algorithms.mincostflow import MinCostFlow


def build_diamond() -> MinCostFlow:
    solver = MinCostFlow()
    for node in "SABT":
        solver.add_node(node)
    solver.add_arc("S", "A", 1, 1.0)
    solver.add_arc("A", "T", 1, 1.0)
    solver.add_arc("S", "B", 1, 3.0)
    solver.add_arc("B", "T", 1, 3.0)
    return solver


class TestSend:
    def test_one_unit_takes_cheapest(self):
        solver = build_diamond()
        sent, cost = solver.send("S", "T", 1)
        assert sent == 1
        assert cost == pytest.approx(2.0)

    def test_two_units_use_both(self):
        solver = build_diamond()
        sent, cost = solver.send("S", "T", 2)
        assert sent == 2
        assert cost == pytest.approx(8.0)

    def test_capped_by_max_flow(self):
        solver = build_diamond()
        sent, _cost = solver.send("S", "T", 5)
        assert sent == 2

    def test_incremental_sends_accumulate(self):
        solver = build_diamond()
        solver.send("S", "T", 1)
        sent, cost = solver.send("S", "T", 1)
        assert sent == 1
        assert cost == pytest.approx(6.0)  # only the expensive path remains

    def test_continued_sends_stay_min_cost(self):
        """A second ``send`` keeps the first one's potentials.

        Restarting them at zero clamps the negative costs of the residual
        twins, and the second unit then cost 16 instead of 14.
        """
        arcs = [
            (0, 1, 7), (0, 2, 4), (1, 0, 5), (1, 3, 8), (1, 4, 4), (2, 1, 2),
            (2, 3, 8), (3, 0, 1), (3, 4, 1), (4, 0, 0), (4, 1, 9), (4, 2, 0),
        ]

        def build() -> MinCostFlow:
            solver = MinCostFlow()
            for tail, head, cost in arcs:
                solver.add_arc(tail, head, 1, float(cost))
            return solver

        whole = build()
        assert whole.send(0, 4, 2) == (2, 24.0)
        split = build()
        assert split.send(0, 4, 1) == (1, 10.0)
        assert split.send(0, 4, 1) == (1, 14.0)
        assert split.flow_arcs() == whole.flow_arcs()
        assert split.send(0, 4, 1) == (0, 0.0)
        fork = split.fork([float(cost) for _tail, _head, cost in arcs])
        assert fork.send(0, 4, 2) == (2, 24.0)
        assert fork.flow_arcs() == whole.flow_arcs()

    def test_zero_units(self):
        solver = build_diamond()
        assert solver.send("S", "T", 0) == (0, 0.0)

    def test_negative_units_rejected(self):
        with pytest.raises(ValueError):
            build_diamond().send("S", "T", -1)

    def test_unknown_nodes(self):
        with pytest.raises(KeyError):
            build_diamond().send("S", "Z", 1)

    def test_negative_cost_arc_rejected(self):
        solver = MinCostFlow()
        with pytest.raises(ValueError):
            solver.add_arc("A", "B", 1, -1.0)

    def test_negative_capacity_rejected(self):
        solver = MinCostFlow()
        with pytest.raises(ValueError):
            solver.add_arc("A", "B", -1, 1.0)

    def test_zero_capacity_arc_is_never_used(self):
        solver = build_diamond()
        solver.add_arc("S", "T", 0, 0.0)  # free, but closed
        assert solver.send("S", "T", 3) == (2, 8.0)
        assert ("S", "T") not in solver.flow_arcs()

    def test_residual_rerouting(self):
        """The solver must undo a greedy choice via residual arcs."""
        solver = MinCostFlow()
        for node in ("S", "M", "A", "B", "T"):
            solver.add_node(node)
        # Cheapest single path S-M-T blocks the only disjoint pair.
        solver.add_arc("S", "M", 1, 1.0)
        solver.add_arc("M", "T", 1, 1.0)
        solver.add_arc("S", "A", 1, 10.0)
        solver.add_arc("A", "M", 1, 1.0)
        solver.add_arc("M", "B", 1, 1.0)
        solver.add_arc("B", "T", 1, 10.0)
        sent, _ = solver.send("S", "T", 2)
        assert sent == 2


class TestDecomposition:
    def test_paths_match_flow(self):
        solver = build_diamond()
        solver.send("S", "T", 2)
        paths = sorted(solver.decompose_paths("S", "T"))
        assert paths == [["S", "A", "T"], ["S", "B", "T"]]

    def test_flow_arcs(self):
        solver = build_diamond()
        solver.send("S", "T", 1)
        assert set(solver.flow_arcs()) == {("S", "A"), ("A", "T")}

    def test_no_flow_no_paths(self):
        solver = build_diamond()
        assert solver.decompose_paths("S", "T") == []
