"""Node splitting and collapsing split paths back to node ids."""

from __future__ import annotations

from repro.core.algorithms.adjacency import split_nodes, unsplit_path


class TestNodeSplitting:
    def test_structure(self):
        adjacency = {"S": {"M": 1.0}, "M": {"T": 2.0}, "T": {}}
        split = split_nodes(adjacency, keep_whole=("S", "T"))
        assert split[("S", "both")] == {("M", "in"): 1.0}
        assert split[("M", "in")] == {("M", "out"): 0.0}
        assert split[("M", "out")] == {("T", "both"): 2.0}

    def test_unsplit_path(self):
        path = [("S", "both"), ("M", "in"), ("M", "out"), ("T", "both")]
        assert unsplit_path(path) == ["S", "M", "T"]

    def test_whole_nodes_not_split(self):
        adjacency = {"S": {"T": 1.0}, "T": {}}
        split = split_nodes(adjacency, keep_whole=("S", "T"))
        assert ("S", "in") not in split
        assert ("T", "out") not in split
