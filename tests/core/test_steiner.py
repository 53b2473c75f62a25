"""Greedy Steiner arborescence on the routing index."""

from __future__ import annotations

import pytest

from tests.core.graphutil import adjacency_of, topology_of


def reachable_from(edges, root):
    adjacency = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append(v)
    seen = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for neighbor in adjacency.get(node, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen


def arborescence(graph, root, terminals, skip="Z", reverse=False):
    """The index's arborescence at base latencies; ``graph`` is a topology
    or a dict adjacency (which gets an isolated ``skip`` node if absent)."""
    if isinstance(graph, dict):
        graph = topology_of({skip: {}, **graph})
    return graph.routing_index.steiner_arborescence(
        root, terminals, skip, reverse=reverse
    )


class TestSteinerArborescence:
    def test_covers_all_terminals(self, reference_topology):
        terminals = {"SJC", "SEA", "LAX"}
        edges = arborescence(reference_topology, "NYC", terminals, skip="LON")
        reached = reachable_from(edges, "NYC")
        assert terminals <= reached

    def test_root_only_terminal_is_empty(self):
        assert arborescence({"R": {"A": 1.0}, "A": {}}, "R", {"R"}) == set()

    def test_no_terminals(self):
        assert arborescence({"R": {"A": 1.0}, "A": {}}, "R", set()) == set()

    def test_unreachable_terminal_skipped(self):
        adjacency = {"R": {"A": 1.0}, "A": {}, "X": {}}
        assert arborescence(adjacency, "R", {"A", "X"}) == {("R", "A")}

    def test_unknown_root(self):
        with pytest.raises(KeyError):
            arborescence({"A": {}}, "Y", {"A"})

    def test_shares_prefix(self):
        """Terminals behind a common relay share the relay edge."""
        adjacency = {
            "R": {"M": 1.0},
            "M": {"A": 1.0, "B": 1.0},
            "A": {},
            "B": {},
        }
        edges = arborescence(adjacency, "R", {"A", "B"})
        assert edges == {("R", "M"), ("M", "A"), ("M", "B")}

    def test_skipped_node_is_avoided(self):
        """The cheap route through the skipped node is never taken."""
        adjacency = {
            "R": {"M": 1.0, "X": 5.0},
            "M": {"A": 1.0},
            "X": {"A": 5.0},
            "A": {},
        }
        assert arborescence(adjacency, "R", {"A"}, skip="X") == {
            ("R", "M"), ("M", "A"),
        }
        assert arborescence(adjacency, "R", {"A"}, skip="M") == {
            ("R", "X"), ("X", "A"),
        }
        # A skipped terminal is unreachable.
        assert arborescence(adjacency, "R", {"M"}, skip="M") == set()

    def test_reverse_leads_into_root(self):
        """Reversed, the edges keep their own direction and every terminal
        reaches the root."""
        adjacency = {
            "A": {"M": 1.0},
            "B": {"M": 1.0},
            "M": {"R": 1.0},
            "R": {},
        }
        edges = arborescence(adjacency, "R", {"A", "B"}, reverse=True)
        assert edges == {("A", "M"), ("B", "M"), ("M", "R")}

    def test_cheaper_than_independent_paths(self, reference_topology):
        """The tree never costs more than separate shortest paths."""
        index = reference_topology.routing_index
        adjacency = adjacency_of(reference_topology)
        terminals = ["DEN", "LAX", "SJC", "SEA"]
        edges = arborescence(reference_topology, "ATL", terminals, skip="LON")
        tree_cost = sum(adjacency[u][v] for u, v in edges)
        distances = index.distances(index.latencies, "ATL")
        independent = sum(distances[index.rank[terminal]] for terminal in terminals)
        assert tree_cost <= independent + 1e-9

    def test_deterministic(self, reference_topology):
        runs = {
            frozenset(
                arborescence(reference_topology, "WAS", {"SJC", "SEA"}, skip="LON")
            )
            for _ in range(5)
        }
        assert len(runs) == 1
