"""The no-path error, and Bellman-Ford as an independent test oracle.

Every routing search runs on the topology's
:class:`~repro.core.algorithms.routing_index.RoutingIndex` with Dijkstra
(the disjoint-path min-cost flow too: Johnson potentials keep its reduced
costs non-negative).  Bellman-Ford, which tolerates negative weights,
shares no code with those searches, so the tests check shortest paths
against it.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.algorithms.adjacency import Adjacency

__all__ = ["NoPathError", "bellman_ford"]

Node = Hashable
_INF = float("inf")


class NoPathError(Exception):
    """Raised when no path exists between the requested endpoints."""

    def __init__(self, source: Node, target: Node) -> None:
        super().__init__(f"no path from {source!r} to {target!r}")
        self.source = source
        self.target = target


def bellman_ford(
    adjacency: Adjacency, source: Node, target: Node
) -> tuple[list[Node], float]:
    """Bellman-Ford shortest path, tolerating negative edge weights.

    Raises :class:`NoPathError` when unreachable and ``ValueError`` on a
    negative cycle reachable from ``source``.
    """
    if source not in adjacency:
        raise KeyError(f"unknown source node {source!r}")
    distances: dict[Node, float] = {source: 0.0}
    predecessor: dict[Node, Node] = {}
    nodes = list(adjacency)
    for _round in range(len(nodes) - 1):
        changed = False
        for node in nodes:
            base = distances.get(node)
            if base is None:
                continue
            for neighbor, weight in adjacency[node].items():
                candidate = base + weight
                if candidate < distances.get(neighbor, _INF) - 1e-12:
                    distances[neighbor] = candidate
                    predecessor[neighbor] = node
                    changed = True
        if not changed:
            break
    else:
        # Ran all |V|-1 rounds with changes: check for a negative cycle.
        for node in nodes:
            base = distances.get(node)
            if base is None:
                continue
            for neighbor, weight in adjacency[node].items():
                if base + weight < distances.get(neighbor, _INF) - 1e-9:
                    raise ValueError("negative cycle reachable from source")
    if target not in distances:
        raise NoPathError(source, target)
    path = [target]
    seen = {target}
    while path[-1] != source:
        previous = predecessor[path[-1]]
        if previous in seen:  # pragma: no cover - guarded by cycle check
            raise ValueError("predecessor cycle while reconstructing path")
        seen.add(previous)
        path.append(previous)
    path.reverse()
    return path, distances[target]
