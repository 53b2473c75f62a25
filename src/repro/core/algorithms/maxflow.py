"""Edmonds-Karp maximum flow for disjoint-path counting: a test oracle.

Answers "how many node-disjoint (edge-disjoint) paths exist between
these endpoints?" on a dict adjacency.  No builder or policy calls it;
the tests use it to cross-check the min-cost-flow disjoint-path search
(by Menger's theorem the counts must agree) and the topology generators'
biconnectivity.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

from repro.core.algorithms.adjacency import Adjacency, split_nodes

__all__ = ["max_flow_unit_capacities", "max_disjoint_path_count"]

Node = Hashable


def max_flow_unit_capacities(adjacency: Adjacency, source: Node, sink: Node) -> int:
    """Maximum flow with every edge at capacity 1 (Edmonds-Karp / BFS)."""
    if source not in adjacency or sink not in adjacency:
        raise KeyError("source or sink not in adjacency")
    if source == sink:
        raise ValueError("source and sink must differ")
    # Residual capacities; original edges get 1, reverse residuals start 0.
    residual: dict[Node, dict[Node, int]] = {node: {} for node in adjacency}
    for node, neighbors in adjacency.items():
        for neighbor in neighbors:
            residual[node][neighbor] = residual[node].get(neighbor, 0) + 1
            residual.setdefault(neighbor, {}).setdefault(node, 0)
    flow = 0
    while True:
        # BFS for a shortest augmenting path.
        parent: dict[Node, Node] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            node = queue.popleft()
            for neighbor, capacity in residual[node].items():
                if capacity > 0 and neighbor not in parent:
                    parent[neighbor] = node
                    queue.append(neighbor)
        if sink not in parent:
            return flow
        # Augment by 1 (unit capacities).
        node = sink
        while node != source:
            previous = parent[node]
            residual[previous][node] -= 1
            residual[node][previous] = residual[node].get(previous, 0) + 1
            node = previous
        flow += 1


def max_disjoint_path_count(
    adjacency: Adjacency, source: Node, sink: Node, node_disjoint: bool = True
) -> int:
    """Number of pairwise disjoint paths from ``source`` to ``sink``."""
    if node_disjoint:
        work = split_nodes(adjacency, keep_whole=(source, sink))
        return max_flow_unit_capacities(work, (source, "both"), (sink, "both"))
    return max_flow_unit_capacities(adjacency, source, sink)
