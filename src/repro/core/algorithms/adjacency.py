"""Weighted-adjacency representation and node splitting.

An adjacency is ``dict[node, dict[neighbor, weight]]``.  Nodes are any
hashable value: overlay node ids, or synthetic ``(node, "in")`` /
``(node, "out")`` pairs inside the node-splitting transformation.  Only
the max-flow oracle (:mod:`repro.core.algorithms.maxflow`) and the
Bellman-Ford oracle route on adjacencies; every routing search of the
program runs on the topology's
:class:`~repro.core.algorithms.routing_index.RoutingIndex`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable

__all__ = ["Adjacency", "split_nodes", "unsplit_path"]

Node = Hashable
Adjacency = Dict[Node, Dict[Node, float]]


def split_nodes(adjacency: Adjacency, keep_whole: Iterable[Node]) -> Adjacency:
    """Node-splitting transformation for node-disjointness.

    Every node ``v`` not in ``keep_whole`` becomes ``(v, "in")`` and
    ``(v, "out")`` joined by a zero-weight internal edge; an original edge
    ``u -> v`` becomes ``(u, "out") -> (v, "in")``.  Nodes in ``keep_whole``
    (the flow endpoints) keep a single representation ``(v, "both")`` so
    paths may share them.
    """
    whole = set(keep_whole)

    def tail(node: Node) -> Node:
        return (node, "both") if node in whole else (node, "out")

    def head(node: Node) -> Node:
        return (node, "both") if node in whole else (node, "in")

    split: Adjacency = {}
    for node in adjacency:
        if node in whole:
            split.setdefault((node, "both"), {})
        else:
            split.setdefault((node, "in"), {})[(node, "out")] = 0.0
            split.setdefault((node, "out"), {})
    for node, neighbors in adjacency.items():
        for neighbor, weight in neighbors.items():
            split[tail(node)][head(neighbor)] = weight
    return split


def unsplit_path(path: list) -> list:
    """Collapse a path in the split graph back to original node ids."""
    collapsed = []
    for node, _role in path:
        if not collapsed or collapsed[-1] != node:
            collapsed.append(node)
    return collapsed
