"""Minimum-total-weight disjoint path sets (Suurballe/Bhandari family).

``disjoint_paths`` returns up to ``k`` pairwise disjoint paths whose *total*
weight is minimal among all sets of ``k`` disjoint paths -- the classic
pitfall this solves is that greedily removing the single shortest path can
destroy the only disjoint pair.  The implementation reduces to unit-capacity
min-cost flow (:mod:`repro.core.algorithms.mincostflow`), with node
splitting for node-disjointness; this is exactly the flow formulation of
Suurballe's algorithm and handles antiparallel overlay links correctly.

The paper's two-disjoint-paths schemes use node-disjoint paths: problems
cluster at *nodes* (a site's connectivity degrades as a whole), so sharing
an intermediate node would share its fate.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

from repro.core.algorithms.adjacency import Adjacency, split_nodes, unsplit_path
from repro.core.algorithms.mincostflow import MinCostFlow

__all__ = ["disjoint_paths", "flow_network", "solve_disjoint", "strip_cycles"]

Node = Hashable


def strip_cycles(path: list[Node]) -> list[Node]:
    """Remove loops from a walk, keeping the first visit to each node."""
    position: dict[Node, int] = {}
    result: list[Node] = []
    for node in path:
        if node in position:
            del result[position[node] + 1 :]
            for stale in list(position):
                if position[stale] > position[node]:
                    del position[stale]
        else:
            position[node] = len(result)
            result.append(node)
    return result


def disjoint_paths(
    adjacency: Adjacency,
    source: Node,
    target: Node,
    k: int = 2,
    node_disjoint: bool = True,
) -> list[list[Node]]:
    """Return up to ``k`` pairwise disjoint paths of minimum total weight.

    If fewer than ``k`` disjoint paths exist, returns the maximum number
    that do (possibly just one, or an empty list when the target is
    unreachable).  Paths are returned sorted by their own weight,
    shortest first.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if source not in adjacency:
        raise KeyError(f"unknown source node {source!r}")
    if target not in adjacency:
        raise KeyError(f"unknown target node {target!r}")
    if source == target:
        raise ValueError("source and target must differ")

    if node_disjoint:
        work = split_nodes(adjacency, keep_whole=(source, target))
        flow_source: Node = (source, "both")
        flow_target: Node = (target, "both")
    else:
        work = adjacency
        flow_source = source
        flow_target = target

    def weight_of(path: Sequence[Node]) -> float:
        return sum(adjacency[u][v] for u, v in zip(path, path[1:]))

    return solve_disjoint(
        flow_network(work), flow_source, flow_target, k, node_disjoint, weight_of
    )


def flow_network(work: Adjacency) -> MinCostFlow:
    """A unit-capacity arc per edge of ``work``, in its iteration order."""
    solver = MinCostFlow()
    for node in work:
        solver.add_node(node)
    for node, neighbors in work.items():
        for neighbor, weight in neighbors.items():
            solver.add_arc(node, neighbor, 1, weight)
    return solver


def solve_disjoint(
    solver: MinCostFlow,
    flow_source: Node,
    flow_target: Node,
    k: int,
    node_disjoint: bool,
    weight_of: Callable[[Sequence[Node]], float],
) -> list[list[Node]]:
    """Send ``k`` units through a built network and read back the paths.

    Shared by :func:`disjoint_paths` and the routing index's reusable
    per-flow network.  With ``node_disjoint`` the network's nodes are
    ``(node, role)`` split pairs, collapsed back to node ids here.  Paths
    are sorted by ``weight_of``, ties by the ``repr`` of their nodes.
    """
    sent, _cost = solver.send(flow_source, flow_target, k)
    if sent == 0:
        return []
    paths: list[list[Node]] = []
    for raw in solver.decompose_paths(flow_source, flow_target):
        paths.append(strip_cycles(unsplit_path(raw) if node_disjoint else raw))
    paths.sort(key=lambda path: (weight_of(path), [repr(node) for node in path]))
    return paths
