"""Reading minimum-total-weight disjoint paths out of a solved flow network.

:class:`~repro.core.algorithms.routing_index.SplitNetwork` builds one
node-split unit-capacity network per flow
(:mod:`repro.core.algorithms.mincostflow`); sending ``k`` units through it
and decomposing the flow yields the ``k`` node-disjoint paths of minimum
total weight.  The paper's two-disjoint-paths schemes use node-disjoint
paths: problems cluster at *nodes* (a site's connectivity degrades as a
whole), so sharing an intermediate node would share its fate.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

from repro.core.algorithms.adjacency import unsplit_path
from repro.core.algorithms.mincostflow import MinCostFlow

__all__ = ["solve_disjoint", "strip_cycles"]

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


def solve_disjoint(
    solver: MinCostFlow,
    flow_source: Node,
    flow_target: Node,
    k: int,
    weight_of: Callable[[Sequence[Node]], float],
) -> list[list[Node]]:
    """Send ``k`` units through a built node-split network; read the paths.

    The network's nodes are ``(node, role)`` split pairs, collapsed back
    to node ids here.  Returns as many paths as units could be sent,
    sorted by ``weight_of``, ties by the ``repr`` of their nodes.
    """
    sent, _cost = solver.send(flow_source, flow_target, k)
    if sent == 0:
        return []
    paths = [
        strip_cycles(unsplit_path(raw))
        for raw in solver.decompose_paths(flow_source, flow_target)
    ]
    paths.sort(key=lambda path: (weight_of(path), [repr(node) for node in path]))
    return paths
