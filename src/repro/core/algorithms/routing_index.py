"""Integer-indexed routing graph of a frozen topology.

Dynamic path selection and targeted re-routing search one unchanging
topology at every condition change of a replay, each time under a
different observed view.  :class:`RoutingIndex` fixes the structure once
-- node ranks in sorted-name order, links in sorted-edge order, base
latencies, out/in link lists -- so a view is a weight list indexed by
link id (the base latencies plus the few observed overrides) and an
exclusion is a set of link ids the search skips; nothing is copied.

The searches perform the float operations and tie-breaks of the
dict-based primitives run on an adjacency built from the topology
(:func:`~repro.core.algorithms.adjacency.adjacency_from_topology` order:
sorted nodes, sorted targets), so the same view yields the same route:

* :meth:`RoutingIndex.shortest_path` relaxes neighbours in ``repr``
  order and breaks heap ties by push order, like
  :func:`~repro.core.algorithms.paths.shortest_path`;
* :meth:`RoutingIndex.distances` relaxes in sorted-edge order, like
  :func:`~repro.core.algorithms.paths.single_source_distances`;
* :class:`SplitNetwork` builds its network with the node splitting and
  arc order of :func:`~repro.core.algorithms.disjoint.disjoint_paths`
  (:func:`~repro.core.algorithms.adjacency.split_nodes`,
  :func:`~repro.core.algorithms.disjoint.flow_network`), and gives an
  excluded link capacity 0 instead of dropping it, so the surviving arcs
  keep their relative order.

Weights must be non-negative; callers build them from validated base
latencies and observed states, so the searches do not re-check.
"""

from __future__ import annotations

import heapq
from typing import AbstractSet, Iterable, Sequence

from repro.core.algorithms.adjacency import split_nodes
from repro.core.algorithms.disjoint import flow_network, solve_disjoint

__all__ = ["RoutingIndex", "SplitNetwork"]

_INF = float("inf")


class RoutingIndex:
    """Node ranks, link ids, base latencies and link lists of one topology.

    Immutable once built, so one index is shared by every policy and
    thread routing on the topology
    (:attr:`~repro.core.graph.Topology.routing_index`).
    """

    def __init__(self, topology) -> None:
        names = topology.nodes
        edges = topology.edges
        self.names: tuple[str, ...] = names
        self.rank = {name: rank for rank, name in enumerate(names)}
        self.edges = edges
        self.link_id = {edge: link for link, edge in enumerate(edges)}
        self.latencies = tuple(topology.latency(*edge) for edge in edges)
        #: ``(link, neighbour rank)`` per node, in sorted-edge order.
        self.out_links: list[list[tuple[int, int]]] = [[] for _ in names]
        self.in_links: list[list[tuple[int, int]]] = [[] for _ in names]
        for link, (tail, head) in enumerate(edges):
            self.out_links[self.rank[tail]].append((link, self.rank[head]))
            self.in_links[self.rank[head]].append((link, self.rank[tail]))
        self._out_by_repr = [
            sorted(links, key=lambda item: repr(names[item[1]]))
            for links in self.out_links
        ]

    def link_ids(self, edges: Iterable[tuple[str, str]]) -> set[int]:
        """The ids of ``edges`` (edges not in the topology are skipped)."""
        link_id = self.link_id
        return {link_id[edge] for edge in edges if edge in link_id}

    def shortest_path(
        self,
        weights: Sequence[float],
        source: str,
        target: str,
        excluded: AbstractSet[int] = frozenset(),
    ) -> list[str] | None:
        """Lowest-weight path avoiding ``excluded`` links, or ``None``."""
        start, goal = self.rank[source], self.rank[target]
        distances = [_INF] * len(self.names)
        distances[start] = 0.0
        predecessor = [-1] * len(self.names)
        heap: list[tuple[float, int, int]] = [(0.0, 0, start)]
        counter = 1
        while heap:
            distance, _tie, node = heapq.heappop(heap)
            if node == goal:
                break
            if distance > distances[node]:
                continue
            for link, neighbor in self._out_by_repr[node]:
                if link in excluded:
                    continue
                candidate = distance + weights[link]
                if candidate < distances[neighbor]:
                    distances[neighbor] = candidate
                    predecessor[neighbor] = node
                    heapq.heappush(heap, (candidate, counter, neighbor))
                    counter += 1
        if distances[goal] == _INF:
            return None
        path = [goal]
        while path[-1] != start:
            path.append(predecessor[path[-1]])
        return [self.names[node] for node in reversed(path)]

    def distances(
        self, weights: Sequence[float], origin: str, reverse: bool = False
    ) -> list[float]:
        """Dijkstra distances from ``origin`` by rank (to it with ``reverse``).

        Unreachable nodes read ``inf``.
        """
        links = self.in_links if reverse else self.out_links
        start = self.rank[origin]
        distances = [_INF] * len(self.names)
        distances[start] = 0.0
        heap: list[tuple[float, int, int]] = [(0.0, 0, start)]
        counter = 1
        while heap:
            distance, _tie, node = heapq.heappop(heap)
            if distance > distances[node]:
                continue
            for link, neighbor in links[node]:
                candidate = distance + weights[link]
                if candidate < distances[neighbor]:
                    distances[neighbor] = candidate
                    heapq.heappush(heap, (candidate, counter, neighbor))
                    counter += 1
        return distances


class SplitNetwork:
    """One flow's node-split min-cost-flow network, re-solved per view.

    Built once per flow; each :meth:`disjoint_paths` call only sets the
    arc costs, gives excluded links capacity 0 and zeroes the flow.  The
    solver state is mutable, so a network belongs to one caller.
    """

    def __init__(self, index: RoutingIndex, source: str, target: str) -> None:
        self._index = index
        self._source = (source, "both")
        self._target = (target, "both")
        adjacency = {
            name: {index.names[head]: index.latencies[link] for link, head in links}
            for name, links in zip(index.names, index.out_links)
        }
        split = split_nodes(adjacency, keep_whole=(source, target))
        self._solver = flow_network(split)
        # Link id per forward arc, in flow_network's order; -1 marks a
        # node's internal in->out arc.
        self._arc_links = [
            index.link_id.get((tail, head), -1)
            for (tail, _role), heads in split.items()
            for head, _head_role in heads
        ]

    def disjoint_paths(
        self,
        weights: Sequence[float],
        k: int = 2,
        excluded: AbstractSet[int] = frozenset(),
    ) -> list[list[str]]:
        """Up to ``k`` node-disjoint paths of minimum total weight.

        The result equals :func:`~repro.core.algorithms.disjoint_paths`
        on the topology's adjacency under ``weights`` minus ``excluded``.
        """
        arc_links = self._arc_links
        self._solver.reset(
            [weights[link] if link >= 0 else 0.0 for link in arc_links],
            [0 if link in excluded else 1 for link in arc_links],
        )
        link_id = self._index.link_id

        def weight_of(path: Sequence[str]) -> float:
            return sum(weights[link_id[edge]] for edge in zip(path, path[1:]))

        return solve_disjoint(
            self._solver, self._source, self._target, k, True, weight_of
        )
