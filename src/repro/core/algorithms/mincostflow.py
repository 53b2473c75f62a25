"""Minimum-cost flow via successive shortest paths with potentials.

Unit-capacity min-cost flow is the general formulation behind
Suurballe's / Bhandari's disjoint-path algorithms: sending ``k`` units from
source to sink over arcs of capacity 1 yields the minimum-total-weight set
of ``k`` edge-disjoint paths, and node splitting extends this to
node-disjointness.  Implementing the flow once keeps the disjoint-path
logic small and correct in the presence of antiparallel overlay links.

Costs must be non-negative; Johnson potentials keep reduced costs
non-negative so every augmentation is a plain Dijkstra.  The potentials
live on the solver, so a second :meth:`MinCostFlow.send` continues the
same min-cost flow.

Two things keep each Dijkstra small without changing what it finds.  A
residual twin has capacity only once its forward arc carried flow, so a
node relaxes its whole incident list only if it heads such an arc and
otherwise just its forward arcs -- the live arcs, in the same order
either way.  And the last augmentation of a call stops once the sink is
settled: nothing popped later can change the sink's distance or the
predecessors of the path to it.

Nodes are interned to dense ids and arcs live in parallel lists (arc
``i`` and its residual twin ``i ^ 1``), so a network built once can be
re-solved under new costs and capacities with :meth:`MinCostFlow.reset`
-- how the routing index reuses one node-split network per flow.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterator, Sequence

__all__ = ["MinCostFlow"]

Node = Hashable
_INF = float("inf")


class MinCostFlow:
    """A small successive-shortest-paths min-cost-flow solver.

    Arcs are added with :meth:`add_arc`; each call also creates the
    zero-capacity reverse arc used for residual updates.  Parallel arcs are
    supported (each ``add_arc`` is independent), which is what makes
    antiparallel overlay links safe.
    """

    def __init__(self) -> None:
        self._ids: dict[Node, int] = {}
        self._nodes: list[Node] = []
        self._keys: list[str] = []  # repr(node): decomposition's successor order
        self._incident: list[list[int]] = []
        self._forward: list[list[int]] = []  # the incident list's forward arcs
        self._head: list[int] = []
        self._capacity: list[int] = []
        self._cost: list[float] = []
        self._residual: list[int] = []
        self._clear_flow_state()

    def _clear_flow_state(self) -> None:
        """Forget the potentials and live twins of any flow sent so far."""
        self._potentials = [0.0] * len(self._nodes)
        # (distances, sink distance) of a call's last, early-stopped
        # Dijkstra, folded into the potentials if ``send`` is called again.
        self._unsettled: tuple[list[float], float] | None = None
        # The arcs each node relaxes: its forward arcs, or its whole
        # incident list once it heads an arc that carried flow (only then
        # can a residual twin leaving it have capacity).
        self._relax = self._forward.copy()

    def add_node(self, node: Node) -> int:
        """Register a node (safe to call repeatedly); returns its id."""
        index = self._ids.get(node)
        if index is None:
            index = self._ids[node] = len(self._nodes)
            self._nodes.append(node)
            self._keys.append(repr(node))
            self._incident.append([])
            self._forward.append([])
            self._relax.append(self._forward[-1])
            self._potentials.append(0.0)
        return index

    def add_arc(self, source: Node, target: Node, capacity: int, cost: float) -> int:
        """Add a forward arc and its residual twin; returns the arc index."""
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost}")
        tail = self.add_node(source)
        head = self.add_node(target)
        index = len(self._head)
        self._head += (head, tail)
        self._capacity += (capacity, 0)
        self._cost += (cost, -cost)
        self._residual += (capacity, 0)
        self._incident[tail].append(index)
        self._forward[tail].append(index)
        self._incident[head].append(index + 1)
        return index

    def reset(self, costs: Sequence[float], capacities: Sequence[int]) -> None:
        """Reuse every arc with new costs and capacities and no flow.

        ``costs`` / ``capacities`` give one value per forward arc, in
        :meth:`add_arc` order; a capacity of 0 takes the arc out of the
        network without disturbing the order of the others.
        """
        if min(costs, default=0.0) < 0:
            raise ValueError("costs must be >= 0")
        if min(capacities, default=0) < 0:
            raise ValueError("capacities must be >= 0")
        self._cost[0::2] = costs
        self._cost[1::2] = [-cost for cost in costs]
        self._capacity[0::2] = capacities
        residual = [0] * len(self._head)
        residual[0::2] = capacities
        self._residual = residual
        self._clear_flow_state()

    # -- solving -------------------------------------------------------------

    def send(self, source: Node, sink: Node, max_units: int) -> tuple[int, float]:
        """Send up to ``max_units`` of flow; returns ``(units_sent, cost)``.

        Stops early when the sink becomes unreachable (max flow reached).
        Calling ``send`` again continues from the current flow state: the
        potentials carry over, so the flow stays min-cost.  Arcs should
        all be added before the first ``send`` (or the next ``reset``).
        """
        if source not in self._ids or sink not in self._ids:
            raise KeyError("source or sink not present in the flow network")
        if max_units < 0:
            raise ValueError(f"max_units must be >= 0, got {max_units}")
        start, end = self._ids[source], self._ids[sink]
        head, cost, residual = self._head, self._cost, self._residual
        incident, relax = self._incident, self._relax
        potentials = self._potentials
        if self._unsettled is not None:
            # The last Dijkstra stopped at the sink, at distance ``reach``;
            # nodes it had not settled are at least that far, and capping
            # every distance at ``reach`` keeps all reduced costs >= 0.
            distances, reach = self._unsettled
            self._unsettled = None
            for node, distance in enumerate(distances):
                potentials[node] += distance if distance < reach else reach
        sent = 0
        total_cost = 0.0
        while sent < max_units:
            last = sent + 1 == max_units
            distances, predecessor_arc = self._dijkstra(
                start, potentials, end if last else -1
            )
            if distances[end] == _INF:
                break
            if last:
                self._unsettled = (distances, distances[end])
            else:
                self._potentials = potentials = [
                    potential + distance if distance != _INF else potential
                    for potential, distance in zip(potentials, distances)
                ]
            # Unit capacities: each augmentation pushes exactly one unit.
            path_cost = 0.0
            node = end
            while node != start:
                arc = predecessor_arc[node]
                residual[arc] -= 1
                residual[arc ^ 1] += 1
                path_cost += cost[arc]
                relax[node] = incident[node]  # the twin ``arc ^ 1`` leaves it
                node = head[arc ^ 1]
            total_cost += path_cost
            sent += 1
        return sent, total_cost

    def _dijkstra(
        self, source: int, potentials: list[float], stop: int
    ) -> tuple[list[float], list[int]]:
        """Distances and predecessor arcs, settled up to ``stop`` (-1: all)."""
        relax, head = self._relax, self._head
        cost, residual = self._cost, self._residual
        distances = [_INF] * len(self._nodes)
        distances[source] = 0.0
        predecessor_arc = [-1] * len(self._nodes)
        heap: list[tuple[float, int, int]] = [(0.0, 0, source)]
        pop, push = heapq.heappop, heapq.heappush
        counter = 1
        while heap:
            distance, _tie, node = pop(heap)
            if distance > distances[node]:
                continue
            if node == stop:
                break
            potential = potentials[node]
            for arc in relax[node]:
                if residual[arc] <= 0:
                    continue
                target = head[arc]
                reduced = cost[arc] + potential - potentials[target]
                # Reduced costs are >= 0 up to float error; clamp the noise.
                if reduced < 0:
                    reduced = 0.0
                candidate = distance + reduced
                if candidate < distances[target] - 1e-15:
                    distances[target] = candidate
                    predecessor_arc[target] = arc
                    push(heap, (candidate, counter, target))
                    counter += 1
        return distances, predecessor_arc

    # -- results ---------------------------------------------------------------

    def _flows(self) -> Iterator[tuple[int, int, int]]:
        """``(tail, head, units)`` per forward arc carrying flow, in order."""
        head, capacity, residual = self._head, self._capacity, self._residual
        for arc in range(0, len(head), 2):
            units = capacity[arc] - residual[arc]
            if units > 0:
                yield head[arc + 1], head[arc], units

    def flow_arcs(self) -> list[tuple[Node, Node]]:
        """Original arcs carrying positive flow, in insertion order."""
        nodes = self._nodes
        return [(nodes[tail], nodes[head]) for tail, head, _units in self._flows()]

    def decompose_paths(self, source: Node, sink: Node) -> list[list[Node]]:
        """Decompose the current integral flow into source->sink paths.

        With unit capacities each path carries one unit.  Leftover zero-cost
        cycles (possible only when some arcs cost 0) are ignored.
        """
        remaining: dict[int, list[int]] = {}
        for tail, head, units in self._flows():
            remaining.setdefault(tail, []).extend([head] * units)
        for successors in remaining.values():
            successors.sort(key=self._keys.__getitem__)
        start, end = self._ids.get(source), self._ids.get(sink)
        paths: list[list[Node]] = []
        while remaining.get(start):
            path = [start]
            node = start
            while node != end:
                successors = remaining.get(node)
                if not successors:
                    raise RuntimeError(
                        f"flow decomposition stuck at {self._nodes[node]!r}; "
                        "flow conservation violated"
                    )
                node = successors.pop(0)
                path.append(node)
            paths.append([self._nodes[node] for node in path])
        return paths
