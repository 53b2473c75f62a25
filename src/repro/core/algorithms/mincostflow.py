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

Nodes are interned to dense ids and arcs live in parallel lists (arc
``i`` and its residual twin ``i ^ 1``).  The node and arc lists are the
network; costs, residual capacities, potentials and relax lists are one
solve's state.  :meth:`MinCostFlow.fork` starts a solve on the same
network with its own state, so one network built once is re-solved under
new costs and exclusions -- concurrently, by several threads -- which is
how the routing index shares one node-split network per flow.

Four things keep each solve small without changing what it finds:

* A residual twin has capacity only once its forward arc carried flow,
  so a node relaxes its whole incident list only if it heads such an
  arc and otherwise just its forward arcs -- the live arcs, in the same
  order either way.
* The first Dijkstra after a fork runs with every potential 0
  and only forward arcs live, so it adds each arc's cost to the distance
  directly (``c + 0.0 - 0.0 == c`` for ``c >= 0``) and skips the
  residual test: a closed arc carries an infinite cost, which never
  passes the relaxation test.
* Each relaxation pass keeps its last push pending and the next pop is
  :func:`heapq.heappushpop` of it.  Heap keys ``(distance, counter,
  node)`` are unique, so push-then-pop and push-pop pop the same key and
  the pop sequence is unchanged.
* The last augmentation of a call stops once the sink is settled:
  nothing popped later can change the sink's distance or the
  predecessors of the path to it.  And the flow is decomposed from the
  arcs the augmentations touched, in arc order, not by scanning every
  arc.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterable, Sequence

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
        # The network, shared by every fork.
        self._ids: dict[Node, int] = {}
        self._nodes: list[Node] = []
        self._keys: list[str] = []  # repr(node): decomposition's successor order
        self._incident: list[list[int]] = []
        self._forward: list[list[int]] = []  # the incident list's forward arcs
        self._head: list[int] = []
        self._capacity: list[int] = []  # as added; twins 0
        # This solve's state.
        self._cost: list[float] = []
        self._residual: list[int] = []
        self._clear_flow_state()

    def _clear_flow_state(self) -> None:
        """Forget the potentials, live twins and touched arcs of any flow."""
        # ``None`` until the first augmentation: every potential is 0.
        self._potentials: list[float] | None = None
        # (distances, sink distance) of a call's last, early-stopped
        # Dijkstra, folded into the potentials if ``send`` is called again.
        self._unsettled: tuple[list[float], float] | None = None
        # The arcs each node relaxes: its forward arcs, or its whole
        # incident list once it heads an arc that carried flow (only then
        # can a residual twin leaving it have capacity).
        self._relax = self._forward.copy()
        # Forward arcs an augmentation pushed flow through or back.
        self._touched: set[int] = set()

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
        self._cost += (cost if capacity else _INF, -cost)
        self._residual += (capacity, 0)
        self._incident[tail].append(index)
        self._forward[tail].append(index)
        self._incident[head].append(index + 1)
        return index

    def fork(
        self, costs: Sequence[float], closed: Iterable[int] = ()
    ) -> "MinCostFlow":
        """A solver on this network with its own costs and no flow.

        ``costs`` gives one value per forward arc, in :meth:`add_arc`
        order, and is not re-checked: callers pass non-negative costs.
        The forward arcs indexed by ``closed`` (as :meth:`add_arc`
        returned them) get capacity 0, the others their added capacity;
        a closed arc keeps its place, so the others keep their order.
        The fork shares the node and arc lists, so add no arcs once
        forked; its costs, residuals, potentials and relax lists are its
        own, so forks of one network may be solved concurrently.  A
        twin's cost is set when its forward arc first carries flow: no
        search reads it before.
        """
        solver = MinCostFlow.__new__(MinCostFlow)
        solver._ids, solver._nodes, solver._keys = self._ids, self._nodes, self._keys
        solver._incident, solver._forward = self._incident, self._forward
        solver._head, solver._capacity = self._head, self._capacity
        cost = [0.0] * len(self._head)
        cost[0::2] = costs
        residual = self._capacity.copy()
        for arc in closed:
            cost[arc] = _INF
            residual[arc] = 0
        solver._cost, solver._residual = cost, residual
        solver._clear_flow_state()
        return solver

    # -- solving -------------------------------------------------------------

    def send(self, source: Node, sink: Node, max_units: int) -> tuple[int, float]:
        """Send up to ``max_units`` of flow; returns ``(units_sent, cost)``.

        Stops early when the sink becomes unreachable (max flow reached).
        Calling ``send`` again continues from the current flow state: the
        potentials carry over, so the flow stays min-cost.  Arcs should
        all be added before the first ``send``.
        """
        if source not in self._ids or sink not in self._ids:
            raise KeyError("source or sink not present in the flow network")
        if max_units < 0:
            raise ValueError(f"max_units must be >= 0, got {max_units}")
        start, end = self._ids[source], self._ids[sink]
        head, cost, residual = self._head, self._cost, self._residual
        incident, relax, touched = self._incident, self._relax, self._touched
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
            stop = end if last else -1
            if potentials is None:
                distances, predecessor_arc = self._first_dijkstra(start, stop)
            else:
                distances, predecessor_arc = self._dijkstra(start, potentials, stop)
            if distances[end] == _INF:
                break
            if last:
                if potentials is None:
                    potentials = [0.0] * len(distances)
                self._unsettled = (distances, distances[end])
            elif potentials is None:
                # 0.0 + distance == distance: the first round's distances
                # are the potentials.
                potentials = [
                    distance if distance != _INF else 0.0 for distance in distances
                ]
            else:
                potentials = [
                    potential + distance if distance != _INF else potential
                    for potential, distance in zip(potentials, distances)
                ]
            self._potentials = potentials
            # Unit capacities: each augmentation pushes exactly one unit.
            path_cost = 0.0
            node = end
            while node != start:
                arc = predecessor_arc[node]
                residual[arc] -= 1
                residual[arc ^ 1] += 1
                cost[arc ^ 1] = -cost[arc]  # sets a twin's; -(-c) == c
                path_cost += cost[arc]
                relax[node] = incident[node]  # the twin ``arc ^ 1`` leaves it
                touched.add(arc & ~1)
                node = head[arc ^ 1]
            total_cost += path_cost
            sent += 1
        return sent, total_cost

    def _first_dijkstra(self, source: int, stop: int) -> tuple[list[float], list[int]]:
        """:meth:`_dijkstra` with every potential 0 and no flow sent.

        Only forward arcs are live, each with its full capacity or closed
        at an infinite cost, so the reduced cost is the cost and no
        residual needs testing.
        """
        relax, head, cost = self._relax, self._head, self._cost
        distances = [_INF] * len(self._nodes)
        distances[source] = 0.0
        predecessor_arc = [-1] * len(self._nodes)
        heap: list[tuple[float, int, int]] = []
        pop, push, pushpop = heapq.heappop, heapq.heappush, heapq.heappushpop
        item = (0.0, 0, source)
        counter = 1
        while True:
            distance, _tie, node = item
            if distance <= distances[node]:
                if node == stop:
                    break
                pending = None
                for arc in relax[node]:
                    target = head[arc]
                    candidate = distance + cost[arc]
                    if candidate < distances[target] - 1e-15:
                        distances[target] = candidate
                        predecessor_arc[target] = arc
                        if pending is not None:
                            push(heap, pending)
                        pending = (candidate, counter, target)
                        counter += 1
                if pending is not None:
                    item = pushpop(heap, pending)
                    continue
            if not heap:
                break
            item = pop(heap)
        return distances, predecessor_arc

    def _dijkstra(
        self, source: int, potentials: list[float], stop: int
    ) -> tuple[list[float], list[int]]:
        """Distances and predecessor arcs, settled up to ``stop`` (-1: all)."""
        relax, head = self._relax, self._head
        cost, residual = self._cost, self._residual
        distances = [_INF] * len(self._nodes)
        distances[source] = 0.0
        predecessor_arc = [-1] * len(self._nodes)
        heap: list[tuple[float, int, int]] = []
        pop, push, pushpop = heapq.heappop, heapq.heappush, heapq.heappushpop
        item = (0.0, 0, source)
        counter = 1
        while True:
            distance, _tie, node = item
            if distance <= distances[node]:
                if node == stop:
                    break
                potential = potentials[node]
                pending = None
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
                        if pending is not None:
                            push(heap, pending)
                        pending = (candidate, counter, target)
                        counter += 1
                if pending is not None:
                    item = pushpop(heap, pending)
                    continue
            if not heap:
                break
            item = pop(heap)
        return distances, predecessor_arc

    # -- results ---------------------------------------------------------------

    def _flows(self) -> list[tuple[int, int, int]]:
        """``(tail, head, units)`` per forward arc carrying flow, in order.

        A twin's residual capacity is the flow on its forward arc, and
        only touched arcs can carry any.
        """
        head, residual = self._head, self._residual
        return [
            (head[arc + 1], head[arc], residual[arc + 1])
            for arc in sorted(self._touched)
            if residual[arc + 1] > 0
        ]

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
