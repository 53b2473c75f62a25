"""Integer-indexed routing graph of a frozen topology.

Every routing search in ``repro`` runs on :class:`RoutingIndex`: the
dissemination-graph builders search it at base latencies when a policy
attaches, and dynamic path selection and targeted re-routing search it
at every condition change of a replay, each time under a different
observed view.  The index fixes the structure once -- node ranks in
sorted-name order, links in sorted-edge order, base latencies, out/in
link lists -- so a view is a weight list indexed by link id (the base
latencies, or those plus the few observed overrides) and an exclusion
is a set of link ids the search skips; nothing is copied.

Each search breaks ties by a fixed order, so the same view always
yields the same route:

* :meth:`RoutingIndex.shortest_path` relaxes neighbours in ``repr``
  order and breaks heap ties by push order;
* :meth:`RoutingIndex.distances`, and the through latencies built on
  it, relax in sorted-edge order;
* :meth:`RoutingIndex.steiner_arborescence` seeds its search and
  relaxes neighbours in ``repr`` order, and attaches the ``repr``-first
  of equally near terminals;
* :class:`SplitNetwork` adds its arcs node by node in sorted-name order
  (a split node's in->out arc, then its out-links in sorted-edge
  order), and gives an excluded link capacity 0 instead of dropping
  it, so the surviving arcs keep their relative order.

These are the orders of the dict-adjacency searches the index replaced;
``tests/routing/test_routing_oracle.py`` keeps those searches and the
builders that called them frozen and checks the index against them bit
for bit.

The index owns each flow's node-split network (:meth:`RoutingIndex.network`):
built on first use, once per (topology, flow), and shared by the
builders and every policy of the flow, in every thread.  A network
holds only structure and the answer of its base view; each solve forks
its own costs, residuals, potentials and relax lists.  The same memo
(:meth:`RoutingIndex.memo`) keeps the distance passes at base latencies.
It stays out of the index's pickle, so pool workers that receive the
topology build their own.

Weights must be non-negative; callers build them from validated base
latencies and observed states, so the searches do not re-check.
"""

from __future__ import annotations

import heapq
import threading
from operator import itemgetter
from typing import AbstractSet, Callable, Hashable, Iterable, Sequence, TypeVar

from repro.core.algorithms.disjoint import solve_disjoint
from repro.core.algorithms.mincostflow import MinCostFlow

__all__ = ["RoutingIndex", "SplitNetwork"]

_INF = float("inf")
T = TypeVar("T")


class RoutingIndex:
    """Node ranks, link ids, base latencies and link lists of one topology.

    Immutable once built, apart from a memo of answers that depend on
    nothing else (:meth:`memo`), so one index is shared by every
    builder, policy and thread routing on the topology
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
        self._in_by_repr = [
            sorted(links, key=lambda item: repr(names[item[1]]))
            for links in self.in_links
        ]
        self._memo: dict[Hashable, object] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_memo"], state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memo = {}
        self._lock = threading.Lock()

    def memo(self, key: Hashable, compute: Callable[[], T]) -> T:
        """``compute()``, once per ``key`` for the life of the index.

        For what the builders and policies of every flow ask of the
        unchanging topology: each flow's network and each base-latency
        distance pass.  Answers are shared read-only.
        """
        try:
            return self._memo[key]  # type: ignore[return-value]
        except KeyError:
            pass
        with self._lock:
            if key not in self._memo:
                self._memo[key] = compute()
            return self._memo[key]  # type: ignore[return-value]

    def network(self, source: str, target: str) -> "SplitNetwork":
        """The ``source -> target`` flow's node-split network.

        Built on the first call and kept for the life of the index: the
        disjoint-path builders and policies of the flow share it.
        """
        return self.memo(
            ("network", source, target), lambda: SplitNetwork(self, source, target)
        )

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
    ) -> Sequence[float]:
        """Dijkstra distances from ``origin`` by rank (to it with ``reverse``).

        Unreachable nodes read ``inf``.  At the base latencies themselves
        (``weights is self.latencies``) the pass runs once per origin and
        direction, and its tuple is shared.
        """
        if weights is self.latencies:
            return self.memo(
                ("distances", origin, reverse),
                lambda: tuple(self._distances(weights, origin, reverse)),
            )
        return self._distances(weights, origin, reverse)

    def _distances(
        self, weights: Sequence[float], origin: str, reverse: bool
    ) -> list[float]:
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

    def through_latencies(
        self,
        weights: Sequence[float],
        from_source: Sequence[float],
        to_target: Sequence[float],
    ) -> dict[tuple[str, str], float]:
        """Best ``source ->* u -> v ->* target`` weight per edge ``(u, v)``.

        ``from_source`` and ``to_target`` are the :meth:`distances` from
        the source and (``reverse``) to the target under ``weights``.
        The time-constrained-flooding criterion: a copy can cross the
        edge and still arrive within a deadline exactly when this weight
        is within it.  Edges that the source cannot reach, or whose head
        cannot reach the target, are left out; the rest are in sorted
        order.
        """
        rank = self.rank
        through: dict[tuple[str, str], float] = {}
        for link, (tail, head) in enumerate(self.edges):
            before = from_source[rank[tail]]
            after = to_target[rank[head]]
            if before != _INF and after != _INF:
                through[(tail, head)] = before + weights[link] + after
        return through

    def steiner_arborescence(
        self,
        root: str,
        terminals: Iterable[str],
        skip: str,
        reverse: bool = False,
    ) -> set[tuple[str, str]]:
        """Edges of a cheap arborescence from ``root`` to every terminal.

        Optimal directed Steiner trees are NP-hard; this is the greedy
        cheapest-path-first heuristic, deterministic and at most a
        logarithmic factor off, which keeps the targeted graphs' cost
        low (claim C6).  It repeatedly attaches the terminal nearest to
        any node already in the arborescence (ties: the ``repr``-first
        terminal), over links that avoid node ``skip``.  With ``reverse``
        it searches along in-links, so the arborescence leads from every
        terminal *into* ``root``.  Distances are base latencies, and
        unreachable terminals are skipped.  Edges are returned as
        topology edges, in their own direction.
        """
        names = self.names
        links = self._in_by_repr if reverse else self._out_by_repr
        skipped = self.rank[skip]
        tree = {self.rank[root]}
        pending = sorted(
            {self.rank[terminal] for terminal in terminals} - tree,
            key=lambda node: repr(names[node]),
        )
        edges: set[tuple[str, str]] = set()
        while pending:
            distances, predecessor = self._distances_from_tree(tree, links, skipped)
            best = min(pending, key=distances.__getitem__)
            if distances[best] == _INF:
                break  # every remaining terminal is unreachable
            pending.remove(best)
            node = best
            while node not in tree:
                tree.add(node)
                previous = predecessor[node]
                pair = (names[node], names[previous])
                edges.add(pair if reverse else pair[::-1])
                node = previous
        return edges

    def _distances_from_tree(
        self, tree: set[int], links: list[list[tuple[int, int]]], skipped: int
    ) -> tuple[list[float], list[int]]:
        """Multi-source Dijkstra from every ``tree`` node, avoiding ``skipped``.

        Distances and predecessors by rank; the sources are pushed in
        ``repr`` order.
        """
        names, weights = self.names, self.latencies
        distances = [_INF] * len(names)
        predecessor = [-1] * len(names)
        heap: list[tuple[float, int, int]] = []
        for node in sorted(tree, key=lambda node: repr(names[node])):
            distances[node] = 0.0
            heap.append((0.0, len(heap), node))  # ascending: already a heap
        counter = len(heap)
        while heap:
            distance, _tie, node = heapq.heappop(heap)
            if distance > distances[node]:
                continue
            for link, neighbor in links[node]:
                if neighbor == skipped:
                    continue
                candidate = distance + weights[link]
                if candidate < distances[neighbor]:
                    distances[neighbor] = candidate
                    predecessor[neighbor] = node
                    heapq.heappush(heap, (candidate, counter, neighbor))
                    counter += 1
        return distances, predecessor


class SplitNetwork:
    """One flow's node-split min-cost-flow network, re-solved per view.

    Sending ``k`` units over unit-capacity arcs finds the ``k`` disjoint
    paths of minimum total weight -- the flow form of Suurballe's
    algorithm, which a greedy shortest-path-first choice gets wrong when
    the shortest path blocks the only disjoint pair.  Node splitting makes
    the paths node-disjoint: every node but the flow's endpoints becomes
    ``(node, "in")`` and ``(node, "out")`` joined by a zero-cost arc, and
    an endpoint is one ``(node, "both")``.

    Built once per flow (:meth:`RoutingIndex.network`).  Each
    :meth:`disjoint_paths` call forks a solve
    (:meth:`~repro.core.algorithms.mincostflow.MinCostFlow.fork`) with
    the view's arc costs and the excluded links closed, so concurrent
    calls share nothing mutable.  The base view -- base latencies, no
    exclusion -- is solved once per ``k`` and its answer kept.
    """

    def __init__(self, index: RoutingIndex, source: str, target: str) -> None:
        self._index = index
        self._source = (source, "both")
        self._target = (target, "both")
        whole = (source, target)
        heads = [
            (name, "both") if name in whole else (name, "in")
            for name in index.names
        ]
        solver = MinCostFlow()
        for name, head in zip(index.names, heads):
            solver.add_node(head)
            if name not in whole:
                solver.add_node((name, "out"))
        # Per forward arc, its weight's position in ``(*weights, 0.0)``:
        # the link id, or the trailing 0.0 for a node's in->out arc.
        positions: list[int] = []
        # Per link id, its forward arc.
        self._arc_of_link = [0] * len(index.edges)
        for name, head, links in zip(index.names, heads, index.out_links):
            tail = head
            if name not in whole:
                tail = (name, "out")
                solver.add_arc(head, tail, 1, 0.0)
                positions.append(len(index.edges))
            for link, target_rank in links:
                self._arc_of_link[link] = solver.add_arc(
                    tail, heads[target_rank], 1, index.latencies[link]
                )
                positions.append(link)
        self._solver = solver
        if len(positions) > 1:
            self._arc_weights = itemgetter(*positions)
        else:  # itemgetter returns a tuple from two or more positions only
            self._arc_weights = lambda values: tuple(values[p] for p in positions)
        # k -> the base view's paths, solved under the lock once.
        self._base: dict[int, tuple[tuple[str, ...], ...]] = {}
        self._base_lock = threading.Lock()

    def disjoint_paths(
        self,
        weights: Sequence[float],
        k: int = 2,
        excluded: AbstractSet[int] = frozenset(),
    ) -> list[list[str]]:
        """Up to ``k`` node-disjoint paths of minimum total weight.

        Fewer when fewer disjoint paths avoid ``excluded`` (none when the
        target is unreachable); shortest first.  ``weights`` that are the
        index's base latencies themselves, with nothing excluded, are the
        base view, solved once per ``k``.
        """
        if weights is self._index.latencies and not excluded:
            with self._base_lock:
                if k not in self._base:
                    paths = self._solve(weights, k, excluded)
                    self._base[k] = tuple(map(tuple, paths))
            return [list(path) for path in self._base[k]]
        return self._solve(weights, k, excluded)

    def _solve(
        self, weights: Sequence[float], k: int, excluded: AbstractSet[int]
    ) -> list[list[str]]:
        arc_of_link = self._arc_of_link
        solver = self._solver.fork(
            self._arc_weights((*weights, 0.0)),
            [arc_of_link[link] for link in excluded],
        )
        link_id = self._index.link_id

        def weight_of(path: Sequence[str]) -> float:
            return sum(weights[link_id[edge]] for edge in zip(path, path[1:]))

        return solve_disjoint(solver, self._source, self._target, k, weight_of)
