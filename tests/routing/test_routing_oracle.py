"""Oracle for the routing index: frozen dict-based routing versus the live code.

The graph builders and the dynamic and targeted policies route on the
topology's integer-indexed
:class:`~repro.core.algorithms.routing_index.RoutingIndex`; the policies
also reuse one node-split min-cost-flow network per flow and remember
each decision they can prove they would make again.  None of that may
move a single route.  This module freezes the dict-based routing the
builders and policies used before -- ``observed_adjacency``,
``adjacency_from_topology``, Dijkstra, node splitting, the ``Arc``-object
min-cost flow, ``disjoint_paths``, ``timely_edge_latencies``, the greedy
Steiner arborescence and the builder bodies, copied verbatim -- plus the
policies' caching-and-compute methods as subclasses of the live
policies, and checks that the live code agrees exactly:

* single calls on Hypothesis digraphs of 3-12 nodes: weights, distances,
  shortest paths, the split network's arc order, disjoint-path lists
  (order included), through latencies and Steiner arborescences
  (forward and reversed), bit for bit;
* every builder's graph (edges and name) on every ordered pair of the
  12-site overlay and every flow of isp-hier N=100, the problem graphs
  as the fields of one ``problem_graphs`` call;
* a targeted policy's four attached graphs (edges and names) on the
  same pairs and flows, at the default and at unequal entry and exit
  limits;
* whole decision sequences (graph edges and names), with and without
  change deltas, on Hypothesis view sequences and on the seed-7 9-hour
  views of the 12-site overlay and of isp-hier N=100;
* a SHA-256 of the decision spans of all six standard schemes on all
  eight isp-hier N=100 flows over the same views, taken from the live
  policies before the flow networks were shared, since the frozen
  policies are too slow to replay them all.

Node names are drawn so that ``repr`` order differs from name order,
latencies so that paths tie exactly and nearly (``0.1 + 0.2`` against
``0.3``), and view sequences so that a fingerprint recurs inside a
loss-penalised fallback with different loss rates.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import builders as live_builders
from repro.core.algorithms import NoPathError
from repro.core.algorithms.mincostflow import MinCostFlow as LiveMinCostFlow
from repro.core.algorithms.routing_index import SplitNetwork
from repro.core.detection import ProblemType
from repro.core.dgraph import DisseminationGraph
from repro.core.graph import Edge, Topology
from repro.netmodel import scenarios
from repro.netmodel.conditions import LinkState
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing.base import LOSS_PENALTY_MS_PER_UNIT, observed_weights
from repro.routing.base import timely_edge_latencies as live_timely_edge_latencies
from repro.routing.dynamic import DynamicSinglePathPolicy, DynamicTwoDisjointPolicy
from repro.routing.registry import STANDARD_SCHEME_NAMES, make_policy
from repro.routing.targeted import TargetedRedundancyPolicy
from repro.simulation.timeline import (
    build_decision_timeline,
    decision_boundaries,
    observed_views_with_deltas,
)
from repro.topogen import resolve_workload
from repro.util.validation import require

Node = Hashable
_INF = float("inf")


# -- frozen dict-based routing (verbatim) -------------------------------------


def observed_adjacency(
    topology: Topology,
    observed: Mapping[Edge, LinkState],
    exclude: frozenset[Edge] = frozenset(),
    penalize_loss: bool = False,
) -> dict:
    adjacency: dict = {node: {} for node in topology.nodes}
    for link in topology.iter_links():
        if link.edge in exclude:
            continue
        state = observed.get(link.edge)
        weight = link.latency_ms
        if state is not None:
            weight += state.extra_latency_ms
            if penalize_loss:
                weight += state.loss_rate * LOSS_PENALTY_MS_PER_UNIT
        adjacency[link.source][link.target] = weight
    return adjacency


def reverse_adjacency(adjacency: dict) -> dict:
    reversed_adjacency: dict = {node: {} for node in adjacency}
    for node, neighbors in adjacency.items():
        for neighbor, weight in neighbors.items():
            reversed_adjacency.setdefault(neighbor, {})[node] = weight
    return reversed_adjacency


def single_source_distances(adjacency: dict, source: Node) -> dict:
    if source not in adjacency:
        raise KeyError(f"unknown source node {source!r}")
    distances: dict = {source: 0.0}
    heap: list = [(0.0, 0, source)]
    counter = 1
    while heap:
        distance, _tie, node = heapq.heappop(heap)
        if distance > distances.get(node, _INF):
            continue
        for neighbor, weight in adjacency.get(node, {}).items():
            if weight < 0:
                raise ValueError(
                    f"negative weight {weight} on edge {node!r}->{neighbor!r}"
                )
            candidate = distance + weight
            if candidate < distances.get(neighbor, _INF):
                distances[neighbor] = candidate
                heapq.heappush(heap, (candidate, counter, neighbor))
                counter += 1
    return distances


def shortest_path(adjacency: dict, source: Node, target: Node) -> tuple[list, float]:
    if source not in adjacency:
        raise KeyError(f"unknown source node {source!r}")
    if target not in adjacency:
        raise KeyError(f"unknown target node {target!r}")
    distances: dict = {source: 0.0}
    predecessor: dict = {}
    heap: list = [(0.0, 0, source)]
    counter = 1
    while heap:
        distance, _tie, node = heapq.heappop(heap)
        if node == target:
            break
        if distance > distances.get(node, _INF):
            continue
        neighbors = adjacency.get(node, {})
        for neighbor in sorted(neighbors, key=repr):
            weight = neighbors[neighbor]
            if weight < 0:
                raise ValueError(
                    f"negative weight {weight} on edge {node!r}->{neighbor!r}"
                )
            candidate = distance + weight
            if candidate < distances.get(neighbor, _INF):
                distances[neighbor] = candidate
                predecessor[neighbor] = node
                heapq.heappush(heap, (candidate, counter, neighbor))
                counter += 1
    if target not in distances:
        raise NoPathError(source, target)
    path = [target]
    while path[-1] != source:
        path.append(predecessor[path[-1]])
    path.reverse()
    return path, distances[target]


def split_nodes(adjacency: dict, keep_whole) -> dict:
    whole = set(keep_whole)

    def tail(node):
        return (node, "both") if node in whole else (node, "out")

    def head(node):
        return (node, "both") if node in whole else (node, "in")

    split: dict = {}
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


@dataclass
class Arc:
    source: Node
    target: Node
    capacity: int
    cost: float
    flow: int = 0
    is_reverse: bool = False

    @property
    def residual_capacity(self) -> int:
        return self.capacity - self.flow


class MinCostFlow:
    def __init__(self) -> None:
        self._arcs: list[Arc] = []
        self._incident: dict = {}

    def add_node(self, node: Node) -> None:
        self._incident.setdefault(node, [])

    def add_arc(self, source: Node, target: Node, capacity: int, cost: float) -> int:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost}")
        index = len(self._arcs)
        self._arcs.append(Arc(source, target, capacity, cost))
        self._arcs.append(Arc(target, source, 0, -cost, is_reverse=True))
        self._incident.setdefault(source, []).append(index)
        self._incident.setdefault(target, []).append(index + 1)
        return index

    def send(self, source: Node, sink: Node, max_units: int) -> tuple[int, float]:
        if source not in self._incident or sink not in self._incident:
            raise KeyError("source or sink not present in the flow network")
        if max_units < 0:
            raise ValueError(f"max_units must be >= 0, got {max_units}")
        potentials = {node: 0.0 for node in self._incident}
        sent = 0
        total_cost = 0.0
        while sent < max_units:
            distances, predecessor_arc = self._dijkstra(source, potentials)
            if sink not in distances:
                break
            for node, distance in distances.items():
                potentials[node] += distance
            path_cost = 0.0
            node = sink
            while node != source:
                arc_index = predecessor_arc[node]
                arc = self._arcs[arc_index]
                twin = self._arcs[arc_index ^ 1]
                arc.flow += 1
                twin.flow -= 1
                path_cost += arc.cost
                node = arc.source
            total_cost += path_cost
            sent += 1
        return sent, total_cost

    def _dijkstra(self, source: Node, potentials: dict) -> tuple[dict, dict]:
        distances: dict = {source: 0.0}
        predecessor_arc: dict = {}
        heap: list = [(0.0, 0, source)]
        counter = 1
        while heap:
            distance, _tie, node = heapq.heappop(heap)
            if distance > distances.get(node, _INF):
                continue
            for arc_index in self._incident[node]:
                arc = self._arcs[arc_index]
                if arc.residual_capacity <= 0:
                    continue
                reduced = arc.cost + potentials[node] - potentials[arc.target]
                if reduced < 0:
                    reduced = 0.0
                candidate = distance + reduced
                if candidate < distances.get(arc.target, _INF) - 1e-15:
                    distances[arc.target] = candidate
                    predecessor_arc[arc.target] = arc_index
                    heapq.heappush(heap, (candidate, counter, arc.target))
                    counter += 1
        return distances, predecessor_arc

    def decompose_paths(self, source: Node, sink: Node) -> list[list]:
        remaining: dict = {}
        for index, arc in enumerate(self._arcs):
            if not arc.is_reverse and arc.flow > 0:
                for _ in range(arc.flow):
                    remaining.setdefault(arc.source, []).append((arc.target, index))
        for successors in remaining.values():
            successors.sort(key=lambda item: repr(item[0]))
        paths: list = []
        while remaining.get(source):
            path = [source]
            node = source
            while node != sink:
                successors = remaining.get(node)
                if not successors:
                    raise RuntimeError(
                        f"flow decomposition stuck at {node!r}; "
                        "flow conservation violated"
                    )
                node, _arc_index = successors.pop(0)
                path.append(node)
            paths.append(path)
        return paths


def frozen_flow_arcs(solver: MinCostFlow) -> list:
    """The frozen solver's forward arcs carrying flow, in insertion order."""
    return [
        (arc.source, arc.target)
        for arc in solver._arcs
        if not arc.is_reverse and arc.flow > 0
    ]


def strip_cycles(path: list) -> list:
    position: dict = {}
    result: list = []
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
    adjacency: dict, source: Node, target: Node, k: int = 2, node_disjoint: bool = True
) -> list[list]:
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

    solver = MinCostFlow()
    for node in work:
        solver.add_node(node)
    for node, neighbors in work.items():
        for neighbor, weight in neighbors.items():
            solver.add_arc(node, neighbor, 1, weight)
    sent, _cost = solver.send(flow_source, flow_target, k)
    if sent == 0:
        return []
    raw_paths = solver.decompose_paths(flow_source, flow_target)

    paths: list = []
    for raw in raw_paths:
        if node_disjoint:
            collapsed: list = []
            for original, _role in raw:
                if not collapsed or collapsed[-1] != original:
                    collapsed.append(original)
            paths.append(strip_cycles(collapsed))
        else:
            paths.append(strip_cycles(raw))

    def weight_of(path: Sequence) -> float:
        return sum(adjacency[u][v] for u, v in zip(path, path[1:]))

    paths.sort(key=lambda path: (weight_of(path), [repr(node) for node in path]))
    return paths


def timely_edge_latencies(
    topology: Topology, observed: Mapping[Edge, LinkState], source, destination
) -> dict:
    adjacency = observed_adjacency(topology, observed)
    from_source = single_source_distances(adjacency, source)
    to_destination = single_source_distances(reverse_adjacency(adjacency), destination)
    through: dict = {}
    for node, neighbors in adjacency.items():
        head = from_source.get(node)
        if head is None:
            continue
        for neighbor, weight in neighbors.items():
            tail = to_destination.get(neighbor)
            if tail is None:
                continue
            through[(node, neighbor)] = head + weight + tail
    return through


def adjacency_from_topology(
    topology, weight: str = "latency", exclude_edges=(), exclude_nodes=()
) -> dict:
    if weight not in ("latency", "cost", "hops"):
        raise ValueError(f"unknown weight kind {weight!r}")
    excluded_edges = set(exclude_edges)
    excluded_nodes = set(exclude_nodes)
    adjacency: dict = {
        node: {} for node in topology.nodes if node not in excluded_nodes
    }
    for link in topology.iter_links():
        if link.edge in excluded_edges:
            continue
        if link.source in excluded_nodes or link.target in excluded_nodes:
            continue
        if weight == "latency":
            value = link.latency_ms
        elif weight == "cost":
            value = link.cost
        else:
            value = 1.0
        adjacency[link.source][link.target] = value
    return adjacency


def steiner_arborescence(adjacency: dict, root: Node, terminals) -> set:
    if root not in adjacency:
        raise KeyError(f"unknown root node {root!r}")
    pending = {t for t in terminals if t != root}
    tree_nodes: set = {root}
    tree_edges: set = set()
    while pending:
        distances, predecessor = _multi_source_dijkstra(adjacency, tree_nodes)
        best_terminal = None
        best_distance = _INF
        for terminal in sorted(pending, key=repr):
            distance = distances.get(terminal, _INF)
            if distance < best_distance:
                best_distance = distance
                best_terminal = terminal
        if best_terminal is None:
            break  # remaining terminals unreachable
        node = best_terminal
        while node not in tree_nodes:
            previous = predecessor[node]
            tree_edges.add((previous, node))
            node = previous
        # Every node on the attached path joins the tree.
        node = best_terminal
        while node not in tree_nodes:
            tree_nodes.add(node)
            node = predecessor[node]
        tree_nodes.add(best_terminal)
        pending.discard(best_terminal)
    return tree_edges


def _multi_source_dijkstra(adjacency: dict, sources: set) -> tuple[dict, dict]:
    distances: dict = {node: 0.0 for node in sources}
    predecessor: dict = {}
    heap: list = []
    counter = 0
    for node in sorted(sources, key=repr):
        heapq.heappush(heap, (0.0, counter, node))
        counter += 1
    while heap:
        distance, _tie, node = heapq.heappop(heap)
        if distance > distances.get(node, _INF):
            continue
        neighbors = adjacency.get(node, {})
        for neighbor in sorted(neighbors, key=repr):
            weight = neighbors[neighbor]
            candidate = distance + weight
            if candidate < distances.get(neighbor, _INF):
                distances[neighbor] = candidate
                predecessor[neighbor] = node
                heapq.heappush(heap, (candidate, counter, neighbor))
                counter += 1
    return distances, predecessor


# -- frozen dict-based graph builders (verbatim) --------------------------------


def _check_flow(topology: Topology, source, destination) -> None:
    require(topology.frozen, "builders require a frozen topology")
    require(topology.has_node(source), f"unknown source {source!r}")
    require(topology.has_node(destination), f"unknown destination {destination!r}")
    require(source != destination, "source must differ from destination")


def single_path_graph(
    topology: Topology, source, destination, exclude_edges=(), name="single-path"
) -> DisseminationGraph:
    _check_flow(topology, source, destination)
    adjacency = adjacency_from_topology(topology, exclude_edges=exclude_edges)
    path, _latency = shortest_path(adjacency, source, destination)
    return DisseminationGraph.from_path(path, name=name)


def k_disjoint_paths_graph(
    topology: Topology,
    source,
    destination,
    k: int = 2,
    exclude_edges=(),
    node_disjoint: bool = True,
    name: str = "",
) -> DisseminationGraph:
    _check_flow(topology, source, destination)
    require(k >= 1, f"k must be >= 1, got {k}")
    adjacency = adjacency_from_topology(topology, exclude_edges=exclude_edges)
    paths = disjoint_paths(
        adjacency, source, destination, k=k, node_disjoint=node_disjoint
    )
    if not paths:
        raise NoPathError(source, destination)
    return DisseminationGraph.from_paths(paths, name=name or f"{k}-disjoint-paths")


def two_disjoint_paths_graph(
    topology: Topology, source, destination, exclude_edges=(), name="two-disjoint-paths"
) -> DisseminationGraph:
    return k_disjoint_paths_graph(
        topology,
        source,
        destination,
        k=2,
        exclude_edges=exclude_edges,
        name=name,
    )


def time_constrained_flooding_graph(
    topology: Topology, source, destination, deadline_ms: float, name: str = ""
) -> DisseminationGraph:
    _check_flow(topology, source, destination)
    require(deadline_ms > 0, f"deadline must be positive, got {deadline_ms}")
    adjacency = adjacency_from_topology(topology)
    from_source = single_source_distances(adjacency, source)
    to_destination = single_source_distances(
        reverse_adjacency(adjacency), destination
    )
    edges = set()
    for link in topology.iter_links():
        head_distance = from_source.get(link.source)
        tail_distance = to_destination.get(link.target)
        if head_distance is None or tail_distance is None:
            continue
        if head_distance + link.latency_ms + tail_distance <= deadline_ms:
            edges.add(link.edge)
    graph = DisseminationGraph(
        source,
        destination,
        frozenset(edges),
        name=name or f"flooding-{deadline_ms:g}ms",
    )
    return graph.pruned()


def _select_entry_nodes(
    topology: Topology,
    endpoint,
    neighbors,
    other_end,
    limit,
    detour_budget_ms,
    entry_side: bool,
) -> list:
    candidates = [n for n in neighbors if n != other_end]
    adjacency = adjacency_from_topology(topology)
    if entry_side:
        distances = single_source_distances(adjacency, other_end)

        def detour_ms(n) -> float:
            upstream = distances.get(n, float("inf"))
            return upstream + topology.latency(n, endpoint)

    else:
        distances = single_source_distances(reverse_adjacency(adjacency), other_end)

        def detour_ms(n) -> float:
            downstream = distances.get(n, float("inf"))
            return topology.latency(endpoint, n) + downstream

    if detour_budget_ms is not None:
        candidates = [n for n in candidates if detour_ms(n) <= detour_budget_ms]
    if limit is None or limit >= len(candidates):
        return sorted(candidates)
    candidates.sort(key=lambda n: (detour_ms(n), n))
    return sorted(candidates[:limit])


def _deadline_prune(
    topology: Topology, graph: DisseminationGraph, deadline_ms, name: str
) -> DisseminationGraph:
    if deadline_ms is None:
        return graph.pruned(name=name)
    flooding = time_constrained_flooding_graph(
        topology, graph.source, graph.destination, deadline_ms
    )
    candidate = graph.restrict(flooding.edges).pruned(name=name)
    if candidate.connects():
        return candidate
    return graph.pruned(name=name)


def destination_problem_graph(
    topology: Topology,
    source,
    destination,
    max_entry_links=None,
    deadline_ms=None,
    name: str = "destination-problem",
) -> DisseminationGraph:
    _check_flow(topology, source, destination)
    base = two_disjoint_paths_graph(topology, source, destination)
    entries = _select_entry_nodes(
        topology,
        destination,
        topology.in_neighbors(destination),
        source,
        max_entry_links,
        deadline_ms,
        entry_side=True,
    )
    adjacency = adjacency_from_topology(topology, exclude_nodes=(destination,))
    tree_edges = steiner_arborescence(adjacency, source, entries)
    edges = set(base.edges) | tree_edges
    for entry in entries:
        if topology.has_edge(entry, destination):
            edges.add((entry, destination))
    graph = DisseminationGraph(source, destination, frozenset(edges), name=name)
    return _deadline_prune(topology, graph, deadline_ms, name)


def source_problem_graph(
    topology: Topology,
    source,
    destination,
    max_exit_links=None,
    deadline_ms=None,
    name: str = "source-problem",
) -> DisseminationGraph:
    _check_flow(topology, source, destination)
    base = two_disjoint_paths_graph(topology, source, destination)
    exits = _select_entry_nodes(
        topology,
        source,
        topology.out_neighbors(source),
        destination,
        max_exit_links,
        deadline_ms,
        entry_side=False,
    )
    adjacency = adjacency_from_topology(topology, exclude_nodes=(source,))
    # Arborescence *into* the destination: build on the reversed graph
    # rooted at the destination, then flip the edges back.
    reversed_tree = steiner_arborescence(
        reverse_adjacency(adjacency), destination, exits
    )
    edges = set(base.edges)
    edges.update((v, u) for (u, v) in reversed_tree)
    for exit_node in exits:
        if topology.has_edge(source, exit_node):
            edges.add((source, exit_node))
    graph = DisseminationGraph(source, destination, frozenset(edges), name=name)
    return _deadline_prune(topology, graph, deadline_ms, name)


def robust_source_destination_graph(
    topology: Topology,
    source,
    destination,
    max_entry_links=None,
    max_exit_links=None,
    deadline_ms=None,
    name: str = "robust-source-destination",
) -> DisseminationGraph:
    destination_graph = destination_problem_graph(
        topology,
        source,
        destination,
        max_entry_links=max_entry_links,
        deadline_ms=deadline_ms,
    )
    source_graph = source_problem_graph(
        topology,
        source,
        destination,
        max_exit_links=max_exit_links,
        deadline_ms=deadline_ms,
    )
    return union_problem_graphs(
        topology, destination_graph, source_graph, deadline_ms, name
    )


def union_problem_graphs(
    topology: Topology,
    destination_graph: DisseminationGraph,
    source_graph: DisseminationGraph,
    deadline_ms,
    name: str,
) -> DisseminationGraph:
    union = destination_graph.union(source_graph, name=name)
    return _deadline_prune(topology, union, deadline_ms, name)


# -- frozen caching-and-compute policy methods (verbatim) ---------------------


class _FrozenDynamicDecide:
    def _decide(self, now_s, observed):
        changed = self._observed_changed
        if (
            changed is not None
            and self._cache_graph is not None
            and self._delta_is_irrelevant(changed, observed)
        ):
            return self._cache_graph
        key = self._fingerprint(observed)
        if key != self._cache_key or self._cache_graph is None:
            self._cache_graph = self._recompute(observed, key[0])
            self._cache_key = key
            self._relevant_edges = key[0].union(edge for edge, _extra in key[1])
        return self._cache_graph


class FrozenDynamicSingle(_FrozenDynamicDecide, DynamicSinglePathPolicy):
    def _recompute(self, observed, degraded):
        source, destination = self.flow.source, self.flow.destination
        adjacency = observed_adjacency(self.topology, observed, exclude=degraded)
        try:
            path, _latency = shortest_path(adjacency, source, destination)
        except NoPathError:
            penalized = observed_adjacency(self.topology, observed, penalize_loss=True)
            path, _latency = shortest_path(penalized, source, destination)
        return DisseminationGraph.from_path(path, name=self.name)


class FrozenDynamicTwoDisjoint(_FrozenDynamicDecide, DynamicTwoDisjointPolicy):
    def _recompute(self, observed, degraded):
        source, destination = self.flow.source, self.flow.destination
        adjacency = observed_adjacency(self.topology, observed, exclude=degraded)
        paths = disjoint_paths(adjacency, source, destination, k=self.k)
        if len(paths) < self.k:
            penalized = observed_adjacency(self.topology, observed, penalize_loss=True)
            paths = disjoint_paths(penalized, source, destination, k=self.k)
        if not paths:
            raise NoPathError(source, destination)
        return DisseminationGraph.from_paths(paths, name=self.name)


class FrozenTargeted(TargetedRedundancyPolicy):
    def _candidate_edges(self, observed):
        obs = self.obs
        start_s = obs.tracer.now() if obs is not None else 0.0
        through = timely_edge_latencies(
            self.topology, observed, self.flow.source, self.flow.destination
        )
        deadline = self.service.deadline_ms
        timely = [edge for edge, ms in through.items() if ms <= deadline]
        cap = self.candidate_cap
        if len(timely) > cap:
            timely.sort(key=lambda edge: (through[edge], edge))
            kept = frozenset(timely[:cap])
        else:
            kept = frozenset(timely)
        if obs is not None:
            metrics = obs.metrics
            metrics.counter("routing.targeted.candidates.considered").inc(len(timely))
            metrics.counter("routing.targeted.candidates.kept").inc(len(kept))
            if len(timely) > len(kept):
                metrics.counter("routing.targeted.candidates.pruned").inc(
                    len(timely) - len(kept)
                )
            obs.tracer.complete(
                "targeted.candidates",
                "routing",
                start_s,
                obs.tracer.now(),
                flow=self.flow.name,
                considered=len(timely),
                kept=len(kept),
                cap=cap,
            )
        return kept

    def _middle_reroute(self, now_s, observed):
        degraded = self._sticky_degraded(now_s)
        timely = self._candidate_edges(observed)
        inflated = tuple(
            sorted(
                (edge, state.extra_latency_ms)
                for edge, state in observed.items()
                if state.extra_latency_ms > 0.0
            )
        )
        cache_key = (degraded, timely, inflated)
        if cache_key == self._middle_cache_key and self._middle_cache_graph:
            return self._middle_cache_graph
        source, destination = self.flow.source, self.flow.destination
        not_timely = frozenset(self.topology.edges) - timely
        adjacency = observed_adjacency(
            self.topology, observed, exclude=degraded | not_timely
        )
        paths = disjoint_paths(adjacency, source, destination, k=2)
        if len(paths) < 2 and not_timely:
            penalized = observed_adjacency(
                self.topology, observed, exclude=not_timely, penalize_loss=True
            )
            paths = disjoint_paths(penalized, source, destination, k=2)
        if len(paths) < 2:
            penalized = observed_adjacency(self.topology, observed, penalize_loss=True)
            paths = disjoint_paths(penalized, source, destination, k=2)
        if not paths:
            raise NoPathError(source, destination)
        graph = DisseminationGraph.from_paths(paths, name=f"{self.name}/reroute")
        self._middle_cache_key = cache_key
        self._middle_cache_graph = graph
        return graph


#: scheme -> (frozen policy factory, live policy factory)
POLICY_PAIRS = {
    "dynamic-single": (FrozenDynamicSingle, DynamicSinglePathPolicy),
    "dynamic-two-disjoint": (FrozenDynamicTwoDisjoint, DynamicTwoDisjointPolicy),
    "dynamic-three-disjoint": (
        lambda: FrozenDynamicTwoDisjoint(k=3),
        lambda: DynamicTwoDisjointPolicy(k=3),
    ),
    "targeted": (FrozenTargeted, TargetedRedundancyPolicy),
}


# -- strategies -----------------------------------------------------------------

#: Name order and ``repr`` order disagree: ``repr`` sorts "a b" < "a!" < "a"
#: and puts the double-quoted "b'" first.
NAMES = ("a", "a b", "a!", "b", "b'", "c", "c#", "d", "d e", "e", "f", "g")
#: Latency palettes, one per graph: hop counts (every equal-hop path
#: ties), zeros, near ties (0.1 + 0.2 != 0.3 == 0.15 + 0.15) and a mix.
PALETTES = (
    (1.0,),
    (0.0, 1.0),
    (0.1, 0.15, 0.2, 0.3),
    (0.0, 0.1, 0.15, 0.2, 0.3, 1.0, 2.0),
)
#: Clean, sub-threshold, degraded, nearly dead and dead (threshold 0.02).
LOSSES = (0.0, 0.01, 0.05, 0.5, 0.995, 1.0)
DEGRADED_LOSSES = (0.05, 0.5, 0.995, 1.0)
CLEAN_LOSSES = (0.0, 0.01)
EXTRAS = (0.0, 0.1, 0.2, 5.0, 50.0)


@dataclass(frozen=True)
class GraphSpec:
    """A digraph as Hypothesis draws it: node names and weighted edges."""

    names: tuple[str, ...]
    links: tuple[tuple[str, str, float], ...]

    def topology(self) -> Topology:
        topology = Topology("oracle")
        for name in self.names:
            topology.add_node(name)
        for source, target, latency in self.links:
            topology.add_link(source, target, latency, bidirectional=False)
        return topology.freeze()


@st.composite
def graph_specs(draw, strongly_connected: bool = False) -> GraphSpec:
    count = draw(st.integers(min_value=3, max_value=12))
    names = tuple(draw(st.permutations(NAMES))[:count])
    pairs = [(u, v) for u in names for v in names if u != v]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, min_size=count, max_size=40)
    )
    if strongly_connected:
        ring = [(names[i], names[(i + 1) % count]) for i in range(count)]
        chosen = list(dict.fromkeys(ring + chosen))
    palette = draw(st.sampled_from(PALETTES))
    links = tuple(
        (u, v, draw(st.sampled_from(palette), label=f"latency {u}->{v}"))
        for u, v in chosen
    )
    return GraphSpec(names, links)


def link_states(edges: Sequence[Edge]):
    return st.dictionaries(
        st.sampled_from(list(edges)),
        st.builds(LinkState, st.sampled_from(LOSSES), st.sampled_from(EXTRAS)),
        max_size=min(len(edges), 8),
    )


def reloss(draw, view: dict) -> dict:
    """``view`` with fresh loss rates but the same degraded set and inflations."""
    return {
        edge: LinkState(
            draw(
                st.sampled_from(
                    DEGRADED_LOSSES if state.loss_rate >= 0.02 else CLEAN_LOSSES
                )
            ),
            state.extra_latency_ms,
        )
        for edge, state in view.items()
    }


def reinflate(draw, view: dict) -> dict:
    """``view`` with fresh latency inflations but the same loss rates."""
    return {
        edge: LinkState(state.loss_rate, draw(st.sampled_from(EXTRAS)))
        for edge, state in view.items()
    }


@st.composite
def view_sequences(draw, edges: Sequence[Edge]) -> list[tuple[float, dict]]:
    """Timed views that revisit earlier ones with new losses or inflations.

    A loss-only revisit keeps the fingerprint (degraded set and
    inflations); an inflation-only revisit keeps the degraded set.
    """
    sequence: list[dict] = []
    for view in draw(st.lists(link_states(edges), min_size=1, max_size=8)):
        sequence.append(view)
        revisit = draw(st.sampled_from((None, reloss, reinflate)))
        if revisit is not None:
            sequence.append(revisit(draw, draw(st.sampled_from(sequence))))
    gaps = draw(
        st.lists(
            st.sampled_from((0.0, 0.5, 4.0, 30.0)),
            min_size=len(sequence),
            max_size=len(sequence),
        )
    )
    times, now = [], 0.0
    for gap in gaps:
        now += gap
        times.append(now)
    return list(zip(times, sequence))


@st.composite
def flow_networks(draw) -> tuple[list[str], list[tuple[str, str]]]:
    """Node insertion order and arcs of a small flow network.

    Two to four source->sink chains of one to three inner nodes, plus
    random arcs between any two nodes and reversed copies of some arcs:
    the second and third units often have to cancel flow through a
    residual twin, and parallel and antiparallel arcs are common.
    """
    rows = draw(st.integers(min_value=2, max_value=4))
    length = draw(st.integers(min_value=1, max_value=3))
    chains = [
        ["s", *(f"{'abcd'[row]}{column}" for column in range(length)), "t"]
        for row in range(rows)
    ]
    names = [name for chain in chains for name in chain[1:-1]] + ["s", "t"]
    pairs = [(u, v) for u in names for v in names if u != v]
    links = [link for chain in chains for link in zip(chain, chain[1:])]
    links += draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=20))
    links += [(v, u) for u, v in draw(st.lists(st.sampled_from(links), max_size=6))]
    return draw(st.permutations(names)), draw(st.permutations(links))


def exact(values: Mapping) -> dict:
    """Floats as hex strings, so equality is bitwise."""
    return {key: float(value).hex() for key, value in values.items()}


# -- the min-cost-flow solver ------------------------------------------------------


class TestFlowSolver:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_frozen_solver(self, data):
        """The live solver against the frozen one, send by send.

        Integer costs (zeros included) tie; the live network is re-solved
        twice by forks that may close arcs (capacity 0), while the frozen
        one is built fresh with the same arcs.  The live solver relaxes
        residual twins only where flow has passed, runs its first
        Dijkstra without potentials or residual tests, defers each pass's
        last push and stops its last augmentation at the sink: none may
        change a cost, a flow arc or a decomposed path.
        """
        order, links = data.draw(flow_networks())
        costs = [float(data.draw(st.integers(0, 4))) for _link in links]
        capacities = [1] * len(links)
        network = LiveMinCostFlow()
        for node in order:
            network.add_node(node)
        arcs = [
            network.add_arc(tail, head, 1, cost)
            for (tail, head), cost in zip(links, costs)
        ]
        live = network
        for round_ in range(3):
            if round_:
                costs = [float(data.draw(st.integers(0, 4))) for _link in links]
                capacities = [
                    data.draw(st.sampled_from((0, 1, 1, 1))) for _link in links
                ]
                live = network.fork(
                    costs,
                    [arc for arc, units in zip(arcs, capacities) if not units],
                )
            frozen = MinCostFlow()
            for node in order:
                frozen.add_node(node)
            for (tail, head), cost, capacity in zip(links, costs, capacities):
                frozen.add_arc(tail, head, capacity, cost)
            units = data.draw(st.integers(min_value=1, max_value=3))
            want_sent, want_cost = frozen.send("s", "t", units)
            got_sent, got_cost = live.send("s", "t", units)
            assert (got_sent, got_cost.hex()) == (want_sent, want_cost.hex())
            assert live.flow_arcs() == frozen_flow_arcs(frozen)
            assert live.decompose_paths("s", "t") == frozen.decompose_paths("s", "t")


# -- single calls ------------------------------------------------------------------

#: Reaching ``x`` through "a b" costs 0.15 + 0.15 == 0.3 exactly, but the
#: search first reaches it through "a!" at 0.1 + 0.2 == 0.30000000000000004;
#: the min-cost flow's 1e-15 slack keeps that first route.
NEAR_TIE = GraphSpec(
    ("s", "a!", "a b", "x", "t"),
    (
        ("s", "a!", 0.1), ("a!", "x", 0.2), ("s", "a b", 0.15),
        ("a b", "x", 0.15), ("x", "t", 1.0), ("s", "t", 2.0),
    ),
)


class TestSingleCalls:
    def check(self, spec: GraphSpec, observed: dict, source, target, excluded):
        topology = spec.topology()
        index = topology.routing_index
        excluded_ids = index.link_ids(excluded)
        network = SplitNetwork(index, source, target)
        for penalize in (False, True):
            adjacency = observed_adjacency(
                topology, observed, exclude=excluded, penalize_loss=penalize
            )
            weights = observed_weights(index, observed, penalize_loss=penalize)
            assert exact(
                {(u, v): w for u in adjacency for v, w in adjacency[u].items()}
            ) == exact(
                {
                    edge: weights[link]
                    for link, edge in enumerate(index.edges)
                    if edge not in excluded
                }
            )
            full = observed_adjacency(topology, observed, penalize_loss=penalize)
            for origin in (source, target):
                for reverse in (False, True):
                    frozen = single_source_distances(
                        reverse_adjacency(full) if reverse else full, origin
                    )
                    live = index.distances(weights, origin, reverse=reverse)
                    assert exact(frozen) == exact(
                        {
                            index.names[rank]: distance
                            for rank, distance in enumerate(live)
                            if distance != _INF
                        }
                    )
            try:
                expected = shortest_path(adjacency, source, target)[0]
            except NoPathError:
                expected = None
            assert index.shortest_path(weights, source, target, excluded_ids) == expected
            for k in (1, 2, 3):
                expected_paths = disjoint_paths(adjacency, source, target, k)
                assert network.disjoint_paths(weights, k, excluded_ids) == expected_paths
        frozen_through = timely_edge_latencies(topology, observed, source, target)
        live_through = live_timely_edge_latencies(topology, observed, source, target)
        assert list(live_through) == list(frozen_through)
        assert exact(live_through) == exact(frozen_through)

    def check_all_pairs(self, spec: GraphSpec, observed: dict, excluded):
        """Every ordered pair's shortest path and cheapest disjoint path.

        Ties between equal paths are what neighbour order and the flow's
        1e-15 slack decide, and every pair is another chance to meet one.
        """
        topology = spec.topology()
        index = topology.routing_index
        excluded_ids = index.link_ids(excluded)
        adjacency = observed_adjacency(topology, observed, exclude=excluded)
        weights = observed_weights(index, observed)
        for source in spec.names:
            for target in spec.names:
                if source == target:
                    continue
                try:
                    expected = shortest_path(adjacency, source, target)[0]
                except NoPathError:
                    expected = None
                assert (
                    index.shortest_path(weights, source, target, excluded_ids)
                    == expected
                )
                network = SplitNetwork(index, source, target)
                for k in (1, 2):
                    assert network.disjoint_paths(
                        weights, k, excluded_ids
                    ) == disjoint_paths(adjacency, source, target, k)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_hypothesis_digraphs(self, data):
        spec = data.draw(graph_specs())
        topology = spec.topology()
        edges = topology.edges
        observed = data.draw(link_states(edges))
        source, target = data.draw(st.permutations(spec.names))[:2]
        excluded = frozenset(data.draw(st.lists(st.sampled_from(edges), unique=True)))
        self.check(spec, observed, source, target, excluded)
        self.check_all_pairs(spec, observed, excluded)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_split_network_keeps_the_dict_arc_order(self, data):
        """Nodes and arcs come in the frozen node splitting's order.

        Equal-distance ties in the solver's Dijkstra go by push order,
        which follows the arc order, so a reordered network could pick
        another of two equally cheap pairs on some graph.
        """
        spec = data.draw(graph_specs())
        topology = spec.topology()
        source, target = data.draw(st.permutations(spec.names))[:2]
        split = split_nodes(observed_adjacency(topology, {}), (source, target))
        solver = SplitNetwork(topology.routing_index, source, target)._solver
        nodes, heads = solver._nodes, solver._head
        assert nodes == list(split)
        assert [
            (nodes[heads[arc + 1]], nodes[heads[arc]], solver._cost[arc])
            for arc in range(0, len(heads), 2)
        ] == [
            (tail, head, weight)
            for tail, neighbors in split.items()
            for head, weight in neighbors.items()
        ]

    def test_near_tie_keeps_the_first_route(self):
        self.check(NEAR_TIE, {}, "s", "t", frozenset())
        index = NEAR_TIE.topology().routing_index
        network = SplitNetwork(index, "s", "t")
        assert network.disjoint_paths(list(index.latencies), 1) == [["s", "a!", "x", "t"]]

    def test_repr_order_breaks_path_ties(self):
        """Equal-length paths: the ``repr``-first neighbour is settled first."""
        spec = GraphSpec(
            ("s", "a", "a b", "t"),
            (("s", "a", 1.0), ("s", "a b", 1.0), ("a", "t", 1.0), ("a b", "t", 1.0)),
        )
        self.check(spec, {}, "s", "t", frozenset())
        index = spec.topology().routing_index
        assert index.shortest_path(list(index.latencies), "s", "t") == ["s", "a b", "t"]

    def test_disconnecting_exclusion(self, reference_topology):
        spec = GraphSpec(
            reference_topology.nodes,
            tuple(
                (link.source, link.target, link.latency_ms)
                for link in reference_topology.iter_links()
            ),
        )
        cut = frozenset(reference_topology.adjacent_edges("NYC"))
        observed = {edge: LinkState(0.5, 3.0) for edge in sorted(cut)[:3]}
        self.check(spec, observed, "NYC", "SJC", cut)
        self.check(spec, observed, "NYC", "SJC", frozenset())


class TestSteinerArborescence:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_hypothesis_digraphs(self, data):
        """Forward with the target skipped, as the destination-problem
        graph searches, and reversed with the source skipped, as the
        source-problem graph does."""
        spec = data.draw(graph_specs())
        topology = spec.topology()
        index = topology.routing_index
        source, target = data.draw(st.permutations(spec.names))[:2]
        terminals = data.draw(st.lists(st.sampled_from(spec.names), unique=True))
        forward = steiner_arborescence(
            adjacency_from_topology(topology, exclude_nodes=(target,)),
            source,
            terminals,
        )
        assert index.steiner_arborescence(source, terminals, target) == forward
        backward = steiner_arborescence(
            reverse_adjacency(
                adjacency_from_topology(topology, exclude_nodes=(source,))
            ),
            target,
            terminals,
        )
        assert index.steiner_arborescence(target, terminals, source, reverse=True) == {
            (v, u) for u, v in backward
        }


# -- graph builders ----------------------------------------------------------------

def frozen_problem_graphs(
    topology: Topology,
    source,
    destination,
    max_entry_links=None,
    max_exit_links=None,
    deadline_ms=None,
    prefix: str = "",
) -> tuple[DisseminationGraph, ...]:
    """The frozen builders' graphs for one live ``problem_graphs`` call:
    base, source-problem, destination-problem and robust, named as the
    live builder names them."""
    return (
        two_disjoint_paths_graph(topology, source, destination, name=f"{prefix}base"),
        source_problem_graph(
            topology,
            source,
            destination,
            max_exit_links=max_exit_links,
            deadline_ms=deadline_ms,
            name=f"{prefix}source-problem",
        ),
        destination_problem_graph(
            topology,
            source,
            destination,
            max_entry_links=max_entry_links,
            deadline_ms=deadline_ms,
            name=f"{prefix}destination-problem",
        ),
        robust_source_destination_graph(
            topology,
            source,
            destination,
            max_entry_links=max_entry_links,
            max_exit_links=max_exit_links,
            deadline_ms=deadline_ms,
            name=f"{prefix}robust",
        ),
    )


def builder_calls(deadlines, problem_settings) -> list:
    """``(frozen builder, live builder, keyword arguments)`` per compared
    call: flooding at each deadline, and the four graphs of one
    ``problem_graphs`` call at each ``(entry/exit limit, deadline)``
    setting."""
    calls = [
        (single_path_graph, live_builders.single_path_graph, {}),
        (two_disjoint_paths_graph, live_builders.two_disjoint_paths_graph, {}),
        (k_disjoint_paths_graph, live_builders.k_disjoint_paths_graph, {"k": 3}),
    ]
    calls += [
        (
            time_constrained_flooding_graph,
            live_builders.time_constrained_flooding_graph,
            {"deadline_ms": deadline},
        )
        for deadline in deadlines
    ]
    calls += [
        (
            frozen_problem_graphs,
            live_builders.problem_graphs,
            {
                "max_entry_links": limit,
                "max_exit_links": limit,
                "deadline_ms": deadline,
            },
        )
        for limit, deadline in problem_settings
    ]
    return calls


#: On the overlays: deadlines the shortest path misses (1 ms: problem
#: graphs keep their unpruned fallback), meets tightly and loosely, and
#: no deadline at all.
OVERLAY_CALLS = builder_calls(
    (1.0, 40.0, 65.0, 130.0),
    ((None, None), (None, 65.0), (1, 40.0), (2, 130.0), (None, 1.0)),
)


def described(graphs) -> list:
    """Name, endpoints and sorted edges of a graph or a tuple of graphs."""
    if isinstance(graphs, DisseminationGraph):
        graphs = (graphs,)
    return [
        (graph.name, graph.source, graph.destination, graph.sorted_edges())
        for graph in graphs
    ]


def assert_same_graphs(topology: Topology, pairs, calls=OVERLAY_CALLS) -> None:
    for source, destination in pairs:
        for frozen, live, kwargs in calls:
            want, got = (
                builder(topology, source, destination, **kwargs)
                for builder in (frozen, live)
            )
            assert described(got) == described(want), (
                live.__name__, kwargs, source, destination
            )


class TestBuilders:
    """Every builder's graph equals the frozen dict builder's."""

    def test_every_reference_pair(self, reference_topology):
        nodes = reference_topology.nodes
        assert_same_graphs(
            reference_topology, [(s, d) for s in nodes for d in nodes if s != d]
        )

    def test_every_isp_hier_100_flow(self):
        workload = resolve_workload("isp-hier", 100, 7)
        assert_same_graphs(
            workload.topology,
            [(flow.source, flow.destination) for flow in workload.flows],
        )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_hypothesis_digraphs(self, data):
        """One-way links and tied latencies, which the symmetric overlays
        lack: a search in the wrong direction or a tie broken another way
        shows here."""
        spec = data.draw(graph_specs(strongly_connected=True))
        source, destination = data.draw(st.permutations(spec.names))[:2]
        deadline = data.draw(st.sampled_from((0.5, 1.0, 2.5)))
        limit = data.draw(st.sampled_from((None, 1, 2)))
        assert_same_graphs(
            spec.topology(),
            [(source, destination)],
            builder_calls((deadline,), ((limit, None), (limit, deadline))),
        )


class TestTargetedAttach:
    """A targeted policy's attached graphs equal the frozen builders'.

    Entry and exit limits differ, so a limit applied on the wrong side
    shows, and so does a side choosing its neighbours by the other
    side's distances.
    """

    LIMITS = ((None, None), (1, 2))

    def assert_attached(self, topology: Topology, pairs) -> None:
        service = ServiceSpec()
        for max_entry_links, max_exit_links in self.LIMITS:
            for source, destination in pairs:
                policy = TargetedRedundancyPolicy(
                    max_entry_links=max_entry_links, max_exit_links=max_exit_links
                )
                policy.attach(topology, FlowSpec(source, destination), service)
                graphs = policy.problem_graphs
                got = (
                    policy._base_graph,
                    graphs[ProblemType.SOURCE],
                    graphs[ProblemType.DESTINATION],
                    graphs[ProblemType.SOURCE_AND_DESTINATION],
                )
                want = frozen_problem_graphs(
                    topology,
                    source,
                    destination,
                    max_entry_links=max_entry_links,
                    max_exit_links=max_exit_links,
                    deadline_ms=service.deadline_ms,
                    prefix="targeted/",
                )
                assert described(got) == described(want), (
                    max_entry_links, max_exit_links, source, destination
                )

    def test_every_reference_pair(self, reference_topology):
        nodes = reference_topology.nodes
        self.assert_attached(
            reference_topology, [(s, d) for s in nodes for d in nodes if s != d]
        )

    def test_every_isp_hier_100_flow(self):
        workload = resolve_workload("isp-hier", 100, 7)
        self.assert_attached(
            workload.topology,
            [(flow.source, flow.destination) for flow in workload.flows],
        )


# -- decision sequences ----------------------------------------------------------------


def decisions(policy, topology, flow, service, timed_views, with_deltas):
    policy.attach(topology, flow, service)
    made, previous = [], {}
    for now_s, view in timed_views:
        changed = None
        if with_deltas:
            changed = frozenset(
                edge
                for edge in set(view) | set(previous)
                if view.get(edge) != previous.get(edge)
            )
        graph = policy.update(now_s, view, changed=changed)
        made.append((graph.name, graph.sorted_edges()))
        previous = view
    return made


def assert_same_decisions(topology, flow, service, timed_views):
    for scheme, (frozen, live) in POLICY_PAIRS.items():
        for with_deltas in (False, True):
            expected = decisions(
                frozen(), topology, flow, service, timed_views, with_deltas
            )
            got = decisions(live(), topology, flow, service, timed_views, with_deltas)
            assert got == expected, (scheme, with_deltas)


def assert_same_candidates(topology, flow, service, timed_views):
    """Targeted's timely candidate sets, view by view, on one policy each."""
    frozen, live = FrozenTargeted(), TargetedRedundancyPolicy()
    frozen.attach(topology, flow, service)
    live.attach(topology, flow, service)
    edges = topology.routing_index.edges
    for _now_s, view in timed_views:
        kept = live._candidate_edges(view)
        assert {edges[link] for link in kept} == frozen._candidate_edges(view)


#: A, then clean, then A again with the two routes' loss rates swapped.
#: Both times every route is degraded, so the loss-penalised fallback
#: decides, and it must pick the (now) less lossy route.
def fallback_revisit_case():
    spec = GraphSpec(
        ("s", "a", "b", "c", "t"),
        tuple(
            (u, v, 1.0)
            for middle in ("a", "b", "c")
            for u, v in (("s", middle), (middle, "t"), (middle, "s"), ("t", middle))
        ),
    )
    first = {
        ("s", "a"): LinkState(0.05),
        ("s", "b"): LinkState(0.5),
        ("s", "c"): LinkState(0.995),
    }
    swapped = {
        ("s", "a"): LinkState(0.995),
        ("s", "b"): LinkState(0.5),
        ("s", "c"): LinkState(0.05),
    }
    return spec, [(0.0, first), (30.0, {}), (60.0, swapped)]


class TestDecisionSequences:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hypothesis_view_sequences(self, data):
        spec = data.draw(graph_specs(strongly_connected=True))
        topology = spec.topology()
        source, target = data.draw(st.permutations(spec.names))[:2]
        deadline = data.draw(st.sampled_from((1.0, 2.5, 65.0)))
        timed_views = data.draw(view_sequences(topology.edges))
        flow, service = FlowSpec(source, target), ServiceSpec(deadline_ms=deadline)
        assert_same_decisions(topology, flow, service, timed_views)
        assert_same_candidates(topology, flow, service, timed_views)

    def test_fallback_revisit_recomputes(self):
        spec, timed_views = fallback_revisit_case()
        topology = spec.topology()
        assert_same_decisions(topology, FlowSpec("s", "t"), ServiceSpec(), timed_views)
        single = decisions(
            DynamicSinglePathPolicy(), topology, FlowSpec("s", "t"), ServiceSpec(),
            timed_views, with_deltas=True,
        )
        assert single[0] != single[2]  # the fallback read the new loss rates

    def test_timely_candidates_follow_inflation(self):
        """Same degraded set, new inflation: the candidate set must move."""
        spec, _views = fallback_revisit_case()
        timed_views = [
            (float(step), {("s", "a"): LinkState(0.5), ("b", "t"): LinkState(0.0, extra)})
            for step, extra in enumerate((0.0, 1.0, 0.0, 5.0))
        ]
        assert_same_candidates(
            spec.topology(), FlowSpec("s", "t"), ServiceSpec(deadline_ms=2.5), timed_views
        )


# -- the seed-7 nine-hour replay views ----------------------------------------------


@pytest.fixture(scope="module", params=["reference", "isp-hier-100"])
def replay_views(request):
    """The trace's views, the flows to replay, and those replayed without deltas.

    Every flow of the 12-site overlay and two of isp-hier N=100 (the
    frozen policies are slow there); the delta-free path, which only
    skips fewer boundaries, on a few of them.
    """
    if request.param == "reference":
        workload = resolve_workload()
        flows, without_deltas = workload.flows, workload.flows[:4]
    else:
        workload = resolve_workload("isp-hier", 100, 7)
        flows, without_deltas = workload.flows[:2], workload.flows[:1]
    _events, timeline = scenarios.generate_timeline(
        workload.topology, scenarios.Scenario(duration_s=9 * 3600.0), seed=7
    )
    boundaries = decision_boundaries(timeline, 1.0)
    views, deltas = observed_views_with_deltas(timeline, boundaries, 1.0)
    runs = [(flow, deltas) for flow in flows]
    runs += [(flow, None) for flow in without_deltas]
    return workload.topology, timeline, boundaries, views, runs


def test_seed7_replay_decisions_match(replay_views):
    topology, timeline, boundaries, views, runs = replay_views
    service = ServiceSpec()
    for scheme, (frozen, live) in POLICY_PAIRS.items():
        for flow, deltas in runs:
            expected, got = (
                [
                    (span.start_s, span.end_s, span.graph.name, span.graph.sorted_edges())
                    for span in build_decision_timeline(
                        topology, timeline, flow, service, factory(),
                        detection_delay_s=1.0,
                        boundaries=list(boundaries),
                        observed_views=list(views),
                        observed_deltas=deltas,
                    )
                ]
                for factory in (frozen, live)
            )
            assert got == expected, (scheme, flow.name, deltas is not None)


#: SHA-256 of the decision spans of all 48 (scheme, flow) pairs on the
#: seed-7 9-hour isp-hier N=100 views (see :func:`span_records`), taken
#: from the live policies before the flow networks were shared per
#: (topology, flow).  The frozen policies above are too slow to replay
#: all eight flows; this pins the six fully, static and flooding too.
ISP_HIER_100_SPANS_SHA256 = (
    "15b06d9d4df1f423a226ffaf0a55b36bfd73949cd7cd5121df1c73b49661a50a"
)


def span_records(workload) -> list:
    """Per pair, in scheme then flow order: each span's endpoints as
    ``float.hex()``, graph name and sorted edges, with change deltas."""
    topology = workload.topology
    _events, timeline = scenarios.generate_timeline(
        topology, scenarios.Scenario(duration_s=9 * 3600.0), seed=7
    )
    boundaries = decision_boundaries(timeline, 1.0)
    views, deltas = observed_views_with_deltas(timeline, boundaries, 1.0)
    records = []
    for scheme in STANDARD_SCHEME_NAMES:
        for flow in workload.flows:
            spans = build_decision_timeline(
                topology, timeline, flow, ServiceSpec(), make_policy(scheme),
                detection_delay_s=1.0,
                boundaries=list(boundaries),
                observed_views=list(views),
                observed_deltas=deltas,
            )
            records.append([
                scheme,
                flow.name,
                [
                    [span.start_s.hex(), span.end_s.hex(), span.graph.name,
                     span.graph.sorted_edges()]
                    for span in spans
                ],
            ])
    return records


def test_seed7_isp_hier_100_spans_digest():
    workload = resolve_workload("isp-hier", 100, 7)
    assert len(workload.flows) == 8
    records = span_records(workload)
    assert len(records) == 48
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == ISP_HIER_100_SPANS_SHA256
