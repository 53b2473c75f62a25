"""Dissemination graphs -- the paper's unified routing abstraction.

A *dissemination graph* for a flow ``(source, destination)`` is a set of
directed overlay edges.  The forwarding rule is constrained flooding: when
a node receives a packet of the flow for the first time, it forwards a copy
on every outgoing edge of the graph.  A single path, two disjoint paths,
k disjoint paths, and full (time-constrained) flooding are all instances of
the same abstraction, which is what lets one forwarding engine support the
whole spectrum of routing schemes.

The *cost* of a dissemination graph is the number of edges it contains:
each edge carries exactly one copy of each packet, so edges == messages
sent per packet (Section III of the paper).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.core.graph import Edge, NodeId
from repro.util.validation import fail, require

__all__ = ["DisseminationGraph"]

_INF = float("inf")


@dataclass(frozen=True)
class DisseminationGraph:
    """An immutable dissemination graph for a single flow.

    Instances are value objects: equality and hashing consider the flow
    endpoints and the edge set, so graphs can be deduplicated, cached, and
    used as dict keys by the routing policies.
    """

    source: NodeId
    destination: NodeId
    edges: frozenset[Edge]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        require(self.source != self.destination, "source must differ from destination")
        for edge in self.edges:
            if not (isinstance(edge, tuple) and len(edge) == 2):
                fail(f"edge must be a (source, target) pair, got {edge!r}")
            if not (edge[0] != edge[1]):
                fail(f"self-loop edge {edge!r}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_path(
        cls, path: Iterable[NodeId], name: str = ""
    ) -> "DisseminationGraph":
        """Build a single-path graph from a node sequence."""
        nodes = list(path)
        require(len(nodes) >= 2, "a path needs at least two nodes")
        if not (len(set(nodes)) == len(nodes)):
            fail(f"path revisits a node: {nodes!r}")
        edges = frozenset(zip(nodes, nodes[1:]))
        return cls(nodes[0], nodes[-1], edges, name=name)

    @classmethod
    def from_paths(
        cls, paths: Iterable[Iterable[NodeId]], name: str = ""
    ) -> "DisseminationGraph":
        """Build the union graph of several paths sharing endpoints."""
        materialised = [list(path) for path in paths]
        require(bool(materialised), "need at least one path")
        source = materialised[0][0]
        destination = materialised[0][-1]
        edges: set[Edge] = set()
        for nodes in materialised:
            require(len(nodes) >= 2, "a path needs at least two nodes")
            require(
                nodes[0] == source and nodes[-1] == destination,
                "all paths must share the same endpoints",
            )
            edges.update(zip(nodes, nodes[1:]))
        return cls(source, destination, frozenset(edges), name=name)

    @classmethod
    def empty(
        cls, source: NodeId, destination: NodeId, name: str = ""
    ) -> "DisseminationGraph":
        """An edgeless graph (delivers nothing; useful as a unit element)."""
        return cls(source, destination, frozenset(), name=name)

    # -- basic properties ------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Cost of the graph: one message per edge per packet."""
        return len(self.edges)

    @property
    def nodes(self) -> frozenset[NodeId]:
        """Every node touched by an edge, plus the flow endpoints."""
        touched: set[NodeId] = {self.source, self.destination}
        for u, v in self.edges:
            touched.add(u)
            touched.add(v)
        return frozenset(touched)

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        """True when the directed edge is part of the graph."""
        return (source, target) in self.edges

    def out_neighbors(self, node: NodeId) -> tuple[NodeId, ...]:
        """Forwarding targets for ``node`` under constrained flooding."""
        return tuple(sorted(v for (u, v) in self.edges if u == node))

    def in_neighbors(self, node: NodeId) -> tuple[NodeId, ...]:
        """Nodes with an edge into ``node``, sorted."""
        return tuple(sorted(u for (u, v) in self.edges if v == node))

    def sorted_edges(self) -> tuple[Edge, ...]:
        """The edge set as a deterministic sorted tuple."""
        return tuple(sorted(self.edges))

    # -- algebra ---------------------------------------------------------------

    def union(self, other: "DisseminationGraph", name: str = "") -> "DisseminationGraph":
        """Edge-union of two graphs for the same flow."""
        require(
            self.source == other.source and self.destination == other.destination,
            "can only union graphs of the same flow",
        )
        return DisseminationGraph(
            self.source,
            self.destination,
            self.edges | other.edges,
            name=name or f"{self.name}+{other.name}",
        )

    def restrict(self, surviving: Iterable[Edge]) -> "DisseminationGraph":
        """The subgraph induced by ``surviving`` edges (e.g. after losses)."""
        keep = self.edges & frozenset(surviving)
        return DisseminationGraph(self.source, self.destination, keep, name=self.name)

    # -- reachability -----------------------------------------------------------

    def reachable_from_source(self) -> frozenset[NodeId]:
        """Nodes a packet reaches when every edge delivers."""
        adjacency: dict[NodeId, list[NodeId]] = {}
        for u, v in self.edges:
            adjacency.setdefault(u, []).append(v)
        seen = {self.source}
        frontier = [self.source]
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency.get(node, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return frozenset(seen)

    def connects(self) -> bool:
        """True when the graph can deliver source -> destination loss-free."""
        return self.destination in self.reachable_from_source()

    def arrival_times(
        self, latency: Callable[[NodeId, NodeId], float]
    ) -> Mapping[NodeId, float]:
        """Earliest arrival time (ms) at every reachable node.

        Under constrained flooding a packet traverses every edge it can, so
        the earliest copy to reach a node follows the shortest path within
        the graph: a Dijkstra run restricted to the graph's edges.
        ``latency(u, v)`` supplies the current per-edge one-way latency.
        """
        adjacency: dict[NodeId, list[NodeId]] = {}
        for u, v in self.edges:
            adjacency.setdefault(u, []).append(v)
        best: dict[NodeId, float] = {self.source: 0.0}
        heap: list[tuple[float, NodeId]] = [(0.0, self.source)]
        while heap:
            time_now, node = heapq.heappop(heap)
            if time_now > best.get(node, _INF):
                continue
            for neighbor in adjacency.get(node, ()):
                candidate = time_now + latency(node, neighbor)
                if candidate < best.get(neighbor, _INF):
                    best[neighbor] = candidate
                    heapq.heappush(heap, (candidate, neighbor))
        return best

    def delivery_latency(
        self, latency: Callable[[NodeId, NodeId], float]
    ) -> float | None:
        """Earliest arrival at the destination, or None if unreachable."""
        return self.arrival_times(latency).get(self.destination)

    def delivers_within(
        self, latency: Callable[[NodeId, NodeId], float], deadline_ms: float
    ) -> bool:
        """True when the earliest copy arrives within the deadline."""
        arrival = self.delivery_latency(latency)
        return arrival is not None and arrival <= deadline_ms

    # -- pruning ------------------------------------------------------------------

    def pruned(self, name: str = "") -> "DisseminationGraph":
        """Remove edges that can never carry a useful copy.

        An edge is useful only if its tail is reachable from the source and
        its head can still reach the destination within the graph.  Builders
        call this so reported costs never count dead edges.
        """
        forward = self.reachable_from_source()
        reverse_adjacency: dict[NodeId, list[NodeId]] = {}
        for u, v in self.edges:
            reverse_adjacency.setdefault(v, []).append(u)
        reaches_destination = {self.destination}
        frontier = [self.destination]
        while frontier:
            node = frontier.pop()
            for upstream in reverse_adjacency.get(node, ()):
                if upstream not in reaches_destination:
                    reaches_destination.add(upstream)
                    frontier.append(upstream)
        keep = frozenset(
            (u, v)
            for (u, v) in self.edges
            if u in forward and v in reaches_destination
        )
        return DisseminationGraph(
            self.source, self.destination, keep, name=name or self.name
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return (
            f"DisseminationGraph({self.source}->{self.destination}{label}, "
            f"{self.num_edges} edges)"
        )
