"""Overlay topology substrate.

The overlay network is a graph of overlay nodes (daemons running at
data-center sites) connected by *overlay links* (UDP paths between
neighbouring sites).  Links are physically bidirectional but conditions can
be asymmetric, so the topology is stored as **directed** edges; the common
case of a symmetric link is added with one call to :meth:`Topology.add_link`.

Each directed edge carries its *base* propagation latency in milliseconds.
Time-varying conditions (loss, inflated latency) are deliberately not part
of the topology -- they live in :mod:`repro.netmodel.conditions` -- so that
a single immutable topology can be shared by every scheme and every replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.core.algorithms.routing_index import RoutingIndex
from repro.util.digest import stable_hash
from repro.util.validation import fail, require

__all__ = ["NodeId", "Edge", "Link", "Topology"]

NodeId = str
Edge = tuple[NodeId, NodeId]


@dataclass(frozen=True)
class Link:
    """A directed overlay link with its static base latency.

    ``latency_ms`` is the one-way propagation latency under normal
    conditions.  ``cost`` is the per-message cost of sending on the link;
    the paper counts cost as messages sent per packet, so the default cost
    of 1.0 makes graph cost equal edge count.
    """

    source: NodeId
    target: NodeId
    latency_ms: float
    cost: float = 1.0

    def __post_init__(self) -> None:
        require(self.source != self.target, "self-loop links are not allowed")
        require(self.latency_ms >= 0, f"latency must be >= 0, got {self.latency_ms}")
        require(self.cost >= 0, f"cost must be >= 0, got {self.cost}")

    @property
    def edge(self) -> Edge:
        """The directed ``(source, target)`` pair."""
        return (self.source, self.target)


class Topology:
    """An immutable-after-construction overlay topology.

    Build with :meth:`add_node` / :meth:`add_link`, then call
    :meth:`freeze`.  All read accessors work before and after freezing, but
    routing code should only ever see frozen topologies (the builders
    enforce this), which guarantees the edge index used for wire encoding
    is stable.
    """

    def __init__(self, name: str = "overlay") -> None:
        self.name = name
        self._nodes: dict[NodeId, dict[str, float]] = {}
        self._links: dict[Edge, Link] = {}
        self._out: dict[NodeId, list[NodeId]] = {}
        self._in: dict[NodeId, list[NodeId]] = {}
        self._frozen = False
        self._edge_index: dict[Edge, int] | None = None
        self._routing_index: RoutingIndex | None = None
        self._digest: str | None = None

    # -- construction ------------------------------------------------------

    def add_node(self, node: NodeId, **attributes: float) -> None:
        """Add a node; ``attributes`` typically hold ``lat``/``lon``."""
        self._check_mutable()
        require(bool(node), "node id must be a non-empty string")
        require(node not in self._nodes, f"duplicate node {node!r}")
        self._nodes[node] = dict(attributes)
        self._out[node] = []
        self._in[node] = []

    def add_link(
        self,
        source: NodeId,
        target: NodeId,
        latency_ms: float,
        cost: float = 1.0,
        bidirectional: bool = True,
    ) -> None:
        """Add a link (both directions by default)."""
        self._check_mutable()
        self._add_directed(Link(source, target, latency_ms, cost))
        if bidirectional:
            self._add_directed(Link(target, source, latency_ms, cost))

    def _add_directed(self, link: Link) -> None:
        require(link.source in self._nodes, f"unknown node {link.source!r}")
        require(link.target in self._nodes, f"unknown node {link.target!r}")
        require(link.edge not in self._links, f"duplicate link {link.edge!r}")
        self._links[link.edge] = link
        self._out[link.source].append(link.target)
        self._in[link.target].append(link.source)

    def freeze(self) -> "Topology":
        """Make the topology immutable and assign the stable edge index.

        Returns ``self`` for chaining.  Freezing an already-frozen topology
        is a no-op.
        """
        if not self._frozen:
            self._frozen = True
            ordered = sorted(self._links)
            self._edge_index = {edge: index for index, edge in enumerate(ordered)}
            for neighbors in self._out.values():
                neighbors.sort()
            for neighbors in self._in.values():
                neighbors.sort()
        return self

    def _check_mutable(self) -> None:
        require(not self._frozen, "topology is frozen and cannot be modified")

    # -- read access -------------------------------------------------------

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has been called."""
        return self._frozen

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """All node ids, sorted."""
        return tuple(sorted(self._nodes))

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All directed edges, sorted."""
        return tuple(sorted(self._links))

    def node_attributes(self, node: NodeId) -> Mapping[str, float]:
        """A copy of the node's attribute mapping (e.g. lat/lon)."""
        if not (node in self._nodes):
            fail(f"unknown node {node!r}")
        return dict(self._nodes[node])

    def has_node(self, node: NodeId) -> bool:
        """True when ``node`` exists in the topology."""
        return node in self._nodes

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        """True when the directed edge exists."""
        return (source, target) in self._links

    def link(self, source: NodeId, target: NodeId) -> Link:
        """The :class:`Link` for a directed edge (raises if absent)."""
        if not ((source, target) in self._links):
            fail(f"no link {(source, target)!r}")
        return self._links[(source, target)]

    def latency(self, source: NodeId, target: NodeId) -> float:
        """Base one-way latency of the directed edge in milliseconds."""
        return self.link(source, target).latency_ms

    def cost(self, source: NodeId, target: NodeId) -> float:
        """Per-message cost of the directed edge."""
        return self.link(source, target).cost

    def out_neighbors(self, node: NodeId) -> tuple[NodeId, ...]:
        """Targets of the node's outgoing edges, sorted."""
        if not (node in self._nodes):
            fail(f"unknown node {node!r}")
        return tuple(self._out[node])

    def in_neighbors(self, node: NodeId) -> tuple[NodeId, ...]:
        """Sources of the node's incoming edges, sorted."""
        if not (node in self._nodes):
            fail(f"unknown node {node!r}")
        return tuple(self._in[node])

    def adjacent_edges(self, node: NodeId) -> tuple[Edge, ...]:
        """All directed edges touching ``node`` (either endpoint)."""
        if not (node in self._nodes):
            fail(f"unknown node {node!r}")
        incident = [(node, neighbor) for neighbor in self._out[node]]
        incident += [(neighbor, node) for neighbor in self._in[node]]
        return tuple(sorted(incident))

    def iter_links(self) -> Iterator[Link]:
        """Iterate all links in sorted edge order."""
        for edge in sorted(self._links):
            yield self._links[edge]

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self._links)

    # -- wire-encoding support ----------------------------------------------

    @property
    def edge_index(self) -> Mapping[Edge, int]:
        """Stable ``edge -> bit position`` mapping (frozen topologies only)."""
        require(self._frozen, "edge_index requires a frozen topology")
        assert self._edge_index is not None
        return self._edge_index

    @property
    def routing_index(self) -> RoutingIndex:
        """Integer-indexed routing graph, built on first use (frozen only)."""
        require(self._frozen, "routing_index requires a frozen topology")
        if self._routing_index is None:
            self._routing_index = RoutingIndex(self)
        return self._routing_index

    @property
    def digest(self) -> str:
        """Hex SHA-256 of the topology's content: name, nodes, links.

        The replay cache keys and run manifests share this one digest.
        A frozen topology computes it once and keeps it; a mutable one
        recomputes it on every read.  Two threads racing on the first
        read compute the same string, so the race is harmless.
        """
        if self._digest is not None:
            return self._digest
        digest = stable_hash(
            {
                "name": self.name,
                "nodes": {
                    node: dict(attributes)
                    for node, attributes in self._nodes.items()
                },
                "links": [
                    [link.source, link.target, link.latency_ms, link.cost]
                    for link in self.iter_links()
                ],
            }
        )
        if self._frozen:
            self._digest = digest
        return digest

    # -- structural queries --------------------------------------------------

    def is_connected(self) -> bool:
        """True when every node reaches every other (treating edges as given)."""
        if not self._nodes:
            return True
        for start in self._nodes:
            if len(self._reachable_from(start)) != len(self._nodes):
                return False
        return True

    def _reachable_from(self, start: NodeId) -> set[NodeId]:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in self._out[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen

    def validate(self) -> None:
        """Check structural invariants, raising on violation.

        Currently: the topology must be strongly connected, which the
        routing layer assumes (every flow between overlay sites must be
        routable under normal conditions).
        """
        require(self.num_nodes >= 2, "topology needs at least two nodes")
        require(self.is_connected(), "topology must be strongly connected")

    # -- misc ---------------------------------------------------------------

    def __contains__(self, node: NodeId) -> bool:
        return node in self._nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, frozen={self._frozen})"
        )
