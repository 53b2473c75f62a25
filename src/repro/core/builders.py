"""Constructors for every dissemination-graph family the paper evaluates.

Four families (paper Sections III and V):

* **single path** -- lowest-latency path (the traditional approach);
* **k disjoint paths** -- minimum-total-latency set of node-disjoint paths;
* **time-constrained flooding** -- every edge that can still be useful
  within the latency budget: the *optimal* scheme (no graph delivers a
  packet on time if flooding does not) but prohibitively expensive;
* **targeted redundancy** -- the paper's contribution: the two disjoint
  paths plus extra redundancy concentrated around a problematic source or
  destination, constructed so a packet enters (leaves) the problem area
  over *all* available adjacent links.  :func:`problem_graphs` builds a
  flow's whole set in one call -- the base pair, the source- and
  destination-problem graphs and their robust union -- from one base
  solve, two distance passes and one flooding graph.

All builders require a frozen topology, route on its
:class:`~repro.core.algorithms.routing_index.RoutingIndex` at base
latencies, and return pruned graphs (dead edges removed) so the reported
cost counts only edges that can carry a useful copy.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.algorithms import NoPathError, RoutingIndex
from repro.core.dgraph import DisseminationGraph
from repro.core.graph import Edge, NodeId, Topology
from repro.util.validation import require

__all__ = [
    "single_path_graph",
    "k_disjoint_paths_graph",
    "two_disjoint_paths_graph",
    "time_constrained_flooding_graph",
    "problem_graphs",
]


def _check_flow(topology: Topology, source: NodeId, destination: NodeId) -> None:
    require(topology.frozen, "builders require a frozen topology")
    require(topology.has_node(source), f"unknown source {source!r}")
    require(topology.has_node(destination), f"unknown destination {destination!r}")
    require(source != destination, "source must differ from destination")


def single_path_graph(
    topology: Topology,
    source: NodeId,
    destination: NodeId,
    name: str = "single-path",
) -> DisseminationGraph:
    """Lowest-latency single path (raises ``NoPathError`` if disconnected)."""
    _check_flow(topology, source, destination)
    index = topology.routing_index
    path = index.shortest_path(index.latencies, source, destination)
    if path is None:
        raise NoPathError(source, destination)
    return DisseminationGraph.from_path(path, name=name)


def k_disjoint_paths_graph(
    topology: Topology,
    source: NodeId,
    destination: NodeId,
    k: int = 2,
    name: str = "",
) -> DisseminationGraph:
    """Minimum-total-latency set of up to ``k`` node-disjoint paths.

    Falls back gracefully: if fewer than ``k`` disjoint paths exist, the
    graph contains as many as do; if the destination is unreachable,
    raises :class:`NoPathError`.
    """
    _check_flow(topology, source, destination)
    require(k >= 1, f"k must be >= 1, got {k}")
    index = topology.routing_index
    paths = index.network(source, destination).disjoint_paths(index.latencies, k)
    if not paths:
        raise NoPathError(source, destination)
    return DisseminationGraph.from_paths(paths, name=name or f"{k}-disjoint-paths")


def two_disjoint_paths_graph(
    topology: Topology,
    source: NodeId,
    destination: NodeId,
    name: str = "two-disjoint-paths",
) -> DisseminationGraph:
    """The paper's baseline redundant scheme: two node-disjoint paths."""
    return k_disjoint_paths_graph(topology, source, destination, k=2, name=name)


def time_constrained_flooding_graph(
    topology: Topology,
    source: NodeId,
    destination: NodeId,
    deadline_ms: float,
    name: str = "",
) -> DisseminationGraph:
    """Optimal-but-expensive scheme: flood on every potentially useful edge.

    An edge ``(u, v)`` is included when a copy travelling
    ``source ->* u -> v ->* destination`` at base latencies can still meet
    the deadline: ``dist(s, u) + lat(u, v) + dist(v, d) <= deadline``.
    This graph delivers a packet on time whenever *any* dissemination graph
    could, making it the upper bound ("optimal") in the evaluation.
    """
    _check_flow(topology, source, destination)
    index = topology.routing_index
    return _flooding_graph(
        index,
        source,
        destination,
        index.distances(index.latencies, source),
        index.distances(index.latencies, destination, reverse=True),
        deadline_ms,
        name,
    )


def _flooding_graph(
    index: RoutingIndex,
    source: NodeId,
    destination: NodeId,
    from_source: Sequence[float],
    to_destination: Sequence[float],
    deadline_ms: float,
    name: str = "",
) -> DisseminationGraph:
    """The flooding graph from the two base-latency distance passes."""
    require(deadline_ms > 0, f"deadline must be positive, got {deadline_ms}")
    through = index.through_latencies(index.latencies, from_source, to_destination)
    graph = DisseminationGraph(
        source,
        destination,
        frozenset(edge for edge, ms in through.items() if ms <= deadline_ms),
        name=name or f"flooding-{deadline_ms:g}ms",
    )
    return graph.pruned()


def problem_graphs(
    topology: Topology,
    source: NodeId,
    destination: NodeId,
    max_entry_links: int | None = None,
    max_exit_links: int | None = None,
    deadline_ms: float | None = None,
    prefix: str = "",
) -> tuple[DisseminationGraph, ...]:
    """Targeted redundancy's graphs: ``(base, source, destination, robust)``.

    ``base`` is the two-disjoint-paths graph.  The **source-problem**
    graph adds the source's usable outgoing overlay links (all of them,
    or the best ``max_exit_links``) and a cheap reverse Steiner
    arborescence funnelling the copies from those neighbours to the
    destination without routing back through the source.  The
    **destination-problem** graph is its mirror image: an arborescence
    carries each packet from the source to the destination's usable
    in-neighbours (the best ``max_entry_links``), never *through* the
    destination, and each neighbour forwards to it.  The **robust** graph,
    for problems at both endpoints (or ones the classifier cannot
    localise), is the union of the two.  Each contains ``base``, so it is
    never worse than normal operation.  The graphs are named ``prefix``
    plus ``base``, ``source-problem``, ``destination-problem`` and
    ``robust``.

    With ``deadline_ms``, neighbours through which no copy can reach the
    destination in time are left out, and each problem graph is pruned to
    the flooding graph's edges -- the edges that can still carry an
    on-time copy -- unless that would disconnect the flow (a deadline
    below the shortest path), in which case it stays unpruned: best
    effort beats nothing.  The base pair is solved once, and two
    base-latency distance passes serve both the neighbour choice and the
    one flooding graph.
    """
    _check_flow(topology, source, destination)
    index = topology.routing_index
    base = k_disjoint_paths_graph(topology, source, destination, 2, f"{prefix}base")
    from_source = index.distances(index.latencies, source)
    to_destination = index.distances(index.latencies, destination, reverse=True)
    flooding = None
    if deadline_ms is not None:
        flooding = _flooding_graph(
            index, source, destination, from_source, to_destination, deadline_ms
        ).edges

    def prune(graph: DisseminationGraph, name: str) -> DisseminationGraph:
        if flooding is not None:
            candidate = graph.restrict(flooding).pruned(name=name)
            if candidate.connects():
                return candidate
        return graph.pruned(name=name)

    source_graph = prune(
        _endpoint_graph(
            topology, base, source, to_destination, max_exit_links, deadline_ms
        ),
        f"{prefix}source-problem",
    )
    destination_graph = prune(
        _endpoint_graph(
            topology, base, destination, from_source, max_entry_links, deadline_ms
        ),
        f"{prefix}destination-problem",
    )
    robust = prune(destination_graph.union(source_graph), f"{prefix}robust")
    return base, source_graph, destination_graph, robust


def _endpoint_graph(
    topology: Topology,
    base: DisseminationGraph,
    endpoint: NodeId,
    distances: Sequence[float],
    limit: int | None,
    deadline_ms: float | None,
) -> DisseminationGraph:
    """``base`` plus redundancy around the problematic ``endpoint``.

    At the source the candidates are its out-neighbours, and a
    neighbour's detour is the source's link to it plus its ``distances``
    entry (to the destination); at the destination they are its
    in-neighbours, and the detour is the ``distances`` entry (from the
    source) plus the neighbour's link into it.  With ``deadline_ms``
    neighbours whose detour misses it are dropped -- redundancy that can
    only produce late copies is pure cost -- and with ``limit`` only that
    many of the fastest detours are kept (ties by name).
    """
    index = topology.routing_index
    at_source = endpoint == base.source
    if at_source:
        root, neighbors = base.destination, topology.out_neighbors(endpoint)
    else:
        root, neighbors = base.source, topology.in_neighbors(endpoint)

    def link(neighbor: NodeId) -> Edge:
        return (endpoint, neighbor) if at_source else (neighbor, endpoint)

    def detour_ms(neighbor: NodeId) -> float:
        return distances[index.rank[neighbor]] + topology.latency(*link(neighbor))

    chosen = [n for n in neighbors if n != root]
    if deadline_ms is not None:
        chosen = [n for n in chosen if detour_ms(n) <= deadline_ms]
    if limit is not None and limit < len(chosen):
        chosen.sort(key=lambda n: (detour_ms(n), n))
        chosen = sorted(chosen[:limit])
    edges = set(base.edges) | index.steiner_arborescence(
        root, chosen, skip=endpoint, reverse=at_source
    )
    edges.update(link(n) for n in chosen)
    return DisseminationGraph(base.source, base.destination, frozenset(edges))
