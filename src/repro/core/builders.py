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
  over *all* available adjacent links.

All builders require a frozen topology, route on its
:class:`~repro.core.algorithms.routing_index.RoutingIndex` at base
latencies, and return pruned graphs (dead edges removed) so the reported
cost counts only edges that can carry a useful copy.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.algorithms import NoPathError, SplitNetwork
from repro.core.dgraph import DisseminationGraph
from repro.core.graph import NodeId, Topology
from repro.util.validation import require

__all__ = [
    "single_path_graph",
    "k_disjoint_paths_graph",
    "two_disjoint_paths_graph",
    "time_constrained_flooding_graph",
    "source_problem_graph",
    "destination_problem_graph",
    "robust_source_destination_graph",
    "union_problem_graphs",
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
    network = SplitNetwork(index, source, destination)
    paths = network.disjoint_paths(index.latencies, k)
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
    require(deadline_ms > 0, f"deadline must be positive, got {deadline_ms}")
    index = topology.routing_index
    through = index.through_latencies(index.latencies, source, destination)
    graph = DisseminationGraph(
        source,
        destination,
        frozenset(edge for edge, ms in through.items() if ms <= deadline_ms),
        name=name or f"flooding-{deadline_ms:g}ms",
    )
    return graph.pruned()


def _select_entry_nodes(
    topology: Topology,
    endpoint: NodeId,
    neighbors: Sequence[NodeId],
    other_end: NodeId,
    limit: int | None,
    detour_budget_ms: float | None,
    entry_side: bool,
) -> list[NodeId]:
    """Pick which of ``endpoint``'s neighbours the problem graph covers.

    With no limit every *useful* neighbour is used (maximum protection);
    ``detour_budget_ms`` drops neighbours through which no copy can reach
    the destination within the deadline -- redundancy that can only
    produce late copies is pure cost.  With a limit, the neighbours
    offering the fastest detour are preferred.

    ``entry_side`` selects the direction: True for the destination's
    in-neighbours (detour = source ->* n -> destination), False for the
    source's out-neighbours (detour = source -> n ->* destination).
    """
    candidates = [n for n in neighbors if n != other_end]
    index = topology.routing_index
    distances = index.distances(index.latencies, other_end, reverse=not entry_side)
    rank = index.rank
    if entry_side:

        def detour_ms(n: NodeId) -> float:
            return distances[rank[n]] + topology.latency(n, endpoint)

    else:

        def detour_ms(n: NodeId) -> float:
            return topology.latency(endpoint, n) + distances[rank[n]]

    if detour_budget_ms is not None:
        candidates = [n for n in candidates if detour_ms(n) <= detour_budget_ms]
    if limit is None or limit >= len(candidates):
        return sorted(candidates)
    candidates.sort(key=lambda n: (detour_ms(n), n))
    return sorted(candidates[:limit])


def _deadline_prune(
    topology: Topology,
    graph: DisseminationGraph,
    deadline_ms: float | None,
    name: str,
) -> DisseminationGraph:
    """Drop edges that can never carry an on-time copy.

    Uses the time-constrained-flooding criterion (a necessary condition
    for usefulness), so only certainly-useless edges are removed.  If
    pruning would disconnect the flow (deadline tighter than the shortest
    path) the unpruned graph is kept -- best effort beats nothing.
    """
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
    source: NodeId,
    destination: NodeId,
    max_entry_links: int | None = None,
    deadline_ms: float | None = None,
    name: str = "destination-problem",
) -> DisseminationGraph:
    """Targeted redundancy around a problematic destination.

    The graph delivers each packet to the destination over **all** (or the
    best ``max_entry_links``) of its usable incoming overlay links: a
    cheap Steiner arborescence carries the packet from the source to each
    of the destination's neighbours (never routing *through* the
    destination), and each neighbour forwards to the destination.  The
    two-disjoint-paths graph is unioned in as the base so the problem
    graph is never worse than normal operation.  With ``deadline_ms``,
    neighbours and edges that could only yield late copies are excluded.
    """
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
    edges = set(base.edges) | topology.routing_index.steiner_arborescence(
        source, entries, skip=destination
    )
    for entry in entries:
        if topology.has_edge(entry, destination):
            edges.add((entry, destination))
    graph = DisseminationGraph(source, destination, frozenset(edges), name=name)
    return _deadline_prune(topology, graph, deadline_ms, name)


def source_problem_graph(
    topology: Topology,
    source: NodeId,
    destination: NodeId,
    max_exit_links: int | None = None,
    deadline_ms: float | None = None,
    name: str = "source-problem",
) -> DisseminationGraph:
    """Targeted redundancy around a problematic source (mirror image).

    The source sends on **all** (or the best ``max_exit_links``) of its
    usable outgoing overlay links, and a reverse Steiner arborescence
    funnels the copies from those neighbours to the destination without
    routing back through the source.
    """
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
    edges = set(base.edges) | topology.routing_index.steiner_arborescence(
        destination, exits, skip=source, reverse=True
    )
    for exit_node in exits:
        if topology.has_edge(source, exit_node):
            edges.add((source, exit_node))
    graph = DisseminationGraph(source, destination, frozenset(edges), name=name)
    return _deadline_prune(topology, graph, deadline_ms, name)


def robust_source_destination_graph(
    topology: Topology,
    source: NodeId,
    destination: NodeId,
    max_entry_links: int | None = None,
    max_exit_links: int | None = None,
    deadline_ms: float | None = None,
    name: str = "robust-source-destination",
) -> DisseminationGraph:
    """Union of the source-problem and destination-problem graphs.

    Used when problems are detected at both endpoints simultaneously (or
    when the classifier cannot localise the problem to one endpoint).
    """
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
    deadline_ms: float | None,
    name: str,
) -> DisseminationGraph:
    """The robust graph from built destination- and source-problem graphs.

    Their edge union, pruned to edges that can still carry an on-time
    copy.  A caller that already holds both problem graphs (targeted
    redundancy builds all three at attach) builds each of them once.
    """
    union = destination_graph.union(source_graph, name=name)
    return _deadline_prune(topology, union, deadline_ms, name)
