"""Routing-policy interface and shared helpers.

A policy's lifecycle is: construct with its parameters, :meth:`attach` to
a (topology, flow, service) triple, then receive :meth:`update` calls with
monotonically non-decreasing timestamps and the *observed* network view --
the conditions as the source's daemon currently believes them to be (the
replay engine applies the detection/propagation delay before calling).
``update`` returns the dissemination graph in effect from that instant.

Policies must be deterministic: the same sequence of updates yields the
same graphs.  That, together with the common-random-number loss draws,
makes whole multi-week replays exactly reproducible.
"""

from __future__ import annotations

import abc
from typing import AbstractSet, Mapping, Sequence

from repro.core.algorithms import NoPathError
from repro.core.algorithms.routing_index import RoutingIndex
from repro.core.dgraph import DisseminationGraph
from repro.core.graph import Edge, NodeId, Topology
from repro.netmodel.conditions import LinkState
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.util.validation import fail, require

__all__ = [
    "RoutingPolicy",
    "degraded_edge_set",
    "graph_connects",
    "inflation_key",
    "observed_weights",
    "timely_edge_latencies",
]

# An observed loss rate at or above this is treated as a dead link when
# judging whether a dissemination graph still connects its endpoints
# (neighbour-liveness declarations advertise exactly 1.0).
DEAD_LOSS_THRESHOLD = 0.99

# Weight surcharge applied to a degraded edge when routing cannot avoid it
# entirely: a full blackout counts like an extra second of latency, so any
# clean alternative -- however long -- wins, but among unavoidable lossy
# edges the least-lossy is chosen.
LOSS_PENALTY_MS_PER_UNIT = 1000.0


class RoutingPolicy(abc.ABC):
    """Base class for all routing schemes."""

    #: Human-readable scheme identifier (stable; used in reports).
    name: str = "abstract"

    #: Whether the scheme reacts to network conditions at all.  Static
    #: schemes are never re-invoked after their first update, which lets
    #: the replay engine skip per-segment work for them.
    is_dynamic: bool = True

    def __init__(self) -> None:
        self._topology: Topology | None = None
        self._flow: FlowSpec | None = None
        self._service: ServiceSpec | None = None
        self._last_update_s = float("-inf")
        self._observed_changed: frozenset[Edge] | None = None
        #: Optional :class:`repro.obs.Observability`; policies emit hot-spot
        #: counters/spans through it when set.  ``None`` keeps the hot path
        #: uninstrumented (the common case).
        self.obs = None

    def set_observability(self, obs) -> "RoutingPolicy":
        """Attach an observability bundle (or ``None`` to detach).

        Instrumentation must never change decisions, so this can be
        called at any point in the lifecycle.
        """
        self.obs = obs
        return self

    # -- lifecycle ----------------------------------------------------------

    def attach(
        self, topology: Topology, flow: FlowSpec, service: ServiceSpec
    ) -> "RoutingPolicy":
        """Bind the policy to a flow; must be called exactly once."""
        require(self._topology is None, f"policy {self.name} is already attached")
        require(topology.frozen, "policies require a frozen topology")
        require(topology.has_node(flow.source), f"unknown source {flow.source!r}")
        require(
            topology.has_node(flow.destination),
            f"unknown destination {flow.destination!r}",
        )
        self._topology = topology
        self._flow = flow
        self._service = service
        self._on_attach()
        return self

    def _on_attach(self) -> None:
        """Hook for subclasses to precompute graphs."""

    @property
    def topology(self) -> Topology:
        """The attached topology (raises if unattached)."""
        if not (self._topology is not None):
            fail(f"policy {self.name} is not attached")
        assert self._topology is not None
        return self._topology

    @property
    def flow(self) -> FlowSpec:
        """The attached flow (raises if unattached)."""
        if not (self._flow is not None):
            fail(f"policy {self.name} is not attached")
        assert self._flow is not None
        return self._flow

    @property
    def service(self) -> ServiceSpec:
        """The attached service spec (raises if unattached)."""
        if not (self._service is not None):
            fail(f"policy {self.name} is not attached")
        assert self._service is not None
        return self._service

    # -- decisions ------------------------------------------------------------

    def update(
        self,
        now_s: float,
        observed: Mapping[Edge, LinkState],
        changed: frozenset[Edge] | None = None,
    ) -> DisseminationGraph:
        """Return the graph in effect from ``now_s`` given the observed view.

        ``observed`` maps degraded edges to their (believed) state; edges
        absent from the mapping are believed clean.  ``changed``, when
        given, names exactly the edges whose observed state differs from
        the view of the previous ``update`` call -- an incremental-replay
        hint that lets caching policies skip recomputation for irrelevant
        changes.  ``None`` means "unknown; anything may have changed".
        Callers that pass deltas are responsible for their accuracy: an
        understated delta silently yields stale decisions.
        """
        if not (self._topology is not None):
            fail(f"policy {self.name} is not attached")
        if not (now_s >= self._last_update_s):
            fail(
                f"policy updates must move forward in time "
                f"({now_s} < {self._last_update_s})"
            )
        self._last_update_s = now_s
        self._observed_changed = changed
        return self._decide(now_s, observed)

    @abc.abstractmethod
    def _decide(
        self, now_s: float, observed: Mapping[Edge, LinkState]
    ) -> DisseminationGraph:
        """Scheme-specific decision; timestamps already validated."""

    def _disjoint_reroute(
        self,
        observed: Mapping[Edge, LinkState],
        k: int,
        degraded: frozenset[Edge],
        name: str,
        untimely: AbstractSet[int] = frozenset(),
    ) -> tuple[DisseminationGraph, bool]:
        """``k`` disjoint paths for the observed view, and whether the
        loss-penalised fallback chose them.

        The search runs at observed latencies on the flow's shared
        :meth:`~repro.core.algorithms.routing_index.RoutingIndex.network`
        and avoids the ``degraded`` edges and the ``untimely`` link ids.
        When that leaves fewer than ``k`` paths, degraded links come back
        with a loss surcharge, so the pairing maximises cleanliness:
        still without the untimely links, then, if the deadline cannot be
        met on ``k`` paths, over everything.
        """
        source, destination = self.flow.source, self.flow.destination
        index = self.topology.routing_index
        network = index.network(source, destination)
        paths = network.disjoint_paths(
            observed_weights(index, observed), k, index.link_ids(degraded) | untimely
        )
        penalized = len(paths) < k
        if penalized:
            weights = observed_weights(index, observed, penalize_loss=True)
            if untimely:
                paths = network.disjoint_paths(weights, k, untimely)
            if len(paths) < k:
                paths = network.disjoint_paths(weights, k)
        if not paths:  # pragma: no cover - topology is connected by contract
            raise NoPathError(source, destination)
        return DisseminationGraph.from_paths(paths, name=name), penalized


def degraded_edge_set(
    observed: Mapping[Edge, LinkState], loss_threshold: float
) -> frozenset[Edge]:
    """Edges whose observed loss rate meets the degradation threshold."""
    return frozenset(
        edge
        for edge, state in observed.items()
        if state.loss_rate >= loss_threshold
    )


def inflation_key(observed: Mapping[Edge, LinkState]) -> tuple:
    """The observed latency inflations as a sorted ``(edge, extra_ms)`` tuple.

    Observed latencies differ from the base ones exactly on these edges,
    so anything computed from observed latencies alone is a function of
    this key.
    """
    return tuple(
        sorted(
            (edge, state.extra_latency_ms)
            for edge, state in observed.items()
            if state.extra_latency_ms > 0.0
        )
    )


def graph_connects(
    graph: DisseminationGraph,
    observed: Mapping[Edge, LinkState],
    dead_loss_threshold: float = DEAD_LOSS_THRESHOLD,
) -> bool:
    """Does the graph still have a live source->destination route?

    "Live" excludes edges the observed view believes are effectively dead
    (loss at or above ``dead_loss_threshold``).  Routing daemons use this
    to reject a freshly computed graph that the current view already
    knows cannot deliver, falling back to their last-known-good graph
    instead of installing a disconnected one.
    """
    dead = {
        edge
        for edge, state in observed.items()
        if state.loss_rate >= dead_loss_threshold
    }
    frontier = [graph.source]
    reached = {graph.source}
    while frontier:
        node = frontier.pop()
        if node == graph.destination:
            return True
        for neighbor in graph.out_neighbors(node):
            if neighbor in reached or (node, neighbor) in dead:
                continue
            reached.add(neighbor)
            frontier.append(neighbor)
    return graph.destination in reached


def timely_edge_latencies(
    topology: Topology,
    observed: Mapping[Edge, LinkState],
    source: NodeId,
    destination: NodeId,
) -> dict[Edge, float]:
    """Best source->edge->destination through-latency at *observed* latencies.

    The time-constrained-flooding criterion applied to the live view
    (:meth:`~repro.core.algorithms.routing_index.RoutingIndex.through_latencies`):
    edge ``(u, v)`` is usable iff ``dist(source, u) + lat(u, v) +
    dist(v, destination) <= deadline``.  Timely re-routing restricts its
    search to the usable edges, so it never installs a path that cannot
    possibly deliver on time, and ranks them by this latency when it must
    prune candidates at large N.  Edges that cannot reach both endpoints
    are left out; the rest are in sorted order.
    """
    index = topology.routing_index
    weights = observed_weights(index, observed)
    return index.through_latencies(
        weights,
        index.distances(weights, source),
        index.distances(weights, destination, reverse=True),
    )


def observed_weights(
    index: RoutingIndex,
    observed: Mapping[Edge, LinkState],
    penalize_loss: bool = False,
) -> Sequence[float]:
    """Per-link weights (by link id) at *observed* effective latency.

    The base latencies plus each observed edge's latency inflation.  With
    ``penalize_loss`` lossy edges also carry a large latency surcharge
    proportional to loss -- the fallback when excluding them would
    disconnect the flow.  A view that changes no weight returns the
    index's base latencies themselves, the base view the flow networks
    answer once (adding 0.0 to a latency leaves it unchanged).
    """
    weights = index.latencies
    link_id = index.link_id
    for edge, state in observed.items():
        link = link_id.get(edge)
        if link is None:
            continue
        weight = weights[link] + state.extra_latency_ms
        if penalize_loss:
            weight += state.loss_rate * LOSS_PENALTY_MS_PER_UNIT
        if weight != weights[link]:
            if weights is index.latencies:
                weights = list(weights)
            weights[link] = weight
    return weights
