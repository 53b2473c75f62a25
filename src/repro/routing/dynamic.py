"""Dynamic path-selection schemes.

``dynamic-single`` re-selects the lowest-latency path avoiding links it
believes are degraded -- the behaviour of a responsive link-state routing
protocol on the overlay.  ``dynamic-two-disjoint`` does the same for a
pair of node-disjoint paths.

Both fall back gracefully when avoiding every degraded link would
disconnect (or de-pair) the flow: degraded links are then re-admitted with
a loss-proportional latency surcharge, so the least-lossy unavoidable
option is used rather than giving up.

Decisions are cached on the observed degraded-edge fingerprint: replay
engines call ``update`` at every segment boundary, and most boundaries do
not change the relevant view.  A decision the un-penalised search made
is a pure function of that fingerprint, so it is also remembered for the
fingerprint's later recurrences; loss-penalised fallbacks are always
recomputed.  The searches run on the topology's
:class:`~repro.core.algorithms.routing_index.RoutingIndex`; the disjoint
pair comes from :meth:`~repro.routing.base.RoutingPolicy._disjoint_reroute`,
the re-route targeted redundancy shares.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.algorithms import NoPathError
from repro.core.dgraph import DisseminationGraph
from repro.core.graph import Edge
from repro.netmodel.conditions import LinkState
from repro.routing.base import (
    RoutingPolicy,
    degraded_edge_set,
    inflation_key,
    observed_weights,
)
from repro.util.validation import require, require_probability

__all__ = ["DynamicSinglePathPolicy", "DynamicTwoDisjointPolicy"]


class _DynamicPolicyBase(RoutingPolicy):
    """Shared caching and fingerprinting for the dynamic schemes."""

    def __init__(self, loss_threshold: float = 0.02) -> None:
        super().__init__()
        require_probability(loss_threshold, "loss_threshold")
        self.loss_threshold = loss_threshold
        self._cache_key: object = None
        self._cache_graph: DisseminationGraph | None = None
        self._relevant_edges: frozenset[Edge] = frozenset()
        # Fingerprint -> decision, for decisions the un-penalised search
        # made (see _recompute).  Unbounded: it gains at most one entry per
        # decision boundary, and a policy replays one pair.
        self._decisions: dict[object, DisseminationGraph] = {}

    def _fingerprint(self, observed: Mapping[Edge, LinkState]) -> object:
        """What the decision depends on: degraded set + latency inflations."""
        return (
            degraded_edge_set(observed, self.loss_threshold),
            inflation_key(observed),
        )

    def _delta_is_irrelevant(
        self, changed: frozenset[Edge], observed: Mapping[Edge, LinkState]
    ) -> bool:
        """Can the changed edges possibly alter the fingerprint?

        The fingerprint reads an edge only when it is degraded (loss at or
        above the threshold) or latency-inflated.  A changed edge that was
        in neither group of the cached fingerprint and still is in neither
        contributes nothing before or after -- so the fingerprint, and
        therefore the decision, is unchanged.
        """
        if changed & self._relevant_edges:
            return False
        for edge in changed:
            state = observed.get(edge)
            if state is not None and (
                state.loss_rate >= self.loss_threshold
                or state.extra_latency_ms > 0.0
            ):
                return False
        return True

    def _decide(
        self, now_s: float, observed: Mapping[Edge, LinkState]
    ) -> DisseminationGraph:
        changed = self._observed_changed
        if (
            changed is not None
            and self._cache_graph is not None
            and self._delta_is_irrelevant(changed, observed)
        ):
            return self._cache_graph
        key = self._fingerprint(observed)
        if key != self._cache_key or self._cache_graph is None:
            graph = self._decisions.get(key)
            if graph is None:
                graph, penalized = self._recompute(observed, key[0])
                if not penalized:
                    self._decisions[key] = graph
            self._cache_graph = graph
            self._cache_key = key
            self._relevant_edges = key[0].union(
                edge for edge, _extra in key[1]
            )
        return self._cache_graph

    def _recompute(
        self, observed: Mapping[Edge, LinkState], degraded: frozenset[Edge]
    ) -> tuple[DisseminationGraph, bool]:
        """The decision for ``observed``, and whether the fallback made it.

        A decision the un-penalised search made reads only the degraded
        set and the inflated latencies -- the fingerprint -- so
        :meth:`_decide` may reuse it whenever the fingerprint recurs.  The
        loss-penalised fallback reads every observed loss rate, so its
        decisions are never reused.
        """
        raise NotImplementedError


class DynamicSinglePathPolicy(_DynamicPolicyBase):
    """Lowest-latency single path avoiding believed-degraded links."""

    name = "dynamic-single"

    def _recompute(
        self, observed: Mapping[Edge, LinkState], degraded: frozenset[Edge]
    ) -> tuple[DisseminationGraph, bool]:
        source, destination = self.flow.source, self.flow.destination
        index = self.topology.routing_index
        excluded = index.link_ids(degraded)
        path = index.shortest_path(
            observed_weights(index, observed), source, destination, excluded
        )
        penalized = path is None
        if penalized:
            # Unavoidable loss: pick the least-lossy path instead.
            path = index.shortest_path(
                observed_weights(index, observed, penalize_loss=True),
                source,
                destination,
            )
            if path is None:  # pragma: no cover - topology is connected by contract
                raise NoPathError(source, destination)
        return DisseminationGraph.from_path(path, name=self.name), penalized


class DynamicTwoDisjointPolicy(_DynamicPolicyBase):
    """Re-selected pair of node-disjoint paths avoiding degraded links."""

    name = "dynamic-two-disjoint"

    def __init__(self, loss_threshold: float = 0.02, k: int = 2) -> None:
        super().__init__(loss_threshold)
        require(k >= 1, f"k must be >= 1, got {k}")
        self.k = k
        if k != 2:
            words = {3: "three"}
            self.name = f"dynamic-{words.get(k, k)}-disjoint"

    def _recompute(
        self, observed: Mapping[Edge, LinkState], degraded: frozenset[Edge]
    ) -> tuple[DisseminationGraph, bool]:
        return self._disjoint_reroute(observed, self.k, degraded, self.name)
