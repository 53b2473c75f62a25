"""The paper's contribution: targeted-redundancy dissemination graphs.

Normal operation uses the two node-disjoint paths (cheap, good enough in
most cases -- claim C3).  When the detector classifies a problem:

* **middle problem** -- re-route: recompute two disjoint *timely* paths
  avoiding the degraded links (redundancy would not help; path selection
  does), through the re-route the dynamic disjoint-path policies use;
* **source problem** -- switch to the *precomputed* source-problem graph
  (packets leave the source over all its adjacent links);
* **destination problem** -- switch to the precomputed destination-problem
  graph (packets enter the destination over all its adjacent links);
* **both** -- the precomputed robust source+destination graph.

Problem graphs are precomputed at attach time, all by one
:func:`~repro.core.builders.problem_graphs` call, so switching costs
nothing at detection time, exactly as the paper argues a deployable
system must.
A hold-down keeps a problem graph installed briefly after the pattern
clears, riding out the bursty gaps within one underlying outage.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.builders import problem_graphs
from repro.core.detection import ProblemClassifier, ProblemDetector, ProblemType
from repro.core.dgraph import DisseminationGraph
from repro.core.graph import Edge
from repro.netmodel.conditions import LinkState
from repro.routing.base import (
    RoutingPolicy,
    degraded_edge_set,
    inflation_key,
    timely_edge_latencies,
)
from repro.util.validation import require, require_non_negative, require_probability

__all__ = ["TargetedRedundancyPolicy"]


class TargetedRedundancyPolicy(RoutingPolicy):
    """Two disjoint paths plus targeted redundancy on endpoint problems."""

    name = "targeted"

    def __init__(
        self,
        loss_threshold: float = 0.02,
        endpoint_link_threshold: int = 2,
        hold_down_s: float = 10.0,
        max_entry_links: int | None = None,
        max_exit_links: int | None = None,
        max_candidate_edges: int | None = None,
    ) -> None:
        super().__init__()
        require_probability(loss_threshold, "loss_threshold")
        require(
            endpoint_link_threshold >= 1, "endpoint_link_threshold must be >= 1"
        )
        require_non_negative(hold_down_s, "hold_down_s")
        require(
            max_entry_links is None or max_entry_links >= 1,
            "max_entry_links must be None or >= 1",
        )
        require(
            max_exit_links is None or max_exit_links >= 1,
            "max_exit_links must be None or >= 1",
        )
        require(
            max_candidate_edges is None or max_candidate_edges >= 2,
            "max_candidate_edges must be None or >= 2",
        )
        self.loss_threshold = loss_threshold
        self.endpoint_link_threshold = endpoint_link_threshold
        self.hold_down_s = hold_down_s
        self.max_entry_links = max_entry_links
        self.max_exit_links = max_exit_links
        # Beam cap on the re-route search: at most this many timely edges
        # are admitted as candidates (best through-latency first).  None
        # scales with the topology: max(64, 4 * nodes) -- never binding on
        # the 12-site reference overlay, bounding the disjoint-path search
        # to O(nodes) edges on the generated large meshes.
        self.max_candidate_edges = max_candidate_edges
        self._detector: ProblemDetector | None = None
        self._base_graph: DisseminationGraph | None = None
        self._problem_graphs: dict[ProblemType, DisseminationGraph] = {}
        self._middle_cache_key: object = None
        self._middle_cache_graph: DisseminationGraph | None = None
        # Re-route cache key -> the graph its un-penalised search found.
        self._reroutes: dict[tuple, DisseminationGraph] = {}
        # Inflation key -> (timely edges considered, kept link ids).
        self._timely: dict[tuple, tuple[int, frozenset[int]]] = {}
        # Sticky memory of recently degraded edges: edge -> last time seen
        # degraded.  Bursty outages flap faster than they heal; a link seen
        # lossy within the hold-down stays excluded from re-routing even
        # while it momentarily looks clean.
        self._recently_degraded: dict[Edge, float] = {}

    # -- lifecycle ------------------------------------------------------------

    def _on_attach(self) -> None:
        source, destination = self.flow.source, self.flow.destination
        self._base_graph, source_graph, destination_graph, robust = problem_graphs(
            self.topology,
            source,
            destination,
            max_entry_links=self.max_entry_links,
            max_exit_links=self.max_exit_links,
            deadline_ms=self.service.deadline_ms,
            prefix=f"{self.name}/",
        )
        self._problem_graphs = {
            ProblemType.SOURCE: source_graph,
            ProblemType.DESTINATION: destination_graph,
            ProblemType.SOURCE_AND_DESTINATION: robust,
        }
        self._detector = ProblemDetector(
            self.topology,
            source,
            destination,
            classifier=ProblemClassifier(
                loss_threshold=self.loss_threshold,
                endpoint_link_threshold=self.endpoint_link_threshold,
            ),
            hold_down_s=self.hold_down_s,
        )

    # -- decisions ----------------------------------------------------------------

    @property
    def problem_graphs(self) -> dict[ProblemType, DisseminationGraph]:
        """The precomputed problem graphs (exposed for inspection/benches)."""
        return dict(self._problem_graphs)

    def _decide(
        self, now_s: float, observed: Mapping[Edge, LinkState]
    ) -> DisseminationGraph:
        assert self._detector is not None and self._base_graph is not None
        loss_rates = {
            edge: state.loss_rate
            for edge, state in observed.items()
            if state.loss_rate > 0.0
        }
        for edge in degraded_edge_set(observed, self.loss_threshold):
            self._recently_degraded[edge] = now_s
        problem = self._detector.update(now_s, loss_rates)
        if problem in self._problem_graphs:
            graph = self._problem_graphs[problem]
            # An endpoint problem can coincide with trouble in the middle
            # of the network.  The precomputed problem graph reaches each
            # endpoint-adjacent link over a single upstream path; if one of
            # those paths is itself degraded (or latency-inflated), union
            # in the timely re-route so copies also travel around the
            # middle trouble.  Rare, so the cost impact is negligible.
            sticky = self._sticky_degraded(now_s)
            source, destination = self.flow.source, self.flow.destination
            middle_trouble = {
                edge
                for edge in graph.edges
                if source not in edge and destination not in edge
            }
            inflated = {
                edge
                for edge, state in observed.items()
                if state.extra_latency_ms > 0.0
            }
            if middle_trouble & (sticky | inflated):
                reroute = self._middle_reroute(now_s, observed)
                graph = graph.union(reroute, name=graph.name)
            return graph
        if problem is ProblemType.MIDDLE:
            return self._middle_reroute(now_s, observed)
        return self._base_graph

    @property
    def candidate_cap(self) -> int:
        """The effective beam cap (resolves the node-count-scaled default)."""
        if self.max_candidate_edges is not None:
            return self.max_candidate_edges
        return max(64, 4 * self.topology.num_nodes)

    def _candidate_edges(
        self, observed: Mapping[Edge, LinkState], inflated: tuple | None = None
    ) -> frozenset[int]:
        """Timely candidate link ids for re-routing, beam-capped at scale.

        This is the targeted search's hot spot on large topologies (two
        Dijkstra passes over the full mesh plus a disjoint-path search
        over the surviving edges), so it is the one place the policy
        reports to :mod:`repro.obs`: a ``routing.targeted.candidates``
        span and considered/kept counters, on every call.  When more
        edges are timely than the cap admits, the best by through-latency
        win (ties by edge name) -- pruning the longest detours first,
        which are the edges a deadline-meeting disjoint pair is least
        likely to use.

        The set reads only observed latencies, which differ from the base
        ones exactly on the inflated edges (inflation is never negative),
        so it is computed once per distinct :func:`inflation_key`
        (``inflated``, when the caller already built it).
        """
        obs = self.obs
        start_s = obs.tracer.now() if obs is not None else 0.0
        if inflated is None:
            inflated = inflation_key(observed)
        entry = self._timely.get(inflated)
        if entry is None:
            entry = self._timely[inflated] = self._timely_candidates(observed)
        considered, kept = entry
        if obs is not None:
            metrics = obs.metrics
            metrics.counter("routing.targeted.candidates.considered").inc(
                considered
            )
            metrics.counter("routing.targeted.candidates.kept").inc(len(kept))
            if considered > len(kept):
                metrics.counter("routing.targeted.candidates.pruned").inc(
                    considered - len(kept)
                )
            obs.tracer.complete(
                "targeted.candidates",
                "routing",
                start_s,
                obs.tracer.now(),
                flow=self.flow.name,
                considered=considered,
                kept=len(kept),
                cap=self.candidate_cap,
            )
        return kept

    def _timely_candidates(
        self, observed: Mapping[Edge, LinkState]
    ) -> tuple[int, frozenset[int]]:
        """``(timely edges, kept link ids)``: the uncached candidate search."""
        through = timely_edge_latencies(
            self.topology, observed, self.flow.source, self.flow.destination
        )
        deadline = self.service.deadline_ms
        timely = [edge for edge, ms in through.items() if ms <= deadline]
        considered = len(timely)
        cap = self.candidate_cap
        if considered > cap:
            timely.sort(key=lambda edge: (through[edge], edge))
            timely = timely[:cap]
        return considered, frozenset(self.topology.routing_index.link_ids(timely))

    def _sticky_degraded(self, now_s: float) -> frozenset[Edge]:
        """Edges seen degraded within the hold-down window."""
        horizon = now_s - self.hold_down_s
        stale = [e for e, seen in self._recently_degraded.items() if seen < horizon]
        for edge in stale:
            del self._recently_degraded[edge]
        return frozenset(self._recently_degraded)

    def _middle_reroute(
        self, now_s: float, observed: Mapping[Edge, LinkState]
    ) -> DisseminationGraph:
        """Two disjoint *timely* paths avoiding recently degraded links.

        Unlike the plain dynamic scheme, the exclusion set is sticky (a
        link seen lossy during this episode stays excluded through the
        burst gaps) and the search is restricted to edges that can still
        meet the deadline at observed latencies.

        The un-penalised search reads only the cache key -- the excluded
        links and the inflated latencies -- so every re-route it finds is
        kept for the life of the policy, like the dynamic policies'
        fingerprint decisions.  A loss-penalised fallback also reads the
        loss rates, so it is reused only while the key stays the same.
        """
        degraded = self._sticky_degraded(now_s)
        inflated = inflation_key(observed)
        timely = self._candidate_edges(observed, inflated)
        cache_key = (degraded, timely, inflated)
        graph = self._reroutes.get(cache_key)
        if graph is None:
            if cache_key == self._middle_cache_key and self._middle_cache_graph:
                return self._middle_cache_graph
            untimely = frozenset(range(len(self.topology.routing_index.edges)))
            untimely -= timely
            graph, penalized = self._disjoint_reroute(
                observed, 2, degraded, f"{self.name}/reroute", untimely
            )
            if not penalized:
                self._reroutes[cache_key] = graph
        self._middle_cache_key = cache_key
        self._middle_cache_graph = graph
        return graph
