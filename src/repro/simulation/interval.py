"""The analytic interval replay engine.

Replays a whole condition trace against routing policies without touching
individual packets: within every window where (a) all link conditions and
(b) every scheme's installed graph are constant, the per-packet outcome
distribution is identical for every packet, so one exact probability
computation (:mod:`repro.simulation.reliability`) covers the window.

Three layers of reuse keep multi-week replays fast:

* the merged boundary list and the per-boundary observed/actual views are
  computed once per replay (by one incremental delta walk each) and
  shared across all (flow, scheme) pairs; the changed-edge deltas let
  policies and the window loop skip boundaries that cannot affect them;
* probability computations are memoised on a *canonical* key -- the
  graph relabeled to a deterministic node order plus its effective
  per-edge latency/loss vectors -- so congruent graphs under congruent
  conditions share one entry across windows, flows, schemes and time
  shards;
* the memo is LRU-bounded (``$REPRO_PROB_CACHE_MAX_BYTES``) so pool
  workers cannot creep without limit on multi-week replays.

Every layer preserves bitwise-identical output: a canonical-key hit is
only possible between computations whose float-operation sequences are
provably identical (the relabeling is monotone in node-name order), and
a skipped window reuses the exact object a fresh lookup would return.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

from repro.core.dgraph import DisseminationGraph
from repro.core.graph import Edge, Topology
from repro.netmodel.conditions import ConditionTimeline, LinkState
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing.base import RoutingPolicy
from repro.routing.registry import STANDARD_SCHEME_NAMES, make_policy
from repro.simulation.reliability import (
    MAX_RECOVERY_LOSSY_EDGES,
    Classification,
    DeliveryProbabilities,
    ReliabilityLimitError,
    accumulate_probabilities,
    classify_delivery_masks,
    classify_recovery_states,
    delivery_probabilities,
)
from repro.simulation.results import FlowSchemeStats, ReplayConfig, ReplayResult
from repro.simulation.timeline import (
    DecisionSpan,
    build_decision_timeline,
    decision_boundaries,
    observed_views_with_deltas,
)
from repro.util.validation import env_cap, require

__all__ = [
    "PROB_CACHE_MAX_BYTES_ENV",
    "PROB_CANONICAL_MAX_ENTRIES_ENV",
    "default_prob_cache_max_bytes",
    "default_prob_canonical_max_entries",
    "replay_flow",
    "run_replay",
]

#: Byte cap for the in-memory probability memo (mirrors the disk cache's
#: ``REPRO_EXEC_CACHE_MAX_BYTES``).  ``0`` means unlimited.
PROB_CACHE_MAX_BYTES_ENV = "REPRO_PROB_CACHE_MAX_BYTES"

#: Default cap: generous for multi-week replays (hundreds of thousands of
#: entries) while bounding pool-worker memory creep.
DEFAULT_PROB_CACHE_MAX_BYTES = 64 * 1024 * 1024

#: Entry cap for the per-graph canonical-form memo.  On the reference
#: overlay distinct graphs per replay number in the hundreds, but dynamic
#: schemes on generated 500-node meshes can mint a fresh reroute graph
#: per decision boundary, so the memo needs its own bound.  ``0`` means
#: unlimited.
PROB_CANONICAL_MAX_ENTRIES_ENV = "REPRO_PROB_CANONICAL_MAX_ENTRIES"

#: Default canonical-memo cap: far above any reference-overlay replay
#: (so tier-1 behavior is untouched) while holding a 500-node dynamic
#: replay to a few thousand retained edge lists.
DEFAULT_PROB_CANONICAL_MAX_ENTRIES = 4096

# Deterministic per-entry footprint estimate: a fixed overhead for the
# dict slot, key/value tuples and the result object, plus a per-edge cost
# for the canonical structure and latency/loss vectors.  An estimate (not
# sys.getsizeof) so eviction order is identical across platforms.
_ENTRY_OVERHEAD_BYTES = 160
_PER_EDGE_BYTES = 120

_UNSET: object = object()

#: The one radix-generic accumulation under the per-engine names
#: (plain masks, hop-recovery states) that the miss path looks up at
#: call time, like the classifiers.
accumulate_mask_probabilities_batch = accumulate_probabilities
accumulate_recovery_probabilities_batch = accumulate_probabilities


def _limit_error_with_context(
    error: ReliabilityLimitError,
    graph: DisseminationGraph,
    context: str | None,
) -> ReliabilityLimitError:
    """Re-raiseable limit error naming the graph (and window) that tripped.

    The engine-level message only counts lossy edges; a failing N=500
    replay is diagnosable only if the error also names which flow's
    installed graph, between which endpoints, in which window hit the
    cap.
    """
    detail = f"graph {graph.name!r} ({graph.source} -> {graph.destination})"
    if context:
        detail = f"{detail}; {context}"
    return ReliabilityLimitError(f"{error} [{detail}]")


def default_prob_cache_max_bytes() -> int | None:
    """Cap from ``$REPRO_PROB_CACHE_MAX_BYTES``; ``None`` = unlimited."""
    return env_cap(
        PROB_CACHE_MAX_BYTES_ENV, DEFAULT_PROB_CACHE_MAX_BYTES, "byte count"
    )


def default_prob_canonical_max_entries() -> int | None:
    """Cap from ``$REPRO_PROB_CANONICAL_MAX_ENTRIES``; ``None`` = unlimited."""
    return env_cap(
        PROB_CANONICAL_MAX_ENTRIES_ENV,
        DEFAULT_PROB_CANONICAL_MAX_ENTRIES,
        "entry count",
    )


class _ProbabilityCache:
    """Memoises delivery probabilities across windows, flows and schemes.

    Keys are *canonical*: the graph's nodes are relabeled to their rank in
    sorted-name order and the conditions are reduced to per-slot effective
    latency and loss vectors.  Two congruent situations -- the same shape
    under an order-preserving node relabeling, with identical effective
    latencies and losses -- therefore share one entry across flows,
    schemes and time shards, where the historical raw key (edge set +
    endpoints + conditions) could never hit across endpoint pairs.

    Sharing is bitwise-safe: the probability computation consumes the
    graph only through its sorted-edge order, per-edge latency/loss
    values, endpoint identity and node-name comparisons (Dijkstra heap
    tie-breaks), all of which are preserved by a monotone relabeling, so
    every computation that maps to the same canonical key performs the
    identical float-operation sequence.

    A second-level *classification* cache (see
    :class:`~repro.simulation.reliability.Classification`) is keyed
    without the loss values: windows that differ only in loss rates --
    the dominant kind of condition change -- skip the whole Dijkstra
    enumeration and redo only the cheap probability weighting, which is
    bitwise-identical by construction.

    Entries are LRU-evicted once the estimated footprint exceeds
    ``max_bytes`` (default ``$REPRO_PROB_CACHE_MAX_BYTES`` or 64 MiB;
    ``None`` = unlimited), bounding worker memory on multi-week replays.

    The cache is thread-safe: one lock guards every lookup, insert,
    eviction, and counter update, so concurrent replays (the ``repro
    serve`` daemon shares one warm cache across requests) cannot corrupt
    the store or the hit/miss/eviction telemetry.  The expensive
    probability computation itself runs outside the lock; two threads
    missing on the same key may both compute it, but the values are
    deterministic and the duplicate store replaces the first entry
    without double-counting its footprint.
    Counters: ``hits``/``misses`` cover degraded-window lookups (as they
    always have), ``shared_hits`` counts the subset of those hits served
    from an entry first computed for a *different* ``group`` (the
    cross-pair sharing raw per-flow keys could not express -- so
    ``(hits - shared_hits) / (hits + misses)`` is the rate per-group keys
    would have achieved), ``mask_hits`` counts misses whose
    Dijkstra enumeration was skipped via a cached classification, and
    ``evictions`` counts entries dropped by the byte bound,
    ``canonical_evictions`` the canonical forms dropped by the entry cap,
    and ``recovery_fallbacks`` the hop-recovery misses answered with the
    no-recovery lower bound because they exceed the ternary cap.
    """

    #: The health counters, in :meth:`counters` order.  These keys are
    #: the one spelling of each counter: exec telemetry fields
    #: (``prob_<key>``), manifests and ``exec.prob_cache.<key>`` metrics
    #: all derive from them.
    COUNTERS = (
        "hits",
        "misses",
        "shared_hits",
        "mask_hits",
        "evictions",
        "canonical_evictions",
        "recovery_fallbacks",
    )

    def __init__(
        self,
        deadline_ms: float,
        max_lossy_edges: int,
        hop_recovery: bool = False,
        recovery_extra_ms: float = 10.0,
        max_recovery_lossy_edges: int = MAX_RECOVERY_LOSSY_EDGES,
        max_bytes: int | None = _UNSET,  # type: ignore[assignment]
    ) -> None:
        self.deadline_ms = deadline_ms
        self.max_lossy_edges = max_lossy_edges
        self.hop_recovery = hop_recovery
        self.recovery_extra_ms = recovery_extra_ms
        self.max_recovery_lossy_edges = max_recovery_lossy_edges
        if max_bytes is _UNSET:
            max_bytes = default_prob_cache_max_bytes()
        self.max_bytes = max_bytes
        # One insertion-ordered store for clean, degraded and
        # classification entries (the key shapes differ, so they cannot
        # collide); insertion order doubles as recency order for LRU
        # eviction.
        self._entries: dict[
            tuple,
            tuple[DeliveryProbabilities | Classification, str | None, int],
        ] = {}
        self._bytes = 0
        # Per-graph canonical forms, keyed by the graph value itself and
        # excluded from the byte cap.  On the reference overlay distinct
        # graphs per replay number in the hundreds; dynamic schemes on
        # generated large meshes can mint one per decision boundary, so
        # the memo carries its own LRU entry cap (insertion order doubles
        # as recency order, exactly like ``_entries``).  Eviction is safe:
        # entries are pure functions of (topology, graph), so a re-computed
        # entry is identical to the evicted one.
        self._canonical: dict[
            DisseminationGraph,
            tuple[tuple[Edge, ...], tuple, tuple[float, ...], dict[Edge, int]],
        ] = {}
        self.max_canonical_entries = default_prob_canonical_max_entries()
        self.hits = 0
        self.misses = 0
        self.shared_hits = 0
        self.mask_hits = 0
        self.evictions = 0
        self.canonical_evictions = 0
        self.recovery_fallbacks = 0
        # Single lock around lookup/insert/evict and counter updates; see
        # the class docstring for the concurrency contract.
        self._lock = threading.Lock()

    def counters(self) -> dict[str, int]:
        """Snapshot of the health counters (for telemetry deltas)."""
        with self._lock:
            return {name: getattr(self, name) for name in self.COUNTERS}

    def _canonical_graph(
        self, topology: Topology, graph: DisseminationGraph
    ) -> tuple[tuple[Edge, ...], tuple, tuple[float, ...], dict[Edge, int]]:
        """``(sorted edges, structure, base latencies, edge->slot)``.

        ``structure`` is the graph with every node replaced by its rank in
        sorted-name order: relabeled edge list (in sorted-edge order) plus
        the endpoint ranks.  The relabeling is monotone, which is what
        makes canonical-key sharing bitwise-exact (see class docstring).
        """
        with self._lock:
            entry = self._canonical.pop(graph, None)
            if entry is None:
                edges = graph.sorted_edges()
                rank = {
                    node: position
                    for position, node in enumerate(sorted(graph.nodes))
                }
                structure = (
                    tuple((rank[u], rank[v]) for u, v in edges),
                    rank[graph.source],
                    rank[graph.destination],
                )
                base_latency = tuple(topology.latency(u, v) for u, v in edges)
                slot_of = {edge: slot for slot, edge in enumerate(edges)}
                entry = (edges, structure, base_latency, slot_of)
            self._canonical[graph] = entry  # (re-)insert: most recently used
            cap = self.max_canonical_entries
            if cap is not None:
                while len(self._canonical) > cap:
                    oldest = next(iter(self._canonical))
                    del self._canonical[oldest]
                    self.canonical_evictions += 1
            return entry

    def _lookup(
        self, key: tuple, group: str | None, count: bool = False
    ) -> DeliveryProbabilities | None:
        """One locked lookup; ``count`` feeds the hit/miss counters."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                if count:
                    self.misses += 1
                return None
            self._entries[key] = entry  # re-insert: most recently used
            result, owner, _cost = entry
            if count:
                self.hits += 1
            if owner is not None and group is not None and owner != group:
                self.shared_hits += 1
            return result

    def _store(
        self,
        key: tuple,
        result: DeliveryProbabilities | Classification,
        group: str | None,
        edge_count: int,
        extra_bytes: int = 0,
    ) -> None:
        cost = _ENTRY_OVERHEAD_BYTES + _PER_EDGE_BYTES * edge_count + extra_bytes
        with self._lock:
            # A concurrent thread may have stored this key between our
            # miss and this store: replace without double-counting.
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= previous[2]
            self._entries[key] = (result, group, cost)
            self._bytes += cost
            if self.max_bytes is None:
                return
            while self._bytes > self.max_bytes and self._entries:
                oldest = next(iter(self._entries))
                _result, _owner, old_cost = self._entries.pop(oldest)
                self._bytes -= old_cost
                self.evictions += 1

    def _clean_probabilities(
        self,
        topology: Topology,
        graph: DisseminationGraph,
        group: str | None = None,
    ) -> DeliveryProbabilities:
        """Outcome under base conditions (no loss, base latencies)."""
        edges, structure, base_latency, _slot_of = self._canonical_graph(
            topology, graph
        )
        key = (structure, base_latency)
        # Clean lookups stay outside the hit/miss counters (as they always
        # have), so they must not feed ``shared_hits`` either -- the
        # counters would otherwise stop being comparable as rates.
        cached = self._lookup(key, None)
        if cached is None:
            cached = delivery_probabilities(
                graph,
                self.deadline_ms,
                lambda edge: topology.latency(*edge),
                lambda edge: 0.0,
                max_lossy_edges=self.max_lossy_edges,
            )
            self._store(key, cached, group, len(edges))
        return cached

    def probabilities(
        self,
        topology: Topology,
        graph: DisseminationGraph,
        degraded: dict[Edge, LinkState],
        group: str | None = None,
        context: str | None = None,
    ) -> DeliveryProbabilities:
        """Delivery probabilities for ``graph`` under ``degraded`` conditions.

        ``group`` labels the caller (one ``scheme/flow`` pair); it only
        feeds the ``shared_hits`` counter, never the key.  ``context``
        (e.g. the window being replayed) is attached to any
        :class:`ReliabilityLimitError` so the failure is diagnosable.

        A thin wrapper over :meth:`probabilities_batch` -- one window is
        the one-row special case of a run, taking the identical code
        path so the result and every counter are the same either way.
        """
        contexts = None if context is None else [context]
        return self.probabilities_batch(
            topology, graph, [degraded], group, contexts
        )[0]

    def probabilities_batch(
        self,
        topology: Topology,
        graph: DisseminationGraph,
        degraded_list: Sequence[dict[Edge, LinkState]],
        group: str | None = None,
        contexts: Sequence[str | None] | None = None,
    ) -> list[DeliveryProbabilities]:
        """Probabilities for one graph under a run of condition views.

        Semantically a per-view :meth:`probabilities` loop, but misses
        that share one cached classification are weighted in a single
        batched kernel call, so a run of loss-only windows costs one
        vector operation instead of one Python loop per window.  Counter
        semantics are preserved exactly: a view whose key was already
        missed earlier in the same batch counts as the hit it would have
        been sequentially, and classification reuse feeds ``mask_hits``
        per window as before.
        """
        if not degraded_list:
            return []
        edges, structure, base_latency, slot_of = self._canonical_graph(
            topology, graph
        )
        results: list[DeliveryProbabilities | None] = [None] * len(degraded_list)
        first_miss: dict[tuple, int] = {}
        aliases: list[tuple[int, tuple]] = []
        misses: list[tuple[tuple, tuple[float, ...], list[float], int]] = []
        for position, degraded in enumerate(degraded_list):
            effective_latency = list(base_latency)
            loss_vector = [0.0] * len(edges)
            relevant = False
            for edge, state in degraded.items():
                slot = slot_of.get(edge)
                if slot is None:
                    continue
                relevant = True
                effective_latency[slot] = (
                    base_latency[slot] + state.extra_latency_ms
                )
                loss_vector[slot] = state.loss_rate
            if not relevant:
                # Clean graph: outcome depends only on base latencies.
                results[position] = self._clean_probabilities(
                    topology, graph, group
                )
                continue
            key = (structure, tuple(effective_latency), tuple(loss_vector))
            if key in first_miss:
                # Sequentially this lookup would hit the entry the
                # earlier miss in this batch had already stored.
                with self._lock:
                    self.hits += 1
                aliases.append((position, key))
                continue
            cached = self._lookup(key, group, count=True)
            if cached is not None:
                results[position] = cached
                continue
            first_miss[key] = position
            misses.append((key, tuple(effective_latency), loss_vector, position))
        if misses:
            computed = self._resolve_misses(
                graph, edges, slot_of, structure, misses, group, contexts
            )
            computed.sort(key=lambda item: item[0])
            by_key: dict[tuple, DeliveryProbabilities] = {}
            for position, key, result in computed:
                results[position] = result
                self._store(key, result, group, len(edges))
                by_key[key] = result
            for position, key in aliases:
                results[position] = by_key[key]
        return results  # type: ignore[return-value]

    def _classification(
        self,
        graph: DisseminationGraph,
        edges: tuple[Edge, ...],
        slot_of: dict[Edge, int],
        class_key: tuple,
        effective_latency: tuple[float, ...],
        loss_vector: list[float],
        group: str | None,
    ) -> Classification:
        """Cached classification (one locked LRU touch); raises on the cap.

        Binary delivery masks normally, ternary recovery states under
        hop recovery; ``class_key`` carries the matching tag.
        """
        with self._lock:
            entry = self._entries.pop(class_key, None)
            if entry is not None:
                self._entries[class_key] = entry  # most recently used
                self.mask_hits += 1
        if entry is not None:
            return entry[0]

        def latency_of(edge: Edge) -> float:
            return effective_latency[slot_of[edge]]

        def loss_of(edge: Edge) -> float:
            return loss_vector[slot_of[edge]]

        if self.hop_recovery:
            classification, _losses = classify_recovery_states(
                graph,
                self.deadline_ms,
                latency_of,
                loss_of,
                # Ack timeout (~2x link latency + slack) + retransmission
                # flight time.
                lambda edge: 3.0 * latency_of(edge) + self.recovery_extra_ms,
                max_lossy_edges=self.max_recovery_lossy_edges,
            )
        else:
            classification, _losses = classify_delivery_masks(
                graph,
                self.deadline_ms,
                latency_of,
                loss_of,
                max_lossy_edges=self.max_lossy_edges,
            )
        self._store(
            class_key,
            classification,
            group,
            len(edges),
            extra_bytes=len(classification.classes),
        )
        return classification

    def _resolve_misses(
        self,
        graph: DisseminationGraph,
        edges: tuple[Edge, ...],
        slot_of: dict[Edge, int],
        structure: tuple,
        misses: list[tuple[tuple, tuple[float, ...], list[float], int]],
        group: str | None,
        contexts: Sequence[str | None] | None,
    ) -> list[tuple[int, tuple, DeliveryProbabilities]]:
        """Compute every missed view, batching rows per classification.

        Loss values weight the enumeration cases but never change which
        cases deliver: the classification is cached on a key that keeps
        only each slot's *category* (clean / fractional / dead), so
        loss-only condition changes skip the Dijkstra enumeration
        entirely and their loss rows ride one kernel batch call.

        Under hop recovery the ternary (3^L) classification is cached
        just like the binary one; a view that no fast path decides and
        that has too many lossy edges for ternary enumeration falls back
        to the no-recovery computation, a conservative lower bound on
        delivery (counted in ``recovery_fallbacks``).
        """
        tag = "rstates" if self.hop_recovery else "masks"
        grouped: dict[tuple, tuple[Classification, list]] = {}
        computed: list[tuple[int, tuple, DeliveryProbabilities]] = []
        for key, effective_latency, loss_vector, position in misses:
            context = contexts[position] if contexts is not None else None
            categories = bytes(
                0 if loss <= 0.0 else 2 if loss >= 1.0 else 1
                for loss in loss_vector
            )
            class_key = (tag, structure, effective_latency, categories)
            try:
                classification = self._classification(
                    graph, edges, slot_of, class_key, effective_latency,
                    loss_vector, group,
                )
            except ReliabilityLimitError as error:
                if not self.hop_recovery:
                    raise _limit_error_with_context(
                        error, graph, context
                    ) from error
                with self._lock:
                    self.recovery_fallbacks += 1
                try:
                    result = delivery_probabilities(
                        graph,
                        self.deadline_ms,
                        lambda edge: effective_latency[slot_of[edge]],
                        lambda edge: loss_vector[slot_of[edge]],
                        max_lossy_edges=self.max_lossy_edges,
                    )
                except ReliabilityLimitError as fallback_error:
                    raise _limit_error_with_context(
                        fallback_error, graph, context
                    ) from fallback_error
                computed.append((position, key, result))
                continue
            losses = [loss_vector[slot] for slot in classification.lossy_slots]
            grouped.setdefault(class_key, (classification, []))[1].append(
                (position, key, losses)
            )
        # Looked up at call time, like the classifiers above, so wrappers
        # installed on this module's names see every call.
        accumulate = (
            accumulate_recovery_probabilities_batch
            if self.hop_recovery
            else accumulate_mask_probabilities_batch
        )
        for classification, items in grouped.values():
            rows = [losses for _position, _key, losses in items]
            values = accumulate(classification, rows)
            computed.extend(
                (position, key, value)
                for (position, key, _losses), value in zip(items, values)
            )
        return computed


def _iter_windows(
    boundaries: Sequence[float], spans: Sequence[DecisionSpan]
) -> Iterable[tuple[float, float, DisseminationGraph]]:
    """Intersect boundary windows with (merged) decision spans.

    Boundaries are strictly increasing (``build_decision_timeline``
    enforces it), so window ``i`` is exactly ``boundaries[i:i + 2]`` --
    callers index per-boundary views by the enumeration position.
    """
    span_index = 0
    for start, end in zip(boundaries, boundaries[1:]):
        while spans[span_index].end_s <= start:
            span_index += 1
        span = spans[span_index]
        assert span.start_s <= start and end <= span.end_s + 1e-9
        yield start, end, span.graph


def _replay_windows(
    stats: FlowSchemeStats,
    cache: _ProbabilityCache,
    topology: Topology,
    boundaries: Sequence[float],
    spans: Sequence[DecisionSpan],
    actual_views: Sequence[dict],
    actual_deltas: Sequence[frozenset[Edge]] | None,
    group: str,
    collect: bool,
    shard_range: tuple[float, float] | None = None,
) -> None:
    """The engine's window loop, shared by serial replay and shards.

    Walks the boundary windows in order, accumulating each into
    ``stats``.  Maximal runs of consecutive windows under the same
    installed graph are resolved with one :meth:`probabilities_batch`
    call: within a run only the first window and the windows whose
    changed-edge delta touches the graph need computation (the rest
    reuse the previous window's probabilities, exactly as the sequential
    loop did), and those computed windows ride a single batched cache
    call so loss-only runs hit the vector kernel once.

    ``shard_range`` restricts accumulation to windows overlapping
    ``[start, end)``; a skipped window breaks the delta chain (the held
    probabilities no longer describe the previous window), so the next
    accumulated window starts a fresh run.
    """
    run: list[tuple[int, float, float, DisseminationGraph]] = []

    def flush() -> None:
        if not run:
            return
        graph = run[0][3]
        if actual_deltas is None:
            compute_at = list(range(len(run)))
        else:
            # The first window of a run always computes: a run starts at
            # a graph change, a shard skip, or the trace start, all of
            # which break the reuse chain.
            compute_at = [0]
            for offset in range(1, len(run)):
                index = run[offset][0]
                if any(edge in graph.edges for edge in actual_deltas[index]):
                    compute_at.append(offset)
        views = [actual_views[run[offset][0]] for offset in compute_at]
        contexts = [
            f"pair {group}, window [{run[offset][1]:g}s, {run[offset][2]:g}s)"
            for offset in compute_at
        ]
        computed = cache.probabilities_batch(
            topology, graph, views, group, contexts
        )
        probabilities: DeliveryProbabilities | None = None
        next_computed = 0
        for offset, (_index, start, end, window_graph) in enumerate(run):
            if (
                next_computed < len(compute_at)
                and compute_at[next_computed] == offset
            ):
                probabilities = computed[next_computed]
                next_computed += 1
            stats.add_window(
                start,
                end,
                window_graph.name,
                window_graph.num_edges,
                probabilities.on_time,
                probabilities.lost,
                probabilities.late,
                collect=collect,
            )
        run.clear()

    for index, (start, end, graph) in enumerate(_iter_windows(boundaries, spans)):
        if shard_range is not None and (
            end <= shard_range[0] or start >= shard_range[1]
        ):
            flush()
            continue
        if run and graph != run[0][3]:
            flush()
        run.append((index, start, end, graph))
    flush()


def replay_flow(
    topology: Topology,
    timeline: ConditionTimeline,
    flow: FlowSpec,
    service: ServiceSpec,
    policy: RoutingPolicy,
    config: ReplayConfig = ReplayConfig(),
    boundaries: Sequence[float] | None = None,
    observed_views: Sequence[dict] | None = None,
    actual_views: Sequence[dict] | None = None,
    cache: _ProbabilityCache | None = None,
    observed_deltas: Sequence[frozenset[Edge]] | None = None,
    actual_deltas: Sequence[frozenset[Edge]] | None = None,
) -> FlowSchemeStats:
    """Replay one flow under one policy over the whole trace.

    ``observed_deltas``/``actual_deltas`` are per-boundary changed-edge
    sets aligned with the views (see
    :meth:`ConditionTimeline.degraded_views`); when available, boundaries
    whose changes cannot touch this flow's installed graph reuse the
    previous window's probabilities without a cache lookup.
    """
    if boundaries is None:
        boundaries = decision_boundaries(timeline, config.detection_delay_s)
    if observed_views is None:
        observed_views, observed_deltas = observed_views_with_deltas(
            timeline, boundaries, config.detection_delay_s
        )
    if actual_views is None:
        actual_views, actual_deltas = timeline.degraded_views(
            list(boundaries[:-1])
        )
    if cache is None:
        cache = _ProbabilityCache(
            service.deadline_ms,
            config.max_lossy_edges,
            hop_recovery=config.hop_recovery,
            recovery_extra_ms=config.recovery_extra_ms,
            max_recovery_lossy_edges=config.max_recovery_lossy_edges,
        )
    spans = build_decision_timeline(
        topology,
        timeline,
        flow,
        service,
        policy,
        detection_delay_s=config.detection_delay_s,
        boundaries=list(boundaries),
        observed_views=list(observed_views),
        observed_deltas=observed_deltas,
    )
    group = f"{policy.name}/{flow.name}"
    stats = FlowSchemeStats(flow=flow, scheme=policy.name)
    stats.decision_changes = len(spans) - 1
    _replay_windows(
        stats,
        cache,
        topology,
        boundaries,
        spans,
        actual_views,
        actual_deltas,
        group,
        config.collect_windows,
    )
    return stats


def run_replay(
    topology: Topology,
    timeline: ConditionTimeline,
    flows: Sequence[FlowSpec],
    service: ServiceSpec,
    scheme_names: Sequence[str] = STANDARD_SCHEME_NAMES,
    config: ReplayConfig = ReplayConfig(),
    *,
    parallel: bool = False,
    max_workers: int | None = None,
    time_shards: int = 1,
    use_cache: bool = False,
) -> ReplayResult:
    """Replay every flow under every scheme; the evaluation workhorse.

    ``parallel=True`` (or an explicit ``max_workers``/``time_shards``)
    routes through :func:`repro.exec.engine.run_replay_parallel`; the
    sharded result is exactly equal to the serial one.  ``use_cache``
    additionally serves shards from the content-addressed disk cache.
    """
    if parallel or max_workers is not None or time_shards > 1 or use_cache:
        from repro.exec.engine import run_replay_parallel

        result, _telemetry = run_replay_parallel(
            topology,
            timeline,
            flows,
            service,
            scheme_names,
            config,
            max_workers=max_workers,
            time_shards=time_shards,
            use_cache=use_cache,
        )
        return result
    require(bool(flows), "need at least one flow")
    require(bool(scheme_names), "need at least one scheme")
    boundaries = decision_boundaries(timeline, config.detection_delay_s)
    observed_views, observed_deltas = observed_views_with_deltas(
        timeline, boundaries, config.detection_delay_s
    )
    actual_views, actual_deltas = timeline.degraded_views(list(boundaries[:-1]))
    cache = _ProbabilityCache(
        service.deadline_ms,
        config.max_lossy_edges,
        hop_recovery=config.hop_recovery,
        recovery_extra_ms=config.recovery_extra_ms,
        max_recovery_lossy_edges=config.max_recovery_lossy_edges,
    )
    result = ReplayResult(service, config)
    for scheme_name in scheme_names:
        for flow in flows:
            policy = make_policy(scheme_name)
            stats = replay_flow(
                topology,
                timeline,
                flow,
                service,
                policy,
                config,
                boundaries=boundaries,
                observed_views=observed_views,
                actual_views=actual_views,
                cache=cache,
                observed_deltas=observed_deltas,
                actual_deltas=actual_deltas,
            )
            result.add(stats)
    return result
