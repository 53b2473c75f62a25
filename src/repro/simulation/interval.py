"""The analytic interval replay engine.

Replays a whole condition trace against routing policies without touching
individual packets: within every window where (a) all link conditions and
(b) every scheme's installed graph are constant, the per-packet outcome
distribution is identical for every packet, so one exact probability
computation (:mod:`repro.simulation.reliability`) covers the window.

This module holds the window loop and the probability memo; every
replay runs them on a :class:`repro.exec.plan.ShardContext`.

Three layers of reuse keep multi-week replays fast:

* the merged boundary list and the per-boundary observed/actual views are
  computed once per context (by one incremental delta walk each) and
  shared across all (flow, scheme) pairs; the changed-edge deltas let
  policies and the window loop skip boundaries that cannot affect them;
* probability computations are memoised on a *canonical* key -- the
  graph relabeled to a deterministic node order plus its effective
  per-edge latency/loss vectors -- so congruent graphs under congruent
  conditions share one entry across windows, flows and schemes;
* the memo is one LRU store under one byte bound (:data:`MEMO_MAX_BYTES`)
  holding each graph's canonical entry and clean answer next to the
  probability and classification entries, so pool workers cannot creep
  without limit on multi-week replays.

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
from repro.routing.registry import STANDARD_SCHEME_NAMES
from repro.simulation import kernel
from repro.simulation.reliability import (
    Classification,
    DeliveryProbabilities,
    IndexedGraph,
    ReliabilityLimitError,
    accumulate_probabilities,
    classify_indexed,
    delivery_probabilities_indexed,
    index_graph,
    on_time_path,
)
from repro.simulation.results import FlowSchemeStats, ReplayConfig, ReplayResult
from repro.simulation.timeline import DecisionSpan

__all__ = ["MEMO_MAX_BYTES", "replay_flow", "run_replay"]

#: Byte bound of the probability memo: generous for multi-week replays
#: (hundreds of thousands of entries) while bounding pool-worker memory.
MEMO_MAX_BYTES = 64 * 1024 * 1024

# Deterministic per-entry footprint estimate: a fixed overhead for the
# dict slot, key/value tuples and the result object, plus a per-edge cost
# for the canonical structure and latency/loss vectors.  An estimate (not
# sys.getsizeof) so eviction order is identical across platforms.
_ENTRY_OVERHEAD_BYTES = 160
_PER_EDGE_BYTES = 120

#: What the classifier returns for a view its first fast path decides.
_ON_TIME = DeliveryProbabilities(1.0, 1.0)

#: The names the miss path looks up at call time, so wrappers installed
#: on this module's names see every call: the one classifier body and
#: the one radix-generic accumulation under per-engine names (plain
#: masks, hop-recovery states), and the fused exact computation.  Each
#: takes the canonical entry's :class:`IndexedGraph` plus per-slot
#: arrays, never the graph and per-edge callbacks.
classify_delivery_masks = classify_indexed
classify_recovery_states = classify_indexed
delivery_probabilities = delivery_probabilities_indexed
accumulate_mask_probabilities_batch = accumulate_probabilities
accumulate_recovery_probabilities_batch = accumulate_probabilities


def _limit_error_with_context(
    error: ReliabilityLimitError,
    graph: DisseminationGraph,
    group: str | None,
    window: tuple[float, float] | None,
) -> ReliabilityLimitError:
    """Re-raiseable limit error naming the graph (and window) that tripped.

    The engine-level message only counts lossy edges; a failing N=500
    replay is diagnosable only if the error also names which flow's
    installed graph, between which endpoints, in which window hit the
    cap.  The window is formatted here, only on failure.
    """
    detail = f"graph {graph.name!r} ({graph.source} -> {graph.destination})"
    if window is not None:
        start, end = window
        detail = f"{detail}; pair {group}, window [{start:g}s, {end:g}s)"
    return ReliabilityLimitError(f"{error} [{detail}]")


class _ProbabilityCache:
    """Memoises delivery probabilities across windows, flows and schemes.

    Keys are *canonical*: the graph's nodes are relabeled to their rank in
    sorted-name order and the conditions are reduced to per-slot effective
    latency and loss vectors.  Two congruent situations -- the same shape
    under an order-preserving node relabeling, with identical effective
    latencies and losses -- therefore share one entry across flows and
    schemes, where the historical raw key (edge set + endpoints +
    conditions) could never hit across endpoint pairs.

    Sharing is bitwise-safe: the probability computation consumes the
    graph only through its sorted-edge order, per-edge latency/loss
    values, endpoint identity and node-name comparisons (Dijkstra heap
    tie-breaks), all of which are preserved by a monotone relabeling, so
    every computation that maps to the same canonical key performs the
    identical float-operation sequence.

    One insertion-ordered store holds three kinds of entry, whose key
    shapes cannot collide:

    * per graph, keyed by the :class:`DisseminationGraph` itself: its
      canonical index, base latencies, edge-to-slot map, clean on-time
      path and *clean answer* -- the outcome under base latencies and no
      loss, computed once when the entry is built by the same fused call
      a degraded miss falls back to;
    * per degraded view: its probabilities, keyed by the canonical
      structure, the effective latency and loss vectors, and the kernel
      backend that weighted it (:func:`repro.simulation.kernel.active_backend`:
      the two backends agree only up to float reassociation, so a memo
      reused under :func:`~repro.simulation.kernel.force_backend` must not
      serve one backend's probabilities to the other);
    * per *classification* (see
      :class:`~repro.simulation.reliability.Classification`), keyed
      without the loss values: windows that differ only in loss rates --
      the dominant kind of condition change -- skip the whole Dijkstra
      enumeration and redo only the cheap probability weighting, which
      is bitwise-identical by construction.  Classifications and graph
      entries involve no weighting and are shared by both backends.

    Every entry is a pure function of its key and the topology, so the
    store is LRU-evicted as a whole once the estimated footprint exceeds
    ``max_bytes`` (:data:`MEMO_MAX_BYTES`; ``None`` = unbounded):
    evicting an entry can only cost its recomputation.  The memo reads
    its engine settings (lossy-edge caps, hop recovery) from the
    :class:`~repro.simulation.results.ReplayConfig` it serves.

    The cache is thread-safe: one lock guards every lookup, insert,
    eviction, and counter update, so concurrent replays (the ``repro
    serve`` daemon shares one warm cache across requests) cannot corrupt
    the store or the hit/miss/eviction telemetry.  The expensive
    probability computation itself runs outside the lock; two threads
    missing on the same key may both compute it, but the values are
    deterministic and the duplicate store replaces the first entry
    without double-counting its footprint.
    Counters: ``hits``/``misses`` cover degraded-window lookups (a clean
    view reads its graph entry's answer and counts in neither),
    ``shared_hits`` counts the subset of those hits served
    from an entry first computed for a *different* ``group`` (the
    cross-pair sharing raw per-flow keys could not express -- so
    ``(hits - shared_hits) / (hits + misses)`` is the rate per-group keys
    would have achieved), ``mask_hits`` counts misses whose
    Dijkstra enumeration was skipped via a cached classification, and
    ``evictions`` counts entries of any kind dropped by the byte bound,
    ``recovery_fallbacks`` the hop-recovery misses answered with the
    no-recovery lower bound because they exceed the ternary cap, and
    ``on_time_skips`` the degraded views answered certain on time
    without a lookup because they touch no edge of the graph's clean
    on-time path (:meth:`probabilities_batch`).
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
        "recovery_fallbacks",
        "on_time_skips",
    )

    def __init__(
        self,
        deadline_ms: float,
        config: ReplayConfig,
        max_bytes: int | None = MEMO_MAX_BYTES,
    ) -> None:
        self.deadline_ms = deadline_ms
        self.config = config
        self.max_bytes = max_bytes
        # Insertion order doubles as recency order for LRU eviction.
        self._entries: dict[object, tuple[object, str | None, int]] = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.shared_hits = 0
        self.mask_hits = 0
        self.evictions = 0
        self.recovery_fallbacks = 0
        self.on_time_skips = 0
        # Single lock around lookup/insert/evict and counter updates; see
        # the class docstring for the concurrency contract.
        self._lock = threading.Lock()

    def counters(self) -> dict[str, int]:
        """Snapshot of the health counters (for telemetry deltas)."""
        with self._lock:
            return {name: getattr(self, name) for name in self.COUNTERS}

    def _graph_entry(
        self, topology: Topology, graph: DisseminationGraph
    ) -> tuple[
        IndexedGraph,
        tuple[float, ...],
        dict[Edge, int],
        frozenset[int] | None,
        DeliveryProbabilities,
    ]:
        """``(index, base latencies, edge->slot, on-time path, clean answer)``.

        ``index.structure`` is the graph with every node replaced by its
        rank in sorted-name order: relabeled edge list (in sorted-edge
        order) plus the endpoint ranks.  The relabeling is monotone,
        which is what makes canonical-key sharing bitwise-exact (see
        class docstring).  The classifier runs on the same index, so a
        graph is relabelled once per entry, not once per classification.
        The on-time path is the slot set of :func:`on_time_path` at base
        latencies (``None`` when the clean graph is late), and the clean
        answer is the fused computation at base latencies and zero loss.
        """
        with self._lock:
            stored = self._entries.pop(graph, None)
            if stored is not None:
                self._entries[graph] = stored  # re-insert: most recently used
                return stored[0]
        indexed = index_graph(graph)
        base_latency = tuple(topology.latency(u, v) for u, v in indexed.edges)
        entry = (
            indexed,
            base_latency,
            {edge: slot for slot, edge in enumerate(indexed.edges)},
            on_time_path(indexed, self.deadline_ms, base_latency),
            delivery_probabilities(
                indexed,
                self.deadline_ms,
                base_latency,
                [0.0] * len(base_latency),
                max_lossy_edges=self.config.max_lossy_edges,
            ),
        )
        self._store(graph, entry, None, len(base_latency))
        return entry

    def _lookup(
        self, key: tuple, group: str | None
    ) -> DeliveryProbabilities | None:
        """One locked, counted lookup of a degraded view's entry."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                self.misses += 1
                return None
            self._entries[key] = entry  # re-insert: most recently used
            result, owner, _cost = entry
            self.hits += 1
            if owner is not None and group is not None and owner != group:
                self.shared_hits += 1
            return result

    def _store(
        self,
        key: object,
        result: object,
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

    def probabilities_batch(
        self,
        topology: Topology,
        graph: DisseminationGraph,
        degraded_list: Sequence[dict[Edge, LinkState]],
        group: str | None = None,
        windows: Sequence[tuple[float, float]] | None = None,
    ) -> list[DeliveryProbabilities]:
        """Probabilities for one graph under a run of condition views.

        The memo's one lookup method; a single view is a one-element
        ``degraded_list``.  ``group`` labels the caller (one
        ``scheme/flow`` pair); it only feeds the ``shared_hits`` counter,
        never the key.  ``windows`` (the ``(start, end)`` seconds of each
        view) and ``group`` are named by any
        :class:`ReliabilityLimitError`, so the failure is diagnosable.

        Semantically a per-view lookup loop, but misses that share one
        cached classification are weighted in a single batched kernel
        call, so a run of loss-only windows costs one vector operation
        instead of one Python loop per window.  Counter semantics are
        preserved exactly: a view whose key was already missed earlier in
        the same batch counts as the hit it would have been sequentially,
        and classification reuse feeds ``mask_hits`` per window as before.
        A view that touches no edge of the graph is answered by the graph
        entry's clean answer.

        A degraded view that touches no slot of the graph's clean on-time
        path is answered certain on time before any key is built, and
        counts in ``on_time_skips`` instead of ``hits``/``misses``.  It
        is the classifier's own answer: a view only removes or slows the
        slots it names (``LinkState`` rejects negative inflation and
        out-of-range loss), so the path survives with the same float
        sum, and the classifier's first fast path -- a Dijkstra over the
        present slots, in either radix -- returns ``(1.0, 1.0)``.
        """
        if not degraded_list:
            return []
        indexed, base_latency, slot_of, path, clean = self._graph_entry(
            topology, graph
        )
        structure = indexed.structure
        edges = indexed.edges
        backend = kernel.active_backend()
        results: list[DeliveryProbabilities | None] = [None] * len(degraded_list)
        first_miss: dict[tuple, int] = {}
        aliases: list[tuple[int, tuple]] = []
        misses: list[tuple[tuple, tuple[float, ...], list[float], int]] = []
        skips = 0
        for position, degraded in enumerate(degraded_list):
            touched = []
            for edge, state in degraded.items():
                slot = slot_of.get(edge)
                if slot is not None:
                    touched.append((slot, state))
            if not touched:
                results[position] = clean
                continue
            if path is not None and path.isdisjoint(slot for slot, _ in touched):
                results[position] = _ON_TIME
                skips += 1
                continue
            effective_latency = list(base_latency)
            loss_vector = [0.0] * len(edges)
            for slot, state in touched:
                effective_latency[slot] = (
                    base_latency[slot] + state.extra_latency_ms
                )
                loss_vector[slot] = state.loss_rate
            key = (backend, structure, tuple(effective_latency), tuple(loss_vector))
            if key in first_miss:
                # Sequentially this lookup would hit the entry the
                # earlier miss in this batch had already stored.
                with self._lock:
                    self.hits += 1
                aliases.append((position, key))
                continue
            cached = self._lookup(key, group)
            if cached is not None:
                results[position] = cached
                continue
            first_miss[key] = position
            misses.append((key, tuple(effective_latency), loss_vector, position))
        if skips:
            with self._lock:
                self.on_time_skips += skips
        if misses:
            computed = self._resolve_misses(
                graph, indexed, misses, group, windows
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
        indexed: IndexedGraph,
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
        config = self.config
        if config.hop_recovery:
            # Ack timeout (~2x link latency + slack) + retransmission
            # flight time.
            recovery = [
                3.0 * latency + config.recovery_extra_ms
                for latency in effective_latency
            ]
            classification, _losses = classify_recovery_states(
                indexed,
                self.deadline_ms,
                effective_latency,
                loss_vector,
                config.max_recovery_lossy_edges,
                recovery,
            )
        else:
            classification, _losses = classify_delivery_masks(
                indexed,
                self.deadline_ms,
                effective_latency,
                loss_vector,
                config.max_lossy_edges,
            )
        self._store(
            class_key,
            classification,
            group,
            len(indexed.edges),
            extra_bytes=len(classification.classes),
        )
        return classification

    def _resolve_misses(
        self,
        graph: DisseminationGraph,
        indexed: IndexedGraph,
        misses: list[tuple[tuple, tuple[float, ...], list[float], int]],
        group: str | None,
        windows: Sequence[tuple[float, float]] | None,
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
        hop_recovery = self.config.hop_recovery
        tag = "rstates" if hop_recovery else "masks"
        grouped: dict[tuple, tuple[Classification, list]] = {}
        computed: list[tuple[int, tuple, DeliveryProbabilities]] = []
        for key, effective_latency, loss_vector, position in misses:
            window = windows[position] if windows is not None else None
            categories = bytes(
                0 if loss <= 0.0 else 2 if loss >= 1.0 else 1
                for loss in loss_vector
            )
            class_key = (tag, indexed.structure, effective_latency, categories)
            try:
                classification = self._classification(
                    indexed, class_key, effective_latency, loss_vector, group
                )
            except ReliabilityLimitError as error:
                if not hop_recovery:
                    raise _limit_error_with_context(
                        error, graph, group, window
                    ) from error
                with self._lock:
                    self.recovery_fallbacks += 1
                try:
                    result = delivery_probabilities(
                        indexed,
                        self.deadline_ms,
                        effective_latency,
                        loss_vector,
                        max_lossy_edges=self.config.max_lossy_edges,
                    )
                except ReliabilityLimitError as fallback_error:
                    raise _limit_error_with_context(
                        fallback_error, graph, group, window
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
            if hop_recovery
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
    actual_deltas: Sequence[frozenset[Edge]],
    group: str,
    collect: bool,
) -> None:
    """The engine's window loop: every replay accumulates through it.

    Walks the boundary windows in order, accumulating each into
    ``stats``.  Maximal runs of consecutive windows under the same
    installed graph are resolved with one :meth:`probabilities_batch`
    call: within a run only the first window and the windows whose
    changed-edge delta touches the graph need computation (the rest
    reuse the previous window's probabilities -- the object a fresh
    lookup would return), and those computed windows ride a single
    batched cache call so loss-only runs hit the vector kernel once.
    """
    run: list[tuple[int, float, float, DisseminationGraph]] = []

    def flush() -> None:
        if not run:
            return
        graph = run[0][3]
        # The first window of a run always computes: a run starts at a
        # graph change or the trace start, both of which break the reuse
        # chain.
        compute_at = [0]
        for offset in range(1, len(run)):
            index = run[offset][0]
            if any(edge in graph.edges for edge in actual_deltas[index]):
                compute_at.append(offset)
        views = [actual_views[run[offset][0]] for offset in compute_at]
        windows = [(run[offset][1], run[offset][2]) for offset in compute_at]
        computed = cache.probabilities_batch(
            topology, graph, views, group, windows
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
) -> FlowSchemeStats:
    """Replay one flow under one policy over the whole trace.

    Pairs replayed on one :class:`~repro.exec.plan.ShardContext` share
    its views and probability memo; this builds a context of its own.
    """
    from repro.exec.plan import ShardContext

    return ShardContext(topology, timeline, service, config).replay(flow, policy)


def run_replay(
    topology: Topology,
    timeline: ConditionTimeline,
    flows: Sequence[FlowSpec],
    service: ServiceSpec,
    scheme_names: Sequence[str] = STANDARD_SCHEME_NAMES,
    config: ReplayConfig = ReplayConfig(),
    *,
    max_workers: int | None = 0,
    use_cache: bool = False,
) -> ReplayResult:
    """Replay every flow under every scheme; the evaluation workhorse.

    One :func:`repro.exec.engine.run_replay_parallel` call, recorded in
    the current telemetry session: serial and in-process unless
    ``max_workers`` asks for a pool (``None`` = one worker per core).
    The result is bitwise the same under every ``max_workers`` and
    ``use_cache``.
    """
    from repro.exec.engine import run_replay_parallel

    result, _telemetry = run_replay_parallel(
        topology,
        timeline,
        flows,
        service,
        scheme_names,
        config,
        max_workers=max_workers,
        use_cache=use_cache,
    )
    return result
