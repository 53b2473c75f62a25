"""Hotpath -- interval-replay speed guard (tier-1 for CI).

PR 5's contract: the reworked replay core (incremental observed views,
canonical probability-cache keys, mask-classification reuse, delta-hinted
policies, chunked case-set classification) must be **bitwise-identical**
to the historical implementation and at least 2.5x faster on the
reference E2 workload.  Per-case enumeration alone measured 1.79x, so
the guard fails if classification returns to one Dijkstra per case.

The reference below is the pre-PR-5 replay loop, frozen inline so the
comparison survives future changes to ``repro.simulation``: per-boundary
full ``observed_view``/``degraded_at`` rebuilds, a probability cache
keyed on the raw ``(edge set, endpoints, conditions)`` tuple, and a
policy-stepping loop with no delta hints and no static fast path, down
to the dict-keyed Dijkstra and the fused enumeration loop the seed's
``delivery_probabilities`` used.  The guard therefore measures exactly
the hot-path machinery this PR touched.

``REPRO_BENCH_HOTPATH_WEEKS`` overrides the trace length (default: the
smaller of ``REPRO_BENCH_WEEKS`` and 0.25 -- the reference side is the
historical slow path, so the guard keeps its own scale modest).

The replay comparison is pinned to the **pure** kernel backend
(:mod:`repro.simulation.kernel`), which is the bitwise-identical
successor of the seed's fused loop; a second stage harvests the actual
accumulation stream the replay performs and times its kernel-bound
subset (classifications with at least ``VECTOR_MIN_CASES`` enumeration
cases) on both backends, guarding the vectorization win (>= 3x) and the
numpy-vs-pure reassociation tolerance whenever numpy is importable.
"""

from __future__ import annotations

import heapq
import os
import time

import common

from repro.exec.plan import ShardContext
from repro.netmodel.scenarios import WEEK_S, Scenario, generate_timeline
from repro.routing.registry import STANDARD_SCHEME_NAMES, make_policy
from repro.simulation import kernel
from repro.simulation.reliability import DeliveryProbabilities
from repro.simulation.results import FlowSchemeStats, ReplayConfig
from repro.simulation.timeline import (
    DecisionSpan,
    decision_boundaries,
    observed_view,
)
from repro.util.tables import render_table

HOTPATH_WEEKS = float(
    os.environ.get(
        "REPRO_BENCH_HOTPATH_WEEKS", str(min(common.BENCH_WEEKS, 0.25))
    )
)
MIN_SPEEDUP = 2.5
MIN_KERNEL_SPEEDUP = 3.0
#: numpy-vs-pure agreement bound on raw accumulation sums: identical
#: multiplications, different summation tree, so the divergence is pure
#: reassociation noise (~cases * eps on sums bounded by 1).
KERNEL_TOLERANCE = 1e-9

BITWISE_FIELDS = (
    "duration_s",
    "unavailable_s",
    "lost_s",
    "late_s",
    "message_seconds",
)


_INF = float("inf")


def _reference_earliest_arrival(source, destination, adjacency, present):
    """The historical dict-keyed Dijkstra over present edges."""
    best = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        time_now, node = heapq.heappop(heap)
        if node == destination:
            return time_now
        if time_now > best.get(node, _INF):
            continue
        for neighbor, latency in adjacency.get(node, {}).items():
            if not present[(node, neighbor)]:
                continue
            candidate = time_now + latency
            if candidate < best.get(neighbor, _INF):
                best[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return best.get(destination, _INF)


def _reference_delivery_probabilities(
    graph, deadline_ms, latency_of, loss_of, max_lossy_edges
):
    """The historical fused classification+accumulation enumeration."""
    adjacency: dict = {}
    certain: dict = {}
    lossy: list = []
    for edge in graph.sorted_edges():
        loss = loss_of(edge)
        adjacency.setdefault(edge[0], {})[edge[1]] = latency_of(edge)
        if loss <= 0.0:
            certain[edge] = True
        elif loss >= 1.0:
            certain[edge] = False
        else:
            certain[edge] = False  # toggled during enumeration
            lossy.append((edge, loss))
    assert len(lossy) <= max_lossy_edges
    source, destination = graph.source, graph.destination
    baseline = _reference_earliest_arrival(
        source, destination, adjacency, certain
    )
    if baseline <= deadline_ms:
        return DeliveryProbabilities(on_time=1.0, eventually=1.0)
    if not lossy:
        eventually = 1.0 if baseline < _INF else 0.0
        return DeliveryProbabilities(on_time=0.0, eventually=eventually)
    present = dict(certain)
    for edge, _loss in lossy:
        present[edge] = True
    best_case = _reference_earliest_arrival(
        source, destination, adjacency, present
    )
    best_on_time = best_case <= deadline_ms
    if not best_case < _INF:
        return DeliveryProbabilities(on_time=0.0, eventually=0.0)
    on_time_total = 0.0
    eventually_total = 0.0
    count = len(lossy)
    for mask in range(1 << count):
        probability = 1.0
        for bit, (edge, loss) in enumerate(lossy):
            if mask >> bit & 1:
                present[edge] = True
                probability *= 1.0 - loss
            else:
                present[edge] = False
                probability *= loss
        if probability == 0.0:
            continue
        arrival = _reference_earliest_arrival(
            source, destination, adjacency, present
        )
        if arrival <= deadline_ms:
            on_time_total += probability
            eventually_total += probability
        elif arrival < _INF:
            eventually_total += probability
    if not best_on_time:
        on_time_total = 0.0  # numerical hygiene: cannot exceed best case
    return DeliveryProbabilities(
        on_time=min(1.0, on_time_total), eventually=min(1.0, eventually_total)
    )


class _ReferenceCache:
    """The historical probability memo: raw keys, per-endpoint entries."""

    def __init__(self, deadline_ms: float, max_lossy_edges: int) -> None:
        self.deadline_ms = deadline_ms
        self.max_lossy_edges = max_lossy_edges
        self._cache: dict[object, object] = {}
        self._clean_cache: dict[object, object] = {}

    def probabilities(self, topology, graph, degraded):
        relevant = tuple(
            (edge, degraded[edge])
            for edge in graph.sorted_edges()
            if edge in degraded
        )
        if not relevant:
            key = (graph.edges, graph.source, graph.destination)
            cached = self._clean_cache.get(key)
            if cached is None:
                cached = _reference_delivery_probabilities(
                    graph,
                    self.deadline_ms,
                    lambda edge: topology.latency(*edge),
                    lambda edge: 0.0,
                    max_lossy_edges=self.max_lossy_edges,
                )
                self._clean_cache[key] = cached
            return cached
        key = (graph.edges, graph.source, graph.destination, relevant)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        def latency_of(edge):
            state = degraded.get(edge)
            extra = state.extra_latency_ms if state is not None else 0.0
            return topology.latency(*edge) + extra

        def loss_of(edge):
            state = degraded.get(edge)
            return state.loss_rate if state is not None else 0.0

        result = _reference_delivery_probabilities(
            graph,
            self.deadline_ms,
            latency_of,
            loss_of,
            max_lossy_edges=self.max_lossy_edges,
        )
        self._cache[key] = result
        return result


def _reference_decision_timeline(
    topology, timeline, flow, service, policy, boundaries, observed_views
):
    """The historical stepping loop: every boundary, no hints."""
    if policy._topology is None:  # noqa: SLF001 - attach-once convenience
        policy.attach(topology, flow, service)
    spans: list[DecisionSpan] = []
    for index in range(len(boundaries) - 1):
        start, end = boundaries[index], boundaries[index + 1]
        graph = policy.update(start, observed_views[index])
        if spans and spans[-1].graph == graph:
            spans[-1] = DecisionSpan(spans[-1].start_s, end, graph)
        else:
            spans.append(DecisionSpan(start, end, graph))
    return spans


def _iter_windows(boundaries, spans):
    span_index = 0
    for start, end in zip(boundaries, boundaries[1:]):
        while spans[span_index].end_s <= start:
            span_index += 1
        yield start, end, spans[span_index].graph


def _reference_replay(topology, timeline, flows, service, config):
    """The frozen pre-PR-5 serial replay (see module docstring)."""
    assert not config.hop_recovery
    boundaries = decision_boundaries(timeline, config.detection_delay_s)
    observed_views = [
        observed_view(timeline, b, config.detection_delay_s)
        for b in boundaries[:-1]
    ]
    actual_views = [timeline.degraded_at(b) for b in boundaries[:-1]]
    cache = _ReferenceCache(service.deadline_ms, config.max_lossy_edges)
    stats_by_pair = {}
    for scheme_name in STANDARD_SCHEME_NAMES:
        for flow in flows:
            policy = make_policy(scheme_name)
            spans = _reference_decision_timeline(
                topology, timeline, flow, service, policy,
                boundaries, observed_views,
            )
            stats = FlowSchemeStats(flow=flow, scheme=policy.name)
            stats.decision_changes = len(spans) - 1
            for index, (start, end, graph) in enumerate(
                _iter_windows(boundaries, spans)
            ):
                probabilities = cache.probabilities(
                    topology, graph, actual_views[index]
                )
                stats.add_window(
                    start,
                    end,
                    graph.name,
                    graph.num_edges,
                    probabilities.on_time,
                    probabilities.lost,
                    probabilities.late,
                    collect=config.collect_windows,
                )
            stats_by_pair[(scheme_name, flow.name)] = stats
    return stats_by_pair


def _optimized_replay(topology, timeline, flows, service, config):
    """The current replay path: every pair on one shared context."""
    context = ShardContext(topology, timeline, service, config)
    stats_by_pair = {
        (scheme_name, flow.name): context.replay(flow, make_policy(scheme_name))
        for scheme_name in STANDARD_SCHEME_NAMES
        for flow in flows
    }
    return stats_by_pair, context.probability_cache


def _harvest_kernel_stream(topology, timeline, flows, service, config):
    """Record every accumulation call an E2 replay feeds the kernel.

    Patches the kernel's entry point to capture ``(classes, radix,
    rows)`` before delegating, so the stream is exactly the arithmetic
    workload the replay performs -- call shapes, batch sizes and all.
    """
    stream: list[tuple[bytes, int, list[list[float]]]] = []
    original = kernel.totals

    def record(classes, radix, rows):
        stream.append((classes, radix, [list(row) for row in rows]))
        return original(classes, radix, rows)

    kernel.totals = record
    try:
        _optimized_replay(topology, timeline, flows, service, config)
    finally:
        kernel.totals = original
    return stream


def _replay_kernel_stream(stream):
    """Run a harvested stream on the active backend; returns all totals."""
    totals: list[tuple[float, float]] = []
    for classes, radix, rows in stream:
        totals.extend(kernel.totals(classes, radix, rows))
    return totals


def test_hotpath_bitwise_identity_and_speedup(benchmark):
    topology = common.topology()
    flows = common.flows()
    service = common.service()
    scenario = Scenario(duration_s=HOTPATH_WEEKS * WEEK_S)
    _events, timeline = generate_timeline(
        topology, scenario, seed=common.BENCH_SEED
    )
    config = ReplayConfig(detection_delay_s=common.DETECTION_DELAY_S)

    def run_both():
        # The reference is the seed's fused loop, so the comparison runs
        # on the bitwise-identical pure backend; the vector backend is
        # guarded separately below under its reassociation tolerance.
        with kernel.force_backend("pure"):
            started = time.perf_counter()
            reference = _reference_replay(
                topology, timeline, flows, service, config
            )
            reference_wall = time.perf_counter() - started
            started = time.perf_counter()
            optimized, cache = _optimized_replay(
                topology, timeline, flows, service, config
            )
            optimized_wall = time.perf_counter() - started
        return reference, reference_wall, optimized, optimized_wall, cache

    reference, reference_wall, optimized, optimized_wall, cache = (
        benchmark.pedantic(run_both, rounds=1, iterations=1)
    )

    # 1) bitwise identity, field by field, for every (scheme, flow) pair.
    assert set(reference) == set(optimized)
    for pair, reference_stats in reference.items():
        optimized_stats = optimized[pair]
        for field in BITWISE_FIELDS:
            ref_value = getattr(reference_stats, field)
            opt_value = getattr(optimized_stats, field)
            assert ref_value.hex() == opt_value.hex(), (pair, field)
        assert (
            reference_stats.decision_changes == optimized_stats.decision_changes
        ), pair

    # 2) speed: the reworked hot path must clear the CI bar.
    speedup = reference_wall / optimized_wall
    assert speedup >= MIN_SPEEDUP, (
        f"hot path regressed: {speedup:.2f}x < {MIN_SPEEDUP}x "
        f"(reference {reference_wall:.1f} s, optimized {optimized_wall:.1f} s)"
    )

    # 3) canonical keys must share entries across (scheme, flow) groups:
    #    the overall hit rate strictly exceeds what the same lookups would
    #    have achieved with per-group keys (i.e. without the shared hits).
    lookups = cache.hits + cache.misses
    canonical_rate = cache.hits / lookups
    per_group_rate = (cache.hits - cache.shared_hits) / lookups
    assert cache.shared_hits > 0
    assert canonical_rate > per_group_rate

    print(common.banner(f"hotpath: replay core guard ({HOTPATH_WEEKS:g} weeks)"))
    print(
        render_table(
            ("measure", "value"),
            [
                ["reference wall", f"{reference_wall:.2f} s"],
                ["optimized wall", f"{optimized_wall:.2f} s"],
                ["speedup", f"{speedup:.2f}x"],
                ["canonical hit rate", f"{100 * canonical_rate:.1f} %"],
                ["per-group baseline", f"{100 * per_group_rate:.1f} %"],
                ["shared hits", str(cache.shared_hits)],
                ["mask hits", str(cache.mask_hits)],
                ["evictions", str(cache.evictions)],
            ],
        )
    )
    common.stage_metrics(
        weeks=HOTPATH_WEEKS,
        reference_wall_s=reference_wall,
        optimized_wall_s=optimized_wall,
        speedup=speedup,
        canonical_hit_rate=canonical_rate,
        per_group_baseline_hit_rate=per_group_rate,
        shared_hits=cache.shared_hits,
        mask_hits=cache.mask_hits,
        evictions=cache.evictions,
    )

    # 4) the vectorized kernel: harvest the accumulation stream the replay
    #    actually performs, keep its kernel-bound subset (classifications
    #    large enough for the vector path), and time it on both backends.
    with kernel.force_backend("pure"):
        stream = _harvest_kernel_stream(
            topology, timeline, flows, service, config
        )
    bound = [
        (classes, radix, rows)
        for classes, radix, rows in stream
        if len(classes) >= kernel.VECTOR_MIN_CASES
    ]
    bound_rows = sum(len(rows) for _classes, _radix, rows in bound)
    with kernel.force_backend("pure"):
        started = time.perf_counter()
        pure_totals = _replay_kernel_stream(bound)
        pure_wall = time.perf_counter() - started
    numpy_wall = None
    kernel_speedup = None
    worst_divergence = None
    if kernel.numpy_available() and bound:
        with kernel.force_backend("numpy"):
            started = time.perf_counter()
            numpy_totals = _replay_kernel_stream(bound)
            numpy_wall = time.perf_counter() - started
        worst_divergence = max(
            max(abs(p[0] - n[0]), abs(p[1] - n[1]))
            for p, n in zip(pure_totals, numpy_totals)
        )
        assert worst_divergence <= KERNEL_TOLERANCE, (
            f"numpy kernel diverged beyond reassociation tolerance: "
            f"{worst_divergence:.3e} > {KERNEL_TOLERANCE:.0e}"
        )
        kernel_speedup = pure_wall / numpy_wall
        assert kernel_speedup >= MIN_KERNEL_SPEEDUP, (
            f"vector kernel regressed: {kernel_speedup:.2f}x < "
            f"{MIN_KERNEL_SPEEDUP}x (pure {pure_wall:.2f} s, "
            f"numpy {numpy_wall:.2f} s over {bound_rows} rows)"
        )

    print(common.banner("hotpath: kernel-bound accumulation (pure vs numpy)"))
    print(
        render_table(
            ("measure", "value"),
            [
                ["accumulate calls", str(len(stream))],
                ["kernel-bound calls", str(len(bound))],
                ["kernel-bound rows", str(bound_rows)],
                ["pure wall", f"{pure_wall:.3f} s"],
                [
                    "numpy wall",
                    "n/a" if numpy_wall is None else f"{numpy_wall:.3f} s",
                ],
                [
                    "kernel speedup",
                    "n/a"
                    if kernel_speedup is None
                    else f"{kernel_speedup:.1f}x",
                ],
                [
                    "worst divergence",
                    "n/a"
                    if worst_divergence is None
                    else f"{worst_divergence:.2e}",
                ],
            ],
        )
    )
    common.stage_metrics(
        kernel_backend_default=kernel.describe()["backend"],
        kernel_numpy_available=kernel.numpy_available(),
        kernel_accumulate_calls=len(stream),
        kernel_bound_calls=len(bound),
        kernel_bound_rows=bound_rows,
        kernel_pure_wall_s=pure_wall,
        kernel_numpy_wall_s=numpy_wall,
        kernel_speedup=kernel_speedup,
        kernel_worst_divergence=worst_divergence,
    )
