"""The parallel experiment execution engine.

``run_replay_parallel`` is the shard-and-merge counterpart of
:func:`repro.simulation.interval.run_replay`: it decomposes the replay
into a work plan (:mod:`repro.exec.plan`), satisfies shards from the
content-addressed disk cache (:mod:`repro.exec.cache`) when allowed,
runs the remainder on a ``ProcessPoolExecutor``, and merges shard
outputs into a :class:`~repro.simulation.results.ReplayResult` that is
exactly equal to the serial engine's.

Failure handling is layered: a shard that raises (or whose worker dies,
or that exceeds the per-shard timeout) is retried up to ``retries``
times -- rebuilding the pool when it broke -- and finally falls back to
in-process serial execution, so a sick pool degrades to the serial
engine instead of failing the replay.

``max_workers=0`` skips the pool entirely and runs every shard
in-process with the same shared-state reuse as ``run_replay``.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.obs is optional)
    from repro.obs import Observability

from repro.core.graph import Topology
from repro.exec.cache import ResultCache
from repro.obs.trace import TraceContext, Tracer, spans_to_relative
from repro.exec.hashing import context_key, shard_key
from repro.exec.plan import (
    ShardContext,
    ShardResult,
    ShardSpec,
    build_plan,
    merge_results,
)
from repro.exec.telemetry import (
    ExecTelemetry,
    counter_delta,
    counter_fields,
    counter_snapshot,
    record,
)
from repro.netmodel.conditions import ConditionTimeline
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing.registry import STANDARD_SCHEME_NAMES
from repro.simulation import kernel
from repro.simulation.results import ReplayConfig, ReplayResult
from repro.util.validation import require

__all__ = ["run_replay_parallel"]

#: How many times a broken pool is rebuilt before abandoning it.
_MAX_POOL_REBUILDS = 2

# -- worker-process side ---------------------------------------------------------

_WORKER_CONTEXT: ShardContext | None = None
_WORKER_TRACE: TraceContext | None = None


def _worker_init(
    topology: Topology,
    timeline: ConditionTimeline,
    service: ServiceSpec,
    config: ReplayConfig,
    trace_wire: dict | None = None,
) -> None:
    """Pool initializer: build the shared replay state once per worker."""
    global _WORKER_CONTEXT, _WORKER_TRACE
    _WORKER_CONTEXT = ShardContext(topology, timeline, service, config)
    _WORKER_TRACE = (
        TraceContext.from_wire(trace_wire) if trace_wire is not None else None
    )


def _worker_run(
    shard: ShardSpec,
) -> tuple[ShardResult, float, dict[str, float], list[dict] | None]:
    """Run one shard in a pool worker.

    Returns ``(result, wall seconds, memo and kernel counter delta,
    worker spans)``.  Workers are separate processes, so memo and kernel
    counters travel home with each shard as a before/after difference;
    they must *not* ride inside the shard result, whose payload is
    content-addressed.  When the parent propagated a trace context
    (``_worker_init``'s ``trace_wire``), the shard runs under a local
    tracer whose spans carry the parent's trace id and are shipped back
    clock-relative (see :func:`repro.obs.trace.spans_to_relative`) for
    the parent to graft into its own trace tree.
    """
    require(_WORKER_CONTEXT is not None, "worker used before initialization")
    before = counter_snapshot(_WORKER_CONTEXT.probability_cache)
    started = time.perf_counter()
    worker_spans: list[dict] | None = None
    if _WORKER_TRACE is not None:
        tracer = Tracer(time.perf_counter, trace_id=_WORKER_TRACE.trace_id)
        tracer.context = {"trace_id": tracer.trace_id, "pid": os.getpid()}
        root = tracer.open("shard", "worker.shard", "exec", shard=shard.label)
        result = _WORKER_CONTEXT.run(shard, tracer=tracer, parent_id=root.span_id)
        tracer.close("shard")
        worker_spans = spans_to_relative(tracer.spans, base_s=started)
    else:
        result = _WORKER_CONTEXT.run(shard)
    wall = time.perf_counter() - started
    delta = counter_delta(
        before, counter_snapshot(_WORKER_CONTEXT.probability_cache)
    )
    return result, wall, delta, worker_spans


def _default_executor_factory(
    max_workers: int, initializer: Callable, initargs: tuple
) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=max_workers, initializer=initializer, initargs=initargs
    )


# -- engine ----------------------------------------------------------------------


def _run_pooled(
    pending: list[ShardSpec],
    results: dict[ShardSpec, ShardResult],
    telemetry: ExecTelemetry,
    run_locally: Callable[[ShardSpec], ShardResult],
    executor_factory: Callable,
    max_workers: int,
    initargs: tuple,
    shard_timeout_s: float | None,
    retries: int,
    obs: "Observability | None" = None,
    parent_span_id: int | None = None,
) -> None:
    """Run ``pending`` on a worker pool; fall back serially on failure."""
    attempts = {shard: 0 for shard in pending}
    queue = list(pending)
    fallback: list[ShardSpec] = []
    executor = None
    rebuilds = 0

    def give_up(shard: ShardSpec) -> None:
        if attempts[shard] <= retries:
            telemetry.shards_retried += 1
            next_queue.append(shard)
        else:
            fallback.append(shard)

    try:
        while queue:
            if executor is None:
                try:
                    executor = executor_factory(
                        min(max_workers, len(queue)), _worker_init, initargs
                    )
                except Exception:
                    fallback.extend(queue)
                    queue = []
                    break
            futures = [(shard, executor.submit(_worker_run, shard)) for shard in queue]
            next_queue: list[ShardSpec] = []
            broken = False
            for shard, future in futures:
                if broken:
                    # The pool died under us; later futures of this batch
                    # are unreliable.  Requeue without charging an attempt.
                    next_queue.append(shard)
                    continue
                try:
                    shard_result, shard_wall, cache_delta, worker_spans = (
                        future.result(timeout=shard_timeout_s)
                    )
                except (BrokenExecutor, concurrent.futures.TimeoutError):
                    # A dead worker or a hung shard poisons the whole pool:
                    # tear it down and rebuild before retrying.
                    broken = True
                    attempts[shard] += 1
                    give_up(shard)
                except Exception:
                    attempts[shard] += 1
                    give_up(shard)
                else:
                    results[shard] = shard_result
                    telemetry.shards_run += 1
                    telemetry.shard_wall_s.append(shard_wall)
                    telemetry.add_counters(cache_delta)
                    if obs is not None:
                        # Workers are separate processes; the span is
                        # reconstructed parent-side from the returned wall
                        # time, ending at the moment the result arrived.
                        end = obs.tracer.now()
                        shard_span = obs.tracer.complete(
                            "shard", "exec", end - shard_wall, end,
                            parent_id=parent_span_id,
                            shard=shard.label, mode="pool",
                        )
                        if worker_spans:
                            # Worker times are offsets from its shard
                            # start; re-base them onto this clock so the
                            # worker tree nests inside the shard span.
                            obs.tracer.graft(
                                worker_spans,
                                base_s=end - shard_wall,
                                parent_id=shard_span.span_id,
                            )
            if broken:
                executor.shutdown(wait=False, cancel_futures=True)
                executor = None
                rebuilds += 1
                if rebuilds > _MAX_POOL_REBUILDS:
                    fallback.extend(next_queue)
                    next_queue = []
            queue = next_queue
    finally:
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
    for shard in fallback:
        results[shard] = run_locally(shard)
        telemetry.shards_fallback += 1


def run_replay_parallel(
    topology: Topology,
    timeline: ConditionTimeline,
    flows: Sequence[FlowSpec],
    service: ServiceSpec,
    scheme_names: Sequence[str] = STANDARD_SCHEME_NAMES,
    config: ReplayConfig = ReplayConfig(),
    *,
    max_workers: int | None = None,
    time_shards: int = 1,
    use_cache: bool = True,
    cache: ResultCache | None = None,
    cache_dir: str | None = None,
    shard_timeout_s: float | None = None,
    retries: int = 1,
    executor_factory: Callable | None = None,
    label: str = "replay",
    obs: "Observability | None" = None,
    context: ShardContext | None = None,
) -> tuple[ReplayResult, ExecTelemetry]:
    """Replay every flow under every scheme via the execution engine.

    Returns ``(result, telemetry)`` where ``result`` is exactly equal to
    ``run_replay``'s output on the same inputs.  ``max_workers=None``
    uses the machine's core count; ``0`` runs serially in-process.

    ``obs`` (an :class:`repro.obs.Observability`) records shard spans,
    cache-hit instants, ``exec.*`` counters mirroring the telemetry, and
    per-scheme ``replay.*`` counters mirroring the merged totals.

    ``context`` supplies a pre-built (warm) :class:`ShardContext` for
    in-process shard runs, so a long-lived caller (the ``repro serve``
    daemon) reuses the probability memo and mask-classification cache
    across invocations.  It MUST have been built from the same topology,
    timeline, service and config; results stay bitwise-identical because
    cache sharing is canonical-key exact.  When the context's cache is
    shared with concurrent invocations, the per-run ``prob_*`` counter
    deltas may include the other runs' activity (telemetry only -- the
    replay output is unaffected).
    """
    require(bool(flows), "need at least one flow")
    require(bool(scheme_names), "need at least one scheme")
    require(retries >= 0, "retries must be >= 0")
    if obs is not None and not obs.enabled:
        obs = None
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    require(max_workers >= 0, f"max_workers must be >= 0, got {max_workers}")
    started = time.perf_counter()
    root_span_id: int | None = None
    if obs is not None:
        root_span_id = obs.tracer.open(
            ("replay", label), "replay", "exec", label=label
        ).span_id
    plan = build_plan(timeline, flows, scheme_names, config, time_shards)
    telemetry = ExecTelemetry(
        label=label,
        workers=max_workers,
        time_shards=time_shards,
        shards_total=len(plan),
        kernel_backend=kernel.active_backend(),
    )

    results: dict[ShardSpec, ShardResult] = {}
    keys: dict[ShardSpec, str] = {}
    if use_cache:
        if cache is None:
            cache = ResultCache(cache_dir)
        context_digest = context_key(topology, timeline, service, config)
        corrupt_before = cache.corrupt
        for shard in plan:
            keys[shard] = shard_key(
                context_digest,
                shard.flow,
                shard.scheme,
                shard.start_s,
                shard.end_s,
                shard.index,
                shard.of,
            )
            hit = cache.load(keys[shard])
            if hit is not None:
                results[shard] = hit
                if obs is not None:
                    obs.tracer.instant(
                        "cache.hit", "exec",
                        parent_id=root_span_id, shard=shard.label,
                    )
        telemetry.shards_cached = len(results)
        telemetry.cache_corrupt = cache.corrupt - corrupt_before

    pending = [shard for shard in plan if shard not in results]
    local_context: ShardContext | None = context

    def run_locally(shard: ShardSpec) -> ShardResult:
        nonlocal local_context
        if local_context is None:
            local_context = ShardContext(topology, timeline, service, config)
        before = counter_snapshot(local_context.probability_cache)
        shard_started = time.perf_counter()
        span_start = obs.tracer.now() if obs is not None else 0.0
        result = local_context.run(shard)
        shard_wall = time.perf_counter() - shard_started
        telemetry.shard_wall_s.append(shard_wall)
        after = counter_snapshot(local_context.probability_cache)
        telemetry.add_counters(counter_delta(before, after))
        if obs is not None:
            obs.tracer.complete(
                "shard", "exec", span_start, span_start + shard_wall,
                parent_id=root_span_id, shard=shard.label, mode="serial",
            )
        return result

    if pending:
        if max_workers > 0 and len(pending) > 1:
            trace_wire = (
                obs.tracer.trace_context(root_span_id).to_wire()
                if obs is not None
                else None
            )
            _run_pooled(
                pending,
                results,
                telemetry,
                run_locally,
                executor_factory or _default_executor_factory,
                max_workers,
                (topology, timeline, service, config, trace_wire),
                shard_timeout_s,
                retries,
                obs,
                root_span_id,
            )
        else:
            for shard in pending:
                results[shard] = run_locally(shard)
                telemetry.shards_run += 1

    if use_cache and cache is not None:
        for shard in pending:
            cache.store(keys[shard], results[shard])
        # Apply the size cap once per run, after all stores: evicting
        # mid-run could throw away shards this very run still needs.
        telemetry.cache_evicted = cache.enforce_limit()

    merged = merge_results(service, config, plan, results)
    telemetry.wall_time_s = time.perf_counter() - started
    record(telemetry)
    if obs is not None:
        obs.tracer.close(
            ("replay", label),
            shards_total=telemetry.shards_total,
            shards_cached=telemetry.shards_cached,
        )
        _observe_run(obs, telemetry, merged)
    return merged, telemetry


def _observe_run(
    obs: "Observability", telemetry: ExecTelemetry, merged: ReplayResult
) -> None:
    """Mirror the run's telemetry and merged totals into the registry.

    The ``replay.*`` counters duplicate ``merged.all_totals()`` exactly
    (a test holds them to bitwise agreement), which is what lets a run
    manifest reconcile against the replay result without re-running it.
    """
    metrics = obs.metrics
    for prefix, metric_prefix in (
        ("shards_", "exec.shards_"),
        ("prob_", "exec.prob_cache."),
        ("kernel_", "replay.kernel."),
    ):
        for name in counter_fields(prefix):
            metrics.counter(metric_prefix + name.removeprefix(prefix)).inc(
                getattr(telemetry, name)
            )
    metrics.counter(
        f"replay.kernel.backend.{telemetry.kernel_backend}"
    ).inc(1)
    for wall in telemetry.shard_wall_s:
        metrics.histogram("exec.shard_wall_s").observe(wall)
    for totals in merged.all_totals():
        metrics.counter(f"replay.duration_s.{totals.scheme}").inc(
            totals.duration_s
        )
        metrics.counter(f"replay.unavailable_s.{totals.scheme}").inc(
            totals.unavailable_s
        )
        metrics.counter(f"replay.lost_s.{totals.scheme}").inc(totals.lost_s)
        metrics.counter(f"replay.late_s.{totals.scheme}").inc(totals.late_s)
