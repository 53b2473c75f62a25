"""The execution engine, which ``run_replay`` is one call of.

``run_replay_parallel`` decomposes a replay into a work plan
(:mod:`repro.exec.plan`), satisfies shards from the content-addressed
disk cache (:mod:`repro.exec.cache`) when allowed, runs the remainder on
a ``ProcessPoolExecutor`` or in-process, and merges shard outputs into
a :class:`~repro.simulation.results.ReplayResult` that is bitwise the
same whatever the worker count or cache.

Failure handling is layered: a shard that raises (or whose worker dies,
or that exceeds the per-shard timeout) is retried up to ``retries``
times -- rebuilding the pool when it broke -- and finally falls back to
in-process serial execution, so a sick pool degrades to the serial
engine instead of failing the replay.

``max_workers=0`` (``run_replay``'s default) skips the pool and runs
every shard in-process on one :class:`~repro.exec.plan.ShardContext`.
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
from repro.exec.plan import ShardContext, ShardSpec, build_plan, merge_results
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
from repro.simulation.results import FlowSchemeStats, ReplayConfig, ReplayResult
from repro.util.validation import fail, require

__all__ = ["run_replay_parallel"]

#: How many times a broken pool is rebuilt before abandoning it.
_MAX_POOL_REBUILDS = 2

#: What a shard run returns: ``(stats, wall seconds, memo and kernel
#: counter delta, clock-relative spans or None)``.
_Outcome = tuple[FlowSchemeStats, float, dict[str, float], list[dict] | None]

# -- the shard runner --------------------------------------------------------------

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


def _run_shard(
    shard: ShardSpec,
    context: ShardContext | None = None,
    trace: TraceContext | None = None,
) -> _Outcome:
    """Run one shard, in a pool worker or in-process.

    ``context=None`` means a pool worker: the shard runs on the worker's
    context under the trace its parent propagated (``_worker_init``).
    Memo and kernel counters come back as a before/after difference:
    they must *not* ride inside the stats, whose payload is
    content-addressed.  When traced, the shard's ``shard.policy`` and
    ``shard.windows`` phases are recorded on a local tracer carrying the
    parent's trace id -- under a ``worker.shard`` root in a worker -- and
    come back clock-relative (see :func:`repro.obs.trace.spans_to_relative`)
    for the parent to graft under its ``shard`` span.
    """
    in_worker = context is None
    if in_worker:
        require(_WORKER_CONTEXT is not None, "worker used before initialization")
        context, trace = _WORKER_CONTEXT, _WORKER_TRACE
    before = counter_snapshot(context.probability_cache)
    started = time.perf_counter()
    spans: list[dict] | None = None
    if trace is None:
        stats = context.run(shard)
    else:
        tracer = Tracer(time.perf_counter, trace_id=trace.trace_id)
        if in_worker:
            tracer.context = {"trace_id": tracer.trace_id, "pid": os.getpid()}
            root = tracer.open("shard", "worker.shard", "exec", shard=shard.label)
            stats = context.run(shard, tracer=tracer, parent_id=root.span_id)
            tracer.close("shard")
        else:
            stats = context.run(shard, tracer=tracer)
        spans = spans_to_relative(tracer.spans, base_s=started)
    wall = time.perf_counter() - started
    delta = counter_delta(before, counter_snapshot(context.probability_cache))
    return stats, wall, delta, spans


def _default_executor_factory(
    max_workers: int, initializer: Callable, initargs: tuple
) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=max_workers, initializer=initializer, initargs=initargs
    )


# -- engine ----------------------------------------------------------------------


def _require_matching_context(
    context: ShardContext,
    topology: Topology,
    timeline: ConditionTimeline,
    service: ServiceSpec,
    config: ReplayConfig,
) -> None:
    """Reject a context built from inputs with a different context key.

    The context's own objects skip the comparison; otherwise both keys
    are built from the memoised content digests, which costs
    microseconds once each timeline has been digested.
    """
    inputs = (topology, timeline, service, config)
    built_from = (context.topology, context.timeline, context.service, context.config)
    if all(mine is theirs for mine, theirs in zip(inputs, built_from)):
        return
    if context_key(*built_from) != context_key(*inputs):
        fail(
            "context was built from other inputs than this replay "
            "(topology, timeline, service or config differ)"
        )


def _run_pooled(
    pending: list[ShardSpec],
    finish: Callable[[ShardSpec, _Outcome, str], None],
    telemetry: ExecTelemetry,
    executor_factory: Callable,
    max_workers: int,
    initargs: tuple,
    shard_timeout_s: float | None,
    retries: int,
) -> list[ShardSpec]:
    """Run ``pending`` on a worker pool; returns the shards it gave up on.

    Each shard that comes home goes to ``finish``; the caller runs the
    returned shards in-process.
    """
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
            futures = [(shard, executor.submit(_run_shard, shard)) for shard in queue]
            next_queue: list[ShardSpec] = []
            broken = False
            for shard, future in futures:
                if broken:
                    # The pool died under us; later futures of this batch
                    # are unreliable.  Requeue without charging an attempt.
                    next_queue.append(shard)
                    continue
                try:
                    outcome = future.result(timeout=shard_timeout_s)
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
                    finish(shard, outcome, "pool")
                    telemetry.shards_run += 1
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
    return fallback


def run_replay_parallel(
    topology: Topology,
    timeline: ConditionTimeline,
    flows: Sequence[FlowSpec],
    service: ServiceSpec,
    scheme_names: Sequence[str] = STANDARD_SCHEME_NAMES,
    config: ReplayConfig = ReplayConfig(),
    *,
    max_workers: int | None = None,
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

    Returns ``(result, telemetry)``; ``result`` is bitwise the same for
    any workers and cache.  ``max_workers=None`` uses the
    machine's core count; ``0`` runs serially in-process.

    ``obs`` (an :class:`repro.obs.Observability`) records shard spans,
    cache-hit instants, ``exec.*`` counters mirroring the telemetry, and
    per-scheme ``replay.*`` counters mirroring the merged totals.

    ``context`` supplies a pre-built (warm) :class:`ShardContext` for
    in-process shard runs, so a long-lived caller (the ``repro serve``
    daemon) reuses the probability memo and mask-classification cache
    across invocations.  It must have been built from inputs with the
    same context key (same topology, timeline, service and config
    content); a mismatched context raises ``ValidationError`` before any
    shard runs or is stored, since its shards would describe the
    context's timeline under this call's cache keys.  Results stay
    bitwise-identical because cache sharing is canonical-key exact.
    When the context's cache is shared with concurrent invocations, the
    per-run ``prob_*`` counter deltas may include the other runs'
    activity (telemetry only -- the replay output is unaffected).
    """
    require(bool(flows), "need at least one flow")
    require(bool(scheme_names), "need at least one scheme")
    require(retries >= 0, "retries must be >= 0")
    if obs is not None and not obs.enabled:
        obs = None
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    require(max_workers >= 0, f"max_workers must be >= 0, got {max_workers}")
    if context is not None:
        _require_matching_context(context, topology, timeline, service, config)
    started = time.perf_counter()
    root_span_id: int | None = None
    if obs is not None:
        root_span_id = obs.tracer.open(
            ("replay", label), "replay", "exec", label=label
        ).span_id
    plan = build_plan(flows, scheme_names)
    telemetry = ExecTelemetry(
        label=label,
        workers=max_workers,
        shards_total=len(plan),
        kernel_backend=kernel.active_backend(),
    )

    results: dict[ShardSpec, FlowSchemeStats] = {}
    keys: dict[ShardSpec, str] = {}
    if use_cache:
        if cache is None:
            cache = ResultCache(cache_dir)
        context_digest = context_key(topology, timeline, service, config)
        # A caller's context keeps every key it was asked for; the digest
        # is part of the lookup, so a kernel-backend switch derives anew.
        # Concurrent callers at worst both derive a key and store equal
        # values.
        known = context.shard_keys if context is not None else {}
        corrupt_before = cache.corrupt
        for shard in plan:
            key = known.get((context_digest, shard))
            if key is None:
                key = shard_key(context_digest, shard)
                known[context_digest, shard] = key
            keys[shard] = key
            hit = cache.load(key)
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
    trace = (
        obs.tracer.trace_context(root_span_id) if obs is not None else None
    )
    local_context: ShardContext | None = context

    def finish(shard: ShardSpec, outcome: _Outcome, mode: str) -> None:
        stats, shard_wall, delta, spans = outcome
        results[shard] = stats
        telemetry.shard_wall_s.append(shard_wall)
        telemetry.add_counters(delta)
        if obs is not None:
            # The span is reconstructed from the returned wall time, ending
            # at the moment the result arrived; the shard's own spans are
            # offsets from its start, re-based onto this clock.
            end = obs.tracer.now()
            shard_span = obs.tracer.complete(
                "shard", "exec", end - shard_wall, end,
                parent_id=root_span_id, shard=shard.label, mode=mode,
            )
            if spans:
                obs.tracer.graft(
                    spans, base_s=end - shard_wall, parent_id=shard_span.span_id
                )

    def run_in_process(shard: ShardSpec) -> None:
        nonlocal local_context
        if local_context is None:
            local_context = ShardContext(topology, timeline, service, config)
        finish(shard, _run_shard(shard, local_context, trace), "serial")

    if max_workers > 0 and len(pending) > 1:
        fallback = _run_pooled(
            pending,
            finish,
            telemetry,
            executor_factory or _default_executor_factory,
            max_workers,
            (
                topology,
                timeline,
                service,
                config,
                trace.to_wire() if trace is not None else None,
            ),
            shard_timeout_s,
            retries,
        )
        for shard in fallback:
            run_in_process(shard)
            telemetry.shards_fallback += 1
    else:
        for shard in pending:
            run_in_process(shard)
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
