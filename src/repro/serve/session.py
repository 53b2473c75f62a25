"""One served request, executed end to end in a worker thread.

``execute_request`` dispatches a validated request against the shared
:class:`~repro.serve.state.ServeRuntime` and returns ``(result payload,
run manifest)``.  It runs inside ``asyncio.to_thread``; the event loop
passes an ``emit`` callback for streaming ``progress`` events back to
the client while the work is still running.

Telemetry: a served evaluate makes one engine call, and its manifest's
``exec`` is the one :class:`~repro.exec.telemetry.ExecTelemetry` record
that call returned, so concurrently running requests never share a
record.

Bitwise equivalence: the evaluation path is the execution engine's
(`run_replay_parallel`), fed with a warm shard context and the shared
disk cache; both layers preserve exact equality with a cold serial
replay, so serving changes latency, never results.

Local ``repro evaluate``, ``repro classify`` and ``repro chaos`` run
``run_evaluate``, ``run_classify`` and ``run_chaos`` in-process.  They
live here because ``perfbench/tracing.py`` times ``run_replay_parallel``
and ``generate_timeline`` as this module's globals.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

from repro.exec.engine import run_replay_parallel
from repro.exec.telemetry import ExecTelemetry
from repro.netmodel.scenarios import WEEK_S, generate_timeline
from repro.netmodel.presets import preset_scenario
from repro.netmodel.topology import ServiceSpec
from repro.obs import RunManifest, topology_fingerprint
from repro.routing.registry import STANDARD_SCHEME_NAMES, make_policy
from repro.serve.schema import (
    ChaosRequest,
    ClassifyRequest,
    EvaluateRequest,
    Request,
    make_event,
)
from repro.serve.state import ContextCache, ServeRuntime
from repro.simulation import kernel
from repro.simulation.results import ReplayConfig, ReplayResult
from repro.topogen import Workload
from repro.util.logging import get_logger
from repro.util.validation import fail, require

if TYPE_CHECKING:
    from repro.chaos import FaultSchedule
    from repro.exec.cache import ResultCache
    from repro.netmodel.conditions import ConditionTimeline
    from repro.netmodel.events import ProblemEvent
    from repro.obs.profile import SamplingProfiler
    from repro.scenarios import CompiledScenario

__all__ = ["execute_request", "run_chaos", "run_classify", "run_evaluate"]

_LOG = get_logger("serve")

Emit = Callable[[dict], None]


def _progress(emit: Emit, phase: str, **detail: object) -> None:
    emit(make_event("progress", phase=phase, **detail))


def execute_request(
    runtime: ServeRuntime, request: Request, request_id: str, emit: Emit
) -> tuple[dict, RunManifest]:
    """Run one request to completion; returns (result payload, manifest)."""
    if isinstance(request, EvaluateRequest):
        return _run_evaluate(runtime, request, request_id, emit)
    if isinstance(request, ClassifyRequest):
        return _run_classify(runtime, request, request_id, emit)
    if isinstance(request, ChaosRequest):
        return _run_chaos(runtime, request, request_id, emit)
    fail(f"unsupported request kind {type(request).__name__}")


# -- evaluate ---------------------------------------------------------------------


def run_evaluate(
    request: EvaluateRequest,
    workload: Workload,
    *,
    label: str,
    cache: ResultCache | None,
    on_phase: Callable[..., None],
    trace: tuple[Sequence[ProblemEvent], ConditionTimeline] | None = None,
    contexts: ContextCache | None = None,
    obs: object | None = None,
    profiler: SamplingProfiler | None = None,
) -> tuple[ReplayResult, ExecTelemetry, RunManifest]:
    """Build (or take) the trace and replay it: (result, telemetry, manifest).

    ``on_phase(phase, **detail)`` announces ``generate-trace`` and
    ``replay`` with the detail the daemon streams as progress.  With
    ``contexts``, a request whose trace recipe built a resident context
    takes that context's timeline and the recipe's event count: it
    generates no trace and announces no ``generate-trace``.
    """
    topology = workload.topology
    schemes = tuple(request.schemes or STANDARD_SCHEME_NAMES)
    for scheme in schemes:
        make_policy(scheme)  # unknown names fail before any work
    flows = workload.select_flows(request.flows)
    service = ServiceSpec(deadline_ms=request.deadline_ms)
    config = ReplayConfig(detection_delay_s=request.detection_delay_s)

    recipe = known = None
    if contexts is not None and trace is None:
        # What the generated trace depends on; the deadline and the
        # detection delay pick the context, not the trace.
        recipe = (
            topology.digest,
            request.preset,
            request.scenario_family,
            request.seed,
            request.scenario_seed,
            request.weeks,
        )
        known = contexts.resident_trace(recipe)
    if known is not None:
        timeline, event_count = known
    elif trace is not None:
        events, timeline = trace
    elif request.scenario_family is not None:
        from repro.scenarios import compile_family

        scenario_seed = (
            request.seed
            if request.scenario_seed is None
            else request.scenario_seed
        )
        on_phase(
            "generate-trace",
            weeks=request.weeks,
            scenario_family=request.scenario_family,
            seed=scenario_seed,
        )
        compiled = compile_family(
            topology,
            request.scenario_family,
            seed=scenario_seed,
            duration_s=request.weeks * WEEK_S,
        )
        events, timeline = list(compiled.events), compiled.timeline()
    else:
        on_phase("generate-trace", weeks=request.weeks, seed=request.seed)
        scenario = preset_scenario(
            request.preset, duration_s=request.weeks * WEEK_S
        )
        events, timeline = generate_timeline(
            topology, scenario, seed=request.seed
        )
    if known is None:
        event_count = len(events)

    context, context_warm = None, False
    if contexts is not None:
        context, context_warm = contexts.get(topology, timeline, service, config)
        if recipe is not None and known is None:
            contexts.remember(recipe, context, event_count)
    on_phase(
        "replay",
        events=event_count,
        schemes=list(schemes),
        flows=len(flows),
        workers=request.workers,
        context_warm=context_warm,
    )
    if profiler is None and request.profile:
        from repro.obs.profile import SamplingProfiler

        # Created in the thread that runs the replay: the one it samples.
        profiler = SamplingProfiler()
    cache = cache if request.use_cache else None
    with profiler if profiler is not None else nullcontext():
        result, telemetry = run_replay_parallel(
            topology,
            timeline,
            flows,
            service,
            schemes,
            config,
            max_workers=request.workers,
            use_cache=cache is not None,
            cache=cache,
            label=label,
            obs=obs,
            context=context,
        )
    require(
        any(totals.duration_s > 0.0 for totals in result.all_totals()),
        "replay produced zero accumulation windows -- the trace is empty "
        "or degenerate; nothing to evaluate",
    )
    extra: dict = {"kernel": kernel.describe()}
    if workload.generated is not None:
        extra["generated_topology"] = {
            "name": workload.generated.name,
            "digest": workload.generated.digest,
        }
    if profiler is not None:
        extra["profile"] = profiler.report()
    manifest = RunManifest(
        label="evaluate",
        seed=request.seed,
        schemes=schemes,
        flows=tuple(flow.name for flow in flows),
        topology=topology_fingerprint(topology),
        duration_s=timeline.duration_s,
        exec=telemetry.to_dict(),
        extra=extra,
    )
    return result, telemetry, manifest


def _run_evaluate(
    runtime: ServeRuntime, request: EvaluateRequest, request_id: str, emit: Emit
) -> tuple[dict, RunManifest]:
    from dataclasses import replace

    workload = runtime.workload(
        request.topology_family, request.topology_size, request.topology_seed
    )
    request = replace(request, workers=min(request.workers, runtime.worker_budget))
    streamed: dict = {}

    def progress(phase: str, **detail: object) -> None:
        streamed.update(detail)
        _progress(emit, phase, **detail)

    result, telemetry, manifest = run_evaluate(
        request,
        workload,
        label=f"serve {request_id}",
        cache=runtime.result_cache,
        contexts=runtime.contexts,
        on_phase=progress,
    )
    payload = {
        "events": streamed["events"],
        "duration_s": manifest.duration_s,
        "schemes": [
            {
                "scheme": totals.scheme,
                "flows": totals.flows,
                "duration_s": totals.duration_s,
                "unavailable_s": totals.unavailable_s,
                "lost_s": totals.lost_s,
                "late_s": totals.late_s,
                "availability": totals.availability,
                "average_cost_messages": totals.average_cost_messages,
            }
            for totals in result.all_totals()
        ],
        "pairs": [
            {
                "scheme": stats.scheme,
                "flow": stats.flow.name,
                "duration_s": stats.duration_s,
                "unavailable_s": stats.unavailable_s,
                "lost_s": stats.lost_s,
                "late_s": stats.late_s,
                "message_seconds": stats.message_seconds,
                "decision_changes": stats.decision_changes,
            }
            for stats in result
        ],
    }
    manifest.label = "serve evaluate"
    manifest.extra["serve"] = {
        "request_id": request_id,
        "kind": request.kind,
        "topology": workload.label,
        "context_warm": streamed["context_warm"],
        "workers": request.workers,
        "shards_cached": telemetry.shards_cached,
    }
    return payload, manifest


# -- classify ---------------------------------------------------------------------


def run_classify(
    request: ClassifyRequest,
    workload: Workload,
    *,
    on_phase: Callable[..., None],
    trace: tuple[float, Sequence[ProblemEvent]] | None = None,
) -> tuple[dict, RunManifest]:
    """Classify the trace's problems for every flow: (payload, manifest).

    ``trace`` is a trace file's ``(duration_s, events)``; without one the
    request's preset generates the trace.  ``on_phase(phase, **detail)``
    announces ``generate-trace`` (generated traces only) and
    ``classify`` with the detail the daemon streams as progress.
    """
    from collections import Counter

    from repro.analysis.classify import (
        classification_distribution,
        classify_events_for_flows,
    )
    from repro.netmodel.scenarios import generate_events

    topology, flows = workload.topology, workload.flows
    if trace is not None:
        duration_s, events = trace
    else:
        on_phase("generate-trace", weeks=request.weeks, seed=request.seed)
        scenario = preset_scenario(
            request.preset, duration_s=request.weeks * WEEK_S
        )
        duration_s = scenario.duration_s
        events = generate_events(topology, scenario, seed=request.seed)
    on_phase("classify", events=len(events))
    problems = classify_events_for_flows(
        topology, flows, events, request.deadline_ms
    )
    counts = Counter(problem.category for problem in problems)
    distribution = classification_distribution(problems)
    payload = {
        "events": len(events),
        "problems": len(problems),
        "distribution": dict(distribution),
        "counts": dict(counts),
    }
    manifest = RunManifest(
        label="classify",
        seed=request.seed,
        flows=tuple(flow.name for flow in flows),
        topology=topology_fingerprint(topology),
        duration_s=duration_s,
    )
    return payload, manifest


def _run_classify(
    runtime: ServeRuntime, request: ClassifyRequest, request_id: str, emit: Emit
) -> tuple[dict, RunManifest]:
    payload, manifest = run_classify(
        request, runtime.workload(), on_phase=partial(_progress, emit)
    )
    manifest.label = "serve classify"
    manifest.extra["serve"] = {"request_id": request_id, "kind": request.kind}
    return payload, manifest


# -- chaos ------------------------------------------------------------------------


def run_chaos(
    request: ChaosRequest,
    workload: Workload,
    *,
    obs: object | None = None,
    on_scheme: (
        Callable[[str, FaultSchedule, CompiledScenario | None], None] | None
    ) = None,
) -> tuple[dict, RunManifest]:
    """Pick the flows, build the fault schedule, and run each scheme live.

    Returns the chaos result payload and its ``chaos`` manifest.  A
    scenario family drives the overlay with its compiled conditions and
    its derived fault schedule; otherwise a clean network runs a schedule
    generated from the fault counts, aimed at relays (flow endpoints are
    protected).  ``on_scheme(scheme, schedule, compiled)`` is called
    before each scheme's run; ``obs`` instruments every run.
    """
    from repro.chaos import ChaosSpec, generate_fault_schedule
    from repro.scenarios import compile_family, run_live

    topology = workload.topology
    for scheme in request.schemes:
        make_policy(scheme)  # unknown names fail before the run
    # The whole flow table at once makes for a slow simulation; default
    # to a representative pair.
    flows = workload.select_flows(request.flows, default=workload.flows[:2])
    service = ServiceSpec(
        deadline_ms=request.deadline_ms,
        send_interval_ms=request.send_interval_ms,
    )
    protected = frozenset(
        endpoint
        for flow in flows
        for endpoint in (flow.source, flow.destination)
    )
    compiled = None
    if request.scenario_family is not None:
        scenario_seed = (
            request.seed
            if request.scenario_seed is None
            else request.scenario_seed
        )
        compiled = compile_family(
            topology,
            request.scenario_family,
            seed=scenario_seed,
            duration_s=request.duration_s,
        )
        schedule = compiled.fault_schedule()
    else:
        spec = ChaosSpec(
            duration_s=request.duration_s,
            crashes=request.crashes,
            blackholes=request.blackholes,
            partitions=request.partitions,
            stalls=request.stalls,
            message_fault_windows=request.message_windows,
            protected_nodes=protected,
        )
        schedule = generate_fault_schedule(
            topology,
            spec,
            seed=request.seed,
            flows=tuple(flow.name for flow in flows),
        )
    rows = []
    violation_details: list[dict] = []
    for scheme in request.schemes:
        if on_scheme is not None:
            on_scheme(scheme, schedule, compiled)
        if obs is not None:
            obs.tracer.context = {"scheme": scheme}
        # Same-world contract: with a family the overlay observes its
        # compiled conditions while the injector replays its derived
        # fault schedule -- both sides of one description.
        harness = run_live(
            topology,
            flows,
            service,
            scheme,
            request.duration_s,
            schedule,
            contributions=compiled.contributions() if compiled else (),
            seed=request.seed,
            obs=obs,
        )
        unhealthy = harness.flow_health()
        if unhealthy:
            _LOG.info("unhealthy flows under %s: %s", scheme, ", ".join(unhealthy))
        violations = harness.invariants.violations
        for violation in violations:
            violation_details.append(
                {
                    "scheme": scheme,
                    "at_s": violation.at_s,
                    "invariant": violation.invariant,
                    "detail": violation.detail,
                }
            )
        for flow in flows:
            report = harness.reports[flow.name]
            rows.append(
                {
                    "scheme": scheme,
                    "flow": flow.name,
                    "sent": report.sent,
                    "on_time": report.on_time,
                    "on_time_fraction": report.on_time_fraction,
                    "violations": len(violations),
                }
            )
    payload = {
        "schedule": schedule.fingerprint(),
        "faults": len(schedule),
        "rows": rows,
        "violations": len(violation_details),
        "violation_details": violation_details,
    }
    manifest = RunManifest(
        label="chaos",
        seed=request.seed,
        schemes=tuple(request.schemes),
        flows=tuple(flow.name for flow in flows),
        topology=topology_fingerprint(topology),
        duration_s=request.duration_s,
        extra={
            "schedule": schedule.fingerprint(),
            "faults": len(schedule),
        },
    )
    return payload, manifest


def _run_chaos(
    runtime: ServeRuntime, request: ChaosRequest, request_id: str, emit: Emit
) -> tuple[dict, RunManifest]:
    def announce(scheme: str, schedule: FaultSchedule, _compiled: object) -> None:
        _progress(
            emit,
            "chaos",
            scheme=scheme,
            faults=len(schedule),
            schedule=schedule.fingerprint(),
        )

    workload = runtime.workload(
        request.topology_family, request.topology_size, request.topology_seed
    )
    payload, manifest = run_chaos(request, workload, on_scheme=announce)
    manifest.label = "serve chaos"
    manifest.extra["serve"] = {"request_id": request_id, "kind": request.kind}
    manifest.extra["violations"] = payload["violations"]
    return payload, manifest
