"""The four benchmark workloads, run inside one child process each.

Every workload has the same life cycle: ``setup()`` (what a user pays
before the first result: resolving the topology, generating the
condition timeline, resolving the kernel backend and, for the daemon,
starting it and answering one cold request), then timed ops, then
``check()``.  An op is one complete evaluation of the workload: a cold
replay for the batch workloads, one served request for ``serve-warm``.
An op is timed step by step (one step per ``run_replay_parallel`` call),
so that ``child.py`` can take each step's fastest time across ops.

The trace and topology of each workload are fixed, because they decide
which layer dominates (most traces are routing-bound; the 12-site trace
at seed 7 carries the heaviest classification event of the reference
scenario).  The benchmark seed permutes the order of the per-pair calls;
every op of a run keeps that order.  The per-pair results must not
depend on it (the probability memo shares entries across pairs only
when the computation is bitwise identical), so every seed is checked
against the same committed reference values.
"""

from __future__ import annotations

import gc
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.exec import engine
from repro.exec.plan import ShardContext
from repro.netmodel import scenarios
from repro.netmodel.topology import ServiceSpec
from repro.routing.registry import STANDARD_SCHEME_NAMES
from repro.simulation import kernel
from repro.simulation.reliability import ReliabilityLimitError
from repro.simulation.results import ReplayConfig
from repro.topogen import registry

#: Trace seed of every workload (the seed of the paper-headline E2 replay).
TRACE_SEED = 7

#: Relative tolerance of the reference comparison.
REFERENCE_RTOL = 1e-9

#: Batch traces cover the first 9 hours of the seed-7 default scenario.
#: On the 12-site overlay that span ends inside the trace's heaviest
#: event (a node event whose windows carry up to 16 fractional-loss
#: edges), so a cold replay is classification-bound; on isp-hier N=100 it
#: is routing-bound.  Either way a rep fits several times into a run.
TRACE_HOURS = 9.0

#: The served request of ``serve-warm`` (weeks, as the daemon takes them).
SERVE_WEEKS = 0.05

#: ``--smoke`` scale: every trace shrinks to this many hours.
SMOKE_HOURS = 1.68

#: Untimed warm-up requests before ``serve-warm`` starts timing.
SERVE_WARMUP = 50
SMOKE_WARMUP = 2

#: Warm requests in the traced phase of ``serve-warm``.
TRACED_REQUESTS = 50


@dataclass
class Op:
    """One timed operation and what it produced."""

    wall_s: float
    attempted: int
    failed: int
    steps: list[float]  # wall time of each step, in the same order every op
    pairs: dict | None = None  # (scheme, flow) -> stats tuple
    counters: dict = field(default_factory=dict)


def _stats_row(stats) -> tuple:
    return (
        stats.duration_s,
        stats.unavailable_s,
        stats.lost_s,
        stats.late_s,
        stats.message_seconds,
        stats.decision_changes,
        stats.availability,
    )


def _served_pairs(payload: dict) -> dict:
    """A served result's per-pair stats, shaped like ``_stats_row``."""
    return {
        (row["scheme"], row["flow"]): (
            row["duration_s"], row["unavailable_s"], row["lost_s"],
            row["late_s"], row["message_seconds"], row["decision_changes"],
        )
        for row in payload["pairs"]
    }


def kernel_counters() -> dict | None:
    """Process-wide kernel call/row counters, or ``None`` if they are gone."""
    try:
        return kernel.counters()
    except AttributeError:
        return None


def scheme_totals(pairs: dict) -> dict:
    """Per-scheme sums in sorted flow order (independent of submit order)."""
    totals: dict[str, dict[str, float]] = {}
    for (scheme, _flow), row in sorted(pairs.items()):
        entry = totals.setdefault(
            scheme,
            {"unavailable_s": 0.0, "lost_s": 0.0, "late_s": 0.0,
             "message_seconds": 0.0},
        )
        entry["unavailable_s"] += row[1]
        entry["lost_s"] += row[2]
        entry["late_s"] += row[3]
        entry["message_seconds"] += row[4]
    return totals


def compare_reference(totals: dict, reference: dict | None) -> list[str]:
    """Problems found comparing per-scheme totals with the reference."""
    if reference is None:
        return ["no reference values committed for this workload"]
    problems = []
    if sorted(totals) != sorted(reference):
        return [f"schemes {sorted(totals)} differ from reference {sorted(reference)}"]
    for scheme, values in reference.items():
        for name, expected in values.items():
            got = totals[scheme][name]
            if abs(got - expected) > REFERENCE_RTOL * max(abs(expected), 1e-300):
                problems.append(
                    f"{scheme} {name} = {got!r}, reference {expected!r}"
                )
    return problems


class BatchWorkload:
    """A cold replay of (flows x schemes) per op, serial, default backend.

    An op makes one ``run_replay_parallel`` call per (flow, scheme) pair,
    in a seeded order, on one cold ``ShardContext`` and one empty shard
    cache.  The calls share the context's memo, so an op does the work of
    one call over every pair; splitting it gives the op steps short
    enough to be timed between bursts of host noise.
    """

    name = ""
    hop_recovery = False
    flow_count: int | None = None  # None = every flow of the topology
    fixed_ops, smoke_ops = 3, 1  # ops without a --seconds box / under --smoke

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.scratch = scratch
        self.service = ServiceSpec()
        self.config = ReplayConfig(
            detection_delay_s=1.0, hop_recovery=self.hop_recovery
        )
        self.hours = SMOKE_HOURS if smoke else TRACE_HOURS
        self._reps = 0

    def resolve(self):
        return registry.resolve_workload()

    def setup(self) -> None:
        workload = self.resolve()
        self.topology = workload.topology
        flows = list(workload.flows[: self.flow_count])
        schemes = list(STANDARD_SCHEME_NAMES)
        self.flows, self.schemes = flows, schemes
        self.calls = [([flow], [scheme]) for scheme in schemes for flow in flows]
        self.rng.shuffle(self.calls)
        _events, self.timeline = scenarios.generate_timeline(
            self.topology,
            scenarios.Scenario(duration_s=self.hours * 3600.0),
            seed=TRACE_SEED,
        )
        self.backend = kernel.active_backend()

    def describe(self) -> dict:
        return {
            "topology": self.topology.name,
            "links": len(self.topology.edges),
            "flows": len(self.flows),
            "schemes": len(self.schemes),
            "trace_hours": self.hours,
            "trace_changes": len(self.timeline.change_times),
            "hop_recovery": self.hop_recovery,
            "backend": self.backend,
        }

    def warm_up(self) -> None:
        """Nothing: every rep is cold by definition."""

    def op(self, after_step=None) -> Op:
        """One cold replay: a fresh context and an empty shard cache.

        ``after_step``, if given, runs untimed after every step.
        """
        gc.collect()  # each rep starts without the last one's garbage
        self._reps += 1
        cache_dir = self.scratch / f"shard-cache-{self._reps}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        started = time.perf_counter()
        context = ShardContext(self.topology, self.timeline, self.service, self.config)
        steps = [time.perf_counter() - started]
        pairs: dict = {}
        failed = 0
        for flows, schemes in self.calls:
            if after_step is not None:
                after_step()
            step_started = time.perf_counter()
            try:
                result, _telemetry = engine.run_replay_parallel(
                    self.topology,
                    self.timeline,
                    flows,
                    self.service,
                    schemes,
                    self.config,
                    max_workers=0,
                    cache_dir=str(cache_dir),
                    context=context,
                )
            except ReliabilityLimitError:
                failed += len(flows) * len(schemes)
                result = []
            steps.append(time.perf_counter() - step_started)
            for stats in result:
                pairs[(stats.scheme, stats.flow.name)] = _stats_row(stats)
        if after_step is not None:
            after_step()
        shutil.rmtree(cache_dir, ignore_errors=True)
        return Op(
            wall_s=sum(steps),
            attempted=len(self.calls),
            failed=failed,
            steps=steps,
            pairs=pairs,
            counters=context.probability_cache.counters(),
        )

    def traced_ops(self, recorder) -> list[Op]:
        """The traced phase: one more rep."""
        return [self.op()]

    def prob_counters(self, traced: list[Op]) -> dict:
        """Probability-memo counters of the traced rep's cold context."""
        return traced[0].counters

    def extra_layers(self, ledger: dict) -> dict:
        return {}

    def totals(self, ops: list[Op]) -> dict:
        return scheme_totals(ops[0].pairs)

    def check(self, ops: list[Op], reference: dict | None) -> tuple[list[str], list[str]]:
        """``(checks run, problems)`` over every op of the run."""
        checks, problems = [], []
        first = ops[0].pairs
        checks.append("every rep gives bitwise-identical per-pair results")
        for number, op in enumerate(ops[1:], start=2):
            if op.pairs != first:
                problems.append(f"rep {number} differs from rep 1")
        checks.append("every availability lies in [0, 1]")
        for (scheme, flow), row in sorted(first.items()):
            if not 0.0 <= row[6] <= 1.0:
                problems.append(f"{scheme}/{flow} availability {row[6]!r}")
        fallbacks = ops[0].counters.get("recovery_fallbacks", 0)
        if fallbacks:
            # Flooding's fallback windows hold a lower bound, which a
            # smaller exact graph can exceed: the ordering is only a
            # theorem when every window is exact.
            checks.append(
                f"flooding dominance skipped: {fallbacks} windows answered "
                "with a lower bound"
            )
        else:
            checks.append("flooding availability >= every scheme, per flow")
            for (scheme, flow), row in sorted(first.items()):
                flood = first.get(("flooding", flow))
                if flood is not None and row[6] > flood[6]:
                    problems.append(
                        f"{scheme}/{flow} availability {row[6]!r} exceeds "
                        f"flooding's {flood[6]!r}"
                    )
        if not self.smoke:
            checks.append("per-scheme totals match the committed reference")
            problems.extend(compare_reference(self.totals(ops), reference))
        return checks, problems

    def close(self) -> None:
        pass


class E2Reference(BatchWorkload):
    name = "e2-reference"


class HopRecovery(BatchWorkload):
    name = "hop-recovery"
    hop_recovery = True
    # The fused fallback on flooding's 16-edge windows costs about 30 ms
    # a window per flow; four flows keep a rep near 4 s.
    flow_count = 4


class Isp100(BatchWorkload):
    name = "isp100"

    def resolve(self):
        return registry.resolve_workload("isp-hier", 100, TRACE_SEED)


class ServeWarm:
    """A closed loop of one client against an in-process daemon."""

    name = "serve-warm"
    fixed_ops, smoke_ops = 1000, 20

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.scratch = scratch
        self.thread = None

    def setup(self) -> None:
        from repro.serve import EvaluateRequest, ServeClient, ServeConfig, ServerThread

        flows = [flow.name for flow in registry.resolve_workload().flows]
        schemes = list(STANDARD_SCHEME_NAMES)
        self.rng.shuffle(flows)
        self.rng.shuffle(schemes)
        self.request = EvaluateRequest(
            weeks=SMOKE_HOURS / 168.0 if self.smoke else SERVE_WEEKS,
            seed=TRACE_SEED,
            schemes=tuple(schemes),
            flows=tuple(flows),
        )
        self.backend = kernel.active_backend()
        cache_dir = self.scratch / "serve-cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.thread = ServerThread(ServeConfig(port=0, cache_dir=str(cache_dir)))
        port = self.thread.start()
        self.client = ServeClient(port=port, timeout_s=120.0)
        self.cold, _manifest, _progress = self.client.run(self.request)

    def describe(self) -> dict:
        return {
            "topology": "reference-overlay",
            "flows": len(self.request.flows),
            "schemes": len(self.request.schemes),
            "trace_weeks": self.request.weeks,
            "warmup_requests": SERVE_WARMUP,
            "backend": self.backend,
        }

    def warm_up(self) -> None:
        for _ in range(SMOKE_WARMUP if self.smoke else SERVE_WARMUP):
            self.client.run(self.request)

    def op(self, after_step=None, recorder=None) -> Op:
        """One warm request; ``recorder`` times it as the client sees it.

        ``after_step``, if given, runs untimed after the request.
        """
        from repro.serve import ServerError
        from repro.util.validation import ValidationError

        span = recorder.open("serve.request") if recorder is not None else None
        started = time.perf_counter()
        try:
            result, _manifest, _progress = self.client.run(self.request)
        except (ServerError, ValidationError):
            result = None
        wall = time.perf_counter() - started
        if span is not None:
            recorder.close(span)
        if after_step is not None:
            after_step()
        return Op(
            wall_s=wall,
            attempted=1,
            failed=int(result is None),
            steps=[wall],
            counters={"matches_cold": result is None or result == self.cold},
        )

    def traced_ops(self, recorder) -> list[Op]:
        """The traced phase: warm requests, each timed as the client sees it."""
        before = self._queue_wait_s()
        ops = [self.op(recorder=recorder) for _ in range(TRACED_REQUESTS)]
        self.traced_queue_wait_s = self._queue_wait_s() - before
        return ops

    def _queue_wait_s(self) -> float:
        """Total admission wait the daemon reports on ``/v1/metrics``."""
        for line in self.client.metrics().splitlines():
            if line.startswith("repro_serve_queue_wait_s_sum "):
                return float(line.split()[1])
        return 0.0

    def extra_layers(self, ledger: dict) -> dict:
        """Serve layers, which only this workload has."""
        layers = ledger["layers"]
        return {
            "serve.overhead_s": layers["serve.request"]["self_s"],
            "serve.execute_s": layers.get("serve.execute", {}).get("self_s"),
            "serve.context_get_s": layers.get("serve.context_get", {}).get("self_s"),
            "serve.queue_wait_s": self.traced_queue_wait_s,
        }

    def prob_counters(self, traced: list[Op]) -> dict:
        """The daemon's memo counters (filled by the cold request)."""
        return self.thread.server.runtime.contexts.prob_counters()

    def totals(self, ops: list[Op]) -> dict:
        return scheme_totals(_served_pairs(self.cold))

    def check(self, ops: list[Op], reference: dict | None) -> tuple[list[str], list[str]]:
        checks = ["every warm result equals the cold result",
                  "the cold result equals an in-process replay"]
        problems = []
        mismatched = sum(not op.counters["matches_cold"] for op in ops)
        if mismatched:
            problems.append(f"{mismatched} warm results differ from the cold one")
        if _served_pairs(self.cold) != self._replay_in_process():
            problems.append("served pairs differ from the in-process replay")
        if not self.smoke:
            checks.append("per-scheme totals match the committed reference")
            problems.extend(compare_reference(self.totals(ops), reference))
        return checks, problems

    def _replay_in_process(self) -> dict:
        """The request's per-pair stats from a serial, uncached replay."""
        workload = registry.resolve_workload()
        _events, timeline = scenarios.generate_timeline(
            workload.topology,
            scenarios.Scenario(duration_s=self.request.weeks * scenarios.WEEK_S),
            seed=self.request.seed,
        )
        result, _telemetry = engine.run_replay_parallel(
            workload.topology,
            timeline,
            workload.select_flows(self.request.flows),
            ServiceSpec(deadline_ms=self.request.deadline_ms),
            self.request.schemes,
            ReplayConfig(detection_delay_s=self.request.detection_delay_s),
            max_workers=0,
            use_cache=False,
        )
        return {
            (stats.scheme, stats.flow.name): _stats_row(stats)[:6] for stats in result
        }

    def close(self) -> None:
        if self.thread is not None:
            self.thread.stop()
            self.thread = None


WORKLOADS = {
    cls.name: cls for cls in (E2Reference, Isp100, HopRecovery, ServeWarm)
}
