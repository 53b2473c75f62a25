"""One workload in one fresh process: set up, time ops, trace, check.

``run.py`` starts this program once per workload (plus a few times with
``--setup-only`` to sample set-up time) and reads the JSON line it prints
last.  Set-up time is measured from the moment the parent spawned this
process, so it includes interpreter start and imports.  Set-up and op
times are reported at the reference host speed (see ``gauge.py``); the
raw times sit beside them in the JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def _timed_ops(workload, args, gauge) -> tuple[list, list[list[float]]]:
    """Ops until the next would overflow ``--seconds``, or a fixed count.

    A gauge unit runs after every step of every op; the second list holds
    each op's unit times, one per step.
    """
    if args.smoke:
        count, box = workload.smoke_ops, None
    elif args.seconds is None:
        count, box = workload.fixed_ops, None
    else:
        count, box = None, args.seconds
    ops, units = [], []
    started = time.perf_counter()
    while True:
        op_units: list[float] = []
        ops.append(workload.op(lambda: op_units.append(gauge.unit())))
        units.append(op_units)
        if count is not None and len(ops) >= count:
            return ops, units
        if box is not None and time.perf_counter() - started + ops[-1].wall_s > box:
            return ops, units


def best_of_ops(steps: list[list[float]]) -> float:
    """An op's time with each step at its fastest across ``steps``' ops.

    Every op repeats the same deterministic steps, and noise from the
    shared host only ever adds time, so each step's minimum is the best
    estimate of its cost.  Steps last tens of milliseconds, short enough
    to fall between bursts of host contention that slow a whole op.  The
    gauge units that follow the steps go through the same estimate, so
    both reach equally far past the bursts.
    """
    return sum(min(times) for times in zip(*steps))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _per_layer(ledger: dict, missing: set, kernel_delta, prob, overhead: float) -> dict:
    """Per-layer metrics from the ledger and the program's own counters.

    A metric whose layer lost its wrapper target, or whose counter
    source is gone, reads ``None``.
    """
    layers, counts = ledger["layers"], ledger["counts"]

    def self_s(name: str):
        return None if name in missing else layers.get(name, {}).get("self_s", 0.0)

    def calls(name: str):
        return None if name in missing else layers.get(name, {}).get("calls", 0)

    def count(name: str, layer: str):
        return None if layer in missing else counts.get(name, 0)

    metrics = {
        "reliability.classify_s": self_s("reliability.classify"),
        "reliability.classify_calls": calls("reliability.classify"),
        "reliability.classify_cases": count(
            "reliability.classify_cases", "reliability.classify"
        ),
        "reliability.exact_s": self_s("reliability.exact"),
        "reliability.exact_calls": calls("reliability.exact"),
        "routing.decide_s": self_s("routing.decide"),
        "routing.decide_calls": calls("routing.decide"),
        "routing.decision_changes": count(
            "routing.decision_changes", "routing.decide"
        ),
        "kernel.accumulate_s": self_s("kernel.accumulate"),
        "interval.windows_self_s": self_s("interval.windows"),
        "timeline.views_s": self_s("timeline.views"),
        "timeline.boundaries": count("timeline.boundaries", "timeline.boundaries"),
        "netmodel.timeline_s": self_s("netmodel.timeline"),
        "topogen.resolve_s": self_s("topogen.resolve"),
        "exec.overhead_s": self_s("exec.engine"),
        "exec.cache_store_s": self_s("exec.cache_store"),
        "exec.cache_load_s": self_s("exec.cache_load"),
        "exec.merge_s": self_s("exec.merge"),
        "exec.shards": count("exec.shards", "exec.merge"),
        "ledger.unattributed_s": ledger["unattributed_s"],
        "ledger.trace_overhead": overhead,
        "kernel.calls": None,
        "kernel.rows": None,
        "kernel.vector_row_share": None,
        "interval.prob_lookups": None,
        "interval.prob_hit_ratio": None,
        "interval.mask_reuse_ratio": None,
        "interval.evictions": None,
        "reliability.inexact_share": None,
    }
    if kernel_delta is not None:
        rows = kernel_delta["vector_rows"] + kernel_delta["pure_rows"]
        metrics["kernel.calls"] = kernel_delta["vector_calls"] + kernel_delta["pure_calls"]
        metrics["kernel.rows"] = rows
        metrics["kernel.vector_row_share"] = _ratio(kernel_delta["vector_rows"], rows)
    if prob is not None:
        lookups = prob["hits"] + prob["misses"]
        metrics["interval.prob_lookups"] = lookups
        metrics["interval.prob_hit_ratio"] = _ratio(prob["hits"], lookups)
        metrics["interval.mask_reuse_ratio"] = _ratio(prob["mask_hits"], prob["misses"])
        metrics["interval.evictions"] = prob["evictions"]
        metrics["reliability.inexact_share"] = _ratio(
            prob.get("recovery_fallbacks", 0), prob["misses"]
        )
    return metrics


def _traced(recorder, run_id: str, body, kernel_counters, deltas: list):
    """Run ``body`` as one traced phase; note the kernel counters it moved."""
    before = kernel_counters()
    recorder.install()
    try:
        with recorder.phase(run_id):
            result = body()
    finally:
        recorder.uninstall()
    after = kernel_counters()
    deltas.append(
        None if before is None or after is None
        else {name: after[name] - before[name] for name in after}
    )
    return result


def main(argv: list[str]) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        import tracing
        from gauge import SETUP_UNITS, Gauge, at_reference
        from workloads import WORKLOADS, kernel_counters
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    scratch = args.out / args.workload
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, scratch)
    recorder = tracing.Recorder() if args.trace else None
    kernel_deltas: list = []
    try:
        if recorder is not None:
            _traced(recorder, "setup", workload.setup, kernel_counters, kernel_deltas)
        else:
            workload.setup()
        setup_raw_s = time.monotonic() - args.spawned_at
        gauge = Gauge()
        # One set-up is one sample at the host's speed of the moment,
        # so it is set against the typical unit of the moment.
        setup_s = at_reference(
            setup_raw_s, statistics.median(gauge.unit() for _ in range(SETUP_UNITS))
        )
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0

        workload.warm_up()
        ops, units = _timed_ops(workload, args, gauge)
        best_op_raw_s = best_of_ops([op.steps for op in ops])
        gauge_unit_s = best_of_ops(units) / len(units[0])
        result = {
            "workload": args.workload,
            "describe": workload.describe(),
            "setup_s": setup_s,
            "setup_raw_s": setup_raw_s,
            "op_s": [op.wall_s for op in ops],
            "best_op_raw_s": best_op_raw_s,
            "best_op_s": at_reference(best_op_raw_s, gauge_unit_s),
            "gauge_unit_s": gauge_unit_s,
            "attempted": sum(op.attempted for op in ops),
            "failed": sum(op.failed for op in ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

        if recorder is not None:
            traced = _traced(
                recorder, "rep", lambda: workload.traced_ops(recorder),
                kernel_counters, kernel_deltas,
            )
            kernel_delta = (
                None if None in kernel_deltas
                else {name: sum(delta[name] for delta in kernel_deltas)
                      for name in kernel_deltas[0]}
            )
            ledger = tracing.ledger(recorder)
            overhead = (
                statistics.median(op.wall_s for op in traced)
                / statistics.median(result["op_s"])
                - 1.0
            )
            per_layer = _per_layer(
                ledger, recorder.missing, kernel_delta, workload.prob_counters(traced), overhead
            )
            per_layer.update(workload.extra_layers(ledger))
            result["per_layer"] = per_layer
            result["ledger"] = ledger
            recorder.write_spans(scratch / "spans.jsonl")
            (scratch / "ledger.json").write_text(json.dumps(ledger, indent=1))
            ops += traced

        reference_path = HERE / "reference.json"
        reference = json.loads(reference_path.read_text()) if reference_path.exists() else {}
        result["totals"] = workload.totals(ops)
        result["checks"], result["problems"] = workload.check(
            ops, reference.get(args.workload)
        )
        print(json.dumps(result))
        return 0
    finally:
        if recorder is not None:
            recorder.uninstall()
        workload.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
