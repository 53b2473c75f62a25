"""The benchmark's one command: each workload in its own fresh process.

    python3 perfbench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                             [--trace [0|1]] [--smoke] [--out DIR]
                             [--update-reference]

Workloads run one after another, each in a fresh child process
(``child.py``), serially and on the default kernel backend.  For every
workload the command prints each end-to-end metric as ``workload metric
value unit`` (and, with ``--trace``, each per-layer metric), checks the
outputs, and writes ``results.json`` into ``--out``; a traced run also
leaves ``<workload>/spans.jsonl`` and ``<workload>/ledger.json`` there.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed check
or a child that fails exits non-zero.

Metric names, units and bounds come from ``BENCHMARK.json`` at the
repository root.  ``--seconds`` boxes each workload's timed ops; without
it a batch workload times 3 reps and ``serve-warm`` 1000 requests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh set-up-only children spawned before the main child, and after it;
#: their set-ups and the main child's give the median ``setup_s``.
SETUP_SAMPLES_BEFORE, SETUP_SAMPLES_AFTER = 2, 2

#: Budget of one workload's children, in seconds; they are killed past it.
DEADLINE_S = 175.0


def _parse(argv: list[str], names: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", nargs="+",
        action="extend", choices=names, metavar="NAME",
        help=f"workloads to run (default: all of {', '.join(names)})",
    )
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="time box for each workload's timed ops",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add one traced rep per workload and report per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, one rep, 20 requests, one set-up sample",
    )
    parser.add_argument(
        "--out", type=Path, default=ROOT / "perfbench-out",
        help="output directory (default perfbench-out/)",
    )
    parser.add_argument(
        "--update-reference", action="store_true",
        help="rewrite perfbench/reference.json from this run's totals",
    )
    return parser.parse_args(argv)


def _spawn(args: argparse.Namespace, workload: str, deadline: float, setup_only: bool) -> dict:
    """Run one child to completion and return its JSON line."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--trace", str(0 if setup_only else args.trace),
        "--out", str(args.out),
    ]
    if args.seconds is not None:
        command += ["--seconds", repr(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned-at", repr(time.monotonic())]
    completed = subprocess.run(
        command, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} child exited with {completed.returncode}")
    return json.loads(lines[-1])


def _end_to_end(child: dict, setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "replay_s": child["best_op_s"],
        "peak_rss_mb": child["peak_rss_mb"],
    }


def _machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(), "platform": platform.platform()}


def _format(value) -> str:
    return "null" if value is None else repr(value)


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in spec["workloads"]]
    args = _parse(argv, names)
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"] + spec["per_layer"]}
    workloads = list(dict.fromkeys(args.workloads or names))
    args.out.mkdir(parents=True, exist_ok=True)
    before, after = (0, 0) if args.smoke else (SETUP_SAMPLES_BEFORE, SETUP_SAMPLES_AFTER)
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "machine": _machine(),
        "workloads": {},
    }
    final: dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    for workload in workloads:
        deadline = time.monotonic() + DEADLINE_S
        try:
            setups = [
                _spawn(args, workload, deadline, setup_only=True)["setup_s"]
                for _ in range(before)
            ]
            child = _spawn(args, workload, deadline, setup_only=False)
            setups.append(child["setup_s"])
            setups += [
                _spawn(args, workload, deadline, setup_only=True)["setup_s"]
                for _ in range(after)
            ]
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
        end_to_end = _end_to_end(child, setups)
        describe = child["describe"]
        print(
            f"# {workload}: {len(child['op_s'])} timed ops (median "
            f"{statistics.median(child['op_s'])!r} s, best steps "
            f"{child['best_op_raw_s']!r} s), gauge unit {child['gauge_unit_s']!r} s, "
            f"{len(setups)} set-ups, backend {describe['backend']}, seed {args.seed}"
        )
        if len(child["op_s"]) >= 100:
            # The highest percentile with at least ten samples beyond it.
            percentiles = statistics.quantiles(child["op_s"], n=100)
            top = 99 if len(child["op_s"]) >= 1000 else 90
            print(f"# {workload}: op p90 {percentiles[89]!r} s, p{top} {percentiles[top - 1]!r} s")
        per_layer = child.get("per_layer", {})
        for name, value in list(end_to_end.items()) + sorted(per_layer.items()):
            print(f"{workload} {name} {_format(value)} {units.get(name, 's')}")
        for problem in child["problems"]:
            print(f"# {workload}: check failed: {problem}")
        values = per_layer if args.trace else end_to_end
        for entry in metrics_spec:
            key = entry["name"] if len(workloads) == 1 else f"{workload}/{entry['name']}"
            final[key] = {"value": values.get(entry["name"]), "unit": entry["unit"]}
        correct = correct and not child["problems"]
        attempted += child["attempted"]
        failed += child["failed"]
        report["workloads"][workload] = {
            "describe": describe,
            "end_to_end": {
                entry["name"]: {"value": end_to_end[entry["name"]], "unit": entry["unit"]}
                for entry in spec["end_to_end"]
            },
            "samples": {
                "setup_s": setups,
                "op_s": child["op_s"],
                "best_op_raw_s": child["best_op_raw_s"],
                "gauge_unit_s": child["gauge_unit_s"],
            },
            "per_layer": per_layer,
            "ledger": child.get("ledger"),
            "attempted": child["attempted"],
            "failed": child["failed"],
            "checks": child["checks"],
            "problems": child["problems"],
            "totals": child["totals"],
        }
    (args.out / "results.json").write_text(json.dumps(report, indent=1))
    if args.update_reference and not args.smoke:
        path = HERE / "reference.json"
        reference = json.loads(path.read_text()) if path.exists() else {}
        for workload, entry in report["workloads"].items():
            reference[workload] = entry["totals"]
        path.write_text(json.dumps(dict(sorted(reference.items())), indent=1) + "\n")
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": final}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
