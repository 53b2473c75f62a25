"""Compare two benchmark results against the bounds in ``BENCHMARK.json``.

    python3 perfbench/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a ``results.json``
written by ``run.py``, a set file ``{"runs": [results, ...]}``, or a
directory of either.  For every (workload, end-to-end metric) one row
says whether B is ``better``, ``worse`` or ``unchanged`` by more than
the metric's bound, or ``unresolved`` when either side's spread (the
distance between its quartiles, as a share of its median) is wider than
the bound -- unless every value of B beats every value of A.  A side
with several runs spreads over its runs; a single run spreads over its
own set-up samples, and has no spread for the other metrics.  Runs that differ in kernel backend, seeds or Python
version are refused.  The exit code is 1 when a row reads ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> list[dict]:
    """Every results document under ``path``."""
    if path.is_dir():
        return [run for child in sorted(path.glob("*.json")) for run in load_runs(child)]
    document = json.loads(path.read_text())
    return document["runs"] if "runs" in document else [document]


def _samples(run: dict, workload: str, metric: str) -> list[float]:
    entry = run["workloads"][workload]
    samples = entry.get("samples", {})
    if metric == "setup_s" and samples.get("setup_s"):
        return samples["setup_s"]
    return [entry["end_to_end"][metric]["value"]]


def values(runs: list[dict], workload: str, metric: str) -> list[float]:
    """Per-run values, or one run's own samples when the side has one run."""
    if len(runs) == 1:
        return _samples(runs[0], workload, metric)
    return [run["workloads"][workload]["end_to_end"][metric]["value"] for run in runs]


def spread(sample: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    if len(sample) < 2:
        return 0.0
    quartiles = statistics.quantiles(sample, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(sample)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, change)``; ``change`` > 0 means B improved on A."""
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (statistics.median(b) - statistics.median(a)) / statistics.median(a)
    if spread(a) > bound or spread(b) > bound:
        if all(sign * (vb - va) > 0 for va in a for vb in b):
            return "better", change
        return "unresolved", change
    if change < -bound:
        return "worse", change
    if change > bound:
        return "better", change
    return "unchanged", change


def _identity(runs: list[dict]) -> dict:
    return {
        "backend": sorted({
            entry["describe"]["backend"]
            for run in runs for entry in run["workloads"].values()
        }),
        "python": sorted({run["python"] for run in runs}),
        "seeds": sorted(run["seed"] for run in runs),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    side_a, side_b = (load_runs(Path(arg)) for arg in argv)
    identity_a, identity_b = _identity(side_a), _identity(side_b)
    for key in ("backend", "python", "seeds"):
        if identity_a[key] != identity_b[key]:
            print(
                f"refusing to compare: {key} differs "
                f"({identity_a[key]} vs {identity_b[key]})",
                file=sys.stderr,
            )
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = dict.fromkeys(name for run in side_a for name in run["workloads"])
    print(f"{'workload':<14} {'metric':<18} {'A':>11} {'B':>11} {'change':>8} "
          f"{'spread A':>9} {'spread B':>9}  verdict")
    worse = False
    for workload in workloads:
        runs_a = [run for run in side_a if workload in run["workloads"]]
        runs_b = [run for run in side_b if workload in run["workloads"]]
        if not runs_b:
            continue
        for entry in spec["end_to_end"]:
            a = values(runs_a, workload, entry["name"])
            b = values(runs_b, workload, entry["name"])
            label, change = verdict(a, b, entry["better"], entry["bound"])
            worse = worse or label == "worse"
            print(
                f"{workload:<14} {entry['name']:<18} {statistics.median(a):>11.5g} "
                f"{statistics.median(b):>11.5g} {change:>+8.1%} {spread(a):>9.1%} "
                f"{spread(b):>9.1%}  {label}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
