"""Append-only bench history and statistical regression tracking.

The benchmark suite writes one machine-readable ``BENCH_<exp>.json``
artifact per experiment (see ``benchmarks/common.py``).  This module
turns those per-run artifacts into a durable record:

* :func:`ingest` appends each artifact as one JSONL entry to a
  per-branch history file (``<root>/<branch>.jsonl``), stamped with the
  commit and wall-clock time.  The file is append-only in content --
  entries are only ever added, so an entry's position is its age -- but
  physically each append rewrites via temp file + fsync + atomic rename,
  so a crash can never leave a torn history under the final name.
* :func:`check` compares the newest entry of every workload against the
  trailing window of earlier entries *of the same workload* (same
  experiment, weeks, seed, workers, cache mode -- comparing a 2-week
  run against a 4-week run would be noise by construction) and flags
  metrics whose latest value moved beyond the noise band.

The noise band is ``max(5 % of |median|, 3 * MAD)``:
the relative floor keeps micro-benchmarks with near-zero variance from
flagging every run, the MAD term adapts to genuinely noisy metrics.
Whether a shift is a *regression* depends on the metric's direction,
inferred from its name (``*_s``, ``*overhead*``... are
higher-is-worse; ``*availability*``, ``*speedup*``... are
lower-is-worse); metrics with no recognisable direction -- or a
conflicting one -- are still reported, as neutral ``shift`` findings.

CI wires ``repro bench history check --annotate`` as a soft-fail step:
regressions become GitHub warning annotations on the run, not build
failures, because a wall-clock shift on shared runners needs a human
eye before it blocks anyone.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Iterable

from repro.util.validation import require

__all__ = [
    "HistoryEntry",
    "check",
    "direction",
    "format_finding",
    "github_annotation",
    "history_path",
    "ingest",
    "read_history",
    "summarize",
]

HISTORY_VERSION = 1

#: Fewest prior same-workload entries before a comparison is attempted.
MIN_BASELINE = 3

#: Default trailing-window size for the baseline.
DEFAULT_WINDOW = 20

#: Relative floor of the noise band (5 % of the median).
DEFAULT_REL_THRESHOLD = 0.05

#: Multiplier on the median absolute deviation.
DEFAULT_MAD_FACTOR = 3.0

#: Substrings marking a metric where *larger* is *worse* (durations,
#: overheads, failure seconds).
_HIGHER_IS_WORSE = (
    "_s", "overhead", "wall", "lost", "late", "unavailable", "evict",
)

#: Substrings marking a metric where *smaller* is *worse*.
_LOWER_IS_WORSE = (
    "availability", "speedup", "hit_rate", "coverage", "fraction",
    "on_time", "samples",
)

HistoryEntry = dict


def direction(metric: str) -> str | None:
    """``"higher_is_worse"`` / ``"lower_is_worse"`` / ``None`` (unknown).

    Inferred from the metric name; a name matching both vocabularies
    (e.g. an ``on_time_s`` duration) is ambiguous and returns ``None``
    rather than guessing.
    """
    name = metric.lower()
    higher = name.endswith("_s") or any(
        token in name for token in _HIGHER_IS_WORSE if token != "_s"
    )
    lower = any(token in name for token in _LOWER_IS_WORSE)
    if higher and not lower:
        return "higher_is_worse"
    if lower and not higher:
        return "lower_is_worse"
    return None


def history_path(root: str | Path, branch: str) -> Path:
    """The per-branch history file (branch name sanitised for the fs)."""
    require(bool(branch), "branch name must be non-empty")
    safe = re.sub(r"[^a-zA-Z0-9._-]", "_", branch)
    return Path(root) / f"{safe}.jsonl"


def _numeric_metrics(metrics: dict) -> dict[str, float]:
    """Finite numeric metrics only; bools, strings, NaNs are dropped."""
    out: dict[str, float] = {}
    for name, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if not math.isfinite(value):
            continue
        out[name] = float(value)
    return out


def _workload_key(entry: dict) -> tuple:
    return (
        entry.get("experiment"),
        entry.get("weeks"),
        entry.get("seed"),
        entry.get("workers"),
        entry.get("use_cache"),
    )


def ingest(
    bench_dir: str | Path,
    root: str | Path,
    branch: str,
    commit: str = "",
    recorded_at: float | None = None,
) -> list[HistoryEntry]:
    """Append every ``BENCH_*.json`` under ``bench_dir`` to the history.

    Returns the entries appended (possibly empty when the directory has
    no artifacts).  Artifacts whose ``metrics`` carry no numeric values
    are still recorded -- a run that produced an artifact happened, and
    the gap is itself information.
    """
    bench_dir = Path(bench_dir)
    require(
        bench_dir.is_dir(),
        f"bench artifact directory {bench_dir} does not exist",
    )
    stamp = time.time() if recorded_at is None else float(recorded_at)
    entries: list[HistoryEntry] = []
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        artifact = json.loads(path.read_text())
        require(
            isinstance(artifact, dict) and "experiment" in artifact,
            f"{path} is not a bench artifact (no experiment field)",
        )
        entries.append(
            {
                "version": HISTORY_VERSION,
                "branch": branch,
                "commit": commit,
                "recorded_at": round(stamp, 3),
                "experiment": artifact["experiment"],
                "weeks": artifact.get("weeks"),
                "seed": artifact.get("seed"),
                "workers": artifact.get("workers"),
                "use_cache": artifact.get("use_cache"),
                "metrics": _numeric_metrics(artifact.get("metrics") or {}),
            }
        )
    if entries:
        target = history_path(root, branch)
        target.parent.mkdir(parents=True, exist_ok=True)
        # Crash-safe append: rewrite to a temp file in the same directory,
        # fsync, then atomically rename over the original.  A crash leaves
        # either the old complete history or the new complete history --
        # never a torn trailing line under the final name.
        existing = target.read_text() if target.exists() else ""
        if existing and not existing.endswith("\n"):
            existing += "\n"  # heal a torn tail left by a pre-atomic writer
        descriptor, temp_name = tempfile.mkstemp(
            dir=target.parent, prefix=".tmp-", suffix=".jsonl"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as stream:
                stream.write(existing)
                for entry in entries:
                    stream.write(json.dumps(entry, sort_keys=True) + "\n")
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(temp_name, target)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
    return entries


def read_history(root: str | Path, branch: str) -> list[HistoryEntry]:
    """All entries of one branch, oldest first (file order).

    Undecodable lines (a torn tail from a crashed non-atomic writer, a
    partial copy) are skipped rather than crashing the check: losing one
    data point is recoverable, an unusable history file is not.
    """
    target = history_path(root, branch)
    if not target.exists():
        return []
    entries = []
    for line in target.read_text().splitlines():
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return entries


def _mad(values: list[float], center: float) -> float:
    return median([abs(value - center) for value in values])


def check(root: str | Path, branch: str, window: int = DEFAULT_WINDOW) -> list[dict]:
    """Findings for the newest entry of every workload on ``branch``.

    Each finding describes one metric of one experiment whose latest
    value left the noise band: ``kind`` is ``regression`` (moved in the
    worse direction), ``improvement`` (moved in the better direction),
    or ``shift`` (direction unknown).  Metrics inside the band and
    workloads with fewer than :data:`MIN_BASELINE` prior entries yield
    no finding.
    """
    require(window >= MIN_BASELINE, f"window must be >= {MIN_BASELINE}")
    groups: dict[tuple, list[HistoryEntry]] = {}
    for entry in read_history(root, branch):
        groups.setdefault(_workload_key(entry), []).append(entry)
    findings: list[dict] = []
    for key, entries in groups.items():
        if len(entries) < MIN_BASELINE + 1:
            continue
        latest = entries[-1]
        baseline = entries[-(window + 1):-1]
        for metric, value in sorted(latest["metrics"].items()):
            values = [
                e["metrics"][metric] for e in baseline if metric in e["metrics"]
            ]
            if len(values) < MIN_BASELINE:
                continue
            center = median(values)
            band = max(
                DEFAULT_REL_THRESHOLD * abs(center),
                DEFAULT_MAD_FACTOR * _mad(values, center),
            )
            delta = value - center
            if abs(delta) <= band:
                continue
            sense = direction(metric)
            if sense is None:
                kind = "shift"
            elif (delta > 0) == (sense == "higher_is_worse"):
                kind = "regression"
            else:
                kind = "improvement"
            findings.append(
                {
                    "experiment": latest["experiment"],
                    "commit": latest.get("commit", ""),
                    "metric": metric,
                    "value": value,
                    "median": center,
                    "band": band,
                    "delta": delta,
                    "direction": sense,
                    "kind": kind,
                    "baseline_n": len(values),
                }
            )
    order = {"regression": 0, "shift": 1, "improvement": 2}
    findings.sort(key=lambda f: (order[f["kind"]], f["experiment"], f["metric"]))
    return findings


def format_finding(finding: dict) -> str:
    """One human-readable line per finding."""
    rel = (
        f" ({100 * finding['delta'] / finding['median']:+.1f}%)"
        if finding["median"]
        else ""
    )
    return (
        f"{finding['kind']:<11} {finding['experiment']}/{finding['metric']}: "
        f"{finding['value']:g} vs median {finding['median']:g}"
        f"{rel}, band ±{finding['band']:g} "
        f"over {finding['baseline_n']} run(s)"
    )


def github_annotation(finding: dict) -> str:
    """The finding as a GitHub Actions workflow annotation line.

    Regressions annotate as warnings (soft-fail: visible on the run,
    not fatal to it); shifts and improvements as notices.
    """
    level = "warning" if finding["kind"] == "regression" else "notice"
    title = f"bench {finding['kind']}: {finding['experiment']}"
    return f"::{level} title={title}::{format_finding(finding)}"


def summarize(findings: Iterable[dict]) -> dict[str, int]:
    """Counts by kind, all kinds present (zeros included)."""
    counts = {"regression": 0, "shift": 0, "improvement": 0}
    for finding in findings:
        counts[finding["kind"]] += 1
    return counts
