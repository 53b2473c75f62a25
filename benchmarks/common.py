"""Shared fixtures for the benchmark suite.

The headline experiments replay a multi-week trace under all six schemes,
which is the expensive step; it is computed once per pytest session and
shared by every bench that needs it.  Scale and seed are controlled by
environment variables so a quick run and the full paper-scale run use the
same code:

* ``REPRO_BENCH_WEEKS`` -- trace length in weeks (default 2; the
  EXPERIMENTS.md headline numbers use 4);
* ``REPRO_BENCH_SEED`` -- generator seed (default 7);
* ``REPRO_BENCH_WORKERS`` -- execution-engine worker processes
  (default 0 = in-process serial);
* ``REPRO_BENCH_NO_CACHE`` -- set to ``1`` to bypass the execution
  engine's content-addressed result cache;
* ``REPRO_BENCH_OUT`` -- directory for the machine-readable
  ``BENCH_<exp>.json`` artifacts (default ``bench-out``).

All replays route through :mod:`repro.exec`, so a repeated bench
invocation with unchanged inputs (e.g. the ``REPRO_BENCH_WEEKS=4``
paper-scale run) reuses cached shards instead of recomputing them.

Every bench test additionally writes ``BENCH_<exp>.json`` (via an
autouse fixture in ``conftest.py``): a run manifest -- scale knobs,
topology fingerprint, the engine telemetry of the replays this bench
triggered, read from the run's telemetry session that ``conftest.py``
opens -- plus whatever headline figures the bench staged through
:func:`stage_metrics`.  A bench that runs at its own scale stages its
``weeks`` (and ``seed``), and those are the scale the manifest reports.
The JSON is the scrape-free counterpart of the printed tables,
comparable across commits.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path

from repro.exec.engine import run_replay_parallel
from repro.exec.telemetry import aggregate_telemetry, session_records
from repro.netmodel.scenarios import WEEK_S, Scenario, generate_timeline
from repro.netmodel.topology import (
    ServiceSpec,
    build_reference_topology,
    reference_flows,
)
from repro.obs.manifest import MANIFEST_VERSION, topology_fingerprint
from repro.simulation.results import ReplayConfig

BENCH_WEEKS = float(os.environ.get("REPRO_BENCH_WEEKS", "2"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "0"))
BENCH_USE_CACHE = os.environ.get("REPRO_BENCH_NO_CACHE", "") != "1"
BENCH_OUT = Path(os.environ.get("REPRO_BENCH_OUT", "bench-out"))
DETECTION_DELAY_S = 1.0


@functools.lru_cache(maxsize=None)
def topology():
    return build_reference_topology()


@functools.lru_cache(maxsize=None)
def flows():
    return reference_flows()


@functools.lru_cache(maxsize=None)
def service():
    return ServiceSpec()


@functools.lru_cache(maxsize=None)
def scenario(weeks: float = BENCH_WEEKS):
    return Scenario(duration_s=weeks * WEEK_S)


@functools.lru_cache(maxsize=None)
def trace(weeks: float = BENCH_WEEKS, seed: int = BENCH_SEED):
    """(events, timeline) of the benchmark trace."""
    return generate_timeline(topology(), scenario(weeks), seed=seed)


@functools.lru_cache(maxsize=None)
def headline_replay(weeks: float = BENCH_WEEKS, seed: int = BENCH_SEED):
    """The full six-scheme replay every headline bench reads from."""
    _events, timeline = trace(weeks, seed)
    result, _telemetry = run_replay_parallel(
        topology(),
        timeline,
        flows(),
        service(),
        config=ReplayConfig(detection_delay_s=DETECTION_DELAY_S),
        max_workers=BENCH_WORKERS,
        use_cache=BENCH_USE_CACHE,
        label=f"headline replay ({weeks:g}w, seed {seed})",
    )
    return result


def banner(title: str) -> str:
    line = "=" * len(title)
    return f"\n{line}\n{title}\n{line}"


# -- machine-readable bench artifacts ---------------------------------------------

_staged_metrics: dict[str, object] = {}
_telemetry_mark = 0


def begin_bench() -> None:
    """Reset per-bench staging (called by the autouse conftest fixture)."""
    global _telemetry_mark
    _staged_metrics.clear()
    _telemetry_mark = len(session_records())


def stage_metrics(**metrics: object) -> None:
    """Stage headline figures for the current bench's ``BENCH_<exp>.json``."""
    _staged_metrics.update(metrics)


def _telemetry_delta() -> dict | None:
    """Aggregate engine telemetry of the replays this bench triggered.

    A bench reading a session-cached replay (``headline_replay``) records
    no new engine invocation, so the delta is ``None`` for it -- the JSON
    then documents that the bench reused an earlier replay.
    """
    records = session_records()[_telemetry_mark:]
    total = aggregate_telemetry(records, label=f"bench ({len(records)} run(s))")
    return None if total is None else total.to_dict()


def flush_bench_json(exp: str) -> Path:
    """Write ``BENCH_<exp>.json`` into :data:`BENCH_OUT` and return it.

    The top-level ``weeks`` and ``seed`` are the scale the bench ran at:
    the ``weeks`` and ``seed`` it staged, if it pins its own, else the
    environment's.  Bench history files runs by them, so an unchanged
    bench must not report a new scale when the environment changes.
    """
    BENCH_OUT.mkdir(parents=True, exist_ok=True)
    payload = {
        "manifest_version": MANIFEST_VERSION,
        "experiment": exp,
        "weeks": _staged_metrics.get("weeks", BENCH_WEEKS),
        "seed": _staged_metrics.get("seed", BENCH_SEED),
        "workers": BENCH_WORKERS,
        "use_cache": BENCH_USE_CACHE,
        "topology": topology_fingerprint(topology()),
        "exec": _telemetry_delta(),
        "metrics": dict(sorted(_staged_metrics.items())),
    }
    path = BENCH_OUT / f"BENCH_{exp}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return path
