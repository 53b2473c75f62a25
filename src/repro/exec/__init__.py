"""Experiment execution: work plans, worker pools, result cache.

The execution engine (subsystem S17) runs every replay, ``run_replay``
included, as a shard-and-merge job:

* :mod:`repro.exec.plan` -- decompose a replay into independent
  (flow, scheme[, time window]) shards, run each on a ``ShardContext``,
  and merge shard outputs back into a ``ReplayResult`` that is *exactly*
  equal to a serial, unsharded run's;
* :mod:`repro.exec.engine` -- run shards on a process pool with retry,
  per-shard timeout, and graceful serial fallback;
* :mod:`repro.exec.cache` -- content-addressed disk cache keyed by
  (topology, timeline, flow, scheme, config, code version);
* :mod:`repro.exec.telemetry` -- per-run and per-session execution
  summaries.
"""

from repro.exec.cache import CacheInfo, ResultCache, default_cache_dir
from repro.exec.engine import run_replay_parallel
from repro.exec.plan import ShardResult, ShardSpec, build_plan, merge_results
from repro.exec.telemetry import ExecTelemetry, session_summary

__all__ = [
    "CacheInfo",
    "ExecTelemetry",
    "ResultCache",
    "ShardResult",
    "ShardSpec",
    "build_plan",
    "default_cache_dir",
    "merge_results",
    "run_replay_parallel",
    "session_summary",
]
