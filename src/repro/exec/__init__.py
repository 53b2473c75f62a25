"""Experiment execution: work plans, worker pools, result cache.

The execution engine (subsystem S17) runs every replay, ``run_replay``
included, as a shard-and-merge job:

* :mod:`repro.exec.plan` -- decompose a replay into one shard per
  (flow, scheme) pair, run each on a ``ShardContext`` into the pair's
  ``FlowSchemeStats``, and merge those into a ``ReplayResult`` that is
  *exactly* equal to a serial run's;
* :mod:`repro.exec.engine` -- run every shard through one runner, on a
  process pool with retry, per-shard timeout, and graceful serial
  fallback, or in-process;
* :mod:`repro.exec.cache` -- content-addressed disk cache of shard
  stats, keyed by (topology, timeline, flow, scheme, config, code
  version);
* :mod:`repro.exec.telemetry` -- per-run and per-session execution
  summaries.
"""

from repro.exec.cache import CacheInfo, ResultCache, default_cache_dir
from repro.exec.engine import run_replay_parallel
from repro.exec.plan import ShardSpec, build_plan, merge_results
from repro.exec.telemetry import ExecTelemetry, session_summary

__all__ = [
    "CacheInfo",
    "ExecTelemetry",
    "ResultCache",
    "ShardSpec",
    "build_plan",
    "default_cache_dir",
    "merge_results",
    "run_replay_parallel",
    "session_summary",
]
