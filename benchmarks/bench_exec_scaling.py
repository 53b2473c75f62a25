"""E18 -- Execution-engine scaling smoke (tier-2).

Measures the full six-scheme replay on a 1-week trace three ways --
serial in-process, 2 workers, 4 workers -- plus a cold-vs-warm cache
comparison, and prints the wall times and speedups.  On machines with
fewer than 4 cores the parallel numbers are not representative, so the
bench emits a warning instead of asserting a speedup.

``REPRO_BENCH_EXEC_WEEKS`` overrides the trace length (default 1).
"""

from __future__ import annotations

import os
import time
import warnings

import common

from repro.exec.engine import run_replay_parallel
from repro.netmodel.scenarios import WEEK_S, Scenario, generate_timeline
from repro.simulation.results import ReplayConfig
from repro.util.tables import render_table

EXEC_WEEKS = float(os.environ.get("REPRO_BENCH_EXEC_WEEKS", "1"))
WORKER_COUNTS = (2, 4)


def test_e18_exec_scaling(benchmark, tmp_path):
    cores = os.cpu_count() or 1
    if cores < 4:
        warnings.warn(
            f"machine has only {cores} core(s); parallel wall times below "
            "measure overhead, not speedup",
            stacklevel=1,
        )
    topology = common.topology()
    scenario = Scenario(duration_s=EXEC_WEEKS * WEEK_S)
    _events, timeline = generate_timeline(topology, scenario, seed=common.BENCH_SEED)
    config = ReplayConfig(detection_delay_s=common.DETECTION_DELAY_S)
    cache_dir = tmp_path / "exec-cache"

    def replay(workers: int, use_cache: bool = False) -> float:
        started = time.perf_counter()
        run_replay_parallel(
            topology,
            timeline,
            common.flows(),
            common.service(),
            config=config,
            max_workers=workers,
            use_cache=use_cache,
            cache_dir=str(cache_dir),
            label=f"exec scaling ({workers} workers)",
        )
        return time.perf_counter() - started

    def sweep():
        rows = []
        serial_s = replay(0)
        rows.append(["serial", f"{serial_s:.1f}", "1.00x"])
        for workers in WORKER_COUNTS:
            elapsed = replay(workers)
            rows.append([f"{workers} workers", f"{elapsed:.1f}", f"{serial_s / elapsed:.2f}x"])
        cold_s = replay(0, use_cache=True)
        warm_s = replay(0, use_cache=True)
        rows.append(["cache cold", f"{cold_s:.1f}", f"{serial_s / cold_s:.2f}x"])
        rows.append(["cache warm", f"{warm_s:.1f}", f"{serial_s / warm_s:.2f}x"])
        return rows, serial_s, warm_s

    rows, serial_s, warm_s = benchmark.pedantic(sweep, rounds=1, iterations=1)
    common.stage_metrics(weeks=EXEC_WEEKS)
    print(
        common.banner(
            f"E18: execution-engine scaling ({EXEC_WEEKS:g}-week trace, "
            f"{cores} core(s))"
        )
    )
    print(render_table(("configuration", "wall s", "vs serial"), rows))
    if warm_s > 0.1 * serial_s:
        warnings.warn(
            f"warm cache run took {warm_s:.1f}s (> 10% of the {serial_s:.1f}s "
            "serial run); cache hit path is slower than expected",
            stacklevel=1,
        )
