"""Tracing-overhead guard: observability must stay cheap when enabled.

Runs the E2 headline replay twice on identical inputs -- once
uninstrumented, once with a live :class:`repro.obs.Observability`
recording spans and metrics -- and requires the instrumented run to
finish within ``REPRO_OBS_OVERHEAD_MAX`` (default 15 %) of the baseline.
Both runs bypass the result cache so they do equal work, and the faster
of several rounds is compared to damp scheduler noise.

The zero-overhead-when-*off* property is a functional guarantee and is
locked by tier-1 tests (identical results with and without ``obs``);
this bench guards the *enabled* path's cost, which only a wall-clock
measurement can.
"""

from __future__ import annotations

import os
import time

import common

from repro.exec.engine import run_replay_parallel
from repro.obs import Observability
from repro.simulation.results import ReplayConfig

OVERHEAD_MAX = float(os.environ.get("REPRO_OBS_OVERHEAD_MAX", "0.15"))
ROUNDS = 3
#: A shorter trace than the headline bench: each round replays twice.
WEEKS = min(common.BENCH_WEEKS, 1.0)


def _replay_once(obs: Observability | None) -> float:
    _events, timeline = common.trace(WEEKS, common.BENCH_SEED)
    started = time.perf_counter()
    run_replay_parallel(
        common.topology(),
        timeline,
        common.flows(),
        common.service(),
        config=ReplayConfig(detection_delay_s=common.DETECTION_DELAY_S),
        max_workers=0,
        use_cache=False,
        label="obs overhead guard",
        obs=obs,
    )
    return time.perf_counter() - started


def test_obs_tracing_overhead(benchmark):
    def measure() -> tuple[float, float]:
        baseline = min(_replay_once(None) for _ in range(ROUNDS))
        traced = min(_replay_once(Observability()) for _ in range(ROUNDS))
        return baseline, traced

    baseline, traced = benchmark.pedantic(measure, rounds=1, iterations=1)
    overhead = traced / baseline - 1.0
    print(common.banner("obs: tracing overhead on the E2 replay"))
    print(f"  baseline (obs off) {baseline:7.3f} s")
    print(f"  traced   (obs on)  {traced:7.3f} s")
    print(f"  overhead           {100 * overhead:+6.1f} %  (max {100 * OVERHEAD_MAX:.0f} %)")
    common.stage_metrics(
        weeks=WEEKS, baseline_s=baseline, traced_s=traced, overhead=overhead
    )
    assert overhead < OVERHEAD_MAX, (
        f"tracing overhead {100 * overhead:.1f}% exceeds "
        f"{100 * OVERHEAD_MAX:.0f}% budget"
    )
