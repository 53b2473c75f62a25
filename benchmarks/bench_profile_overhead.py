"""Profiler-overhead guard: sampling must stay cheap while attached.

Runs the E2 headline replay twice on identical inputs -- once bare,
once with a live :class:`repro.obs.profile.SamplingProfiler` snapshotting
the replay thread at the default interval -- and requires the profiled
run to finish within ``REPRO_PROFILE_OVERHEAD_MAX`` (default 10 %) of
the baseline.  Both runs bypass the result cache so they do equal work,
and the faster of several rounds is compared to damp scheduler noise.

This is the ISSUE's acceptance guard for continuous profiling: the
sampler has to be cheap enough to leave attached to real runs
(``evaluate --profile`` and the serve request flag), not just toy ones.
"""

from __future__ import annotations

import os
import time

import common

from repro.exec.engine import run_replay_parallel
from repro.obs.profile import SamplingProfiler
from repro.simulation.results import ReplayConfig

OVERHEAD_MAX = float(os.environ.get("REPRO_PROFILE_OVERHEAD_MAX", "0.10"))
ROUNDS = 3
#: A shorter trace than the headline bench: each round replays twice.
WEEKS = min(common.BENCH_WEEKS, 1.0)


def _replay_once(profile: bool) -> tuple[float, int]:
    _events, timeline = common.trace(WEEKS, common.BENCH_SEED)
    profiler = SamplingProfiler() if profile else None
    started = time.perf_counter()
    if profiler is not None:
        profiler.start()
    try:
        run_replay_parallel(
            common.topology(),
            timeline,
            common.flows(),
            common.service(),
            config=ReplayConfig(detection_delay_s=common.DETECTION_DELAY_S),
            max_workers=0,
            use_cache=False,
            label="profile overhead guard",
        )
    finally:
        if profiler is not None:
            profiler.stop()
    elapsed = time.perf_counter() - started
    return elapsed, profiler.samples if profiler is not None else 0


def test_profiler_sampling_overhead(benchmark):
    def measure() -> tuple[float, float, int]:
        baseline = min(_replay_once(False)[0] for _ in range(ROUNDS))
        profiled_runs = [_replay_once(True) for _ in range(ROUNDS)]
        profiled = min(elapsed for elapsed, _samples in profiled_runs)
        samples = max(samples for _elapsed, samples in profiled_runs)
        return baseline, profiled, samples

    baseline, profiled, samples = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    overhead = profiled / baseline - 1.0
    print(common.banner("obs: sampling-profiler overhead on the E2 replay"))
    print(f"  baseline (bare)     {baseline:7.3f} s")
    print(f"  profiled (sampling) {profiled:7.3f} s  ({samples} samples)")
    print(f"  overhead            {100 * overhead:+6.1f} %  (max {100 * OVERHEAD_MAX:.0f} %)")
    common.stage_metrics(
        weeks=WEEKS,
        baseline_s=baseline,
        profiled_s=profiled,
        overhead=overhead,
        samples=samples,
    )
    assert samples > 0, "profiler collected zero samples on the E2 replay"
    assert overhead < OVERHEAD_MAX, (
        f"profiler overhead {100 * overhead:.1f}% exceeds "
        f"{100 * OVERHEAD_MAX:.0f}% budget"
    )
