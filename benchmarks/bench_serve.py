"""E20 -- Evaluation-as-a-service: warm daemon vs. cold request (tier-2).

Starts the serve daemon in-process with a fresh disk cache, submits the
E2 evaluation workload twice, and compares wall times.  The first
request is fully cold (new shard context, empty disk cache); the second
is identical, so it is served from the warm shard context plus the
content-addressed shard cache and must come back at least 1.3x faster.
The returned run manifest must prove the warmth: non-zero
``serve.cache.*`` hit counters and ``shards_cached`` covering every
shard of the repeat.

``REPRO_BENCH_SERVE_WEEKS`` overrides the request's trace length
(default 0.25 -- the serve speedup is about cache reuse, not trace
scale, so a short trace keeps the bench fast at full fidelity).
"""

from __future__ import annotations

import os
import time

import common

from repro.routing.registry import STANDARD_SCHEME_NAMES
from repro.serve import EvaluateRequest, ServeClient, ServeConfig, ServerThread
from repro.util.tables import render_table

SERVE_WEEKS = float(os.environ.get("REPRO_BENCH_SERVE_WEEKS", "0.25"))
MIN_WARM_SPEEDUP = 1.3


def test_e20_serve_warm_cache(benchmark, tmp_path):
    request = EvaluateRequest(
        weeks=SERVE_WEEKS,
        seed=common.BENCH_SEED,
        schemes=tuple(STANDARD_SCHEME_NAMES),
    )
    thread = ServerThread(
        ServeConfig(port=0, max_active=2, cache_dir=str(tmp_path / "serve-cache"))
    )
    port = thread.start()
    client = ServeClient(port=port, timeout_s=1200.0)

    def cold_then_warm():
        started = time.perf_counter()
        cold_result, cold_manifest, _ = client.run(request)
        cold_s = time.perf_counter() - started
        started = time.perf_counter()
        warm_result, warm_manifest, _ = client.run(request)
        warm_s = time.perf_counter() - started
        return cold_result, cold_manifest, cold_s, warm_result, warm_manifest, warm_s

    try:
        (
            cold_result, cold_manifest, cold_s,
            warm_result, warm_manifest, warm_s,
        ) = benchmark.pedantic(cold_then_warm, rounds=1, iterations=1)
        status = client.status()
        client.shutdown()
    finally:
        thread.stop()

    assert warm_result == cold_result, "warm result must be bitwise identical"
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")

    serve_extra = warm_manifest["extra"]["serve"]
    metrics = warm_manifest["metrics"]
    print(
        common.banner(
            f"E20: evaluation-as-a-service ({SERVE_WEEKS:g} weeks, "
            f"seed {common.BENCH_SEED}, {len(STANDARD_SCHEME_NAMES)} schemes)"
        )
    )
    rows = [
        ["cold request", f"{cold_s:.2f} s"],
        ["warm repeat", f"{warm_s:.2f} s"],
        ["speedup", f"{speedup:.1f}x"],
        ["context warm", str(serve_extra["context_warm"])],
        ["shards from cache", str(serve_extra["shards_cached"])],
        [
            "serve.cache.context_hits",
            f"{metrics['serve.cache.context_hits']['value']:g}",
        ],
        [
            "serve.cache.prob_hits",
            f"{metrics['serve.cache.prob_hits']['value']:g}",
        ],
        [
            "serve.cache.shards_cached",
            f"{metrics['serve.cache.shards_cached']['value']:g}",
        ],
    ]
    print(render_table(("serve bench", f"port {port}"), rows))

    # The warmth must be visible in the returned manifest, not only in
    # the wall times.
    assert serve_extra["context_warm"] is True
    assert serve_extra["shards_cached"] > 0
    assert metrics["serve.cache.context_hits"]["value"] > 0
    assert metrics["serve.cache.shards_cached"]["value"] > 0
    assert status["requests"]["completed"] >= 2
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm repeat only {speedup:.2f}x faster than cold "
        f"(needs >= {MIN_WARM_SPEEDUP}x)"
    )

    common.stage_metrics(
        weeks=SERVE_WEEKS,
        cold_s=cold_s,
        warm_s=warm_s,
        warm_speedup=speedup,
        context_warm=serve_extra["context_warm"],
        shards_cached=serve_extra["shards_cached"],
        cache_context_hits=metrics["serve.cache.context_hits"]["value"],
        cache_prob_hits=metrics["serve.cache.prob_hits"]["value"],
        cache_shards_cached=metrics["serve.cache.shards_cached"]["value"],
        requests_completed=status["requests"]["completed"],
    )
