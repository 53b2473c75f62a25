"""Engine failure paths, fallback behaviour, caching, and pool smoke test."""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, Future

import pytest

from repro.exec.engine import run_replay_parallel
from repro.netmodel.conditions import ConditionTimeline, Contribution, LinkState
from repro.netmodel.scenarios import WEEK_S, Scenario, generate_timeline
from repro.netmodel.topology import (
    FlowSpec,
    ServiceSpec,
    build_reference_topology,
    reference_flows,
)
from repro.simulation.interval import run_replay
from repro.simulation.results import ReplayConfig

from tests.exec.test_plan import (
    SMALL_SCHEMES,
    assert_exactly_equal,
    braided_topology,
)


def small_case():
    topology = braided_topology()
    timeline = ConditionTimeline(
        topology,
        600.0,
        [
            Contribution(("S", "A"), 40.0, 110.0, LinkState(loss_rate=0.7)),
            Contribution(("B", "T"), 250.0, 420.0, LinkState(loss_rate=1.0)),
        ],
    )
    return topology, timeline, (FlowSpec("S", "T"),), ServiceSpec(deadline_ms=8.0)


class FakeExecutor:
    """An in-process stand-in for ProcessPoolExecutor with failure injection.

    ``fail`` submits resolve to an exception; ``hang`` submits return a
    future that never resolves (exercising the timeout path); ``broken``
    submits resolve to BrokenExecutor (exercising pool rebuilds).
    """

    def __init__(self, initializer, initargs, fail=0, hang=0, broken=0):
        initializer(*initargs)
        self.fail = fail
        self.hang = hang
        self.broken = broken
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        future = Future()
        if self.broken > 0:
            self.broken -= 1
            future.set_exception(BrokenExecutor("injected pool death"))
        elif self.fail > 0:
            self.fail -= 1
            future.set_exception(RuntimeError("injected shard failure"))
        elif self.hang > 0:
            self.hang -= 1
            pass  # never resolved: result(timeout=...) raises TimeoutError
        else:
            try:
                future.set_result(fn(*args))
            except Exception as error:  # pragma: no cover - defensive
                future.set_exception(error)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def make_factory(recorder, **first_kwargs):
    """Executor factory: first pool gets the failure budget, rebuilds are clean."""

    def factory(max_workers, initializer, initargs):
        kwargs = first_kwargs if not recorder else {}
        executor = FakeExecutor(initializer, initargs, **kwargs)
        recorder.append(executor)
        return executor

    return factory


def run_engine(factory, retries=1, shard_timeout_s=None):
    topology, timeline, flows, service = small_case()
    return run_replay_parallel(
        topology,
        timeline,
        flows,
        service,
        SMALL_SCHEMES,
        ReplayConfig(),
        max_workers=2,
        use_cache=False,
        retries=retries,
        shard_timeout_s=shard_timeout_s,
        executor_factory=factory,
    )


def serial_reference():
    topology, timeline, flows, service = small_case()
    return run_replay(topology, timeline, flows, service, SMALL_SCHEMES)


class TestArgumentChecks:
    def test_negative_worker_count_is_rejected(self):
        topology, timeline, flows, service = small_case()
        with pytest.raises(ValueError, match="max_workers must be >= 0, got -1"):
            run_replay_parallel(
                topology,
                timeline,
                flows,
                service,
                SMALL_SCHEMES,
                ReplayConfig(),
                max_workers=-1,
                use_cache=False,
            )

    def test_repeated_scheme_is_rejected(self):
        topology, timeline, flows, service = small_case()
        with pytest.raises(ValueError, match="duplicate .* pair targeted/S->T"):
            run_replay_parallel(
                topology,
                timeline,
                flows,
                service,
                ("targeted", "flooding", "targeted"),
                ReplayConfig(),
                max_workers=0,
                use_cache=False,
            )


class TestFailurePaths:
    def test_transient_failure_is_retried(self):
        pools = []
        result, telemetry = run_engine(make_factory(pools, fail=2), retries=2)
        assert_exactly_equal(serial_reference(), result)
        assert telemetry.shards_retried >= 2
        assert telemetry.shards_fallback == 0
        assert telemetry.shards_run == telemetry.shards_total

    def test_persistent_failure_falls_back_to_serial(self):
        pools = []

        def always_failing(max_workers, initializer, initargs):
            executor = FakeExecutor(initializer, initargs, fail=10_000)
            pools.append(executor)
            return executor

        result, telemetry = run_engine(always_failing, retries=1)
        # every shard failed twice in the pool, then ran serially in-process
        assert_exactly_equal(serial_reference(), result)
        assert telemetry.shards_fallback == telemetry.shards_total
        assert telemetry.shards_run == 0

    def test_broken_pool_is_rebuilt(self):
        pools = []
        result, telemetry = run_engine(make_factory(pools, broken=1), retries=1)
        assert_exactly_equal(serial_reference(), result)
        assert len(pools) == 2  # first pool died, one rebuild finished the job
        assert telemetry.shards_retried >= 1

    def test_hung_shard_times_out_into_fallback(self):
        pools = []

        def hanging(max_workers, initializer, initargs):
            executor = FakeExecutor(
                initializer, initargs, hang=10_000 if not pools else 0
            )
            pools.append(executor)
            return executor

        result, telemetry = run_engine(hanging, retries=0, shard_timeout_s=0.05)
        assert_exactly_equal(serial_reference(), result)
        assert telemetry.shards_fallback >= 1

    def test_factory_that_cannot_build_a_pool_runs_serially(self):
        def no_pool(max_workers, initializer, initargs):
            raise OSError("no processes available")

        result, telemetry = run_engine(no_pool)
        assert_exactly_equal(serial_reference(), result)
        assert telemetry.shards_fallback == telemetry.shards_total


class TestCachingEndToEnd:
    def test_cold_then_warm_then_corrupted(self, tmp_path):
        topology, timeline, flows, service = small_case()
        kwargs = dict(
            max_workers=0,
            use_cache=True,
            cache_dir=str(tmp_path),
        )
        serial = serial_reference()

        cold, cold_t = run_replay_parallel(
            topology, timeline, flows, service, SMALL_SCHEMES, ReplayConfig(), **kwargs
        )
        assert_exactly_equal(serial, cold)
        assert cold_t.shards_run == cold_t.shards_total
        assert cold_t.shards_cached == 0

        warm, warm_t = run_replay_parallel(
            topology, timeline, flows, service, SMALL_SCHEMES, ReplayConfig(), **kwargs
        )
        assert_exactly_equal(serial, warm)
        assert warm_t.shards_cached == warm_t.shards_total
        assert warm_t.shards_run == 0

        # corrupt one entry on disk: it must be recomputed, not trusted
        entries = sorted(tmp_path.glob("*/*.json"))
        entries[0].write_text("{" + entries[0].read_text())
        third, third_t = run_replay_parallel(
            topology, timeline, flows, service, SMALL_SCHEMES, ReplayConfig(), **kwargs
        )
        assert_exactly_equal(serial, third)
        assert third_t.cache_corrupt == 1
        assert third_t.shards_run == 1
        assert third_t.shards_cached == third_t.shards_total - 1

    def test_no_cache_leaves_directory_empty(self, tmp_path):
        topology, timeline, flows, service = small_case()
        run_replay_parallel(
            topology,
            timeline,
            flows,
            service,
            SMALL_SCHEMES,
            ReplayConfig(),
            max_workers=0,
            use_cache=False,
            cache_dir=str(tmp_path),
        )
        assert not list(tmp_path.glob("*/*.json"))

    def test_pool_failure_does_not_poison_cache(self, tmp_path):
        """A replay that needed retries+fallback still caches correct results."""
        topology, timeline, flows, service = small_case()

        def always_failing(max_workers, initializer, initargs):
            return FakeExecutor(initializer, initargs, fail=10_000)

        broken, _ = run_replay_parallel(
            topology,
            timeline,
            flows,
            service,
            SMALL_SCHEMES,
            ReplayConfig(),
            max_workers=2,
            use_cache=True,
            cache_dir=str(tmp_path),
            retries=0,
            executor_factory=always_failing,
        )
        assert_exactly_equal(serial_reference(), broken)
        warm, warm_t = run_replay_parallel(
            topology,
            timeline,
            flows,
            service,
            SMALL_SCHEMES,
            ReplayConfig(),
            max_workers=0,
            use_cache=True,
            cache_dir=str(tmp_path),
        )
        assert_exactly_equal(serial_reference(), warm)
        assert warm_t.shards_cached == warm_t.shards_total


@pytest.mark.slow
class TestRealProcessPool:
    def test_real_pool_matches_serial(self):
        """Smoke test through an actual ProcessPoolExecutor (pickling etc.)."""
        topology = build_reference_topology()
        flows = reference_flows()[:2]
        service = ServiceSpec()
        _events, timeline = generate_timeline(
            topology, Scenario(duration_s=0.005 * WEEK_S), seed=3
        )
        serial = run_replay(topology, timeline, flows, service, SMALL_SCHEMES)
        parallel, telemetry = run_replay_parallel(
            topology,
            timeline,
            flows,
            service,
            SMALL_SCHEMES,
            max_workers=2,
            use_cache=False,
        )
        assert_exactly_equal(serial, parallel)
        assert telemetry.shards_run == telemetry.shards_total
        assert telemetry.workers == 2


class TestRunReplayPassthrough:
    def test_run_replay_parallel_flag_matches_serial(self):
        topology, timeline, flows, service = small_case()
        serial = run_replay(topology, timeline, flows, service, SMALL_SCHEMES)
        routed = run_replay(
            topology,
            timeline,
            flows,
            service,
            SMALL_SCHEMES,
            parallel=True,
            max_workers=0,
            time_shards=2,
        )
        assert_exactly_equal(serial, routed)
