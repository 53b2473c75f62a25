"""Telemetry records: dict form and session aggregation."""

from __future__ import annotations

import contextvars

import pytest

from repro.exec.engine import run_replay_parallel
from repro.exec.plan import ShardContext
from repro.exec.telemetry import (
    ExecTelemetry,
    aggregate_telemetry,
    current_session,
    record,
    session_records,
    session_summary,
    session_totals,
    telemetry_session,
)
from repro.obs import Observability
from repro.simulation import kernel
from repro.simulation.results import ReplayConfig

from tests.exec.test_engine import small_case
from tests.exec.test_plan import SMALL_SCHEMES


@pytest.fixture(autouse=True)
def _session():
    """Every test records into a session of its own."""
    with telemetry_session("test"):
        yield


def _telemetry(**overrides) -> ExecTelemetry:
    telemetry = ExecTelemetry(
        label="t",
        workers=2,
        shards_total=4,
        shards_run=3,
        shards_cached=1,
        wall_time_s=1.0,
        shard_wall_s=[0.25, 0.25, 0.5],
    )
    for name, value in overrides.items():
        setattr(telemetry, name, value)
    return telemetry


class TestToDict:
    def test_all_counters_present(self):
        payload = _telemetry(cache_corrupt=2, cache_evicted=3).to_dict()
        assert payload["shards_total"] == 4
        assert payload["cache_corrupt"] == 2
        assert payload["cache_evicted"] == 3
        assert payload["busy_s"] == 1.0
        assert payload["max_shard_s"] == 0.5

    def test_json_safe(self):
        import json

        json.dumps(_telemetry().to_dict())

    def test_empty_record(self):
        payload = ExecTelemetry().to_dict()
        assert payload["mean_shard_s"] == 0.0
        assert payload["utilization"] == 0.0


class TestSessionAggregation:
    def test_totals_sum_every_counter(self):
        record(_telemetry(cache_corrupt=1, cache_evicted=2))
        record(_telemetry(cache_corrupt=3, cache_evicted=0, shards_retried=1))
        total = session_totals()
        assert total.shards_total == 8
        assert total.shards_run == 6
        assert total.shards_cached == 2
        assert total.shards_retried == 1
        # Cache-health counters must survive aggregation: a corruption
        # seen in any run of the session shows in the aggregate.
        assert total.cache_corrupt == 4
        assert total.cache_evicted == 2
        assert total.wall_time_s == 2.0
        assert len(total.shard_wall_s) == 6

    def test_totals_none_when_empty(self):
        assert session_totals() is None
        assert session_summary() is None

    def test_summary_table_shows_aggregated_cache_health(self):
        record(_telemetry(cache_corrupt=1))
        record(_telemetry(cache_corrupt=2, cache_evicted=5))
        collapsed = " ".join(session_summary().split())
        assert "corrupt cache entries 3" in collapsed
        assert "cache entries evicted 5" in collapsed

    def test_records_are_immutable_view(self):
        record(_telemetry())
        view = session_records()
        record(_telemetry())
        assert len(view) == 1
        assert len(session_records()) == 2
        with pytest.raises(AttributeError):
            view.append(_telemetry())  # type: ignore[attr-defined]

    def test_engine_calls_outside_a_session_leave_no_records(self):
        # A process that never opens a session (a long-lived script, a
        # library caller) retains no record of its engine calls: each is
        # returned to its caller and kept nowhere else.
        topology, timeline, flows, service = small_case()

        def outside_any_session():
            telemetries = [
                run_replay_parallel(
                    topology, timeline, flows, service, SMALL_SCHEMES,
                    max_workers=0, use_cache=False,
                )[1]
                for _ in range(3)
            ]
            return telemetries, current_session(), session_records()

        telemetries, session, records = contextvars.Context().run(
            outside_any_session
        )
        shards = len(flows) * len(SMALL_SCHEMES)
        assert [t.shards_total for t in telemetries] == [shards] * 3
        assert records == ()
        assert session is None
        assert session_records() == ()  # the test's own session saw none


class TestProbCacheCounters:
    def test_to_dict_carries_prob_counters(self):
        payload = _telemetry(
            prob_hits=6,
            prob_misses=2,
            prob_shared_hits=3,
            prob_mask_hits=1,
            prob_evictions=4,
        ).to_dict()
        assert payload["prob_hits"] == 6
        assert payload["prob_misses"] == 2
        assert payload["prob_shared_hits"] == 3
        assert payload["prob_mask_hits"] == 1
        assert payload["prob_evictions"] == 4
        assert payload["prob_hit_rate"] == pytest.approx(0.75)

    def test_hit_rate_zero_without_lookups(self):
        assert ExecTelemetry().prob_hit_rate == 0.0

    def test_totals_sum_prob_counters(self):
        record(_telemetry(prob_hits=10, prob_misses=5, prob_evictions=1))
        record(
            _telemetry(
                prob_hits=2,
                prob_misses=1,
                prob_shared_hits=2,
                prob_mask_hits=3,
                prob_evictions=1,
            )
        )
        total = session_totals()
        assert total.prob_hits == 12
        assert total.prob_misses == 6
        assert total.prob_shared_hits == 2
        assert total.prob_mask_hits == 3
        assert total.prob_evictions == 2

    def test_summary_table_shows_prob_cache_rows(self):
        # Satellite (c): eviction telemetry must be user-visible, not
        # just a counter buried in the JSON payload.
        record(
            _telemetry(
                prob_hits=8,
                prob_misses=2,
                prob_shared_hits=3,
                prob_mask_hits=5,
                prob_evictions=7,
            )
        )
        collapsed = " ".join(session_summary().split())
        assert "prob-cache hits/misses 8/2 (80 %)" in collapsed
        assert "prob-cache shared hits 3" in collapsed
        assert "prob-cache mask hits 5" in collapsed
        assert "prob-cache evictions 7" in collapsed
        assert "prob-cache recovery fallbacks 0" in collapsed


def _live_sources() -> tuple[dict, dict]:
    """The live memo and kernel counter snapshots (the names' one source)."""
    topology, timeline, _flows, service = small_case()
    context = ShardContext(topology, timeline, service, ReplayConfig())
    return context.probability_cache.counters(), kernel.counters()


class TestCounterNamesRoundTrip:
    """Every source key reaches telemetry, aggregation and the registry."""

    def _fields(self) -> list[str]:
        prob, kernel_counters = _live_sources()
        return [f"prob_{name}" for name in prob] + [
            f"kernel_{name}" for name in kernel_counters
        ]

    def test_every_key_in_to_dict(self):
        payload = ExecTelemetry().to_dict()
        for name in self._fields():
            assert name in payload

    def test_every_key_summed_by_aggregate(self):
        records = [ExecTelemetry(), ExecTelemetry()]
        for step, telemetry in enumerate(records, start=1):
            telemetry.add_counters(dict.fromkeys(self._fields(), step))
        total = aggregate_telemetry(records)
        for name in self._fields():
            assert getattr(total, name) == 3, name

    def test_every_key_in_obs_registry(self):
        obs = Observability()
        topology, timeline, flows, service = small_case()
        run_replay_parallel(
            topology, timeline, flows, service, SMALL_SCHEMES,
            max_workers=0, use_cache=False, obs=obs,
        )
        names = obs.metrics.names()
        prob, kernel_counters = _live_sources()
        for name in prob:
            assert f"exec.prob_cache.{name}" in names
        for name in kernel_counters:
            assert f"replay.kernel.{name}" in names

    def test_unknown_key_fails_loudly(self):
        with pytest.raises(AttributeError):
            ExecTelemetry().add_counters({"prob_no_such_counter": 1})


class TestKernelCounters:
    def test_to_dict_carries_kernel_fields(self):
        payload = _telemetry(
            kernel_backend="numpy",
            kernel_vector_calls=4,
            kernel_pure_calls=2,
            kernel_vector_rows=40,
            kernel_pure_rows=2,
            kernel_vector_s=0.25,
            kernel_pure_s=0.125,
        ).to_dict()
        assert payload["kernel_backend"] == "numpy"
        assert payload["kernel_vector_calls"] == 4
        assert payload["kernel_pure_calls"] == 2
        assert payload["kernel_vector_rows"] == 40
        assert payload["kernel_pure_rows"] == 2
        assert payload["kernel_vector_s"] == 0.25
        assert payload["kernel_pure_s"] == 0.125

    def test_totals_sum_kernel_counters(self):
        record(
            _telemetry(
                kernel_backend="numpy",
                kernel_vector_calls=3,
                kernel_vector_rows=30,
                kernel_vector_s=0.5,
            )
        )
        record(
            _telemetry(
                kernel_backend="numpy",
                kernel_vector_calls=1,
                kernel_pure_calls=2,
                kernel_vector_rows=5,
                kernel_pure_rows=2,
                kernel_vector_s=0.25,
                kernel_pure_s=0.0625,
            )
        )
        total = session_totals()
        assert total.kernel_backend == "numpy"
        assert total.kernel_vector_calls == 4
        assert total.kernel_pure_calls == 2
        assert total.kernel_vector_rows == 35
        assert total.kernel_pure_rows == 2
        assert total.kernel_vector_s == 0.75
        assert total.kernel_pure_s == 0.0625

    def test_summary_table_shows_kernel_rows(self):
        record(
            _telemetry(
                kernel_backend="pure",
                kernel_pure_calls=6,
                kernel_pure_rows=18,
            )
        )
        collapsed = " ".join(session_summary().split())
        assert "kernel backend pure" in collapsed
        assert "kernel calls (vector/pure) 0/6" in collapsed
        assert "kernel rows (vector/pure) 0/18" in collapsed


class TestScopedSessions:
    # Satellite: concurrent serve requests each need their own session;
    # session_totals must never bleed between them.

    def test_nested_session_scopes_records(self):
        record(_telemetry())
        with telemetry_session("inner") as session:
            assert session_records() == ()  # fresh scope, not the outer one's
            record(_telemetry())
            assert len(session.records()) == 1
            assert session_totals().label == "inner (1 runs)"
        # leaving the scope restores the outer session untouched
        assert len(session_records()) == 1

    def test_session_object_outlives_scope(self):
        with telemetry_session("kept") as session:
            record(_telemetry())
        assert len(session.records()) == 1
        assert session.totals().shards_run == 3

    def test_concurrent_thread_sessions_do_not_bleed(self):
        import threading

        totals = {}
        barrier = threading.Barrier(3)

        def worker(name: str, count: int):
            with telemetry_session(name) as session:
                barrier.wait()  # all sessions live before any records
                for _ in range(count):
                    record(_telemetry())
                barrier.wait()  # all records in before any totals
                totals[name] = session.totals()

        threads = [
            threading.Thread(target=worker, args=(f"s{index}", index + 1))
            for index in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index in range(3):
            assert totals[f"s{index}"].label == f"s{index} ({index + 1} runs)"
            assert totals[f"s{index}"].shards_run == 3 * (index + 1)
        assert session_records() == ()  # nothing leaked into the outer one

    def test_aggregate_telemetry_standalone(self):
        from repro.exec.telemetry import aggregate_telemetry

        total = aggregate_telemetry(
            [_telemetry(), _telemetry()], label="combined"
        )
        assert total is not None
        assert total.label == "combined"
        assert total.shards_total == 8
        assert aggregate_telemetry([]) is None
