"""Engine observability: shard spans, cache-hit instants, replay counters."""

from __future__ import annotations

from repro.exec.cache import ResultCache
from repro.exec.engine import run_replay_parallel
from repro.obs import Observability, read_spans_jsonl, write_spans_jsonl

from tests.exec.test_engine import small_case
from tests.exec.test_plan import SMALL_SCHEMES


def _run(obs, cache_dir=None, use_cache=False, **kwargs):
    topology, timeline, flows, service = small_case()
    return run_replay_parallel(
        topology,
        timeline,
        flows,
        service,
        scheme_names=SMALL_SCHEMES,
        max_workers=0,
        use_cache=use_cache,
        cache=ResultCache(str(cache_dir)) if cache_dir else None,
        obs=obs,
        **kwargs,
    )


class TestReplayCounters:
    def test_counters_mirror_merged_totals_exactly(self):
        obs = Observability()
        result, _telemetry = _run(obs)
        for totals in result.all_totals():
            scheme = totals.scheme
            assert (
                obs.metrics.value(f"replay.duration_s.{scheme}")
                == totals.duration_s
            )
            assert (
                obs.metrics.value(f"replay.unavailable_s.{scheme}")
                == totals.unavailable_s
            )
            assert obs.metrics.value(f"replay.lost_s.{scheme}") == totals.lost_s
            assert obs.metrics.value(f"replay.late_s.{scheme}") == totals.late_s

    def test_exec_counters_mirror_telemetry(self):
        obs = Observability()
        _result, telemetry = _run(obs)
        assert obs.metrics.value("exec.shards_total") == telemetry.shards_total
        assert obs.metrics.value("exec.shards_run") == telemetry.shards_run
        wall = obs.metrics.summarize()["exec.shard_wall_s"]
        assert wall["count"] == len(telemetry.shard_wall_s)


class TestShardSpans:
    def test_serial_shards_traced(self):
        obs = Observability()
        _result, telemetry = _run(obs)
        shards = [s for s in obs.tracer.spans if s.name == "shard"]
        assert len(shards) == telemetry.shards_run
        assert all(s.args["mode"] == "serial" for s in shards)
        assert all(s.duration_s >= 0.0 for s in shards)

    def test_serial_shards_record_their_phases(self):
        """A serial shard records the same two phases a pooled one does,
        each inside its ``shard`` span."""
        obs = Observability()
        _run(obs)
        spans = obs.tracer.spans
        shards = [s for s in spans if s.name == "shard"]
        assert shards
        for shard in shards:
            children = [s for s in spans if s.parent_id == shard.span_id]
            assert sorted(s.name for s in children) == [
                "shard.policy", "shard.windows",
            ]
            for child in children:
                assert shard.start_s - 1e-6 <= child.start_s
                assert child.end_s <= shard.end_s + 1e-6

    def test_cache_hits_become_instants(self, tmp_path):
        _run(None, cache_dir=tmp_path, use_cache=True)
        obs = Observability()
        _result, telemetry = _run(obs, cache_dir=tmp_path, use_cache=True)
        assert telemetry.shards_cached == telemetry.shards_total
        hits = [s for s in obs.tracer.spans if s.name == "cache.hit"]
        assert len(hits) == telemetry.shards_cached

    def test_disabled_obs_records_nothing(self):
        obs = Observability(enabled=False)
        _run(obs)
        assert obs.metrics.summarize() == {}
        assert obs.tracer.spans == []

    def test_result_unchanged_by_observation(self):
        plain, _ = _run(None)
        observed, _ = _run(Observability())
        from tests.exec.test_plan import assert_exactly_equal

        assert_exactly_equal(plain, observed)


class TestCrossProcessTrace:
    """Pool workers join the parent's trace: one tree, one trace id."""

    def _traced_pool_run(self):
        obs = Observability()
        topology, timeline, flows, service = small_case()
        _result, telemetry = run_replay_parallel(
            topology,
            timeline,
            flows,
            service,
            scheme_names=SMALL_SCHEMES,
            max_workers=2,
            use_cache=False,
            obs=obs,
        )
        obs.tracer.finalize()
        return obs, telemetry

    def test_pooled_run_is_a_single_trace_tree(self, tmp_path):
        obs, telemetry = self._traced_pool_run()
        spans = obs.tracer.spans
        by_id = {span.span_id for span in spans}
        roots = [span for span in spans if span.parent_id is None]
        assert [span.name for span in roots] == ["replay"]
        # Every non-root span's parent exists in the same export.
        assert all(
            span.parent_id in by_id for span in spans if span.parent_id is not None
        )
        worker_spans = [span for span in spans if span.name == "worker.shard"]
        assert len(worker_spans) == telemetry.shards_run
        assert {span.args["trace_id"] for span in worker_spans} == {
            obs.tracer.trace_id
        }
        # Worker pids prove the spans crossed a process boundary.
        assert all(span.args["pid"] for span in worker_spans)
        # Shard phases recorded inside the workers came home too.
        phases = {span.name for span in spans}
        assert {"shard.policy", "shard.windows"} <= phases

    def test_trace_survives_jsonl_round_trip(self, tmp_path):
        obs, _telemetry = self._traced_pool_run()
        path = write_spans_jsonl(obs.tracer.spans, tmp_path / "spans.jsonl")
        loaded = read_spans_jsonl(path)
        assert len(loaded) == len(obs.tracer.spans)
        roots = [span for span in loaded if span.parent_id is None]
        assert [span.name for span in roots] == ["replay"]
        worker_spans = [span for span in loaded if span.name == "worker.shard"]
        assert worker_spans
        assert {span.args["trace_id"] for span in worker_spans} == {
            obs.tracer.trace_id
        }
        # Grafted worker spans sit inside their parent-side shard window.
        shard_by_id = {
            span.span_id: span for span in loaded if span.name == "shard"
        }
        for worker_span in worker_spans:
            shard = shard_by_id[worker_span.parent_id]
            assert shard.start_s - 1e-6 <= worker_span.start_s
            assert worker_span.end_s <= shard.end_s + 1e-6

    def test_serial_run_has_no_worker_spans(self):
        obs = Observability()
        _run(obs)
        obs.tracer.finalize()
        names = {span.name for span in obs.tracer.spans}
        assert "worker.shard" not in names
        roots = [span for span in obs.tracer.spans if span.parent_id is None]
        assert [span.name for span in roots] == ["replay"]
