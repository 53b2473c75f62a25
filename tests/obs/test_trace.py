"""Tracer spans, open/close correlation, and the flight recorder."""

from __future__ import annotations

import json

from repro.obs.trace import (
    FlightRecorder,
    Span,
    Tracer,
    spans_to_relative,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestSpans:
    def test_complete_span(self):
        tracer = Tracer(FakeClock())
        span = tracer.complete("hop", "net", 1.0, 2.0, edge="a->b")
        assert span.duration_s == 1.0
        assert span.args == {"edge": "a->b"}

    def test_instant_is_zero_duration(self):
        clock = FakeClock()
        clock.now = 3.0
        tracer = Tracer(clock)
        span = tracer.instant("drop", "net")
        assert span.start_s == span.end_s == 3.0

    def test_open_close_keyed(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.open(("pkt", "f", 1), "packet.journey", "data")
        clock.now = 0.5
        closed = tracer.close(("pkt", "f", 1), delivered=True)
        assert closed is not None
        assert closed.end_s == 0.5
        assert closed.args["delivered"] is True
        assert tracer.close(("pkt", "f", 1)) is None

    def test_parent_id_links_children(self):
        tracer = Tracer(FakeClock())
        parent = tracer.open(("pkt", "f", 1), "packet.journey", "data")
        child = tracer.complete(
            "hop", "net", 0.0, 0.1, parent_id=tracer.parent_id(("pkt", "f", 1))
        )
        assert child.parent_id == parent.span_id

    def test_context_merged_into_args(self):
        tracer = Tracer(FakeClock())
        tracer.context = {"scheme": "targeted"}
        span = tracer.instant("reroute", "routing", flow="f")
        assert span.args == {"scheme": "targeted", "flow": "f"}

    def test_finalize_closes_open_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.open(("pkt", "f", 1), "packet.journey", "data")
        clock.now = 2.0
        assert tracer.finalize() == 1
        span = tracer.spans[-1]
        assert span.end_s == 2.0
        assert span.args["unfinished"] is True

    def test_max_spans_bound(self):
        tracer = Tracer(FakeClock(), max_spans=2)
        for _ in range(5):
            tracer.instant("x", "t")
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3

    def test_span_round_trips_through_dict(self):
        span = Span(7, "hop", "net", 1.0, 2.0, {"edge": "a->b"}, parent_id=3)
        clone = Span.from_dict(span.to_dict())
        assert clone.to_dict() == span.to_dict()


class TestFlightRecorder:
    def test_ring_keeps_last_n(self):
        recorder = FlightRecorder(capacity=3)
        tracer = Tracer(FakeClock(), recorder=recorder)
        for index in range(10):
            tracer.instant("e", "t", index=index)
        snapshot = recorder.trigger("test")
        indices = [record["args"]["index"] for record in snapshot["spans"]]
        assert indices == [7, 8, 9]

    def test_auto_dump_on_trigger(self, tmp_path):
        recorder = FlightRecorder(capacity=4, dump_dir=tmp_path)
        tracer = Tracer(FakeClock(), recorder=recorder)
        tracer.instant("e", "t")
        recorder.trigger("invariant fired", at_s=1.5)
        dumped = json.loads((tmp_path / "flight_1.json").read_text())
        assert dumped["reason"] == "invariant fired"
        assert dumped["at_s"] == 1.5
        assert len(dumped["spans"]) == 1

    def test_dump_pending_writes_only_new(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        recorder.trigger("one")
        recorder.trigger("two")
        written = recorder.dump_pending(tmp_path)
        assert [path.name for path in written] == [
            "flight_1.json",
            "flight_2.json",
        ]
        assert recorder.dump_pending(tmp_path) == []

    def test_snapshot_cap(self):
        recorder = FlightRecorder(capacity=2)
        for _ in range(FlightRecorder.MAX_SNAPSHOTS + 5):
            recorder.trigger("again")
        assert len(recorder.snapshots) == FlightRecorder.MAX_SNAPSHOTS
        assert recorder.triggers == FlightRecorder.MAX_SNAPSHOTS + 5


class TestTraceContext:
    def test_trace_id_generated_when_unset(self):
        tracer = Tracer(FakeClock())
        assert len(tracer.trace_id) == 16


class TestGraft:
    def _worker_records(self):
        """Simulate the worker side: local tracer, relative records."""
        clock = FakeClock()
        clock.now = 100.0  # worker clock offset unrelated to parent's
        worker = Tracer(clock, trace_id="feedface00000000")
        worker.context = {"trace_id": worker.trace_id}
        root = worker.open("shard", "worker.shard", "exec")
        clock.now = 100.25
        worker.complete(
            "shard.policy", "exec", 100.0, 100.25, parent_id=root.span_id
        )
        clock.now = 100.5
        worker.close("shard")
        return spans_to_relative(worker.spans, base_s=100.0)

    def test_relative_records_are_offsets_from_base(self):
        records = self._worker_records()
        starts = sorted(record["start_s"] for record in records)
        assert starts == [0.0, 0.0]
        assert max(record["end_s"] for record in records) == 0.5

    def test_graft_rebases_and_reparents(self):
        records = self._worker_records()
        clock = FakeClock()
        clock.now = 7.0
        parent = Tracer(clock)
        anchor = parent.complete("shard", "exec", 6.5, 7.0)
        grafted = parent.graft(records, base_s=6.5, parent_id=anchor.span_id)
        assert grafted == len(records)
        adopted = {span.name: span for span in parent.spans[1:]}
        # Orphan worker root hangs under the parent-side anchor span.
        assert adopted["worker.shard"].parent_id == anchor.span_id
        assert adopted["worker.shard"].start_s == 6.5
        assert adopted["worker.shard"].end_s == 7.0
        # Internal worker structure is preserved through the id remap.
        assert (
            adopted["shard.policy"].parent_id == adopted["worker.shard"].span_id
        )
        assert adopted["shard.policy"].end_s == 6.75
        # Remapped ids join the parent tracer's own sequence, no collisions.
        ids = [span.span_id for span in parent.spans]
        assert len(ids) == len(set(ids))

    def test_graft_respects_max_spans(self):
        parent = Tracer(FakeClock(), max_spans=1)
        parent.instant("x", "t")
        grafted = parent.graft(self._worker_records(), base_s=0.0)
        assert grafted == 0
        assert parent.dropped == 2

    def test_grafted_spans_feed_the_recorder(self):
        recorder = FlightRecorder(capacity=8)
        parent = Tracer(FakeClock(), recorder=recorder)
        parent.graft(self._worker_records(), base_s=0.0)
        snapshot = recorder.trigger("test")
        names = {record["name"] for record in snapshot["spans"]}
        assert names == {"worker.shard", "shard.policy"}
