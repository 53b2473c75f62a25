"""Hierarchical span tracing with a bounded flight recorder.

A :class:`Span` is one named interval (or instant) on the run's clock --
simulation time for overlay runs, wall time for the execution engine.
The :class:`Tracer` records spans three ways:

* ``complete(name, ...)`` -- both endpoints known up front;
* ``instant(name, ...)`` -- a zero-duration marker;
* ``open(key, name, ...)`` / ``close(key, ...)`` -- long-lived spans
  (a packet's journey) opened in one component and closed in another,
  correlated by an explicit key so children can link to their parent.

Every finished span also lands in the :class:`FlightRecorder`, a bounded
ring buffer holding the last N spans.  ``trigger`` snapshots the ring --
the chaos invariant checker and the flow-health check call it when
something goes wrong, so the tail of activity leading up to a failure is
preserved even when the full span log would be unaffordable to keep.
"""

from __future__ import annotations

import json
import uuid
from collections import deque
from pathlib import Path
from typing import Callable, Hashable, Mapping, Sequence

from repro.util.validation import require

__all__ = [
    "Span",
    "Tracer",
    "FlightRecorder",
    "spans_to_relative",
]


def spans_to_relative(spans: Sequence["Span"], base_s: float) -> list[dict]:
    """Spans as JSON-safe dicts with times relative to ``base_s``.

    The worker side of trace propagation: worker clocks (per-process
    ``perf_counter``) are not comparable across processes, so spans
    travel home as offsets from the worker's shard start and the parent
    re-bases them onto its own clock with :meth:`Tracer.graft`.
    """
    records = []
    for span in spans:
        record = span.to_dict()
        record["start_s"] = span.start_s - base_s
        if span.end_s is not None:
            record["end_s"] = span.end_s - base_s
        records.append(record)
    return records


class Span:
    """One traced interval: name, category, endpoints, free-form args."""

    __slots__ = ("span_id", "parent_id", "name", "category", "start_s", "end_s", "args")

    def __init__(
        self,
        span_id: int,
        name: str,
        category: str,
        start_s: float,
        end_s: float | None = None,
        args: dict | None = None,
        parent_id: int | None = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start_s = start_s
        self.end_s = end_s
        self.args = args or {}

    @property
    def closed(self) -> bool:
        """Whether the span's end has been recorded."""
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Span length (0.0 while still open)."""
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    def to_dict(self) -> dict:
        """JSON-safe form (the JSONL span-log line)."""
        record = {
            "id": self.span_id,
            "name": self.name,
            "cat": self.category,
            "start_s": self.start_s,
            "end_s": self.end_s,
        }
        if self.parent_id is not None:
            record["parent"] = self.parent_id
        if self.args:
            record["args"] = self.args
        return record

    @classmethod
    def from_dict(cls, record: Mapping) -> "Span":
        """Rebuild a span from its JSONL form."""
        return cls(
            span_id=int(record["id"]),
            name=str(record["name"]),
            category=str(record["cat"]),
            start_s=float(record["start_s"]),
            end_s=None if record.get("end_s") is None else float(record["end_s"]),
            args=dict(record.get("args") or {}),
            parent_id=None if record.get("parent") is None else int(record["parent"]),
        )


class FlightRecorder:
    """Ring buffer of the last N spans, snapshotted on trigger.

    When ``dump_dir`` is set each trigger writes ``flight_<k>.json``
    immediately (so the evidence survives even if the process dies
    mid-run); otherwise snapshots are held in memory for a later
    ``dump_pending``.
    """

    #: In-memory snapshots kept at most (triggers beyond this still count).
    MAX_SNAPSHOTS = 16

    def __init__(self, capacity: int = 256, dump_dir: str | Path | None = None) -> None:
        require(capacity >= 1, "flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self._ring: deque[Span] = deque(maxlen=capacity)
        self.snapshots: list[dict] = []
        self.triggers = 0
        self._dumped = 0

    def record(self, span: Span) -> None:
        """Add one finished span to the ring."""
        self._ring.append(span)

    def trigger(self, reason: str, at_s: float = 0.0) -> dict:
        """Snapshot the ring; auto-dump to ``dump_dir`` when configured."""
        self.triggers += 1
        snapshot = {
            "reason": reason,
            "at_s": at_s,
            "trigger": self.triggers,
            "spans": [span.to_dict() for span in self._ring],
        }
        if len(self.snapshots) < self.MAX_SNAPSHOTS:
            self.snapshots.append(snapshot)
        if self.dump_dir is not None:
            self._dump(snapshot)
        return snapshot

    def _dump(self, snapshot: dict) -> Path:
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = self.dump_dir / f"flight_{snapshot['trigger']}.json"
        path.write_text(json.dumps(snapshot, indent=1, sort_keys=True))
        self._dumped = max(self._dumped, snapshot["trigger"])
        return path

    def dump_pending(self, directory: str | Path) -> list[Path]:
        """Write every snapshot not yet on disk into ``directory``."""
        self.dump_dir = Path(directory)
        return [
            self._dump(snapshot)
            for snapshot in self.snapshots
            if snapshot["trigger"] > self._dumped
        ]


class Tracer:
    """Records spans against a swappable clock, bounded in memory."""

    def __init__(
        self,
        clock: Callable[[], float],
        recorder: FlightRecorder | None = None,
        max_spans: int = 500_000,
        trace_id: str | None = None,
    ) -> None:
        require(max_spans >= 1, "max_spans must be >= 1")
        self._clock = clock
        self.recorder = recorder
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        #: This trace's identity, handed to pool workers so their spans
        #: carry it too.
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        #: Default args merged into every span (e.g. the current scheme).
        self.context: dict = {}
        self._open: dict[Hashable, Span] = {}
        self._next_id = 1

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at a new clock (e.g. a fresh kernel's)."""
        self._clock = clock

    def now(self) -> float:
        """The tracer's current clock reading."""
        return self._clock()

    # -- recording -----------------------------------------------------------------

    def _new_span(
        self,
        name: str,
        category: str,
        start_s: float,
        end_s: float | None,
        args: dict,
        parent_id: int | None,
        retain: bool = True,
    ) -> Span:
        if self.context:
            args = {**self.context, **args}
        span = Span(self._next_id, name, category, start_s, end_s, args, parent_id)
        self._next_id += 1
        if retain:
            if len(self.spans) < self.max_spans:
                self.spans.append(span)
            else:
                self.dropped += 1
        if end_s is not None and self.recorder is not None:
            self.recorder.record(span)
        return span

    def instant(
        self, name: str, category: str = "app", parent_id: int | None = None, **args
    ) -> Span:
        """A zero-duration marker at the current clock reading."""
        now = self._clock()
        return self._new_span(name, category, now, now, args, parent_id)

    def complete(
        self,
        name: str,
        category: str,
        start_s: float,
        end_s: float,
        parent_id: int | None = None,
        **args,
    ) -> Span:
        """A span whose endpoints are already known."""
        return self._new_span(name, category, start_s, end_s, args, parent_id)

    def ring_only(
        self, name: str, category: str, start_s: float, end_s: float, **args
    ) -> Span:
        """A finished span kept by the flight recorder only.

        For spans a long-running process makes per request: the ring
        holds the last few for a flight dump, while :attr:`spans` would
        grow with the process's uptime and nothing exports it.
        """
        return self._new_span(name, category, start_s, end_s, args, None, False)

    def open(
        self, key: Hashable, name: str, category: str = "app", **args
    ) -> Span:
        """Start a keyed long-lived span (re-opening a key closes nothing;
        the old span simply stays open and is finalised at export)."""
        span = self._new_span(name, category, self._clock(), None, args, None)
        self._open[key] = span
        return span

    def close(self, key: Hashable, **args) -> Span | None:
        """Finish the keyed span, if it is open; returns it (or None)."""
        span = self._open.pop(key, None)
        if span is None:
            return None
        span.end_s = self._clock()
        if args:
            span.args.update(args)
        if self.recorder is not None:
            self.recorder.record(span)
        return span

    def parent_id(self, key: Hashable) -> int | None:
        """Span id of the open span under ``key`` (for child linking)."""
        span = self._open.get(key)
        return span.span_id if span is not None else None

    # -- cross-process propagation ---------------------------------------------------

    def graft(
        self,
        records: Sequence[Mapping],
        base_s: float,
        parent_id: int | None = None,
    ) -> int:
        """Adopt remote spans (``spans_to_relative`` output) into this trace.

        Spans are re-identified onto this tracer's id sequence (their
        internal parent/child structure preserved), re-based onto this
        tracer's clock at ``base_s``, and any span without a remote
        parent is attached under ``parent_id``.  Returns the number of
        spans grafted.
        """
        ids: dict[int, int] = {}
        grafted = 0
        for record in records:
            span = Span.from_dict(record)
            remote_id = span.span_id
            if span.parent_id is not None and span.parent_id in ids:
                span.parent_id = ids[span.parent_id]
            else:
                span.parent_id = parent_id
            span.span_id = self._next_id
            self._next_id += 1
            ids[remote_id] = span.span_id
            span.start_s += base_s
            if span.end_s is not None:
                span.end_s += base_s
            if len(self.spans) < self.max_spans:
                self.spans.append(span)
            else:
                self.dropped += 1
                continue
            if span.end_s is not None and self.recorder is not None:
                self.recorder.record(span)
            grafted += 1
        return grafted

    def finalize(self) -> int:
        """Close every still-open span at the current clock; returns count.

        Open spans at export time are packets that never arrived (or
        runs cut short); they are closed with ``unfinished=True`` so the
        exporters see well-formed intervals.
        """
        now = self._clock()
        leftover = len(self._open)
        for span in self._open.values():
            span.end_s = max(now, span.start_s)
            span.args["unfinished"] = True
            if self.recorder is not None:
                self.recorder.record(span)
        self._open.clear()
        return leftover

