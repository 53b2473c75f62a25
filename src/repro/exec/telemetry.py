"""Executor telemetry: what ran where, and how long it took.

Every engine invocation produces one :class:`ExecTelemetry` record,
returns it to its caller, and appends it to the *current*
:class:`TelemetrySession` if the caller opened one, so entry points
that run many replays (the bench suite, one served request) can print
one aggregate summary at the end -- shards run vs. served from cache,
retries, serial fallbacks, wall time, and worker utilization.

There is no process-wide register: a record made outside any session
is kept only by the caller it was returned to, so a long-lived process
that never opens a session retains nothing.  :func:`telemetry_session`
installs a fresh session for the current context.  The current session
lives in a :mod:`contextvars` variable, so concurrently running requests
(the ``repro serve`` daemon runs each request under its own session via
``asyncio.to_thread``, which copies the context) record into disjoint
registers -- ``session_totals`` never bleeds counts between requests.
A plain ``threading.Thread`` starts from an empty context and therefore
records nowhere unless the thread enters ``telemetry_session`` itself.
"""

from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Iterator, Mapping, Sequence

from repro.simulation import kernel
from repro.util.tables import render_table

__all__ = [
    "ExecTelemetry",
    "TelemetrySession",
    "aggregate_telemetry",
    "counter_delta",
    "counter_fields",
    "counter_snapshot",
    "current_session",
    "record",
    "session_records",
    "session_summary",
    "session_totals",
    "telemetry_session",
]


@dataclass(slots=True)
class ExecTelemetry:
    """Counters and timings of one execution-engine invocation.

    ``prob_<key>`` and ``kernel_<key>`` are the keys of the probability
    memo's ``counters()`` and :func:`repro.simulation.kernel.counters`,
    one field per key; :meth:`add_counters` folds a
    :func:`counter_snapshot` delta in by name.  The record has slots, so
    a source key without a field raises instead of creating a stray
    attribute.
    """

    label: str = "replay"
    workers: int = 0
    shards_total: int = 0
    shards_run: int = 0
    shards_cached: int = 0
    shards_retried: int = 0
    shards_fallback: int = 0
    cache_corrupt: int = 0
    cache_evicted: int = 0
    prob_hits: int = 0
    prob_misses: int = 0
    prob_shared_hits: int = 0
    prob_mask_hits: int = 0
    prob_evictions: int = 0
    prob_recovery_fallbacks: int = 0
    prob_on_time_skips: int = 0
    kernel_backend: str = "pure"
    kernel_vector_calls: int = 0
    kernel_pure_calls: int = 0
    kernel_vector_rows: int = 0
    kernel_pure_rows: int = 0
    kernel_vector_s: float = 0.0
    kernel_pure_s: float = 0.0
    wall_time_s: float = 0.0
    shard_wall_s: list[float] = field(default_factory=list)

    def add_counters(self, delta: Mapping[str, float]) -> None:
        """Add a :func:`counter_delta` payload, field by field."""
        for name, value in delta.items():
            setattr(self, name, getattr(self, name) + value)

    @property
    def prob_hit_rate(self) -> float:
        """In-memory probability-cache hit rate over degraded lookups."""
        lookups = self.prob_hits + self.prob_misses
        return self.prob_hits / lookups if lookups else 0.0

    @property
    def busy_s(self) -> float:
        """Total shard compute time (summed across workers)."""
        return sum(self.shard_wall_s)

    @property
    def utilization(self) -> float:
        """Busy time over wall time x worker slots (1.0 = fully busy)."""
        slots = max(self.workers, 1)
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.busy_s / (self.wall_time_s * slots)

    def _rows(self) -> list[list[object]]:
        executed = self.shards_run + self.shards_fallback
        max_shard = max(self.shard_wall_s) if self.shard_wall_s else 0.0
        mean_shard = self.busy_s / executed if executed else 0.0
        return [
            ["shards total", str(self.shards_total)],
            ["shards run", str(self.shards_run)],
            ["shards cached", str(self.shards_cached)],
            ["shards retried", str(self.shards_retried)],
            ["serial fallbacks", str(self.shards_fallback)],
            ["corrupt cache entries", str(self.cache_corrupt)],
            ["cache entries evicted", str(self.cache_evicted)],
            [
                "prob-cache hits/misses",
                f"{self.prob_hits}/{self.prob_misses} "
                f"({100.0 * self.prob_hit_rate:.0f} %)",
            ],
            ["prob-cache shared hits", str(self.prob_shared_hits)],
            ["prob-cache mask hits", str(self.prob_mask_hits)],
            ["prob-cache evictions", str(self.prob_evictions)],
            ["prob-cache recovery fallbacks", str(self.prob_recovery_fallbacks)],
            ["prob-cache on-time skips", str(self.prob_on_time_skips)],
            ["kernel backend", self.kernel_backend],
            [
                "kernel calls (vector/pure)",
                f"{self.kernel_vector_calls}/{self.kernel_pure_calls}",
            ],
            [
                "kernel rows (vector/pure)",
                f"{self.kernel_vector_rows}/{self.kernel_pure_rows}",
            ],
            [
                "kernel time (vector/pure)",
                f"{self.kernel_vector_s:.2f} / {self.kernel_pure_s:.2f} s",
            ],
            ["workers", str(self.workers) if self.workers else "serial"],
            ["wall time", f"{self.wall_time_s:.2f} s"],
            ["shard time (mean/max)", f"{mean_shard:.2f} / {max_shard:.2f} s"],
            ["worker utilization", f"{100.0 * self.utilization:.0f} %"],
        ]

    def summary_table(self) -> str:
        """The telemetry record as an aligned two-column table."""
        return render_table(
            ("execution engine", self.label),
            self._rows(),
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (embedded in run manifests and bench output)."""
        executed = self.shards_run + self.shards_fallback
        payload: dict[str, object] = {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.name != "shard_wall_s"
        }
        payload.update(
            prob_hit_rate=self.prob_hit_rate,
            busy_s=self.busy_s,
            max_shard_s=max(self.shard_wall_s) if self.shard_wall_s else 0.0,
            mean_shard_s=self.busy_s / executed if executed else 0.0,
            utilization=self.utilization,
        )
        return payload


#: The fields :func:`aggregate_telemetry` sums: every numeric one except
#: the worker setting, which aggregates as a maximum.
_SUMMED_FIELDS = tuple(
    spec.name
    for spec in fields(ExecTelemetry)
    if isinstance(spec.default, (int, float)) and spec.name != "workers"
)


def counter_fields(prefix: str) -> tuple[str, ...]:
    """The summed :class:`ExecTelemetry` fields starting with ``prefix``."""
    return tuple(name for name in _SUMMED_FIELDS if name.startswith(prefix))


def counter_snapshot(probability_cache) -> dict[str, float]:
    """Memo and kernel counters, keyed by their :class:`ExecTelemetry` field."""
    snapshot = {
        f"prob_{name}": value
        for name, value in probability_cache.counters().items()
    }
    snapshot.update(
        (f"kernel_{name}", value) for name, value in kernel.counters().items()
    )
    return snapshot


def counter_delta(
    before: Mapping[str, float], after: Mapping[str, float]
) -> dict[str, float]:
    """``after - before``, key by key."""
    return {name: after[name] - before[name] for name in after}


# -- session aggregation ---------------------------------------------------------


def aggregate_telemetry(
    records: Sequence[ExecTelemetry], label: str | None = None
) -> ExecTelemetry | None:
    """Every counter summed across ``records``, or ``None`` when empty.

    Cache-health counters (``cache_corrupt``/``cache_evicted``) are
    aggregated along with the shard counters, so a corruption observed in
    any run of the session survives into the aggregate record.
    """
    if not records:
        return None
    total = ExecTelemetry(
        label=label or f"session ({len(records)} runs)",
        workers=max(t.workers for t in records),
        kernel_backend=records[-1].kernel_backend,
    )
    for telemetry in records:
        for name in _SUMMED_FIELDS:
            setattr(total, name, getattr(total, name) + getattr(telemetry, name))
        total.shard_wall_s.extend(telemetry.shard_wall_s)
    return total


class TelemetrySession:
    """One scope of engine invocations (a bench run, or one served request).

    Appends are lock-protected: one session may legitimately receive
    records from several threads (a request that fans out replays).
    """

    def __init__(self, label: str = "session") -> None:
        self.label = label
        self._records: list[ExecTelemetry] = []
        self._lock = threading.Lock()

    def add(self, telemetry: ExecTelemetry) -> None:
        with self._lock:
            self._records.append(telemetry)

    def records(self) -> Sequence[ExecTelemetry]:
        with self._lock:
            return tuple(self._records)

    def totals(self) -> ExecTelemetry | None:
        """Aggregate record over this session's invocations, or ``None``."""
        records = self.records()
        return aggregate_telemetry(
            records, label=f"{self.label} ({len(records)} runs)"
        )


_CURRENT_SESSION: contextvars.ContextVar[TelemetrySession | None] = (
    contextvars.ContextVar("exec_telemetry_session", default=None)
)


def current_session() -> TelemetrySession | None:
    """The session engine invocations record into here, or ``None``."""
    return _CURRENT_SESSION.get()


@contextmanager
def telemetry_session(label: str = "session") -> Iterator[TelemetrySession]:
    """Scope a fresh session to the current context.

    Engine invocations inside the ``with`` block (including work handed
    to ``asyncio.to_thread``, which copies the context) record into the
    yielded session instead of the enclosing one.
    """
    session = TelemetrySession(label)
    token = _CURRENT_SESSION.set(session)
    try:
        yield session
    finally:
        _CURRENT_SESSION.reset(token)


def record(telemetry: ExecTelemetry) -> None:
    """Append one engine invocation to the current session, if one is open."""
    session = current_session()
    if session is not None:
        session.add(telemetry)


def session_records() -> Sequence[ExecTelemetry]:
    """All engine invocations recorded so far in the current session."""
    session = current_session()
    return () if session is None else session.records()


def session_totals() -> ExecTelemetry | None:
    """Every counter summed across the current session, or ``None``."""
    session = current_session()
    return None if session is None else session.totals()


def session_summary() -> str | None:
    """One aggregate table over every recorded invocation, or ``None``."""
    total = session_totals()
    return None if total is None else total.summary_table()
