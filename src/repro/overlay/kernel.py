"""Discrete-event simulation core.

Minimal and deterministic: events fire in (time, insertion order), so two
runs of the same seeded overlay produce identical traces.  Time is in
seconds (floats); the overlay's latencies are milliseconds and are
converted at the network layer.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable

from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.obs is optional)
    from repro.obs import Observability

__all__ = ["EventKernel"]


class EventKernel:
    """A priority-queue discrete-event scheduler."""

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._processed = 0
        # Observability (None = off, the cost of one identity check).
        self._obs: "Observability | None" = None
        self._enqueued_at: dict[int, float] = {}

    def attach_obs(self, obs: "Observability | None") -> None:
        """Instrument the event loop (queue depth, per-event lag).

        Lag is simulation-time waiting: how far ahead of its enqueue
        moment an event fires.  ``None`` detaches.
        """
        self._obs = obs

    def _observe_event(self, time_s: float, sequence: int) -> None:
        metrics = self._obs.metrics
        metrics.counter("kernel.events").inc()
        metrics.histogram("kernel.queue_depth").observe(float(len(self._queue)))
        metrics.histogram("kernel.lag_s").observe(
            time_s - self._enqueued_at.pop(sequence, time_s)
        )

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events waiting in the queue."""
        return len(self._queue)

    @property
    def processed(self) -> int:
        """Total events fired so far (for tests and sanity checks)."""
        return self._processed

    def schedule(self, delay_s: float, action: Callable[[], None]) -> None:
        """Run ``action`` ``delay_s`` seconds from now."""
        require(delay_s >= 0, f"cannot schedule in the past (delay {delay_s})")
        self.schedule_at(self._now + delay_s, action)

    def schedule_at(self, time_s: float, action: Callable[[], None]) -> None:
        """Run ``action`` at absolute time ``time_s``."""
        require(
            time_s >= self._now,
            f"cannot schedule at {time_s} before now ({self._now})",
        )
        if self._obs is not None:
            self._enqueued_at[self._sequence] = self._now
        heapq.heappush(self._queue, (time_s, self._sequence, action))
        self._sequence += 1

    def run_until(self, end_s: float, max_events: int | None = None) -> int:
        """Process events with time <= ``end_s``; returns events processed.

        ``max_events`` guards against runaway feedback loops in tests.
        """
        require(end_s >= self._now, "cannot run backwards")
        fired = 0
        while self._queue and self._queue[0][0] <= end_s:
            if max_events is not None and fired >= max_events:
                break
            time_s, seq, action = heapq.heappop(self._queue)
            self._now = time_s
            if self._obs is not None:
                self._observe_event(time_s, seq)
            action()
            fired += 1
            self._processed += 1
        if not self._queue or self._queue[0][0] > end_s:
            self._now = end_s
        return fired
