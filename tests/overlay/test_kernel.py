"""Discrete-event kernel."""

from __future__ import annotations

import pytest

from repro.overlay.kernel import EventKernel
from repro.util.validation import ValidationError


class TestScheduling:
    def test_fires_in_time_order(self):
        kernel = EventKernel()
        fired = []
        kernel.schedule(2.0, lambda: fired.append("b"))
        kernel.schedule(1.0, lambda: fired.append("a"))
        kernel.schedule(3.0, lambda: fired.append("c"))
        kernel.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        kernel = EventKernel()
        fired = []
        for label in "abc":
            kernel.schedule(1.0, lambda l=label: fired.append(l))
        kernel.run_until(2.0)
        assert fired == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        kernel = EventKernel()
        seen = []
        kernel.schedule(1.5, lambda: seen.append(kernel.now))
        kernel.run_until(10.0)
        assert seen == [1.5]
        assert kernel.now == 10.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValidationError):
            EventKernel().schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        kernel = EventKernel()
        kernel.schedule(1.0, lambda: None)
        kernel.run_until(5.0)
        with pytest.raises(ValidationError):
            kernel.schedule_at(4.0, lambda: None)

    def test_run_until_backwards_rejected(self):
        kernel = EventKernel()
        kernel.run_until(5.0)
        with pytest.raises(ValidationError):
            kernel.run_until(4.0)


class TestRunControl:
    def test_events_beyond_horizon_wait(self):
        kernel = EventKernel()
        fired = []
        kernel.schedule(5.0, lambda: fired.append("later"))
        kernel.run_until(4.0)
        assert fired == []
        kernel.run_until(6.0)
        assert fired == ["later"]

    def test_cascading_events(self):
        kernel = EventKernel()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                kernel.schedule(1.0, lambda: chain(depth + 1))

        kernel.schedule(0.0, lambda: chain(0))
        kernel.run_until(10.0)
        assert fired == [0, 1, 2, 3]

    def test_max_events_bound(self):
        kernel = EventKernel()

        def forever():
            kernel.schedule(0.001, forever)

        kernel.schedule(0.0, forever)
        fired = kernel.run_until(100.0, max_events=50)
        assert fired == 50

    def test_counters(self):
        kernel = EventKernel()
        kernel.schedule(1.0, lambda: None)
        kernel.schedule(2.0, lambda: None)
        assert kernel.pending == 2
        kernel.run_until(5.0)
        assert kernel.pending == 0
        assert kernel.processed == 2
