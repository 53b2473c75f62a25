"""The observability bundle components are instrumented against.

One :class:`Observability` object carries a metrics registry, a tracer,
and a flight recorder, all sharing a clock.  Instrumented components
accept ``obs: Observability | None``; ``None`` (the default everywhere)
is the one way to switch observability off, and costs a single identity
check on the hot path.

``export`` writes the standard artifact set into one directory:

* ``trace.json`` -- Chrome ``trace_event`` JSON (chrome://tracing, Perfetto);
* ``spans.jsonl`` -- the loss-free span log;
* ``manifest.json`` -- the run manifest;
* ``flight_<k>.json`` -- any flight-recorder snapshots not yet dumped.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Mapping

from repro.obs.export import write_chrome_trace, write_spans_jsonl
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import FlightRecorder, Tracer

__all__ = ["Observability"]

#: A flow whose on-time fraction falls below this triggers the recorder.
DEFAULT_HEALTH_THRESHOLD = 0.9


class Observability:
    """Metrics + tracer + flight recorder; the tracer starts on wall time."""

    def __init__(
        self, flight_capacity: int = 256, flight_dir: str | Path | None = None
    ) -> None:
        self.metrics = MetricsRegistry()
        self.flight = FlightRecorder(flight_capacity, dump_dir=flight_dir)
        self.tracer = Tracer(time.perf_counter, recorder=self.flight)

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Re-point the tracer's clock (fresh kernel per scheme run)."""
        self.tracer.set_clock(clock)

    # -- health-triggered flight dumps ---------------------------------------------

    def check_flow_health(
        self,
        on_time_fractions: Mapping[str, float],
        threshold: float = DEFAULT_HEALTH_THRESHOLD,
    ) -> list[str]:
        """Trigger a flight snapshot for every flow below ``threshold``.

        Returns the unhealthy flow names (empty when all flows are fine).
        """
        unhealthy = sorted(
            name
            for name, fraction in on_time_fractions.items()
            if fraction < threshold
        )
        for name in unhealthy:
            self.metrics.counter("obs.flight.unhealthy_flows").inc()
            self.flight.trigger(
                f"flow {name} on-time fraction "
                f"{on_time_fractions[name]:.3f} < {threshold:.3f}",
                at_s=self.tracer.now(),
            )
        return unhealthy

    # -- artifact export -----------------------------------------------------------

    def export(self, out_dir: str | Path, manifest: RunManifest) -> dict[str, Path]:
        """Write trace.json / spans.jsonl / manifest.json (+ flight dumps).

        The manifest's ``metrics``, ``spans``, and ``flight`` sections are
        filled in from the live registry/tracer/recorder before writing,
        so callers only supply the run-identity fields.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths: dict[str, Path] = {}
        self.tracer.finalize()
        manifest.metrics = dict(self.metrics.summarize())
        manifest.spans = {
            "recorded": len(self.tracer.spans),
            "dropped": self.tracer.dropped,
            "trace_id": self.tracer.trace_id,
        }
        manifest.flight = {"triggers": self.flight.triggers}
        paths["trace"] = write_chrome_trace(self.tracer.spans, out / "trace.json")
        paths["spans"] = write_spans_jsonl(self.tracer.spans, out / "spans.jsonl")
        paths["manifest"] = manifest.write(out / "manifest.json")
        for dumped in self.flight.dump_pending(out):
            paths[dumped.stem] = dumped
        return paths

