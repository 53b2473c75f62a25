"""repro.obs -- flight-recorder tracing, metrics, and run manifests.

The observability layer answers the questions the aggregate tables
cannot: *which link delayed which packet under which scheme*, how deep
the event queue ran, which shard the execution engine spent its wall
time on, and what the system was doing in the moments before a chaos
invariant fired.

Four pieces (see DESIGN.md S19):

* :class:`MetricsRegistry` -- counters, gauges, and fixed-bucket
  histograms with p50/p99/p999 summaries, registered by dotted name;
* :class:`Tracer` + :class:`FlightRecorder` -- hierarchical spans keyed
  off the run's clock, with a bounded ring buffer snapshotted when an
  invariant fires or a flow goes unhealthy;
* exporters -- Chrome ``trace_event`` JSON, a JSONL span log, and the
  per-run ``manifest.json``;
* :class:`Observability` -- the bundle instrumented components accept
  (``obs=None``, the default everywhere, is the one way to turn it off
  and costs one identity check).
"""

from repro.obs.export import (
    read_spans_jsonl,
    spans_to_trace_events,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.manifest import (
    MANIFEST_VERSION,
    RunManifest,
    read_manifest,
    topology_fingerprint,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.runtime import Observability
from repro.obs.trace import (
    FlightRecorder,
    Span,
    Tracer,
    spans_to_relative,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "Span",
    "Tracer",
    "FlightRecorder",
    "spans_to_relative",
    "Observability",
    "RunManifest",
    "MANIFEST_VERSION",
    "read_manifest",
    "topology_fingerprint",
    "spans_to_trace_events",
    "write_chrome_trace",
    "write_spans_jsonl",
    "read_spans_jsonl",
]
