"""Prometheus text exposition for the metrics registry.

The daemon's ``GET /v1/metrics`` endpoint renders the live registry in
the Prometheus text format (version 0.0.4), so any off-the-shelf
scraper -- or the bundled ``repro obs watch`` viewer -- can consume it:

* counters and gauges become single samples;
* histograms become the classic cumulative ``_bucket{le="..."}``
  series plus ``_sum`` and ``_count`` (our fixed-bucket histograms
  place a value in the first bucket whose bound is >= the value, which
  is exactly Prometheus ``le`` semantics).

Dotted registry names (``serve.queue_depth``) are sanitised into metric
names (``repro_serve_queue_depth``); the original dotted name is kept
in the ``# HELP`` line so nothing is lost in the mangling.

``parse_exposition`` is the inverse: it parses the text format back
into sample families, which is how the watch CLI and the CI smoke test
read the endpoint without any third-party client library.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Mapping

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.util.validation import require

__all__ = [
    "CONTENT_TYPE",
    "Family",
    "Sample",
    "metric_name",
    "render_exposition",
    "parse_exposition",
    "sample_value",
    "histogram_quantile",
]

#: The Content-Type a conforming scraper expects from ``/v1/metrics``.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Every exported metric name carries this prefix (one namespace).
PREFIX = "repro_"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(dotted: str) -> str:
    """The exposition name for a dotted registry name."""
    sanitized = _INVALID_CHARS.sub("_", dotted)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return PREFIX + sanitized


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_exposition(registry: MetricsRegistry) -> str:
    """The whole registry in Prometheus text format (name-sorted)."""
    lines: list[str] = []
    instruments = {
        instrument.name: instrument
        for instrument in registry
        if isinstance(instrument, (Counter, Gauge, Histogram))
    }
    for dotted in sorted(instruments):
        instrument = instruments[dotted]
        name = metric_name(dotted)
        lines.append(f"# HELP {name} repro metric {dotted!r}")
        if isinstance(instrument, Counter):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_format_value(instrument.value)}")
        elif isinstance(instrument, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(instrument.value)}")
        else:
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bound, bucket_count in zip(
                instrument.buckets, instrument.counts
            ):
                cumulative += bucket_count
                if bucket_count == 0:
                    continue  # cumulative semantics allow sparse buckets
                lines.append(
                    f'{name}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
                )
            lines.append(f'{name}_bucket{{le="+Inf"}} {instrument.count}')
            lines.append(f"{name}_sum {_format_value(instrument.total)}")
            lines.append(f"{name}_count {instrument.count}")
    return "\n".join(lines) + "\n"


# -- parsing ---------------------------------------------------------------------


@dataclass
class Sample:
    """One exposition sample line: name, labels, value."""

    name: str
    labels: dict[str, str]
    value: float


@dataclass
class Family:
    """One metric family: TYPE/HELP metadata plus its sample lines."""

    name: str
    type: str = "untyped"
    help: str = ""
    samples: list[Sample] = field(default_factory=list)


_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_number(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def _unescape_label(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _family_of(
    sample_name: str, labels: Mapping[str, str], families: dict[str, Family]
) -> Family:
    base = sample_name
    if sample_name.endswith("_bucket") and "le" in labels:
        # A bucket sample is recognisable by its ``le`` label alone, so
        # grouping works even without a preceding # TYPE line.
        base = sample_name[: -len("_bucket")]
    else:
        for suffix in ("_sum", "_count"):
            stripped = sample_name[: -len(suffix)]
            if sample_name.endswith(suffix) and stripped in families:
                base = stripped
                break
    if base not in families:
        families[base] = Family(base)
    return families[base]


def parse_exposition(text: str) -> dict[str, Family]:
    """Parse Prometheus text format into families keyed by metric name.

    Raises :class:`~repro.util.validation.ValidationError` on a line
    that is neither a comment, a blank, nor a well-formed sample -- the
    CI smoke test leans on this to catch a malformed endpoint.
    """
    families: dict[str, Family] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("TYPE", "HELP"):
                family = families.setdefault(parts[2], Family(parts[2]))
                if parts[1] == "TYPE":
                    family.type = parts[3] if len(parts) > 3 else "untyped"
                else:
                    family.help = parts[3] if len(parts) > 3 else ""
            continue
        match = _SAMPLE_LINE.match(line)
        require(match is not None, f"malformed exposition line: {raw_line!r}")
        labels = {
            name: _unescape_label(value)
            for name, value in _LABEL.findall(match.group("labels") or "")
        }
        family = _family_of(match.group("name"), labels, families)
        family.samples.append(
            Sample(
                match.group("name"),
                labels,
                _parse_number(match.group("value")),
            )
        )
    return families


def sample_value(
    families: Mapping[str, Family],
    sample_name: str,
    labels: Mapping[str, str] | None = None,
) -> float | None:
    """The value of one sample, or ``None`` when absent."""
    wanted = dict(labels or {})
    for family in families.values():
        for sample in family.samples:
            if sample.name == sample_name and sample.labels == wanted:
                return sample.value
    return None


def histogram_quantile(family: Family, q: float) -> float | None:
    """Estimate quantile ``q`` from a family's cumulative buckets.

    Answers the smallest finite ``le`` bound covering the quantile
    (mirroring :meth:`Histogram.quantile` without access to the exact
    min/max), ``None`` for an empty or bucket-less family.
    """
    require(0.0 <= q <= 1.0, "quantile must be in [0, 1]")
    buckets = sorted(
        (
            (_parse_number(sample.labels["le"]), sample.value)
            for sample in family.samples
            if sample.name == family.name + "_bucket" and "le" in sample.labels
        ),
        key=lambda pair: pair[0],
    )
    if not buckets:
        return None
    total = buckets[-1][1]
    if total <= 0:
        return None
    target = math.ceil(q * total) if q > 0.0 else 1
    finite = [bound for bound, _count in buckets if bound != math.inf]
    for bound, cumulative in buckets:
        if cumulative >= target:
            if bound == math.inf:
                break
            return bound
    return max(finite) if finite else math.inf

