"""Metrics registry: counters, gauges, fixed-bucket histograms.

Components register instruments by dotted name (``kernel.queue_depth``,
``net.sent.NYC->LAX``) against a :class:`MetricsRegistry`; the registry
summarises everything on demand for the run manifest and the ``obs
summary`` CLI view.  A component without observability holds no
registry at all (``obs=None``), so the off path adds no work.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterator

from repro.util.validation import require

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Geometric bucket ladder, four buckets per decade from 1e-6 to 1e6.
#: Wide enough for seconds-scale lags, millisecond latencies, and
#: queue-depth counts alike without per-metric tuning.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    10.0 ** (exponent / 4.0) for exponent in range(-24, 25)
)


class Counter:
    """A monotonically increasing sum (float increments allowed)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        self.value += amount

    def summary(self) -> dict:
        """JSON-safe description of the counter's current state."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def summary(self) -> dict:
        """JSON-safe description of the gauge's current state."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A fixed-bucket distribution with percentile summaries.

    Observations land in the first bucket whose upper bound is >= the
    value; quantiles are answered with the matching bucket upper bound
    (the classic Prometheus-style over-estimate), while min/max/sum are
    tracked exactly.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "min", "max")

    def __init__(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        require(len(buckets) >= 1, "histogram needs at least one bucket")
        require(
            all(a < b for a, b in zip(buckets, buckets[1:])),
            "histogram buckets must be strictly increasing",
        )
        self.name = name
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """The smallest bucket bound covering quantile ``q`` of the data.

        Exact extremes are substituted at the ends (q=0 -> min, q=1 ->
        max).  An empty histogram has no quantiles: asking for one is a
        caller bug and raises rather than inventing a 0.0 that would
        read as a real (and suspiciously perfect) latency.
        """
        require(0.0 <= q <= 1.0, "quantile must be in [0, 1]")
        require(
            self.count > 0,
            f"histogram {self.name!r} is empty: quantiles are undefined "
            "(check .count before asking)",
        )
        if q <= 0.0:
            return self.min
        target = math.ceil(q * self.count)
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                if index < len(self.buckets):
                    return min(self.buckets[index], self.max)
                return self.max  # overflow bucket: only the max is known
        return self.max

    @property
    def mean(self) -> float:
        """Exact arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        """JSON-safe roll-up: count, sum, min/max/mean, p50/p99/p999."""
        if self.count == 0:
            return {"type": "histogram", "count": 0}
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }


class MetricsRegistry:
    """Create-or-return instruments by dotted name; summarise on demand."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name, **kwargs)
            self._instruments[name] = instrument
        require(
            isinstance(instrument, kind),
            f"metric {name!r} already registered as "
            f"{type(instrument).__name__}, not {kind.__name__}",
        )
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first use."""
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        """The histogram named ``name``, created on first use."""
        return self._get(name, Histogram, buckets=buckets)

    def value(self, name: str) -> float:
        """Current value of a counter or gauge (raises for histograms)."""
        instrument = self._instruments[name]
        require(
            isinstance(instrument, (Counter, Gauge)),
            f"metric {name!r} has no scalar value",
        )
        return instrument.value

    def names(self, prefix: str = "") -> list[str]:
        """Registered metric names (optionally filtered), sorted."""
        return sorted(n for n in self._instruments if n.startswith(prefix))

    def summarize(self) -> dict[str, dict]:
        """All instruments as a name-sorted JSON-safe mapping."""
        return {
            name: self._instruments[name].summary() for name in self.names()
        }

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

