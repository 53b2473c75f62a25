"""Metrics registry: counters, gauges and histograms."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        registry.counter("a.b").inc(2.5)
        assert registry.value("a.b") == 3.5

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(4.0)
        registry.gauge("depth").set(2.0)
        assert registry.value("depth") == 2.0

    def test_create_or_return_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_name_collision_across_kinds_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(Exception):
            registry.gauge("x")

    def test_names_filters_by_prefix(self):
        registry = MetricsRegistry()
        registry.counter("net.sent.a")
        registry.counter("net.sent.b")
        registry.counter("kernel.events")
        assert registry.names("net.") == ["net.sent.a", "net.sent.b"]


class TestHistogram:
    def test_exact_min_max_mean(self):
        histogram = Histogram("h")
        for value in (1.0, 2.0, 3.0, 10.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["min"] == 1.0
        assert summary["max"] == 10.0
        assert summary["mean"] == 4.0
        assert summary["count"] == 4

    def test_quantiles_bucket_upper_bounds(self):
        histogram = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for _ in range(99):
            histogram.observe(0.5)
        histogram.observe(50.0)
        # p50 lands in the first bucket; its bound is 1.0.
        assert histogram.quantile(0.5) == 1.0
        # p999 needs the 100th observation -> bucket bound 100, capped at max.
        assert histogram.quantile(0.999) == 50.0

    def test_overflow_bucket_answers_max(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(1e9)
        assert histogram.quantile(0.99) == 1e9

    def test_empty_histogram_quantile_raises(self):
        histogram = Histogram("h")
        with pytest.raises(Exception, match="empty"):
            histogram.quantile(0.99)
        assert histogram.summary() == {"type": "histogram", "count": 0}

    def test_exact_boundary_value_stays_in_its_bucket(self):
        # A value equal to a bucket bound belongs to that bucket (the
        # first bound >= value), so its quantile answers the bound
        # itself, never the next bucket up.
        histogram = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for _ in range(10):
            histogram.observe(10.0)
        assert histogram.quantile(0.5) == 10.0
        assert histogram.quantile(1.0) == 10.0
        assert histogram.counts[1] == 10
        assert histogram.counts[2] == 0

    def test_boundary_between_two_buckets(self):
        histogram = Histogram("h", buckets=(1.0, 10.0))
        histogram.observe(1.0)  # first bucket, exactly on the bound
        histogram.observe(1.0000001)  # just past the bound: second bucket
        assert histogram.counts[0] == 1
        assert histogram.counts[1] == 1
        assert histogram.quantile(0.5) == 1.0

    def test_default_buckets_cover_micro_to_mega(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_BUCKETS[-1] == pytest.approx(1e6)

    def test_summary_has_percentiles(self):
        registry = MetricsRegistry()
        for value in range(1, 101):
            registry.histogram("lat").observe(float(value))
        summary = registry.summarize()["lat"]
        assert summary["p50"] <= summary["p99"] <= summary["p999"]
        assert summary["p999"] == 100.0
