"""Pure-Python statistics helpers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import empirical_cdf, mean, percentile


class TestMean:
    def test_simple(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25) == 2.5

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    @given(
        st.lists(
            st.floats(0, 1e6, allow_subnormal=False), min_size=1, max_size=50
        )
    )
    def test_within_bounds(self, values):
        for q in (0, 25, 50, 75, 100):
            result = percentile(values, q)
            assert min(values) <= result <= max(values)


class TestEmpiricalCdf:
    def test_basic(self):
        cdf = empirical_cdf([1.0, 2.0, 2.0, 4.0])
        assert cdf == [(1.0, 0.25), (2.0, 0.75), (4.0, 1.0)]

    def test_empty(self):
        assert empirical_cdf([]) == []

    def test_ends_at_one(self):
        cdf = empirical_cdf([3.0, 1.0, 2.0])
        assert cdf[-1][1] == 1.0

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    def test_monotone(self, values):
        cdf = empirical_cdf(values)
        xs = [x for x, _ in cdf]
        ys = [y for _, y in cdf]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert all(0.0 < y <= 1.0 for y in ys)
