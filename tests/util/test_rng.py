"""Deterministic keyed RNG: the foundation of reproducible replays."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import DeterministicStream, hash_randint, hash_uniform


class TestHashUniform:
    def test_deterministic(self):
        assert hash_uniform(1, "a", 2) == hash_uniform(1, "a", 2)

    def test_distinct_keys_differ(self):
        assert hash_uniform(1, "a") != hash_uniform(1, "b")

    def test_seed_changes_value(self):
        assert hash_uniform(1, "a") != hash_uniform(2, "a")

    def test_range(self):
        for i in range(200):
            value = hash_uniform("range", i)
            assert 0.0 <= value < 1.0

    def test_mean_roughly_half(self):
        values = [hash_uniform("mean-test", i) for i in range(2000)]
        assert abs(sum(values) / len(values) - 0.5) < 0.02

    def test_order_of_key_parts_matters(self):
        assert hash_uniform("a", "b") != hash_uniform("b", "a")

    def test_int_and_float_keys_distinct(self):
        # 1 and 1.0 are equal in Python but must hash as distinct key parts.
        assert hash_uniform("k", 1) != hash_uniform("k", 1.0)

    def test_bool_and_int_keys_distinct(self):
        assert hash_uniform("k", True) != hash_uniform("k", 1)

    def test_nested_tuples_supported(self):
        value = hash_uniform("edge", ("NYC", "CHI"), 42)
        assert 0.0 <= value < 1.0

    def test_none_supported(self):
        assert 0.0 <= hash_uniform(None) < 1.0

    def test_unsupported_key_type_raises(self):
        with pytest.raises(TypeError):
            hash_uniform(object())

    @given(st.integers(), st.text(max_size=20), st.integers())
    @settings(max_examples=50)
    def test_always_in_unit_interval(self, seed, key, extra):
        value = hash_uniform(seed, key, extra)
        assert 0.0 <= value < 1.0


class TestHashRandint:
    def test_range(self):
        for i in range(100):
            assert 0 <= hash_randint(7, "ri", i) < 7

    def test_invalid_upper(self):
        with pytest.raises(ValueError):
            hash_randint(0, "x")

    def test_covers_all_values(self):
        seen = {hash_randint(4, "cover", i) for i in range(200)}
        assert seen == {0, 1, 2, 3}


class TestDeterministicStream:
    def test_uniform_between(self):
        stream = DeterministicStream(1)
        for i in range(100):
            value = stream.uniform_between(10.0, 20.0, i)
            assert 10.0 <= value < 20.0

    def test_uniform_between_empty_range_raises(self):
        with pytest.raises(ValueError):
            DeterministicStream(1).uniform_between(5.0, 4.0)

    def test_bernoulli_extremes(self):
        stream = DeterministicStream(2)
        assert not any(stream.bernoulli(0.0, i) for i in range(50))
        assert all(stream.bernoulli(1.0, i) for i in range(50))

    def test_bernoulli_rate(self):
        stream = DeterministicStream(3)
        hits = sum(stream.bernoulli(0.3, i) for i in range(5000))
        assert abs(hits / 5000 - 0.3) < 0.03

    def test_bernoulli_invalid_probability(self):
        with pytest.raises(ValueError):
            DeterministicStream(1).bernoulli(1.5)

    def test_exponential_mean(self):
        stream = DeterministicStream(4)
        values = [stream.exponential(10.0, i) for i in range(5000)]
        assert abs(sum(values) / len(values) - 10.0) < 0.6
        assert all(v >= 0 for v in values)

    def test_exponential_invalid_mean(self):
        with pytest.raises(ValueError):
            DeterministicStream(1).exponential(0.0)

    def test_lognormal_median(self):
        stream = DeterministicStream(5)
        values = sorted(stream.lognormal(45.0, 1.0, i) for i in range(4001))
        median = values[len(values) // 2]
        assert 38.0 < median < 53.0

    def test_lognormal_invalid_median(self):
        with pytest.raises(ValueError):
            DeterministicStream(1).lognormal(-1.0, 1.0)

    def test_normal_moments(self):
        stream = DeterministicStream(6)
        values = [stream.normal(i) for i in range(5000)]
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        assert abs(mean) < 0.05
        assert abs(variance - 1.0) < 0.1

    def test_choice(self):
        stream = DeterministicStream(7)
        options = ["a", "b", "c"]
        picks = {stream.choice(options, i) for i in range(100)}
        assert picks == set(options)

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            DeterministicStream(1).choice([])

    def test_randint(self):
        stream = DeterministicStream(8)
        assert all(0 <= stream.randint(5, i) < 5 for i in range(100))

    def test_draws_independent_of_call_order(self):
        a = DeterministicStream(9)
        first = a.uniform("x")
        second = a.uniform("y")
        b = DeterministicStream(9)
        assert b.uniform("y") == second
        assert b.uniform("x") == first

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30)
    def test_exponential_finite(self, seed):
        value = DeterministicStream(seed).exponential(1.0, "k")
        assert math.isfinite(value)
