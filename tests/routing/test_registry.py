"""Scheme registry."""

from __future__ import annotations

import pytest

from repro.routing.registry import STANDARD_SCHEME_NAMES, make_policy
from repro.util.validation import ValidationError


def test_six_standard_schemes():
    assert len(STANDARD_SCHEME_NAMES) == 6
    assert STANDARD_SCHEME_NAMES[0] == "static-single"
    assert STANDARD_SCHEME_NAMES[-1] == "flooding"
    assert "targeted" in STANDARD_SCHEME_NAMES


def test_make_policy_names_match():
    for name in STANDARD_SCHEME_NAMES:
        assert make_policy(name).name == name


def test_make_policy_fresh_instances():
    assert make_policy("targeted") is not make_policy("targeted")


def test_unknown_scheme_rejected():
    with pytest.raises(ValidationError, match="unknown scheme"):
        make_policy("quantum-routing")


def test_dynamic_flags():
    assert not make_policy("static-single").is_dynamic
    assert not make_policy("static-two-disjoint").is_dynamic
    assert not make_policy("flooding").is_dynamic
    assert make_policy("dynamic-single").is_dynamic
    assert make_policy("dynamic-two-disjoint").is_dynamic
    assert make_policy("targeted").is_dynamic
