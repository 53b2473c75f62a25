"""Probability-accumulation kernel: backend selection and agreement.

The dual-backend contract under test:

* the ``pure`` backend is bitwise-identical to the frozen seed loops
  (re-implemented inline here as the reference, so a refactor of the
  kernel module cannot silently move the goalposts);
* the ``numpy`` backend agrees with ``pure`` up to float reassociation
  (absolute tolerance 1e-9 on probabilities in [0, 1]);
* batching never changes bits: ``batch(rows)[i]`` equals the single-row
  call on ``rows[i]`` exactly, and the vector threshold depends only on
  the classification size, never on how many rows ride in one call.
"""

from __future__ import annotations

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dgraph import DisseminationGraph
from repro.simulation import kernel
from repro.simulation.reliability import (
    DeliveryProbabilities,
    accumulate_mask_probabilities,
    accumulate_mask_probabilities_batch,
    accumulate_recovery_probabilities_batch,
    classify_delivery_masks,
    classify_recovery_states,
)

requires_numpy = pytest.mark.skipif(
    not kernel.numpy_available(), reason="numpy backend not installed"
)


def _bits(value: float) -> bytes:
    """IEEE-754 bytes of a float -- the bitwise-equality comparator."""
    return struct.pack("<d", value)


# -- frozen reference loops --------------------------------------------------------
# Copied verbatim from the seed implementation (pre-kernel
# ``accumulate_mask_probabilities`` / ``delivery_probabilities_with_recovery``
# inner loops).  These are the ground truth the pure backend must match
# bit for bit; do not "simplify" them.


def _reference_mask_totals(classes, losses):
    on_time_total = 0.0
    eventually_total = 0.0
    for mask in range(len(classes)):
        probability = 1.0
        for bit, loss in enumerate(losses):
            if mask >> bit & 1:
                probability *= 1.0 - loss
            else:
                probability *= loss
        if probability == 0.0:
            continue
        outcome = classes[mask]
        if outcome == 2:
            on_time_total += probability
            eventually_total += probability
        elif outcome == 1:
            eventually_total += probability
    return on_time_total, eventually_total


def _reference_recovery_totals(classes, losses):
    on_time_total = 0.0
    eventually_total = 0.0
    for code in range(len(classes)):
        probability = 1.0
        value = code
        for loss in losses:
            state = value % 3
            value //= 3
            if state == 0:
                probability *= 1.0 - loss
            elif state == 1:
                probability *= loss * (1.0 - loss)
            else:
                probability *= loss * loss
        if probability == 0.0:
            continue
        outcome = classes[code]
        if outcome == 2:
            on_time_total += probability
            eventually_total += probability
        elif outcome == 1:
            eventually_total += probability
    return on_time_total, eventually_total


# -- strategies --------------------------------------------------------------------

_loss = st.floats(
    min_value=0.0,
    max_value=1.0,
    exclude_min=True,
    exclude_max=True,
    allow_nan=False,
    allow_infinity=False,
)


@st.composite
def mask_cases(draw, max_edges: int = 7):
    count = draw(st.integers(min_value=1, max_value=max_edges))
    losses = draw(
        st.lists(_loss, min_size=count, max_size=count)
    )
    classes = bytes(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=2),
                min_size=1 << count,
                max_size=1 << count,
            )
        )
    )
    return classes, losses


@st.composite
def recovery_cases(draw, max_edges: int = 4):
    count = draw(st.integers(min_value=1, max_value=max_edges))
    losses = draw(
        st.lists(_loss, min_size=count, max_size=count)
    )
    classes = bytes(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=2),
                min_size=3**count,
                max_size=3**count,
            )
        )
    )
    return classes, losses


# -- backend selection -------------------------------------------------------------


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernel.set_backend("fortran")

    def test_force_backend_exports_env_and_restores(self):
        previous = os.environ.get(kernel.KERNEL_ENV)
        with kernel.force_backend("pure") as resolved:
            assert resolved == "pure"
            assert kernel.active_backend() == "pure"
            # Pool workers are fresh interpreters: they resolve the
            # backend from the environment, which must carry the pin.
            assert os.environ[kernel.KERNEL_ENV] == "pure"
        assert os.environ.get(kernel.KERNEL_ENV) == previous

    def test_auto_prefers_numpy_when_available(self):
        with kernel.force_backend("auto"):
            expected = "numpy" if kernel.numpy_available() else "pure"
            assert kernel.active_backend() == expected

    def test_numpy_request_fails_loudly_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernel, "_numpy_module", None)
        monkeypatch.setattr(kernel, "_backend_override", None)
        with pytest.raises(ValueError, match="not importable"):
            kernel.set_backend("numpy")
        monkeypatch.setenv(kernel.KERNEL_ENV, "numpy")
        with pytest.raises(ValueError, match="not importable"):
            kernel.active_backend()
        # auto degrades silently -- that is its contract
        monkeypatch.setenv(kernel.KERNEL_ENV, "auto")
        assert kernel.active_backend() == "pure"

    def test_describe_names_the_contract(self):
        with kernel.force_backend("pure"):
            payload = kernel.describe()
        assert payload["backend"] == "pure"
        assert payload["numpy_available"] == kernel.numpy_available()
        assert payload["vector_min_cases"] == kernel.VECTOR_MIN_CASES


# -- pure backend vs. the frozen reference -----------------------------------------


class TestPureBitwise:
    @settings(max_examples=200, deadline=None)
    @given(mask_cases())
    def test_mask_totals_match_reference_bitwise(self, case):
        classes, losses = case
        with kernel.force_backend("pure"):
            on_time, eventually = kernel.mask_totals(classes, losses)
        ref_on, ref_event = _reference_mask_totals(classes, losses)
        assert _bits(on_time) == _bits(ref_on)
        assert _bits(eventually) == _bits(ref_event)

    @settings(max_examples=100, deadline=None)
    @given(recovery_cases())
    def test_recovery_totals_match_reference_bitwise(self, case):
        classes, losses = case
        with kernel.force_backend("pure"):
            on_time, eventually = kernel.recovery_totals(classes, losses)
        ref_on, ref_event = _reference_recovery_totals(classes, losses)
        assert _bits(on_time) == _bits(ref_on)
        assert _bits(eventually) == _bits(ref_event)

    def test_batch_equals_singles_bitwise(self):
        classes = bytes((mask * 7) % 3 for mask in range(1 << 5))
        rows = [[0.1 + 0.02 * i] * 5 for i in range(9)]
        with kernel.force_backend("pure"):
            batched = kernel.mask_totals_batch(classes, rows)
            singles = [kernel.mask_totals(classes, row) for row in rows]
        assert [tuple(map(_bits, pair)) for pair in batched] == [
            tuple(map(_bits, pair)) for pair in singles
        ]


# -- numpy backend agreement -------------------------------------------------------


@requires_numpy
class TestVectorAgreement:
    @settings(max_examples=150, deadline=None)
    @given(mask_cases())
    def test_mask_totals_within_reassociation_tolerance(self, case):
        classes, losses = case
        with kernel.force_backend("pure"):
            pure = kernel.mask_totals(classes, losses)
        with kernel.force_backend("numpy"):
            # Bypass the size threshold: compare the vector arithmetic
            # itself, not the dispatch decision.
            np = kernel._numpy()
            weights = kernel._mask_weights_vector(np, [list(losses)])
            vector = kernel._class_sums_vector(np, classes, weights)[0]
        assert vector[0] == pytest.approx(pure[0], abs=1e-9)
        assert vector[1] == pytest.approx(pure[1], abs=1e-9)

    @settings(max_examples=75, deadline=None)
    @given(recovery_cases())
    def test_recovery_totals_within_reassociation_tolerance(self, case):
        classes, losses = case
        with kernel.force_backend("pure"):
            pure = kernel.recovery_totals(classes, losses)
        np = kernel._numpy()
        weights = kernel._recovery_weights_vector(np, [list(losses)])
        vector = kernel._class_sums_vector(np, classes, weights)[0]
        assert vector[0] == pytest.approx(pure[0], abs=1e-9)
        assert vector[1] == pytest.approx(pure[1], abs=1e-9)

    def test_vector_batch_equals_vector_singles_bitwise(self):
        # 2^7 cases clears VECTOR_MIN_CASES, so singles take the vector
        # path too -- the batch contract is bitwise, not approximate.
        classes = bytes((mask * 5) % 3 for mask in range(1 << 7))
        rows = [[0.05 * (i + 1) % 0.9 + 0.01] * 7 for i in range(11)]
        with kernel.force_backend("numpy"):
            batched = kernel.mask_totals_batch(classes, rows)
            singles = [kernel.mask_totals(classes, row) for row in rows]
        assert [tuple(map(_bits, pair)) for pair in batched] == [
            tuple(map(_bits, pair)) for pair in singles
        ]

    def test_threshold_depends_on_classification_not_batch_size(self):
        small = bytes([2, 1, 0, 2])  # 2 lossy edges: 4 cases, under threshold
        large = bytes(
            (mask * 3) % 3 for mask in range(kernel.VECTOR_MIN_CASES)
        )  # exactly at threshold: vector path
        with kernel.force_backend("numpy"):
            before = kernel.counters()
            # Many rows of a tiny classification stay pure: the threshold
            # must not flip with batch size, or the same (classification,
            # losses) pair would change bits across call shapes.
            kernel.mask_totals_batch(small, [[0.25, 0.5]] * 200)
            mid = kernel.counters()
            kernel.mask_totals(large, [0.3] * 6)
            after = kernel.counters()
        assert mid["pure_calls"] - before["pure_calls"] == 1
        assert mid["vector_calls"] == before["vector_calls"]
        assert after["vector_calls"] - mid["vector_calls"] == 1
        assert after["pure_calls"] == mid["pure_calls"]


# -- counters ----------------------------------------------------------------------


class TestCounters:
    def test_counters_charge_calls_rows_and_time(self):
        classes = bytes([2, 0])
        with kernel.force_backend("pure"):
            before = kernel.counters()
            kernel.mask_totals_batch(classes, [[0.5]] * 7)
            kernel.mask_totals(classes, [0.5])
            after = kernel.counters()
        delta = {name: after[name] - before[name] for name in after}
        assert delta["pure_calls"] == 2
        assert delta["pure_rows"] == 8
        assert delta["pure_s"] >= 0.0
        assert delta["vector_calls"] == 0
        assert delta["vector_rows"] == 0

    def test_empty_batch_charges_nothing(self):
        before = kernel.counters()
        assert kernel.mask_totals_batch(bytes([2, 0]), []) == []
        assert kernel.recovery_totals_batch(bytes([2, 0, 1]), []) == []
        assert kernel.counters() == before


# -- end-to-end through the reliability layer --------------------------------------


def _latencies(mapping, default=1.0):
    return lambda edge: mapping.get(edge, default)


def _losses(mapping, default=0.0):
    return lambda edge: mapping.get(edge, default)


class TestReliabilityIntegration:
    GRAPH = DisseminationGraph.from_paths(
        [["S", "A", "T"], ["S", "B", "T"], ["S", "C", "T"]]
    )

    def _classification(self):
        return classify_delivery_masks(
            self.GRAPH,
            10.0,
            _latencies({}),
            _losses(
                {
                    ("S", "A"): 0.2,
                    ("A", "T"): 0.3,
                    ("S", "B"): 0.4,
                    ("B", "T"): 0.5,
                    ("S", "C"): 0.6,
                    ("C", "T"): 0.7,
                }
            ),
        )

    @requires_numpy
    def test_backends_agree_on_real_classification(self):
        classification, losses = self._classification()
        assert len(classification.classes) == 64  # 6 lossy edges
        with kernel.force_backend("pure"):
            pure = accumulate_mask_probabilities(classification, losses)
        with kernel.force_backend("numpy"):
            vector = accumulate_mask_probabilities(classification, losses)
        assert vector.on_time == pytest.approx(pure.on_time, abs=1e-9)
        assert vector.eventually == pytest.approx(pure.eventually, abs=1e-9)

    def test_certain_classification_skips_the_kernel(self):
        classification, losses = classify_delivery_masks(
            self.GRAPH, 10.0, _latencies({}), _losses({})
        )
        assert classification.certain == DeliveryProbabilities(1.0, 1.0)
        assert losses == []
        before = kernel.counters()
        results = accumulate_mask_probabilities_batch(classification, [[], []])
        assert results == [classification.certain] * 2
        assert kernel.counters() == before

    def test_certain_recovery_skips_the_kernel(self):
        single = DisseminationGraph.from_path(["S", "A", "T"])
        classification, _losses_read = classify_recovery_states(
            single, 30.0, _latencies({}, 5.0), _losses({}), _latencies({}, 20.0)
        )
        assert classification.certain == DeliveryProbabilities(1.0, 1.0)
        before = kernel.counters()
        results = accumulate_recovery_probabilities_batch(classification, [[]])
        assert results == [classification.certain]
        assert kernel.counters() == before
