"""Probability-accumulation kernel: pure-Python and numpy backends.

The exact reliability engines (:mod:`repro.simulation.reliability`)
split every computation into a loss-value-independent *classification*
(which enumeration cases deliver on time / at all -- one Dijkstra per
case) and a cheap *accumulation* (weight each case by the current loss
values and sum per outcome).  The classification is cached per canonical
graph; the accumulation runs once per distinct loss vector and is the
replay engine's arithmetic inner loop.  This module owns that inner
loop and selects between two interchangeable implementations:

* ``pure`` -- the historical per-mask Python loop, kept bitwise-identical
  to the seed implementation (same multiply order, same summation order,
  same zero-probability skip).  Always available.
* ``numpy`` -- the same weights built as one outer-product cascade
  (``2^L`` binary masks, ``3^L`` ternary recovery states) and summed per
  outcome class with vectorized reductions.  Selected automatically when
  :mod:`numpy` is importable (``pip install repro[fast]``); per-value
  results agree with ``pure`` up to floating-point *reassociation* only
  (identical multiplications, different summation tree), which is the
  documented tolerance contract (DESIGN.md S25).

Backend choice is process-wide and sticky: ``$REPRO_KERNEL`` (``auto`` /
``numpy`` / ``pure``) or :func:`set_backend` pin it, otherwise ``auto``
resolves to ``numpy`` when importable.  Two determinism rules keep the
engine's exact-merge contracts intact regardless of call shape:

* the vector path only engages for classifications with at least
  :data:`VECTOR_MIN_CASES` enumeration cases -- a property of the
  *classification*, never of the batch size -- so a given
  ``(classification, losses)`` pair always takes the same code path and
  yields the same bits whether it is computed alone, inside a batch, in
  a pool worker, or in a time shard;
* a batched row is computed with row-independent array operations, so
  ``batch(rows)[i]`` is bitwise-equal to the single-row vector call on
  ``rows[i]``.

Per-backend call/row/time counters feed exec telemetry and the
``replay.kernel.*`` observability metrics.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Sequence

__all__ = [
    "KERNEL_ENV",
    "VECTOR_MIN_CASES",
    "active_backend",
    "counters",
    "describe",
    "force_backend",
    "mask_totals",
    "mask_totals_batch",
    "numpy_available",
    "recovery_totals",
    "recovery_totals_batch",
    "set_backend",
]

#: Backend override: ``auto`` (default), ``numpy``, or ``pure``.
KERNEL_ENV = "REPRO_KERNEL"

#: Minimum number of enumeration cases (``len(classes)``) before the
#: vector backend engages.  Below this the per-call numpy overhead
#: exceeds the loop it replaces; above it the outer-product cascade wins
#: by orders of magnitude.  The threshold depends only on the
#: classification, never on how many rows ride in one call, so every
#: ``(classification, losses)`` pair is deterministic across call shapes
#: (see module docstring).
VECTOR_MIN_CASES = 64

#: Outcome codes, mirrored from :mod:`repro.simulation.reliability`
#: (redeclared here to keep this module import-light and cycle-free).
_MASK_LOST = 0
_MASK_LATE = 1
_MASK_ON_TIME = 2

_BACKENDS = ("auto", "numpy", "pure")


def numpy_available() -> bool:
    """True when the numpy vector backend can be imported."""
    return _numpy() is not None


_NUMPY_UNSET: object = object()
_numpy_module: object = _NUMPY_UNSET


def _numpy():
    """The :mod:`numpy` module, or ``None`` (cached after first probe)."""
    global _numpy_module
    if _numpy_module is _NUMPY_UNSET:
        try:
            import numpy
        except ImportError:
            numpy = None
        _numpy_module = numpy
    return _numpy_module


_backend_override: str | None = None


def set_backend(name: str) -> str:
    """Pin the backend for this process (and, via the env, pool workers).

    ``auto`` restores the default selection.  Returns the *resolved*
    backend.  Raises ``ValueError`` for unknown names or for ``numpy``
    when numpy is not importable, so a forced vector run fails loudly
    instead of silently degrading.
    """
    global _backend_override
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r} (choose from "
            f"{', '.join(_BACKENDS)})"
        )
    if name == "numpy" and not numpy_available():
        raise ValueError(
            "kernel backend 'numpy' requested but numpy is not importable "
            "(pip install repro[fast])"
        )
    _backend_override = None if name == "auto" else name
    # Export the choice so ProcessPoolExecutor workers -- fresh
    # interpreters under the spawn start method -- resolve identically.
    os.environ[KERNEL_ENV] = name
    return active_backend()


def active_backend() -> str:
    """The backend accumulate calls resolve to: ``numpy`` or ``pure``."""
    if _backend_override is not None:
        return _backend_override
    env = os.environ.get(KERNEL_ENV, "auto")
    if env == "pure":
        return "pure"
    if env == "numpy":
        if not numpy_available():
            raise ValueError(
                f"{KERNEL_ENV}=numpy but numpy is not importable "
                "(pip install repro[fast])"
            )
        return "numpy"
    return "numpy" if numpy_available() else "pure"


@contextmanager
def force_backend(name: str) -> Iterator[str]:
    """Temporarily pin the backend (tests and dual-path benchmarks)."""
    global _backend_override
    previous_override = _backend_override
    previous_env = os.environ.get(KERNEL_ENV)
    try:
        yield set_backend(name)
    finally:
        _backend_override = previous_override
        if previous_env is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = previous_env


def describe() -> dict[str, object]:
    """Identity of the kernel in force (manifests, serve, bench JSON)."""
    return {
        "backend": active_backend(),
        "numpy_available": numpy_available(),
        "vector_min_cases": VECTOR_MIN_CASES,
    }


# -- counters ----------------------------------------------------------------------

_counter_lock = threading.Lock()
_counters = {
    "vector_calls": 0,
    "pure_calls": 0,
    "vector_rows": 0,
    "pure_rows": 0,
    "vector_s": 0.0,
    "pure_s": 0.0,
}


def counters() -> dict[str, float]:
    """Snapshot of per-backend call/row/time counters (process-wide)."""
    with _counter_lock:
        return dict(_counters)


def _charge(backend: str, rows: int, elapsed: float) -> None:
    with _counter_lock:
        _counters[f"{backend}_calls"] += 1
        _counters[f"{backend}_rows"] += rows
        _counters[f"{backend}_s"] += elapsed


# -- binary (2^L) mask accumulation ------------------------------------------------


def _mask_totals_pure(
    classes: bytes, losses: Sequence[float]
) -> tuple[float, float]:
    """The historical fused accumulation loop, bit for bit.

    Multiply order (bit 0 first), mask order, the zero-probability skip
    and the interleaved on-time/eventually additions all match the seed
    implementation -- this is the bitwise reference the numpy path is
    measured against.
    """
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
        if outcome == _MASK_ON_TIME:
            on_time_total += probability
            eventually_total += probability
        elif outcome == _MASK_LATE:
            eventually_total += probability
    return on_time_total, eventually_total


def _mask_weights_vector(np, losses_rows):
    """``(rows, 2^L)`` per-mask weights via an outer-product cascade.

    Column ``m`` of row ``r`` is ``prod_b (1 - loss[r][b] if bit b of m
    else loss[r][b])`` -- the same factors in the same (bit-ascending)
    multiply order as the pure loop, built with row-independent array
    operations so batching does not change any row's bits.
    """
    rows = len(losses_rows)
    loss_matrix = np.asarray(losses_rows, dtype=np.float64).reshape(rows, -1)
    weights = np.ones((rows, 1), dtype=np.float64)
    for bit in range(loss_matrix.shape[1]):
        column = loss_matrix[:, bit : bit + 1]
        weights = np.concatenate(
            (weights * column, weights * (1.0 - column)), axis=1
        )
    return weights


def _class_sums_vector(np, classes: bytes, weights):
    """Per-row ``(on_time, eventually)`` from a ``(rows, cases)`` matrix.

    Shared by the single-row and batched entry points, so a single call
    is literally the one-row special case of a batch -- bitwise, not
    just numerically.  The column selection is forced C-contiguous
    before reducing: advanced indexing hands back an F-ordered copy for
    multi-row inputs, and summing that along axis 1 interleaves rows in
    the reduction order, shifting results by an ulp relative to the
    one-row call.  Contiguous rows reduce independently, keeping the
    batch contract bitwise.
    """
    codes = np.frombuffer(classes, dtype=np.uint8)
    on_columns = np.ascontiguousarray(weights[:, codes == _MASK_ON_TIME])
    late_columns = np.ascontiguousarray(weights[:, codes == _MASK_LATE])
    on_sums = on_columns.sum(axis=1)
    late_sums = late_columns.sum(axis=1)
    return [
        (float(on), float(on) + float(late))
        for on, late in zip(on_sums, late_sums)
    ]


def mask_totals(
    classes: bytes, losses: Sequence[float]
) -> tuple[float, float]:
    """Raw ``(on_time, eventually)`` sums for one loss vector.

    ``classes[m]`` is the outcome code of enumeration case ``m`` (bit
    ``b`` of ``m`` = lossy edge ``b`` survives).  Final clamping and the
    best-case hygiene zeroing stay with the caller
    (:func:`repro.simulation.reliability.accumulate_mask_probabilities`),
    so both backends feed the identical finalization.
    """
    started = time.perf_counter()
    if active_backend() == "numpy" and len(classes) >= VECTOR_MIN_CASES:
        np = _numpy()
        weights = _mask_weights_vector(np, [list(losses)])
        totals = _class_sums_vector(np, classes, weights)[0]
        _charge("vector", 1, time.perf_counter() - started)
        return totals
    totals = _mask_totals_pure(classes, losses)
    _charge("pure", 1, time.perf_counter() - started)
    return totals


def mask_totals_batch(
    classes: bytes, losses_rows: Sequence[Sequence[float]]
) -> list[tuple[float, float]]:
    """:func:`mask_totals` for many loss vectors of one classification.

    One vector call builds the whole ``(rows, 2^L)`` weight matrix, so a
    run of loss-only windows amortizes the per-call overhead; row ``i``
    of the result is bitwise-equal to ``mask_totals(classes, rows[i])``
    because every array operation is row-independent and the vector
    threshold depends only on ``len(classes)``.
    """
    if not losses_rows:
        return []
    started = time.perf_counter()
    if active_backend() == "numpy" and len(classes) >= VECTOR_MIN_CASES:
        np = _numpy()
        weights = _mask_weights_vector(np, losses_rows)
        totals = _class_sums_vector(np, classes, weights)
        _charge("vector", len(losses_rows), time.perf_counter() - started)
        return totals
    totals = [_mask_totals_pure(classes, row) for row in losses_rows]
    _charge("pure", len(losses_rows), time.perf_counter() - started)
    return totals


# -- ternary (3^L) recovery accumulation -------------------------------------------


def _recovery_totals_pure(
    classes: bytes, losses: Sequence[float]
) -> tuple[float, float]:
    """The historical ternary loop: state codes in base-3 digit order."""
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
        if outcome == _MASK_ON_TIME:
            on_time_total += probability
            eventually_total += probability
        elif outcome == _MASK_LATE:
            eventually_total += probability
    return on_time_total, eventually_total


def _recovery_weights_vector(np, losses_rows):
    """``(rows, 3^L)`` per-state weights; digit ``p`` of a state code is
    lossy edge ``p``'s outcome (0 fast, 1 recovered, 2 dead)."""
    rows = len(losses_rows)
    loss_matrix = np.asarray(losses_rows, dtype=np.float64).reshape(rows, -1)
    weights = np.ones((rows, 1), dtype=np.float64)
    for position in range(loss_matrix.shape[1]):
        column = loss_matrix[:, position : position + 1]
        weights = np.concatenate(
            (
                weights * (1.0 - column),
                weights * (column * (1.0 - column)),
                weights * (column * column),
            ),
            axis=1,
        )
    return weights


def recovery_totals(
    classes: bytes, losses: Sequence[float]
) -> tuple[float, float]:
    """Raw ``(on_time, eventually)`` sums over ternary recovery states."""
    started = time.perf_counter()
    if active_backend() == "numpy" and len(classes) >= VECTOR_MIN_CASES:
        np = _numpy()
        weights = _recovery_weights_vector(np, [list(losses)])
        totals = _class_sums_vector(np, classes, weights)[0]
        _charge("vector", 1, time.perf_counter() - started)
        return totals
    totals = _recovery_totals_pure(classes, losses)
    _charge("pure", 1, time.perf_counter() - started)
    return totals


def recovery_totals_batch(
    classes: bytes, losses_rows: Sequence[Sequence[float]]
) -> list[tuple[float, float]]:
    """:func:`recovery_totals` for many loss vectors (one classification)."""
    if not losses_rows:
        return []
    started = time.perf_counter()
    if active_backend() == "numpy" and len(classes) >= VECTOR_MIN_CASES:
        np = _numpy()
        weights = _recovery_weights_vector(np, losses_rows)
        totals = _class_sums_vector(np, classes, weights)
        _charge("vector", len(losses_rows), time.perf_counter() - started)
        return totals
    totals = [_recovery_totals_pure(classes, row) for row in losses_rows]
    _charge("pure", len(losses_rows), time.perf_counter() - started)
    return totals
