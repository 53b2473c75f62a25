"""Probability-accumulation kernel: pure-Python and numpy backends.

The exact reliability engine (:mod:`repro.simulation.reliability`)
splits every computation into a loss-value-independent *classification*
(which enumeration cases deliver on time / at all -- one chunked
case-set Dijkstra pass over all ``radix^L`` cases) and a cheap
*accumulation* (weight each case by the current loss values and sum per
outcome).  The classification is cached per canonical graph; the
accumulation runs once per distinct loss vector and is the replay
engine's arithmetic inner loop.  This module owns that inner loop, one
entry point (:func:`totals`) for both radices, with two interchangeable
implementations that read the same per-edge state factors (``loss,
1 - loss`` in radix 2; ``1 - loss, loss * (1 - loss), loss * loss`` in
radix 3, the hop-recovery states):

* ``pure`` -- the historical per-case Python loop, kept bitwise-identical
  to the seed implementation (same multiply order, same summation order,
  same zero-probability skip).  Always available.
* ``numpy`` -- the same weights built as one outer-product cascade and
  summed per outcome class with vectorized reductions.  Used whenever
  :mod:`numpy` imports (``pip install repro[fast]``); per-value results
  agree with ``pure`` up to floating-point *reassociation* only
  (identical multiplications, different summation tree), which is the
  documented tolerance contract (DESIGN.md S25).

The backend depends only on whether numpy imports; :func:`force_backend`
pins it within one process, for tests and dual-path benchmarks.  Two
determinism rules keep the engine's exact-merge contracts intact
regardless of call shape:

* the vector path only engages for classifications with at least
  :data:`VECTOR_MIN_CASES` enumeration cases -- a property of the
  *classification*, never of the batch size -- so a given
  ``(classification, losses)`` pair always takes the same code path and
  yields the same bits whether it is computed alone, inside a batch, in
  a pool worker, or in a time shard;
* a batched row is computed with row-independent array operations, so
  ``totals(rows)[i]`` is bitwise-equal to the one-row call on
  ``rows[i]``.

Per-backend call/row/time counters feed exec telemetry and the
``replay.kernel.*`` observability metrics.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Sequence

__all__ = [
    "VECTOR_MIN_CASES",
    "active_backend",
    "counters",
    "describe",
    "force_backend",
    "numpy_available",
    "totals",
]

#: Minimum number of enumeration cases (``len(classes)``) before the
#: vector backend engages.  Below this the per-call numpy overhead
#: exceeds the loop it replaces; above it the outer-product cascade wins
#: by orders of magnitude.  The threshold depends only on the
#: classification, never on how many rows ride in one call, so every
#: ``(classification, losses)`` pair is deterministic across call shapes
#: (see module docstring).
VECTOR_MIN_CASES = 64

#: Outcome codes of a case (0 is lost), mirrored from
#: :mod:`repro.simulation.reliability` (redeclared here to keep this
#: module import-light and cycle-free).
_LATE = 1
_ON_TIME = 2

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


def active_backend() -> str:
    """The backend accumulate calls resolve to: ``numpy`` or ``pure``."""
    if _backend_override is not None:
        return _backend_override
    return "numpy" if numpy_available() else "pure"


@contextmanager
def force_backend(name: str) -> Iterator[str]:
    """Temporarily pin the backend (tests and dual-path benchmarks).

    ``auto`` restores the default rule within the block; yields the
    resolved backend.  Raises ``ValueError`` for unknown names or for
    ``numpy`` when numpy is not importable, so a pinned vector run fails
    loudly instead of silently degrading.
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
    previous_override = _backend_override
    _backend_override = None if name == "auto" else name
    try:
        yield active_backend()
    finally:
        _backend_override = previous_override


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


# -- accumulation ------------------------------------------------------------------


def _state_factors(radix: int, loss):
    """One lossy edge's weight in each digit state, in state order.

    Radix 2: absent ``loss``, survives ``1 - loss``.  Radix 3 (hop
    recovery): fast ``1 - loss``, recovered ``loss * (1 - loss)``, dead
    ``loss * loss``.  ``loss`` is a float in the pure loop and a column
    of the loss matrix in the vector cascade, so both backends multiply
    the very same factors.
    """
    if radix == 2:
        return (loss, 1.0 - loss)
    return (1.0 - loss, loss * (1.0 - loss), loss * loss)


def _totals_pure(
    classes: bytes, radix: int, losses: Sequence[float]
) -> tuple[float, float]:
    """The historical per-case accumulation loop, bit for bit.

    Multiply order (digit 0 first), case order, the zero-probability
    skip and the interleaved on-time/eventually additions all match the
    seed implementation -- this is the bitwise reference the numpy path
    is measured against.
    """
    factors = [_state_factors(radix, loss) for loss in losses]
    on_time_total = 0.0
    eventually_total = 0.0
    for case in range(len(classes)):
        probability = 1.0
        value = case
        for weights in factors:
            probability *= weights[value % radix]
            value //= radix
        if probability == 0.0:
            continue
        outcome = classes[case]
        if outcome == _ON_TIME:
            on_time_total += probability
            eventually_total += probability
        elif outcome == _LATE:
            eventually_total += probability
    return on_time_total, eventually_total


def _weights_vector(np, radix: int, losses_rows):
    """``(rows, radix^L)`` per-case weights via an outer-product cascade.

    Column ``c`` of row ``r`` is the product, digit ``p`` ascending, of
    lossy edge ``p``'s factor for digit ``p`` of ``c`` -- the same
    factors in the same multiply order as the pure loop, built with
    row-independent array operations so batching does not change any
    row's bits.
    """
    rows = len(losses_rows)
    loss_matrix = np.asarray(losses_rows, dtype=np.float64).reshape(rows, -1)
    weights = np.ones((rows, 1), dtype=np.float64)
    for position in range(loss_matrix.shape[1]):
        column = loss_matrix[:, position : position + 1]
        weights = np.concatenate(
            [weights * factor for factor in _state_factors(radix, column)],
            axis=1,
        )
    return weights


def _class_sums_vector(np, classes: bytes, weights):
    """Per-row ``(on_time, eventually)`` from a ``(rows, cases)`` matrix.

    The column selection is forced C-contiguous before reducing:
    advanced indexing hands back an F-ordered copy for multi-row inputs,
    and summing that along axis 1 interleaves rows in the reduction
    order, shifting results by an ulp relative to the one-row call.
    Contiguous rows reduce independently, keeping the batch contract
    bitwise.
    """
    codes = np.frombuffer(classes, dtype=np.uint8)
    on_columns = np.ascontiguousarray(weights[:, codes == _ON_TIME])
    late_columns = np.ascontiguousarray(weights[:, codes == _LATE])
    on_sums = on_columns.sum(axis=1)
    late_sums = late_columns.sum(axis=1)
    return [
        (float(on), float(on) + float(late))
        for on, late in zip(on_sums, late_sums)
    ]


def totals(
    classes: bytes, radix: int, losses_rows: Sequence[Sequence[float]]
) -> list[tuple[float, float]]:
    """Raw ``(on_time, eventually)`` sums, one pair per loss vector.

    ``classes[c]`` is the outcome code of enumeration case ``c``, whose
    base-``radix`` digit ``p`` is the state of lossy edge ``p``; every
    row of ``losses_rows`` holds one loss value per lossy edge.  One
    vector call builds the whole ``(rows, radix^L)`` weight matrix, so a
    run of loss-only windows amortizes the per-call overhead; row ``i``
    of the result is bitwise-equal to ``totals(classes, radix,
    [rows[i]])[0]`` because every array operation is row-independent
    and the vector threshold depends only on ``len(classes)``.  Final
    clamping stays with the caller
    (:func:`repro.simulation.reliability.accumulate_probabilities`).
    """
    if not losses_rows:
        return []
    started = time.perf_counter()
    if active_backend() == "numpy" and len(classes) >= VECTOR_MIN_CASES:
        np = _numpy()
        weights = _weights_vector(np, radix, losses_rows)
        result = _class_sums_vector(np, classes, weights)
        _charge("vector", len(losses_rows), time.perf_counter() - started)
        return result
    result = [_totals_pure(classes, radix, row) for row in losses_rows]
    _charge("pure", len(losses_rows), time.perf_counter() - started)
    return result
