"""Tiny statistics helpers (pure Python, dependency-free).

The core library avoids numpy so it stays importable in minimal
environments; benches may use numpy freely.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["mean", "percentile", "empirical_cdf"]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def empirical_cdf(values: Iterable[float]) -> list[tuple[float, float]]:
    """Return the empirical CDF as sorted ``(value, fraction <= value)`` pairs."""
    ordered = sorted(values)
    if not ordered:
        return []
    n = len(ordered)
    points: list[tuple[float, float]] = []
    for index, value in enumerate(ordered, start=1):
        if points and points[-1][0] == value:
            points[-1] = (value, index / n)
        else:
            points.append((value, index / n))
    return points
