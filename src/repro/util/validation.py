"""Small argument-validation helpers used across the library."""

from __future__ import annotations

import os
from typing import NoReturn


class ValidationError(ValueError):
    """Raised when a caller supplies an argument that violates a contract."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with ``message`` unless ``condition``.

    This is used for *caller* errors (bad arguments), never for internal
    invariants -- internal invariants use ``assert`` so they can be compiled
    out and so that their failure clearly indicates a library bug.

    ``message`` is built before the call whether or not the check fails,
    so a check that runs per edge, window or update with a formatted
    message is written ``if not (condition): fail(f"...")`` instead: the
    message is then only formatted on failure.  Keep ``condition``
    verbatim inside ``not (...)`` -- ``x >= 0`` rejects NaN, while the
    "simplified" ``x < 0`` would let it through.
    """
    if not condition:
        raise ValidationError(message)


def fail(message: str) -> NoReturn:
    """Unconditionally raise :class:`ValidationError`."""
    raise ValidationError(message)


def require_probability(value: float, name: str) -> float:
    """Validate that ``value`` is a probability in ``[0, 1]`` and return it."""
    if not (0.0 <= value <= 1.0):
        fail(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    if not (value > 0):
        fail(f"{name} must be > 0, got {value!r}")
    return float(value)


def require_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0 and return it."""
    if not (value >= 0):
        fail(f"{name} must be >= 0, got {value!r}")
    return float(value)


def env_cap(name: str, default: int | None, unit: str) -> int | None:
    """Non-negative integer cap from ``$name``; ``0`` means unlimited.

    Unset or empty returns ``default``; unlimited returns ``None``.  A
    non-integer or negative value raises ``ValueError`` naming the
    variable (``unit`` words the integer, e.g. ``"byte count"``).
    """
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError as error:
        raise ValueError(
            f"{name} must be an integer {unit}, got {raw!r}"
        ) from error
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value or None
