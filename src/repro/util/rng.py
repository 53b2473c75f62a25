"""Deterministic, keyed random streams.

The trace replayers compare several routing schemes against the *same*
network behaviour (the paper replays all schemes over the same recorded
data).  To make that sound in a Monte-Carlo setting we use *common random
numbers*: whether a given packet copy survives a given link at a given time
is a pure function of ``(seed, link, packet sequence number)``, independent
of which scheme is being evaluated and of evaluation order.

:func:`hash_uniform` provides that pure function via SHA-256.  It is slower
than a PRNG step but fully order-independent, reproducible across platforms
and Python versions, and has no shared mutable state, which also makes it
trivially safe to use from property-based tests.

:class:`DeterministicStream` wraps a keyed context so callers do not have to
thread tuples of key parts through every call site.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Iterable, Sequence

__all__ = ["hash_uniform", "hash_randint", "DeterministicStream"]

_MAX64 = float(2**64)


def _digest(parts: Iterable[object]) -> bytes:
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            hasher.update(b"b")
            hasher.update(part)
        elif isinstance(part, str):
            hasher.update(b"s")
            hasher.update(part.encode("utf-8"))
        elif isinstance(part, bool):
            # bool before int: bool is an int subclass.
            hasher.update(b"o1" if part else b"o0")
        elif isinstance(part, int):
            hasher.update(b"i")
            hasher.update(str(part).encode("ascii"))
        elif isinstance(part, float):
            hasher.update(b"f")
            hasher.update(struct.pack("<d", part))
        elif isinstance(part, (tuple, list)):
            hasher.update(b"t(")
            hasher.update(_digest(part))
            hasher.update(b")")
        elif part is None:
            hasher.update(b"n")
        else:
            raise TypeError(f"unhashable key part for rng: {part!r}")
        hasher.update(b"\x00")
    return hasher.digest()


def hash_uniform(*key_parts: object) -> float:
    """Return a uniform float in ``[0, 1)`` determined purely by the key.

    The same key always yields the same value; distinct keys yield
    independent-looking values.
    """
    digest = _digest(key_parts)
    value = int.from_bytes(digest[:8], "big")
    return value / _MAX64


def hash_randint(upper: int, *key_parts: object) -> int:
    """Return an int in ``[0, upper)`` determined purely by the key."""
    if upper <= 0:
        raise ValueError(f"upper must be positive, got {upper}")
    digest = _digest(key_parts)
    value = int.from_bytes(digest[:16], "big")
    return value % upper


class DeterministicStream:
    """A keyed random stream with common scalar distributions.

    A stream is identified by a ``seed`` plus an arbitrary tuple of context
    key parts.  Every draw additionally takes its own key parts, so draws
    are independent of call order::

        stream = DeterministicStream(42, "trace")
        p = stream.uniform("link", "NYC", "CHI", 1234)
    """

    __slots__ = ("_seed", "_context")

    def __init__(self, seed: int, *context: object) -> None:
        self._seed = int(seed)
        self._context: tuple[object, ...] = tuple(context)

    @property
    def seed(self) -> int:
        """The stream's integer seed."""
        return self._seed

    @property
    def context(self) -> tuple[object, ...]:
        """The stream's context key parts."""
        return self._context

    # -- scalar draws ------------------------------------------------------

    def uniform(self, *key: object) -> float:
        """Uniform in ``[0, 1)``."""
        return hash_uniform(self._seed, *self._context, *key)

    def uniform_between(self, low: float, high: float, *key: object) -> float:
        """Uniform in ``[low, high)``."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high})")
        return low + (high - low) * self.uniform(*key)

    def randint(self, upper: int, *key: object) -> int:
        """Integer uniform in ``[0, upper)``."""
        return hash_randint(upper, self._seed, *self._context, *key)

    def choice(self, options: Sequence[object], *key: object) -> object:
        """Uniform choice among ``options``."""
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        return options[self.randint(len(options), *key)]

    def bernoulli(self, probability: float, *key: object) -> bool:
        """True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability}")
        return self.uniform(*key) < probability

    def exponential(self, mean: float, *key: object) -> float:
        """Exponential with the given mean (inverse-CDF method)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        u = self.uniform(*key)
        # Guard against log(0); u is in [0, 1).
        return -mean * math.log(1.0 - u)

    def lognormal(self, median: float, sigma: float, *key: object) -> float:
        """Log-normal parameterised by its median and log-space sigma."""
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        return median * math.exp(sigma * self.normal(*key))

    def normal(self, *key: object) -> float:
        """Standard normal via Box-Muller on two keyed uniforms."""
        u1 = self.uniform(*key, "bm-u1")
        u2 = self.uniform(*key, "bm-u2")
        # Avoid log(0).
        u1 = max(u1, 1e-300)
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeterministicStream(seed={self._seed}, context={self._context!r})"
