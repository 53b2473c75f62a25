"""Content digests: SHA-256 over canonical JSON.

Sorted keys and compact separators make the encoding deterministic, and
Python's ``repr``-based float serialisation round-trips exactly, so two
values with bitwise-identical contents digest equal.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["canonical_json", "stable_hash"]


def canonical_json(value: object) -> str:
    """Deterministic JSON encoding: sorted keys, compact separators."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def stable_hash(value: object) -> str:
    """Hex SHA-256 of the canonical JSON encoding of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
