"""Content-addressed disk cache for shard results.

A shard's result is its (flow, scheme) pair's
:class:`~repro.simulation.results.FlowSchemeStats`.  Its payload
(:func:`to_payload`) holds the entry's own ``key``, the ``flow`` as
``[source, destination]``, the ``scheme``, the five accumulated totals,
``decision_changes`` and the ``windows`` as seven-element lists in
:class:`~repro.simulation.results.WindowRecord` field order (empty when
the shard recorded none).

Entries live under ``<root>/<key[:2]>/<key>.json``; the root defaults to
``$REPRO_EXEC_CACHE_DIR`` or ``~/.cache/repro-dgraphs/exec``.  An entry
is the canonical JSON of ``{"payload": <payload>, "sha256": "<hex>"}``,
whose digest is :func:`~repro.util.digest.stable_hash` of the payload:
the SHA-256 of the payload's canonical bytes, which is exactly what the
entry holds between its fixed head and tail.  A load checks that
framing, hashes the payload bytes as stored and parses them only if the
digest matches; any mismatch, decode error or payload that is not an
object of the stored shape discards (and deletes) the entry, so a
corrupted, truncated or non-canonical file is recomputed, never trusted.

Writes go through a temporary file plus ``os.replace`` so a crashed
writer can at worst leave a stale temp file, never a half-written entry
under a valid key.

The cache can be size-capped: pass ``max_bytes`` (or set
``$REPRO_EXEC_CACHE_MAX_BYTES``) and :meth:`ResultCache.enforce_limit`
evicts least-recently-used entries until the cache fits.  Loads bump an
entry's mtime, so recency is tracked by the filesystem itself and
survives across processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.netmodel.topology import FlowSpec
from repro.simulation.results import FlowSchemeStats, WindowRecord
from repro.util.digest import canonical_json
from repro.util.validation import env_cap

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_MAX_BYTES_ENV",
    "CacheInfo",
    "ResultCache",
    "default_cache_dir",
    "default_max_bytes",
    "from_payload",
    "to_payload",
]

CACHE_DIR_ENV = "REPRO_EXEC_CACHE_DIR"
CACHE_MAX_BYTES_ENV = "REPRO_EXEC_CACHE_MAX_BYTES"

# An entry is _HEAD + payload + _TAIL + 64 hex digits + _END, which is
# the canonical JSON of the wrapper ("payload" sorts before "sha256").
_HEAD = b'{"payload":'
_TAIL = b',"sha256":"'
_END = b'"}'
_DIGEST_AT = -len(_END) - 64
_TAIL_AT = _DIGEST_AT - len(_TAIL)


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_EXEC_CACHE_DIR`` or the user cache directory."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-dgraphs" / "exec"


def default_max_bytes() -> int | None:
    """Size cap from ``$REPRO_EXEC_CACHE_MAX_BYTES``; ``None`` = unlimited."""
    return env_cap(CACHE_MAX_BYTES_ENV, None, "byte count")


def to_payload(key: str, stats: FlowSchemeStats) -> dict:
    """The JSON-safe cache payload of one shard's stats, stored under ``key``."""
    return {
        "key": key,
        "flow": [stats.flow.source, stats.flow.destination],
        "scheme": stats.scheme,
        "duration_s": stats.duration_s,
        "unavailable_s": stats.unavailable_s,
        "lost_s": stats.lost_s,
        "late_s": stats.late_s,
        "message_seconds": stats.message_seconds,
        "decision_changes": stats.decision_changes,
        "windows": [
            [
                w.start_s,
                w.end_s,
                w.graph_name,
                w.graph_edges,
                w.on_time_probability,
                w.lost_probability,
                w.late_probability,
            ]
            for w in stats.windows
        ],
    }


def from_payload(payload: Mapping) -> FlowSchemeStats:
    """Rebuild a shard's stats from its cache payload (raises on bad shape)."""
    flow = payload["flow"]
    return FlowSchemeStats(
        flow=FlowSpec(str(flow[0]), str(flow[1])),
        scheme=str(payload["scheme"]),
        duration_s=float(payload["duration_s"]),
        unavailable_s=float(payload["unavailable_s"]),
        lost_s=float(payload["lost_s"]),
        late_s=float(payload["late_s"]),
        message_seconds=float(payload["message_seconds"]),
        decision_changes=int(payload["decision_changes"]),
        windows=[
            WindowRecord(
                float(w[0]),
                float(w[1]),
                str(w[2]),
                int(w[3]),
                float(w[4]),
                float(w[5]),
                float(w[6]),
            )
            for w in payload["windows"]
        ],
    )


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of a cache directory's contents."""

    root: Path
    entries: int
    total_bytes: int


class ResultCache:
    """Load/store shard results by content hash, with corruption detection."""

    def __init__(
        self,
        root: str | Path | None = None,
        max_bytes: int | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self._root = os.fspath(self.root)
        self.max_bytes = max_bytes if max_bytes is not None else default_max_bytes()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.evictions = 0

    def _file(self, key: str) -> str:
        return f"{self._root}/{key[:2]}/{key}.json"

    def _path(self, key: str) -> Path:
        return Path(self._file(key))

    def load(self, key: str) -> FlowSchemeStats | None:
        """The cached stats for ``key``, or ``None`` (miss or corrupt)."""
        path = self._file(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self.misses += 1
            return None
        try:
            if not (
                data.startswith(_HEAD)
                and data.endswith(_END)
                and data[_TAIL_AT:_DIGEST_AT] == _TAIL
            ):
                raise ValueError("not a canonical cache entry")
            body = data[len(_HEAD):_TAIL_AT]
            digest = hashlib.sha256(body).hexdigest().encode()
            if digest != data[_DIGEST_AT:-len(_END)]:
                raise ValueError("payload digest mismatch")
            payload = json.loads(body)
            if not isinstance(payload, dict):
                raise ValueError("payload is not a JSON object")
            if payload.get("key") != key:
                raise ValueError("entry key mismatch")
            stats = from_payload(payload)
        except (ValueError, KeyError, TypeError, IndexError):
            # Corrupted entry: drop it so the recomputed result replaces it.
            self.corrupt += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        try:
            # Bump the mtime: recency for LRU eviction lives in the
            # filesystem, so it is shared across processes for free.
            os.utime(path)
        except OSError:
            pass
        return stats

    def store(self, key: str, stats: FlowSchemeStats) -> None:
        """Persist ``stats`` under ``key`` (atomic replace)."""
        body = canonical_json(to_payload(key, stats)).encode()
        digest = hashlib.sha256(body).hexdigest().encode()
        path = self._file(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(
            dir=directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(_HEAD + body + _TAIL + digest + _END)
                # Flush user and kernel buffers before the rename: a crash
                # mid-write must leave either the old entry or the complete
                # new one, never a torn file under the final name.
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def _entry_paths(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return [
            path
            for path in self.root.glob("*/*.json")
            if not path.name.startswith(".tmp-")
        ]

    def info(self) -> CacheInfo:
        """Entry count and total size of the cache directory."""
        paths = self._entry_paths()
        total = 0
        for path in paths:
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return CacheInfo(root=self.root, entries=len(paths), total_bytes=total)

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-used entries until the cache fits.

        Entries are removed oldest-mtime-first until total size is at or
        under ``max_bytes``; returns how many were evicted.  A cap of 0
        evicts everything.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = []
        total = 0
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= max_bytes:
            return 0
        entries.sort(key=lambda entry: (entry[0], entry[2].name))
        evicted = 0
        for _mtime, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        self.evictions += evicted
        return evicted

    def enforce_limit(self) -> int:
        """Apply the configured size cap, if any; returns evictions."""
        if self.max_bytes is None:
            return 0
        return self.prune(self.max_bytes)
