"""Stable content hashing for cache keys.

A shard's cache key must change whenever anything that could change its
output changes: the topology (nodes, link latencies/costs), the compiled
condition timeline, the flow, the scheme, the service spec, the replay
config -- and the code itself.  The code component is a digest over
every ``.py`` file of the installed ``repro`` package, so editing any
engine module invalidates prior results rather than serving stale ones.

Hashes are built from canonical JSON (sorted keys, no whitespace; see
:mod:`repro.util.digest`).  Python's ``repr``-based float serialisation
round-trips exactly, so two runs with bitwise-identical inputs produce
identical keys.
"""

from __future__ import annotations

import functools
import hashlib
import os
from pathlib import Path

from repro.core.graph import Topology
from repro.exec.plan import ShardSpec
from repro.netmodel.conditions import ConditionTimeline
from repro.netmodel.topology import ServiceSpec
from repro.simulation import kernel
from repro.simulation.results import ReplayConfig
from repro.util.digest import canonical_json, stable_hash

__all__ = [
    "CODE_VERSION_ENV",
    "canonical_json",
    "stable_hash",
    "code_fingerprint",
    "context_key",
    "shard_key",
]

#: Override the computed code fingerprint (used by tests to pin keys).
CODE_VERSION_ENV = "REPRO_EXEC_CODE_VERSION"


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of every source file of the installed ``repro`` package."""
    override = os.environ.get(CODE_VERSION_ENV)
    if override:
        return override
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def context_key(
    topology: Topology,
    timeline: ConditionTimeline,
    service: ServiceSpec,
    config: ReplayConfig,
) -> str:
    """Key of everything shards of one replay share.

    The key is built afresh on every call: the code fingerprint, the
    kernel backend, the service and the config are not properties of the
    timeline.  What is cached is the two content digests, each on its own
    object: a frozen topology and a timeline each compute theirs once
    (:attr:`Topology.digest`, :attr:`ConditionTimeline.digest`), so many
    engine calls on one timeline pay for one timeline digest.  Digests
    follow content, not identity: a separately generated but equal
    timeline keys equal.
    """
    return stable_hash(
        {
            "code": code_fingerprint(),
            # The two kernel backends agree only up to float reassociation,
            # so their shard payloads must never share disk-cache entries.
            "kernel": kernel.active_backend(),
            "topology": topology.digest,
            "timeline": timeline.digest,
            "service": {
                "deadline_ms": service.deadline_ms,
                "send_interval_ms": service.send_interval_ms,
                "rtt_budget_ms": service.rtt_budget_ms,
            },
            "config": {
                "detection_delay_s": config.detection_delay_s,
                "max_lossy_edges": config.max_lossy_edges,
                "collect_windows": config.collect_windows,
                "hop_recovery": config.hop_recovery,
                "recovery_extra_ms": config.recovery_extra_ms,
                "max_recovery_lossy_edges": config.max_recovery_lossy_edges,
            },
        }
    )


def shard_key(context: str, shard: ShardSpec) -> str:
    """Content-addressed key of one shard's pair within a replay context."""
    return stable_hash(
        {
            "context": context,
            "flow": [shard.flow.source, shard.flow.destination],
            "scheme": shard.scheme,
        }
    )
