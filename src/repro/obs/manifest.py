"""The per-run manifest: everything needed to identify and compare runs.

A manifest captures what was run (seed, schemes, flows, topology
fingerprint), how it executed (execution-engine telemetry, including
cache hits), and what was measured (the metrics registry's summaries).
It is the machine-readable counterpart of the printed tables -- the
bench suite writes one next to every ``BENCH_<exp>.json`` and the CLI
writes one per traced run, so performance trajectories can be compared
across commits without scraping stdout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.core.graph import Topology
from repro.util.validation import require

__all__ = [
    "MANIFEST_VERSION",
    "RunManifest",
    "topology_fingerprint",
    "read_manifest",
]

MANIFEST_VERSION = 1


def topology_fingerprint(topology: Topology) -> str:
    """Short stable digest of a topology's nodes, links, and attributes.

    The first 16 hex characters of :attr:`Topology.digest`, the digest
    the replay cache keys are built from.
    """
    return topology.digest[:16]


@dataclass
class RunManifest:
    """Identity + execution + measurement record of one run."""

    label: str
    seed: int | None = None
    schemes: tuple[str, ...] = ()
    flows: tuple[str, ...] = ()
    topology: str | None = None  # fingerprint (see topology_fingerprint)
    duration_s: float | None = None
    exec: dict | None = None  # ExecTelemetry.to_dict(), cache hits included
    metrics: dict = field(default_factory=dict)  # MetricsRegistry.summarize()
    spans: dict = field(default_factory=dict)  # {"recorded": n, "dropped": n}
    flight: dict = field(default_factory=dict)  # {"triggers": n}
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-safe form (what ``manifest.json`` holds)."""
        return {
            "manifest_version": MANIFEST_VERSION,
            "label": self.label,
            "seed": self.seed,
            "schemes": list(self.schemes),
            "flows": list(self.flows),
            "topology": self.topology,
            "duration_s": self.duration_s,
            "exec": self.exec,
            "metrics": self.metrics,
            "spans": self.spans,
            "flight": self.flight,
            "extra": self.extra,
        }

    def write(self, path: str | Path) -> Path:
        """Write the manifest as pretty-printed JSON."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))
        return path

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunManifest":
        """Rebuild a manifest from its JSON form (raises on bad shape)."""
        require(
            int(payload.get("manifest_version", -1)) == MANIFEST_VERSION,
            f"unsupported manifest version {payload.get('manifest_version')!r}",
        )
        return cls(
            label=str(payload["label"]),
            seed=payload.get("seed"),
            schemes=tuple(payload.get("schemes") or ()),
            flows=tuple(payload.get("flows") or ()),
            topology=payload.get("topology"),
            duration_s=payload.get("duration_s"),
            exec=payload.get("exec"),
            metrics=dict(payload.get("metrics") or {}),
            spans=dict(payload.get("spans") or {}),
            flight=dict(payload.get("flight") or {}),
            extra=dict(payload.get("extra") or {}),
        )


def read_manifest(path: str | Path) -> RunManifest:
    """Load ``manifest.json`` (one-line ValueError on anything malformed)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not a JSON manifest ({error})") from error
    require(isinstance(payload, dict), f"{path}: not a JSON object")
    try:
        return RunManifest.from_dict(payload)
    except KeyError as error:
        raise ValueError(f"{path}: manifest is missing {error}") from error
