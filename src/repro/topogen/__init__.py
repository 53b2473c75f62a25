"""Seeded, byte-reproducible overlay topology generation at scale.

The paper evaluates a 12-site commercial overlay; the scaling work needs
meshes two orders of magnitude larger.  This package generates them:

* :mod:`repro.topogen.generators` -- the family constructors
  (random-geometric, Waxman, ISP-like hierarchical tiers, and the
  nearest-neighbour continental family), all placing sites
  geographically, deriving link latency from great-circle distance via
  :mod:`repro.netmodel.geo`, and sharing one biconnectivity patcher;
* :mod:`repro.topogen.artifact` -- :class:`GeneratedTopology`, the
  canonical JSON description + content digest of one generated
  topology (the :class:`~repro.scenarios.families.CompiledScenario`
  pattern applied to topologies);
* :mod:`repro.topogen.registry` -- the family registry with one-line
  unknown-name errors, :func:`resolve_workload`, the single
  topology-resolution path shared by ``evaluate``/``chaos``/``serve``
  (``"reference"`` selects the paper's 12-site overlay), and
  :func:`coast_to_coast_flows`, the flow rule of generated overlays.

Reproducibility contract: ``(family, size, seed)`` fully determines the
artifact, byte for byte, across processes and platforms -- every random
draw is a keyed SHA-256 stream (:class:`repro.util.rng.DeterministicStream`)
and every iteration order is sorted.  The content digest is the identity
the exec shard cache and the serve warm-context LRU key on (via the full
topology fingerprint inside the exec context key), so two requests for
the same triple share caches and two different triples never collide.
"""

from repro.topogen.artifact import ARTIFACT_VERSION, GeneratedTopology
from repro.topogen.registry import (
    REFERENCE_NAME,
    Workload,
    coast_to_coast_flows,
    family_names,
    generate_topology,
    resolve_workload,
    topology_names,
)

__all__ = [
    "ARTIFACT_VERSION",
    "GeneratedTopology",
    "REFERENCE_NAME",
    "Workload",
    "coast_to_coast_flows",
    "family_names",
    "generate_topology",
    "resolve_workload",
    "topology_names",
]
