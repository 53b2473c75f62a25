"""Family registry and the single topology-resolution path.

Every subsystem that needs "a topology plus its flow table" -- the CLI's
``evaluate``/``chaos``/``generate-trace``, the serve daemon, the
benchmarks -- resolves it here, so unknown names fail with the same
one-line error everywhere and the paper's 12-site reference overlay is
just one more name (``"reference"``) rather than a hard-coded default
scattered across call sites.

``resolve_workload`` memoises per ``(family, size, seed)``:
topologies are frozen and flow tuples immutable, so sharing one built
instance across requests is safe, and the exec layer's content-addressed
context key (which fingerprints the full node/link set) keeps shard
caches and the serve warm-context LRU exact without any extra keying.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from repro.core.graph import Topology
from repro.netmodel.topology import FlowSpec, build_reference_topology, reference_flows
from repro.topogen.artifact import GeneratedTopology
from repro.topogen.generators import (
    build_continental,
    build_isp_hierarchy,
    build_random_geometric,
    build_waxman,
)
from repro.util.validation import require

__all__ = [
    "FamilyInfo",
    "REFERENCE_NAME",
    "Workload",
    "coast_to_coast_flows",
    "family_info",
    "family_names",
    "generate_topology",
    "resolve_workload",
    "topology_names",
]

#: The paper's 12-site overlay, addressable through the same registry.
REFERENCE_NAME = "reference"

#: Flows in a generated topology's workload -- fewer on an overlay with
#: fewer east-to-west pairs (the reference overlay keeps its 16 measured
#: flows).
DEFAULT_FLOW_COUNT = 8


@dataclass(frozen=True)
class FamilyInfo:
    """One generator family: name, size envelope, constructor."""

    name: str
    min_size: int
    max_size: int
    build: Callable[[int, int], GeneratedTopology]
    summary: str


_FAMILIES: dict[str, FamilyInfo] = {
    info.name: info
    for info in (
        FamilyInfo(
            "random-geo",
            8,
            1000,
            build_random_geometric,
            "uniform sites, links within a degree-calibrated radius",
        ),
        FamilyInfo(
            "waxman",
            8,
            1000,
            build_waxman,
            "link probability decays with distance (calibrated alpha)",
        ),
        FamilyInfo(
            "isp-hier",
            16,
            1000,
            build_isp_hierarchy,
            "core/region/edge tiers with realistic degree distribution",
        ),
        FamilyInfo(
            "continental",
            4,
            48,
            build_continental,
            "three nearest neighbours per site (250 km site separation)",
        ),
    )
}


def family_names() -> tuple[str, ...]:
    """Registered generator families, sorted."""
    return tuple(sorted(_FAMILIES))


def topology_names() -> tuple[str, ...]:
    """Every resolvable topology name: the reference plus the families."""
    return (REFERENCE_NAME,) + family_names()


def family_info(family: str) -> FamilyInfo:
    """Registry entry for ``family`` (one-line error on unknown names)."""
    require(
        family in _FAMILIES,
        f"unknown topology family {family!r}; "
        f"known: {', '.join(topology_names())}",
    )
    return _FAMILIES[family]


@functools.lru_cache(maxsize=16)
def generate_topology(family: str, size: int, seed: int) -> GeneratedTopology:
    """Generate (and memoise) the artifact for one ``(family, size, seed)``."""
    info = family_info(family)
    require(
        info.min_size <= size <= info.max_size,
        f"family {family!r} supports sizes "
        f"{info.min_size}..{info.max_size}, got {size}",
    )
    return info.build(size, seed)


@dataclass(frozen=True)
class Workload:
    """A resolved topology plus its default flow table."""

    topology: Topology
    flows: tuple[FlowSpec, ...]
    generated: GeneratedTopology | None  # None for the reference overlay

    @property
    def label(self) -> str:
        return self.topology.name

    def select_flows(
        self,
        names: tuple[str, ...] | None,
        default: tuple[FlowSpec, ...] | None = None,
    ) -> list[FlowSpec]:
        """Resolve flow names against this workload's table (one-line error)."""
        if names is None:
            return list(default if default is not None else self.flows)
        by_name = {flow.name: flow for flow in self.flows}
        unknown = sorted(set(names) - set(by_name))
        require(
            not unknown,
            f"unknown flow(s) {', '.join(unknown)} for topology "
            f"{self.topology.name}; known: {', '.join(sorted(by_name))}",
        )
        return [by_name[name] for name in names]


def coast_to_coast_flows(topology: Topology, count: int) -> tuple[FlowSpec, ...]:
    """East-to-west flows between the extreme sites of a topology.

    Picks the ``count/2``-ish eastern-most sources and western-most
    destinations by longitude and pairs them round-robin.
    """
    require(count >= 1, "count must be >= 1")
    by_longitude = sorted(
        topology.nodes, key=lambda node: topology.node_attributes(node)["lon"]
    )
    half = max(1, min(len(by_longitude) // 2, (count + 1) // 2))
    west = by_longitude[:half]
    east = by_longitude[-half:]
    flows = []
    index = 0
    while len(flows) < count and index < count * 4:
        source = east[index % len(east)]
        destination = west[(index // len(east)) % len(west)]
        index += 1
        if source == destination:
            continue
        flow = FlowSpec(source, destination)
        if flow not in flows:
            flows.append(flow)
    return tuple(flows[:count])


@functools.lru_cache(maxsize=16)
def _resolved(family: str | None, size: int | None, seed: int) -> Workload:
    if family is None:
        return Workload(
            topology=build_reference_topology(),
            flows=tuple(reference_flows()),
            generated=None,
        )
    assert size is not None
    generated = generate_topology(family, size, seed)
    topology = generated.topology()
    return Workload(
        topology=topology,
        flows=coast_to_coast_flows(topology, DEFAULT_FLOW_COUNT),
        generated=generated,
    )


def resolve_workload(
    family: str | None = None,
    size: int | None = None,
    seed: int | None = None,
) -> Workload:
    """The one resolution path from CLI/serve knobs to (topology, flows).

    ``family=None`` (or ``"reference"``) selects the paper's reference
    overlay; size/seed must then be omitted.  A generator family needs
    an explicit size; the seed defaults to 0.  All failures are one-line
    :class:`ValueError`\\ s naming the known alternatives.
    """
    if family in (None, REFERENCE_NAME):
        require(
            size is None and seed is None,
            "topology size/seed apply only to generator families; "
            f"the {REFERENCE_NAME!r} topology is fixed",
        )
        return _resolved(None, None, 0)
    assert family is not None
    family_info(family)  # unknown names fail before size checks
    require(
        size is not None,
        f"topology family {family!r} needs an explicit size "
        f"(--topology-size)",
    )
    assert size is not None
    return _resolved(family, size, 0 if seed is None else seed)
