"""The reference overlay topology, flows, and service specification.

The paper evaluates on a 12-node commercial overlay spanning the
continental US plus trans-Atlantic sites, with 16 transcontinental flows
**[R: exact sites reconstructed]**.  We model 10 North-American sites and
two European ones, ~22 bidirectional overlay links, and the 16 flows from
the four eastern sites to the four western ones.  Link latencies come from
:func:`repro.netmodel.geo.fiber_latency_ms` applied to real city
coordinates, giving the ~30-35 ms one-way coast-to-coast structure the
130 ms round-trip budget (claim C1) is built around.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.graph import NodeId, Topology
from repro.netmodel.geo import fiber_latency_ms
from repro.util.validation import require, require_positive

__all__ = [
    "SITES",
    "OVERLAY_LINKS",
    "EAST_SITES",
    "WEST_SITES",
    "FlowSpec",
    "ServiceSpec",
    "build_reference_topology",
    "reference_flows",
]

# Site id -> (latitude, longitude).
SITES: dict[str, tuple[float, float]] = {
    "NYC": (40.71, -74.01),  # New York
    "JHU": (39.30, -76.61),  # Baltimore (Johns Hopkins)
    "WAS": (38.90, -77.04),  # Washington, DC
    "ATL": (33.75, -84.39),  # Atlanta
    "CHI": (41.88, -87.63),  # Chicago
    "DFW": (32.78, -96.80),  # Dallas
    "DEN": (39.74, -104.99),  # Denver
    "LAX": (34.05, -118.24),  # Los Angeles
    "SJC": (37.34, -121.89),  # San Jose
    "SEA": (47.61, -122.33),  # Seattle
    "LON": (51.51, -0.13),  # London
    "FRA": (50.11, 8.68),  # Frankfurt
}

# Bidirectional overlay links (order within a pair is not significant).
OVERLAY_LINKS: tuple[tuple[str, str], ...] = (
    ("NYC", "JHU"),
    ("NYC", "WAS"),
    ("NYC", "CHI"),
    ("NYC", "LON"),
    ("NYC", "FRA"),
    ("JHU", "WAS"),
    ("JHU", "CHI"),
    ("WAS", "ATL"),
    ("WAS", "LON"),
    ("ATL", "DFW"),
    ("ATL", "LAX"),
    ("CHI", "DEN"),
    ("CHI", "DFW"),
    ("CHI", "SEA"),
    ("DFW", "DEN"),
    ("DFW", "LAX"),
    ("DEN", "SJC"),
    ("DEN", "LAX"),
    ("DEN", "SEA"),
    ("SJC", "LAX"),
    ("SJC", "SEA"),
    ("LON", "FRA"),
)

# The 16 transcontinental flows: every eastern site to every western site.
EAST_SITES: tuple[str, ...] = ("NYC", "JHU", "WAS", "ATL")
WEST_SITES: tuple[str, ...] = ("DEN", "LAX", "SJC", "SEA")


@dataclass(frozen=True)
class FlowSpec:
    """One unidirectional application flow between overlay sites."""

    source: NodeId
    destination: NodeId

    def __post_init__(self) -> None:
        require(self.source != self.destination, "flow endpoints must differ")

    @property
    def name(self) -> str:
        """Canonical flow name, e.g. ``"NYC->SJC"``."""
        return f"{self.source}->{self.destination}"


@dataclass(frozen=True)
class ServiceSpec:
    """The timeliness/reliability service the transport must provide.

    Defaults follow the paper's motivating application (remote robotic
    surgery): 130 ms round trip across the US, i.e. a 65 ms one-way
    delivery deadline, with a packet sent every 10 ms per flow.
    """

    deadline_ms: float = 65.0
    send_interval_ms: float = 10.0
    rtt_budget_ms: float = 130.0

    def __post_init__(self) -> None:
        require_positive(self.deadline_ms, "deadline_ms")
        require_positive(self.send_interval_ms, "send_interval_ms")
        require_positive(self.rtt_budget_ms, "rtt_budget_ms")
        require(
            self.deadline_ms <= self.rtt_budget_ms,
            "one-way deadline cannot exceed the round-trip budget",
        )

    @property
    def packets_per_second(self) -> float:
        """Sending rate implied by the send interval."""
        return 1000.0 / self.send_interval_ms


def build_reference_topology(name: str = "reference-overlay") -> Topology:
    """Build and freeze the 12-node reference overlay."""
    topology = Topology(name=name)
    for site, (lat, lon) in SITES.items():
        topology.add_node(site, lat=lat, lon=lon)
    for a, b in OVERLAY_LINKS:
        lat_a, lon_a = SITES[a]
        lat_b, lon_b = SITES[b]
        topology.add_link(a, b, fiber_latency_ms(lat_a, lon_a, lat_b, lon_b))
    topology.freeze()
    topology.validate()
    return topology


def reference_flows() -> tuple[FlowSpec, ...]:
    """The 16 transcontinental flows (east -> west)."""
    return tuple(
        FlowSpec(east, west) for east in EAST_SITES for west in WEST_SITES
    )
