"""One-call assembly of a complete overlay deployment.

``build_overlay`` wires an :class:`~repro.overlay.kernel.EventKernel`, a
:class:`~repro.overlay.network.SimNetwork` over a condition timeline, one
:class:`~repro.overlay.node.OverlayNode` per site, and -- per flow -- a
routing daemon, a sender, and a receiver.  ``run`` advances the whole
system and returns per-flow reports, giving examples and integration
tests a single entry point to "deploy the system and send traffic".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.graph import NodeId, Topology
from repro.netmodel.conditions import ConditionTimeline
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.overlay.daemon import FlowRoutingDaemon
from repro.overlay.kernel import EventKernel
from repro.overlay.network import SimNetwork
from repro.overlay.node import NodeConfig, OverlayNode
from repro.overlay.transport import FlowReport, ReceivingApp, SendingApp
from repro.routing.base import RoutingPolicy
from repro.routing.registry import make_policy
from repro.util.validation import require

__all__ = ["OverlayHarness", "build_overlay"]


@dataclass
class OverlayHarness:
    """A fully wired overlay: kernel, network, daemons, apps."""

    topology: Topology
    timeline: ConditionTimeline
    kernel: EventKernel
    network: SimNetwork
    nodes: dict[NodeId, OverlayNode]
    daemons: dict[str, FlowRoutingDaemon] = field(default_factory=dict)
    senders: dict[str, SendingApp] = field(default_factory=dict)
    reports: dict[str, FlowReport] = field(default_factory=dict)
    # Chaos attachments, populated lazily by ``run(faults=...)``.  Typed
    # loosely because repro.chaos imports this module.
    injector: object | None = None
    invariants: object | None = None
    # Observability bundle (None = off); shared by kernel, network, nodes.
    obs: object | None = None

    def add_flow(
        self,
        flow: FlowSpec,
        service: ServiceSpec,
        policy: RoutingPolicy | str,
        update_interval_s: float = 0.5,
    ) -> FlowReport:
        """Attach a flow: routing daemon at the source, apps at both ends."""
        require(flow.name not in self.daemons, f"flow {flow.name} already added")
        if isinstance(policy, str):
            policy = make_policy(policy)
        policy.set_observability(self.obs)
        daemon = FlowRoutingDaemon(
            self.nodes[flow.source], flow, service, policy, update_interval_s
        )
        receiver = ReceivingApp(self.nodes[flow.destination], flow, service)
        sender = SendingApp(self.nodes[flow.source], daemon, receiver)
        self.daemons[flow.name] = daemon
        self.senders[flow.name] = sender
        self.reports[flow.name] = receiver.report
        return receiver.report

    def start(self) -> None:
        """Start every daemon and application."""
        for node in self.nodes.values():
            node.start()
        for daemon in self.daemons.values():
            daemon.start()
        for sender in self.senders.values():
            sender.start()

    def run(
        self,
        duration_s: float,
        max_events: int | None = None,
        faults: "object | None" = None,
    ) -> int:
        """Advance the simulation; returns the number of events processed.

        Passing a :class:`~repro.chaos.faults.FaultSchedule` as ``faults``
        installs a chaos injector (fault times are relative to *this*
        call) and an invariant checker, available afterwards as
        ``self.injector`` and ``self.invariants``.  A harness accepts at
        most one schedule over its lifetime.
        """
        if faults is not None:
            # Imported lazily: repro.chaos builds on this module.
            from repro.chaos.injector import ChaosInjector
            from repro.chaos.invariants import InvariantChecker

            require(
                self.injector is None,
                "this harness already has a fault schedule installed",
            )
            self.invariants = InvariantChecker().attach(self, faults)
            if self.obs is not None:
                self.invariants.taps.append(self._on_violation)
            injector = ChaosInjector(self, faults)
            injector.install()
            self.injector = injector
        return self.kernel.run_until(self.kernel.now + duration_s, max_events)

    def _on_violation(self, violation) -> None:
        """Invariant breach: record it and snapshot the flight recorder."""
        obs = self.obs
        obs.metrics.counter("chaos.invariant_violations").inc()
        obs.tracer.instant(
            "invariant.violation",
            "chaos",
            invariant=violation.invariant,
            detail=violation.detail,
        )
        obs.flight.trigger(
            f"invariant {violation.invariant}: {violation.detail}",
            at_s=violation.at_s,
        )

    def flow_health(self, threshold: float = 0.9) -> list[str]:
        """Names of flows below ``threshold`` on-time fraction.

        With observability attached each unhealthy flow also triggers a
        flight-recorder snapshot, preserving the tail of activity that
        led to the degradation.
        """
        fractions = {
            name: report.on_time_fraction
            for name, report in self.reports.items()
        }
        if self.obs is not None:
            return self.obs.check_flow_health(fractions, threshold)
        return sorted(
            name for name, value in fractions.items() if value < threshold
        )

    def stop_traffic(self) -> None:
        """Stop every sending application (daemons keep running)."""
        for sender in self.senders.values():
            sender.stop()

    # -- reporting ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-flow headline numbers for quick inspection."""
        result = {}
        for name, report in self.reports.items():
            result[name] = {
                "sent": report.sent,
                "delivered": report.delivered,
                "on_time": report.on_time,
                "on_time_fraction": report.on_time_fraction,
            }
        return result


def build_overlay(
    topology: Topology,
    timeline: ConditionTimeline,
    flows: Sequence[FlowSpec] = (),
    service: ServiceSpec | None = None,
    scheme: str = "targeted",
    seed: int = 0,
    node_config: NodeConfig = NodeConfig(),
    update_interval_s: float = 0.5,
    obs: object | None = None,
) -> OverlayHarness:
    """Build a whole overlay with one daemon per site and the given flows.

    ``obs`` (an :class:`repro.obs.Observability`) instruments the kernel,
    the network, and every node; its tracer clock is re-pointed at this
    harness's kernel.  ``None`` builds the uninstrumented overlay.
    """
    require(topology.frozen, "harness requires a frozen topology")
    kernel = EventKernel()
    if obs is not None:
        obs.set_clock(lambda: kernel.now)
        kernel.attach_obs(obs)
    network = SimNetwork(topology, timeline, kernel, seed=seed, obs=obs)
    nodes = {
        node_id: OverlayNode(node_id, topology, network, kernel, node_config)
        for node_id in topology.nodes
    }
    harness = OverlayHarness(
        topology, timeline, kernel, network, nodes, obs=obs
    )
    service = service or ServiceSpec()
    for flow in flows:
        harness.add_flow(flow, service, scheme, update_interval_s)
    return harness
