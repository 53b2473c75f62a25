"""The lossy, delaying message fabric between overlay daemons.

``SimNetwork`` owns the mapping from the abstract condition timeline to
individual message fates: each transmission on an overlay link is dropped
with the link's current loss rate and otherwise delivered after the
link's current effective latency plus a small keyed jitter.  Drops are
drawn from a :class:`~repro.util.rng.DeterministicStream` keyed by
(edge, message id), so a seeded run is exactly reproducible.

A :class:`ChaosPlane` (see :mod:`repro.chaos.injector`) can be attached
to model faults beyond what the condition timeline expresses: partitions
and blackholes (the edge is administratively blocked), duplication,
reordering delays, and corruption.  While a chaos plane is attached every
message is sealed in a checksummed :class:`~repro.overlay.messages.Frame`
so corrupted copies are *detectably* damaged and dropped by the receiver,
not silently mutated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol

from repro.core.graph import Edge, NodeId, Topology

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.obs is optional)
    from repro.obs import Observability
from repro.netmodel.conditions import ConditionTimeline
from repro.overlay.kernel import EventKernel
from repro.overlay.messages import DataPacket, seal
from repro.util.rng import DeterministicStream
from repro.util.validation import require

__all__ = ["SimNetwork", "MessageSink", "ChaosPlane", "MessageEffects"]


class MessageSink(Protocol):
    """What the network delivers messages to (an overlay node)."""

    def receive(self, from_node: NodeId, message: object) -> None:
        """Handle one delivered message from a neighbouring daemon."""


class MessageEffects:
    """Per-message fault decisions handed back by a chaos plane."""

    __slots__ = ("copies", "extra_delays_ms", "corrupt_copies")

    def __init__(
        self,
        copies: int = 1,
        extra_delays_ms: tuple[float, ...] = (0.0,),
        corrupt_copies: frozenset[int] = frozenset(),
    ) -> None:
        require(copies >= 0, "copies must be >= 0")
        require(
            len(extra_delays_ms) == copies,
            "one extra delay per transmitted copy",
        )
        self.copies = copies
        self.extra_delays_ms = extra_delays_ms
        self.corrupt_copies = corrupt_copies


#: The clean case: one pristine copy, no extra delay.
_CLEAN_EFFECTS = MessageEffects()


class ChaosPlane(Protocol):
    """Fault decisions injected under the message fabric."""

    def blocked(self, edge: Edge) -> bool:
        """Is the directed edge currently blackholed or partitioned away?"""

    def message_effects(self, edge: Edge, message_id: int) -> MessageEffects:
        """Duplication / reordering / corruption applied to one message."""


class SimNetwork:
    """Delivers messages between neighbouring overlay daemons."""

    def __init__(
        self,
        topology: Topology,
        timeline: ConditionTimeline,
        kernel: EventKernel,
        seed: int = 0,
        jitter_ms: float = 0.3,
        obs: "Observability | None" = None,
    ) -> None:
        require(topology.frozen, "network requires a frozen topology")
        self.topology = topology
        self.timeline = timeline
        self.kernel = kernel
        self.seed = seed
        self.jitter_ms = jitter_ms
        self._stream = DeterministicStream(seed, "overlay-net")
        self._sinks: dict[NodeId, MessageSink] = {}
        self._message_counter = 0
        #: Optional fault layer (installed by a chaos injector).
        self.chaos: ChaosPlane | None = None
        #: Observability (None = off; one identity check per send).
        self.obs: "Observability | None" = obs
        # Statistics, per directed edge.
        self.sent: dict[Edge, int] = {}
        self.dropped: dict[Edge, int] = {}
        # Chaos statistics (network-wide).
        self.blackholed = 0
        self.duplicated = 0
        self.corrupted = 0

    def register(self, node_id: NodeId, sink: MessageSink) -> None:
        """Attach the message sink (daemon) for ``node_id``."""
        require(self.topology.has_node(node_id), f"unknown node {node_id!r}")
        require(node_id not in self._sinks, f"node {node_id!r} already registered")
        self._sinks[node_id] = sink

    def send(self, from_node: NodeId, to_node: NodeId, message: object) -> None:
        """Transmit one message on the directed overlay link.

        Sending on a non-existent link is a programming error (daemons
        only talk to neighbours); sending to an unregistered node silently
        drops (models a crashed daemon).
        """
        edge = (from_node, to_node)
        require(
            self.topology.has_edge(*edge),
            f"no overlay link {from_node!r} -> {to_node!r}",
        )
        self._message_counter += 1
        message_id = self._message_counter
        self.sent[edge] = self.sent.get(edge, 0) + 1
        if self.obs is not None:
            self._observe_send(edge, message)
        if self.chaos is not None and self.chaos.blocked(edge):
            self.blackholed += 1
            if self.obs is not None:
                self._observe_loss(edge, message, "hop.blackholed")
            return
        now = self.kernel.now
        state = self.timeline.state_at(edge, min(now, self.timeline.duration_s))
        if state.loss_rate > 0.0 and self._stream.bernoulli(
            state.loss_rate, "drop", edge, message_id
        ):
            self.dropped[edge] = self.dropped.get(edge, 0) + 1
            if self.obs is not None:
                self._observe_loss(edge, message, "hop.drop")
            return
        latency_ms = self.topology.latency(*edge) + state.extra_latency_ms
        if self.jitter_ms > 0.0:
            latency_ms += self.jitter_ms * self._stream.uniform(
                "jitter", edge, message_id
            )
        sink = self._sinks.get(to_node)
        if sink is None:
            if self.obs is not None:
                self._observe_loss(edge, message, "hop.to_crashed")
            return
        if self.obs is not None:
            self._observe_hop(edge, message, latency_ms)
        if self.chaos is None:
            deliver: Callable[[], None] = lambda: sink.receive(from_node, message)
            self.kernel.schedule(latency_ms / 1000.0, deliver)
            return
        self._deliver_with_effects(
            sink, from_node, edge, message, message_id, latency_ms
        )

    def _deliver_with_effects(
        self,
        sink: MessageSink,
        from_node: NodeId,
        edge: Edge,
        message: object,
        message_id: int,
        latency_ms: float,
    ) -> None:
        """Chaos path: seal the message and apply per-copy fault effects."""
        assert self.chaos is not None
        effects = self.chaos.message_effects(edge, message_id)
        if effects.copies == 0:
            return
        self.duplicated += effects.copies - 1
        frame = seal(message)
        for copy in range(effects.copies):
            delivered = frame
            if copy in effects.corrupt_copies:
                self.corrupted += 1
                delivered = frame.corrupted()
            delay_ms = latency_ms + max(0.0, effects.extra_delays_ms[copy])
            self.kernel.schedule(
                delay_ms / 1000.0,
                lambda f=delivered: sink.receive(from_node, f),
            )

    # -- observability -----------------------------------------------------------
    #
    # Per-link counters mirror the ``sent``/``dropped`` dicts exactly (a
    # test holds them to bitwise agreement), and each data-packet hop
    # becomes a span linked to its packet's journey span, which is what
    # lets a trace answer "which link delayed which packet".

    @staticmethod
    def _edge_label(edge: Edge) -> str:
        return f"{edge[0]}->{edge[1]}"

    def _observe_send(self, edge: Edge, message: object) -> None:
        metrics = self.obs.metrics
        metrics.counter(f"net.sent.{self._edge_label(edge)}").inc()
        metrics.counter(f"net.kind.{type(message).__name__}").inc()

    def _observe_loss(self, edge: Edge, message: object, reason: str) -> None:
        label = self._edge_label(edge)
        if reason == "hop.drop":
            self.obs.metrics.counter(f"net.dropped.{label}").inc()
        else:
            self.obs.metrics.counter(f"net.lost.{reason}").inc()
        if isinstance(message, DataPacket):
            self.obs.tracer.instant(
                reason,
                "net",
                parent_id=self.obs.tracer.parent_id(
                    ("pkt", message.flow, message.sequence)
                ),
                edge=label,
                flow=message.flow,
                seq=message.sequence,
            )

    def _observe_hop(self, edge: Edge, message: object, latency_ms: float) -> None:
        if not isinstance(message, DataPacket):
            return
        now = self.kernel.now
        self.obs.tracer.complete(
            "hop",
            "net",
            now,
            now + latency_ms / 1000.0,
            parent_id=self.obs.tracer.parent_id(
                ("pkt", message.flow, message.sequence)
            ),
            edge=self._edge_label(edge),
            flow=message.flow,
            seq=message.sequence,
            latency_ms=latency_ms,
        )

    # -- stats -------------------------------------------------------------------

    def total_sent(self) -> int:
        """Total messages transmitted on all links."""
        return sum(self.sent.values())

    def total_dropped(self) -> int:
        """Total messages dropped by lossy links."""
        return sum(self.dropped.values())
