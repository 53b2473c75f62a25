"""Exact on-time delivery probability for a dissemination graph.

Within a constant-conditions window, each edge of a graph independently
delivers a given packet copy with probability ``1 - loss``.  The packet is
delivered on time iff the surviving subgraph contains a source->destination
path whose latency (current effective latencies) is within the deadline.

The computation conditions on the *uncertain* edges only: edges with zero
loss always survive, edges with 100% loss never do, and the remaining
``L`` lossy edges span ``radix^L`` cases: ``2^L`` plain, ``3^L`` with
hop recovery, one classifier and one accumulation for both radices.
At most two Dijkstra runs (every lossy edge absent, every one present)
decide most windows outright; otherwise one label-setting pass per
chunk of 4096 cases finds every case's earliest arrival at once,
carrying a set of cases per label (:func:`_classify_cases`).  Real
problem episodes degrade a handful of links, so ``L`` stays small; a
hard cap on the enumerated windows, checked after the fast paths,
protects against pathological inputs.

The one classifier body, :func:`classify_indexed`, reads a graph
relabelled once (:func:`index_graph`) plus per-slot latency and loss
arrays.  The callback entry points index the graph and read each
callback once per edge; the replay's memo keeps one index per graph
and passes its arrays directly.

``delivery_probabilities`` returns both the on-time probability and the
delivered-eventually probability, which the result layer splits into
*lost* (never delivered) versus *late* (delivered past the deadline).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.dgraph import DisseminationGraph
from repro.core.graph import Edge
from repro.simulation import kernel
from repro.util.validation import fail

__all__ = [
    "Classification",
    "DeliveryProbabilities",
    "IndexedGraph",
    "ReliabilityLimitError",
    "accumulate_probabilities",
    "classify_delivery_masks",
    "classify_indexed",
    "classify_recovery_states",
    "delivery_probabilities",
    "delivery_probabilities_indexed",
    "delivery_probabilities_with_recovery",
    "index_graph",
    "on_time_path",
    "on_time_probability",
]

_INF = float("inf")

#: Maximum number of uncertain edges classified exactly.  The cap bounds
#: the ``2^L``-byte class table (1 MiB at 20) and the time to classify
#: and accumulate it; the vector accumulation streams the cases one
#: chunk at a time, so its memory does not grow with ``L``.  Anything
#: beyond signals a scenario far denser than real traces and is
#: rejected loudly.
MAX_EXACT_LOSSY_EDGES = 20
#: The hop-recovery engine's cap: its ``3^L`` class table and
#: classification time grow faster, so it stops at ``3^11`` (177,147)
#: cases.
MAX_RECOVERY_LOSSY_EDGES = 11

#: ``'0'``/``'1'`` digits of a bitset's binary form -> 0/1 case bytes.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class ReliabilityLimitError(RuntimeError):
    """Too many simultaneously lossy edges for exact enumeration."""


@dataclass(frozen=True)
class DeliveryProbabilities:
    """Per-packet delivery probabilities during one constant window."""

    on_time: float
    eventually: float

    def __post_init__(self) -> None:
        if not (-1e-9 <= self.on_time <= self.eventually + 1e-9):
            fail(
                f"inconsistent probabilities: on_time={self.on_time}, "
                f"eventually={self.eventually}"
            )

    @property
    def late(self) -> float:
        """Delivered, but past the deadline."""
        return max(0.0, self.eventually - self.on_time)

    @property
    def lost(self) -> float:
        """Never delivered at all."""
        return max(0.0, 1.0 - self.eventually)



@dataclass(frozen=True)
class Classification:
    """The loss-value-independent core of both exact engines.

    Which enumeration cases arrive on time / at all depends only on the
    graph structure, the effective latencies and *which* edges are lossy
    (or dead) -- never on the fractional loss values themselves, which
    only weight the cases.  Splitting the computation lets the replay
    engine reuse one classification across every window that differs
    only in loss rates (the dominant kind of condition change in real
    traces), skipping the classification of all ``radix^L`` cases.

    ``certain`` short-circuits the fast paths whose outcome is decided
    regardless of the lossy edges' loss values; otherwise ``classes[c]``
    holds the outcome code (0 lost, 1 late, 2 on time) of enumeration
    case ``c``, whose base-``radix`` digit ``p`` (least significant
    first) is the state of lossy edge ``lossy_slots[p]``: 0 absent, 1
    survives (radix 2); 0 fast, 1 recovered (slow copy), 2 dead (radix
    3, hop recovery).
    """

    certain: DeliveryProbabilities | None
    radix: int = 2
    lossy_slots: tuple[int, ...] = ()
    classes: bytes | memoryview = b""


@dataclass(frozen=True)
class IndexedGraph:
    """A graph compiled for the classifier: the one rank relabelling.

    Nodes are relabelled to their rank in sorted-name order; edges keep
    their :meth:`DisseminationGraph.sorted_edges` position as a *slot*
    into per-slot latency/loss arrays.  ``structure`` is the ranked edge
    list (in slot order) plus the ranked endpoints; ``adjacency[node]``
    lists the node's ``(neighbor, slot)`` out-arcs in slot order.

    Because the relabelling is monotone in node-name order, every
    Dijkstra and label pass over it performs the very same float
    operations in the very same order as the historical name-keyed
    dictionaries did (edge iteration order and heap tie-breaks both
    follow the sort order).  The same monotonicity makes ``structure``
    a bitwise-safe canonical key: the replay's probability memo keys on
    it and keeps one index per graph for the classifier.
    """

    edges: tuple[Edge, ...]
    structure: tuple[tuple[tuple[int, int], ...], int, int]
    adjacency: tuple[tuple[tuple[int, int], ...], ...]


def index_graph(graph: DisseminationGraph) -> IndexedGraph:
    """Relabel ``graph`` for the classifier (see :class:`IndexedGraph`)."""
    edges = graph.sorted_edges()
    rank = {node: position for position, node in enumerate(sorted(graph.nodes))}
    arcs = tuple((rank[u], rank[v]) for u, v in edges)
    adjacency: list[list[tuple[int, int]]] = [[] for _ in rank]
    for slot, (u, v) in enumerate(arcs):
        adjacency[u].append((v, slot))
    return IndexedGraph(
        edges=edges,
        structure=(arcs, rank[graph.source], rank[graph.destination]),
        adjacency=tuple(tuple(out_arcs) for out_arcs in adjacency),
    )


def _read_callbacks(
    graph: DisseminationGraph,
    latency_of: Callable[[Edge], float],
    loss_of: Callable[[Edge], float],
) -> tuple[IndexedGraph, list[float], list[float]]:
    """Index ``graph`` and read each edge's loss and latency once.

    Each callback is invoked exactly once per edge, loss first, in slot
    order; the classifier then works on the stored values only (a
    non-pure callable read twice could silently diverge).
    """
    indexed = index_graph(graph)
    latencies: list[float] = []
    losses: list[float] = []
    for edge in indexed.edges:
        losses.append(loss_of(edge))
        latencies.append(latency_of(edge))
    return indexed, latencies, losses


def classify_delivery_masks(
    graph: DisseminationGraph,
    deadline_ms: float,
    latency_of: Callable[[Edge], float],
    loss_of: Callable[[Edge], float],
    max_lossy_edges: int = MAX_EXACT_LOSSY_EDGES,
) -> tuple[Classification, list[float]]:
    """Classify every lossy-edge enumeration case of ``graph`` (radix 2).

    Returns the classification plus the loss values read for the lossy
    slots (in slot order), so :func:`accumulate_probabilities` can
    finish the computation without consulting ``loss_of`` again.
    """
    indexed, latencies, losses = _read_callbacks(graph, latency_of, loss_of)
    return classify_indexed(
        indexed, deadline_ms, latencies, losses, max_lossy_edges
    )


def classify_recovery_states(
    graph: DisseminationGraph,
    deadline_ms: float,
    latency_of: Callable[[Edge], float],
    loss_of: Callable[[Edge], float],
    recovery_latency_of: Callable[[Edge], float],
    max_lossy_edges: int = MAX_RECOVERY_LOSSY_EDGES,
) -> tuple[Classification, list[float]]:
    """Classify every ternary recovery state of ``graph`` (radix 3).

    Returns the classification plus the lossy slots' loss values (in
    slot order) so :func:`accumulate_probabilities` can finish without
    consulting ``loss_of`` again.
    """
    indexed, latencies, losses = _read_callbacks(graph, latency_of, loss_of)
    recovery = [recovery_latency_of(edge) for edge in indexed.edges]
    return classify_indexed(
        indexed, deadline_ms, latencies, losses, max_lossy_edges, recovery
    )


def classify_indexed(
    indexed: IndexedGraph,
    deadline_ms: float,
    latencies: Sequence[float],
    losses: Sequence[float],
    max_lossy_edges: int,
    recovery_latencies: Sequence[float] | None = None,
) -> tuple[Classification, list[float]]:
    """The one classifier body; ``recovery_latencies`` selects radix 3.

    ``latencies``, ``losses`` and ``recovery_latencies`` are per-slot
    arrays aligned with ``indexed.edges``: each edge's effective
    latency, loss rate and (radix 3) the total latency of a recovered
    copy.  Returns the classification plus the lossy slots' loss values
    in slot order.  The callback entry points above read their
    callbacks into these arrays; the replay's probability memo passes
    its canonical entry's index and its per-window arrays directly.

    The fast paths run before the lossy-edge cap, so a window they
    decide gets its exact answer however many lossy edges it has; only
    a window whose cases must be enumerated can raise
    :class:`ReliabilityLimitError`.
    """
    if not (deadline_ms > 0):
        fail(f"deadline must be positive, got {deadline_ms}")
    radix = 2 if recovery_latencies is None else 3
    edges = indexed.edges
    present: list[bool] = []
    lossy_slots: list[int] = []
    lossy_losses: list[float] = []
    for slot, loss in enumerate(losses):
        if not (0.0 <= loss <= 1.0):
            fail(f"loss out of range on {edges[slot]!r}: {loss}")
        latency = latencies[slot]
        if not (latency >= 0.0):
            fail(f"negative latency on {edges[slot]!r}: {latency}")
        # Certain edges: zero loss always survives, total loss never does
        # (with hop recovery even the retransmission is lost);
        # fractional-loss slots are toggled from case to case.
        present.append(loss <= 0.0)
        if 0.0 < loss < 1.0:
            lossy_slots.append(slot)
            lossy_losses.append(loss)

    def certain(on_time: float, eventually: float):
        probabilities = DeliveryProbabilities(on_time, eventually)
        return Classification(certain=probabilities, radix=radix), lossy_losses

    _arcs, source, destination = indexed.structure
    adjacency = indexed.adjacency

    # Fast path: all certain edges surviving already decides both outcomes.
    baseline = _earliest_arrival_indexed(
        source, destination, adjacency, latencies, present
    )
    if baseline <= deadline_ms:
        return certain(1.0, 1.0)
    if not lossy_slots:
        # Past the fast-path return above, ``baseline > deadline_ms``
        # always holds: the certain subgraph delivers late or never.
        return certain(0.0, 1.0 if baseline < _INF else 0.0)
    if recovery_latencies is None:
        # Fast path the other way: even with every lossy edge surviving
        # the packet cannot arrive (e.g. deadline impossible).
        for slot in lossy_slots:
            present[slot] = True
        best_case = _earliest_arrival_indexed(
            source, destination, adjacency, latencies, present
        )
        if not best_case < _INF:
            return certain(0.0, 0.0)

    if len(lossy_slots) > max_lossy_edges:
        raise ReliabilityLimitError(
            f"{len(lossy_slots)} lossy edges exceed the exact-enumeration cap "
            f"({max_lossy_edges}) of the {radix}^L cases"
        )
    # Per lossy edge, its latency in each digit state (``None`` = absent).
    if recovery_latencies is None:
        state_latencies = [(None, latencies[slot]) for slot in lossy_slots]
    else:
        state_latencies = []
        for slot in lossy_slots:
            slow = recovery_latencies[slot]
            if not (slow >= 0.0):
                fail(f"negative recovery latency on {edges[slot]!r}: {slow}")
            state_latencies.append((latencies[slot], slow, None))
    classes = _classify_cases(
        source,
        destination,
        adjacency,
        latencies,
        present,
        lossy_slots,
        state_latencies,
        radix,
        deadline_ms,
    )
    classification = Classification(
        certain=None,
        radix=radix,
        lossy_slots=tuple(lossy_slots),
        classes=classes,
    )
    return classification, lossy_losses


def accumulate_probabilities(
    classification: Classification, losses_rows: Sequence[Sequence[float]]
) -> list[DeliveryProbabilities]:
    """Weight a classification by its lossy edges' loss values, per row.

    Each row of ``losses_rows`` aligns with ``classification.lossy_slots``;
    the replay engine feeds whole runs of loss-only windows through one
    call, so the vector backend weighs the whole run chunk by chunk in
    one pass.  Per lossy edge the state weights are ``p`` (absent) and
    ``1 - p`` (survives) in radix 2, ``1 - p`` (fast), ``p * (1 - p)``
    (recovered) and ``p * p`` (dead) in radix 3, multiplied in digit
    order.  The pure :mod:`repro.simulation.kernel` backend performs the
    identical float-operation sequence as the historical loops, so
    reusing a cached classification is bitwise-exact; the numpy path
    agrees up to summation reassociation (see the kernel module
    docstring).  Row ``i`` equals the one-row call on ``rows[i]``
    bitwise on either backend (the kernel's batch contract).
    """
    if classification.certain is not None:
        return [classification.certain] * len(losses_rows)
    return [
        DeliveryProbabilities(
            on_time=min(1.0, on_time), eventually=min(1.0, eventually)
        )
        for on_time, eventually in kernel.totals(
            classification.classes, classification.radix, losses_rows
        )
    ]


def _earliest_arrival_indexed(
    source: int,
    destination: int,
    adjacency: Sequence[Sequence[tuple[int, int]]],
    latency: Sequence[float],
    present: list[bool],
) -> float:
    """Dijkstra over the slots marked present; returns arrival or inf.

    Bitwise-equal to the historical name-keyed-dictionary Dijkstra: the
    rank relabeling preserves heap tie-break order, so the arithmetic is
    literally the same sequence of float additions and comparisons.
    """
    best = [_INF] * len(adjacency)
    best[source] = 0.0
    heap = [(0.0, source)]
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        time_now, node = pop(heap)
        if node == destination:
            return time_now
        if time_now > best[node]:
            continue
        for neighbor, slot in adjacency[node]:
            if not present[slot]:
                continue
            candidate = time_now + latency[slot]
            if candidate < best[neighbor]:
                best[neighbor] = candidate
                push(heap, (candidate, neighbor))
    return best[destination]


def on_time_path(
    indexed: IndexedGraph, deadline_ms: float, latencies: Sequence[float]
) -> frozenset[int] | None:
    """The slots of one fastest path over every slot, if it is on time.

    The relaxation of :func:`_earliest_arrival_indexed` with every slot
    present, recording each node's predecessor slot.  Returns ``None``
    when the path's left-to-right latency sum exceeds the deadline, or
    when the deadline is not positive (the classifier rejects it, so no
    view may be answered without it).  A view that keeps these slots
    present at these latencies can only remove or slow other slots, so
    the classifier's first fast path (its Dijkstra over the present
    slots returns at most this sum) answers it certain on time in
    either radix.
    """
    if not (deadline_ms > 0):
        return None
    arcs, source, destination = indexed.structure
    adjacency = indexed.adjacency
    best = [_INF] * len(adjacency)
    best[source] = 0.0
    via = [-1] * len(adjacency)
    heap = [(0.0, source)]
    while heap:
        time_now, node = heapq.heappop(heap)
        if node == destination:
            break
        if time_now > best[node]:
            continue
        for neighbor, slot in adjacency[node]:
            candidate = time_now + latencies[slot]
            if candidate < best[neighbor]:
                best[neighbor] = candidate
                via[neighbor] = slot
                heapq.heappush(heap, (candidate, neighbor))
    if best[destination] == _INF:
        return None
    slots = []
    node = destination
    while node != source:
        slots.append(via[node])
        node = arcs[via[node]][0]
    arrival = 0.0
    for slot in reversed(slots):
        arrival += latencies[slot]
    return frozenset(slots) if arrival <= deadline_ms else None


def _classify_cases(
    source: int,
    destination: int,
    adjacency: Sequence[Sequence[tuple[int, int]]],
    latencies: Sequence[float],
    present: Sequence[bool],
    lossy_slots: Sequence[int],
    state_latencies: Sequence[Sequence[float | None]],
    radix: int,
    deadline_ms: float,
) -> memoryview:
    """Outcome code of every enumeration case, one label pass per chunk.

    Case ``c`` puts lossy edge ``lossy_slots[p]`` in state ``s``, the
    base-``radix`` digit ``p`` of ``c`` (least significant first); the
    edge then crosses at ``state_latencies[p][s]``, or not at all where
    that is ``None``.  The other slots are fixed by ``present``.  The
    result holds one outcome byte per case, in case order: 0 lost, 1
    late, 2 on time.  It is a read-only view of one table allocated up
    front and filled chunk by chunk, so a classification peaks at its
    table plus one chunk's work.

    The low ``k`` digits (:func:`repro.simulation.kernel.chunk_digits`,
    the largest ``k`` with ``radix**k`` at most
    :data:`~repro.simulation.kernel.CHUNK_CASES`) index one Python-int
    bitset of cases; each value of the remaining high digits fixes
    those edges' states and is one chunk, filling
    ``classes[i * width:(i + 1) * width]``.  Within a chunk a label maps
    ``(arrival, node)`` to the set of cases that can reach ``node`` at
    ``arrival``; labels pop in ``(arrival, node)`` order, and a popped
    case set keeps only the cases that reach ``node`` for the first
    time, which relax each out-edge state they contain.

    **Exact.** Latencies are non-negative and IEEE addition is monotone,
    so one case's Dijkstra returns the minimum, over its surviving
    paths, of the left-to-right float sums of their latencies.  The
    label pass gives each case its first arrival at every node through
    the same additions, so the classes equal those of one Dijkstra run
    per case, byte for byte.  Like Dijkstra, which never relaxes a
    candidate that is not below an infinite best, the pass drops
    non-finite arrivals: an infinite-latency path is no delivery.

    **Cost.** Each case first reaches each node once, so a chunk has at
    most ``nodes * 4096`` labels that relax their out-edges, each on case
    sets of at most 64 words.  The worst case, where every case arrives
    at a distinct time, is therefore a constant factor of one Dijkstra
    run per case; labels shared by many cases make the usual case far
    cheaper.
    """
    count = len(lossy_slots)
    digits = kernel.chunk_digits(radix, count)
    width = radix**digits
    full = (1 << width) - 1
    # Low digit ``p`` is in state ``s`` on runs of ``radix**p`` cases
    # starting at ``s * radix**p``, repeating every ``radix**(p + 1)``.
    low_patterns = []
    for position in range(digits):
        run = radix**position
        block = (1 << run) - 1
        repeat = full // ((1 << run * radix) - 1)
        low_patterns.append(
            [(block << state * run) * repeat for state in range(radix)]
        )
    position_of = {slot: position for position, slot in enumerate(lossy_slots)}
    pop = heapq.heappop
    push = heapq.heappush
    classes = bytearray(radix**count)
    for chunk in range(radix ** (count - digits)):
        arcs: list[list[tuple[int, float, int]]] = [[] for _ in adjacency]
        for node, out_edges in enumerate(adjacency):
            for neighbor, slot in out_edges:
                position = position_of.get(slot)
                if position is None:
                    if present[slot]:
                        arcs[node].append((neighbor, latencies[slot], full))
                elif position < digits:
                    for state, latency in enumerate(state_latencies[position]):
                        if latency is not None:
                            pattern = low_patterns[position][state]
                            arcs[node].append((neighbor, latency, pattern))
                else:
                    state = chunk // radix ** (position - digits) % radix
                    latency = state_latencies[position][state]
                    if latency is not None:
                        arcs[node].append((neighbor, latency, full))
        pending = [full] * len(adjacency)
        labels = {(0.0, source): full}
        heap = [(0.0, source)]
        on_time = eventually = 0
        while heap:
            key = pop(heap)
            arrival, node = key
            cases = labels.pop(key) & pending[node]
            if not cases:
                continue
            pending[node] ^= cases
            if node == destination:
                eventually |= cases
                if arrival <= deadline_ms:
                    on_time |= cases
                if not pending[node]:
                    break
                continue
            for neighbor, latency, pattern in arcs[node]:
                reach = cases & pattern & pending[neighbor]
                if not reach:
                    continue
                candidate = arrival + latency
                if not candidate < _INF:
                    continue
                key = (candidate, neighbor)
                merged = labels.get(key)
                if merged is None:
                    labels[key] = reach
                    push(heap, key)
                else:
                    labels[key] = merged | reach
        # Per case: on time -> 1 + 1, late -> 0 + 1, lost -> 0 + 0.
        codes = _case_bytes(on_time, width) + _case_bytes(eventually, width)
        classes[chunk * width : (chunk + 1) * width] = codes.to_bytes(width, "little")
    return memoryview(classes).toreadonly()


def _case_bytes(cases: int, width: int) -> int:
    """Bitset ``cases`` with bit ``c`` moved to byte ``c``, as an int."""
    digits = format(cases, f"0{width}b").encode("ascii")
    return int.from_bytes(digits.translate(_BIT_BYTES), "big")


def delivery_probabilities_with_recovery(
    graph: DisseminationGraph,
    deadline_ms: float,
    latency_of: Callable[[Edge], float],
    loss_of: Callable[[Edge], float],
    recovery_latency_of: Callable[[Edge], float],
    max_lossy_edges: int = MAX_RECOVERY_LOSSY_EDGES,
) -> DeliveryProbabilities:
    """Delivery probabilities with one hop-by-hop retransmission per link.

    With link-level recovery each lossy edge has three outcomes instead
    of two: the copy arrives at the edge's normal latency with
    probability ``1 - p``; the first copy is lost but the retransmission
    arrives at ``recovery_latency_of(edge)`` with probability
    ``p * (1 - p)``; both are lost with probability ``p^2``.  The exact
    computation therefore covers ternary edge states (``3^L``), which is
    why the lossy-edge cap is lower than the plain engine's.

    ``recovery_latency_of`` should return the *total* latency of a
    recovered copy across the edge -- typically ack-timeout plus the
    retransmission's flight time, on the order of three link latencies.

    Implemented as :func:`classify_recovery_states` followed by
    :func:`accumulate_probabilities`, the plain engine's split, so the
    replay engine can cache the classification.
    """
    classification, losses = classify_recovery_states(
        graph,
        deadline_ms,
        latency_of,
        loss_of,
        recovery_latency_of,
        max_lossy_edges,
    )
    return accumulate_probabilities(classification, [losses])[0]


def delivery_probabilities(
    graph: DisseminationGraph,
    deadline_ms: float,
    latency_of: Callable[[Edge], float],
    loss_of: Callable[[Edge], float],
    max_lossy_edges: int = MAX_EXACT_LOSSY_EDGES,
) -> DeliveryProbabilities:
    """Exact delivery probabilities for one packet on ``graph``.

    ``latency_of`` / ``loss_of`` give each edge's current effective
    latency and loss rate.  Raises :class:`ReliabilityLimitError` when the
    graph contains more than ``max_lossy_edges`` edges with fractional
    loss.

    Implemented as the shortest-path classification followed by
    :func:`accumulate_probabilities` (the loss-value weighting); callers
    that see repeated loss-only condition changes can cache the
    classification (:func:`classify_delivery_masks`) and skip the first
    phase.
    """
    indexed, latencies, losses = _read_callbacks(graph, latency_of, loss_of)
    return delivery_probabilities_indexed(
        indexed, deadline_ms, latencies, losses, max_lossy_edges
    )


def delivery_probabilities_indexed(
    indexed: IndexedGraph,
    deadline_ms: float,
    latencies: Sequence[float],
    losses: Sequence[float],
    max_lossy_edges: int = MAX_EXACT_LOSSY_EDGES,
) -> DeliveryProbabilities:
    """:func:`delivery_probabilities` on an indexed graph's slot arrays."""
    classification, lossy_losses = classify_indexed(
        indexed, deadline_ms, latencies, losses, max_lossy_edges
    )
    return accumulate_probabilities(classification, [lossy_losses])[0]


def on_time_probability(
    graph: DisseminationGraph,
    deadline_ms: float,
    latency_of: Callable[[Edge], float],
    loss_of: Callable[[Edge], float],
    max_lossy_edges: int = MAX_EXACT_LOSSY_EDGES,
) -> float:
    """Convenience wrapper returning only the on-time probability."""
    return delivery_probabilities(
        graph, deadline_ms, latency_of, loss_of, max_lossy_edges
    ).on_time
