"""Exact on-time delivery probability for a dissemination graph.

Within a constant-conditions window, each edge of a graph independently
delivers a given packet copy with probability ``1 - loss``.  The packet is
delivered on time iff the surviving subgraph contains a source->destination
path whose latency (current effective latencies) is within the deadline.

The computation conditions on the *uncertain* edges only: edges with zero
loss always survive, edges with 100% loss never do, and the remaining
``L`` lossy edges span ``2^L`` cases (``3^L`` with hop recovery).  At
most two Dijkstra runs (every lossy edge absent, every one present)
decide most windows outright; otherwise one label-setting pass per
chunk of 4096 cases finds every case's earliest arrival at once,
carrying a set of cases per label (:func:`_classify_cases`).  Real
problem episodes degrade a handful of links, so ``L`` stays small; a
hard cap protects against pathological inputs.

``delivery_probabilities`` returns both the on-time probability and the
delivered-eventually probability, which the result layer splits into
*lost* (never delivered) versus *late* (delivered past the deadline).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.dgraph import DisseminationGraph
from repro.core.graph import Edge, NodeId
from repro.simulation import kernel
from repro.util.validation import require

__all__ = [
    "DeliveryProbabilities",
    "MaskClassification",
    "RecoveryClassification",
    "ReliabilityLimitError",
    "accumulate_mask_probabilities",
    "accumulate_mask_probabilities_batch",
    "accumulate_recovery_probabilities",
    "accumulate_recovery_probabilities_batch",
    "classify_delivery_masks",
    "classify_recovery_states",
    "delivery_probabilities",
    "delivery_probabilities_with_recovery",
    "on_time_probability",
]

_INF = float("inf")

#: Maximum number of uncertain edges classified exactly.  The cap bounds
#: the ``2^L``-byte class table (1 MiB at 20) and the per-window
#: accumulation over it; anything beyond signals a scenario far denser
#: than real traces and is rejected loudly.
MAX_EXACT_LOSSY_EDGES = 20
#: The hop-recovery engine's cap: its ``3^L`` class table and
#: accumulation grow faster, so it stops at ``3^11`` (177,147) cases.
MAX_RECOVERY_LOSSY_EDGES = 11

#: Enumeration cases classified together by one label pass: a chunk's
#: case set is one Python int of at most this many bits (64 words).
_CHUNK_CASES = 4096
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
        require(
            -1e-9 <= self.on_time <= self.eventually + 1e-9,
            f"inconsistent probabilities: on_time={self.on_time}, "
            f"eventually={self.eventually}",
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
class MaskClassification:
    """The loss-value-independent core of :func:`delivery_probabilities`.

    Which enumeration cases arrive on time / at all depends only on the
    graph structure, the effective latencies and *which* edges are lossy
    (or dead) -- never on the fractional loss values themselves, which
    only weight the cases.  Splitting the computation lets the replay
    engine reuse one classification across every window that differs
    only in loss rates (the dominant kind of condition change in real
    traces), skipping the classification of all ``2^L`` cases.

    ``certain`` short-circuits the fast paths whose outcome is decided
    regardless of the lossy edges' loss values; otherwise ``classes[m]``
    holds the outcome code (0 lost, 1 late, 2 on time) of enumeration
    case ``m`` (bit ``b`` of ``m`` = lossy edge ``lossy_slots[b]``
    survives) and ``best_on_time`` records whether the all-survive case
    met the deadline (the numerical hygiene cap of the accumulation).
    """

    certain: DeliveryProbabilities | None
    lossy_slots: tuple[int, ...] = ()
    classes: bytes = b""
    best_on_time: bool = False


def classify_delivery_masks(
    graph: DisseminationGraph,
    deadline_ms: float,
    latency_of: Callable[[Edge], float],
    loss_of: Callable[[Edge], float],
    max_lossy_edges: int = MAX_EXACT_LOSSY_EDGES,
) -> tuple[MaskClassification, list[float]]:
    """Classify every lossy-edge enumeration case of ``graph``.

    Returns the classification plus the loss values read for the lossy
    slots (in slot order), so :func:`accumulate_mask_probabilities` can
    finish the computation without consulting ``loss_of`` again.
    """
    require(deadline_ms > 0, f"deadline must be positive, got {deadline_ms}")
    edges, rank, adjacency = _index_graph(graph)
    latencies: list[float] = []
    present: list[bool] = []
    lossy_slots: list[int] = []
    losses: list[float] = []
    for slot, edge in enumerate(edges):
        loss = loss_of(edge)
        require(0.0 <= loss <= 1.0, f"loss out of range on {edge!r}: {loss}")
        latency = latency_of(edge)
        require(latency >= 0.0, f"negative latency on {edge!r}: {latency}")
        latencies.append(latency)
        # Certain edges: zero loss always survives, total loss never does;
        # fractional-loss slots are toggled from case to case.
        present.append(loss <= 0.0)
        if 0.0 < loss < 1.0:
            lossy_slots.append(slot)
            losses.append(loss)
    if len(lossy_slots) > max_lossy_edges:
        raise ReliabilityLimitError(
            f"{len(lossy_slots)} lossy edges exceed the exact-enumeration cap "
            f"({max_lossy_edges})"
        )

    source, destination = rank[graph.source], rank[graph.destination]

    # Fast path: all certain edges surviving already decides both outcomes.
    baseline = _earliest_arrival_indexed(
        source, destination, adjacency, latencies, present
    )
    if baseline <= deadline_ms:
        certain = DeliveryProbabilities(on_time=1.0, eventually=1.0)
        return MaskClassification(certain=certain), losses
    if not lossy_slots:
        # Past the fast-path return above, ``baseline > deadline_ms``
        # always holds: the certain subgraph delivers late or never.
        eventually = 1.0 if baseline < _INF else 0.0
        certain = DeliveryProbabilities(on_time=0.0, eventually=eventually)
        return MaskClassification(certain=certain), losses

    # Fast path the other way: even with every lossy edge surviving the
    # packet cannot arrive (e.g. deadline impossible) -- probability 0.
    for slot in lossy_slots:
        present[slot] = True
    best_case = _earliest_arrival_indexed(
        source, destination, adjacency, latencies, present
    )
    if not best_case < _INF:
        certain = DeliveryProbabilities(on_time=0.0, eventually=0.0)
        return MaskClassification(certain=certain), losses
    best_on_time = best_case <= deadline_ms

    # Bit ``b`` of a case: 0 = lossy edge ``lossy_slots[b]`` absent,
    # 1 = it survives at its latency.
    classes = _classify_cases(
        source,
        destination,
        adjacency,
        latencies,
        present,
        lossy_slots,
        [(None, latencies[slot]) for slot in lossy_slots],
        2,
        deadline_ms,
    )
    classification = MaskClassification(
        certain=None,
        lossy_slots=tuple(lossy_slots),
        classes=classes,
        best_on_time=best_on_time,
    )
    return classification, losses


def _finalize_mask_totals(
    classification: MaskClassification, totals: tuple[float, float]
) -> DeliveryProbabilities:
    """Shared finalization: best-case hygiene zeroing plus the clamps."""
    on_time_total, eventually_total = totals
    if not classification.best_on_time:
        on_time_total = 0.0  # numerical hygiene: cannot exceed best case
    return DeliveryProbabilities(
        on_time=min(1.0, on_time_total), eventually=min(1.0, eventually_total)
    )


def accumulate_mask_probabilities(
    classification: MaskClassification, losses: list[float]
) -> DeliveryProbabilities:
    """Weight a classification by the lossy edges' current loss values.

    ``losses`` aligns with ``classification.lossy_slots``.  The
    arithmetic runs on the active :mod:`repro.simulation.kernel`
    backend: the pure path performs the identical float-operation
    sequence as the historical fused loop (same per-mask multiply order,
    same mask order, same final clamps), so reusing a cached
    classification is bitwise-exact; the numpy path agrees up to
    summation reassociation (see the kernel module docstring).
    """
    if classification.certain is not None:
        return classification.certain
    return _finalize_mask_totals(
        classification, kernel.mask_totals(classification.classes, losses)
    )


def accumulate_mask_probabilities_batch(
    classification: MaskClassification, losses_rows: Sequence[Sequence[float]]
) -> list[DeliveryProbabilities]:
    """One accumulation call for many loss vectors of one classification.

    The replay engine feeds whole runs of loss-only windows through this
    entry point so the vector backend builds a single weight matrix for
    the run; row ``i`` equals ``accumulate_mask_probabilities(c,
    rows[i])`` bitwise on either backend (the kernel's batch contract).
    """
    if classification.certain is not None:
        return [classification.certain] * len(losses_rows)
    return [
        _finalize_mask_totals(classification, totals)
        for totals in kernel.mask_totals_batch(
            classification.classes, losses_rows
        )
    ]


def _index_graph(
    graph: DisseminationGraph,
) -> tuple[tuple[Edge, ...], dict[NodeId, int], list[list[tuple[int, int]]]]:
    """Compile a graph to rank-indexed adjacency lists for the enumeration.

    Nodes are relabeled to their rank in sorted-name order; edges keep
    their :meth:`DisseminationGraph.sorted_edges` position as a *slot*
    into parallel latency/presence arrays.  Because the relabeling is
    monotone in node-name order, the Dijkstra runs below perform the very
    same float operations in the very same order as the historical
    name-keyed dictionaries did (edge iteration order and Dijkstra heap
    tie-breaks both follow the sort order) -- only the interpreter-level
    cost of hashing strings is gone.
    """
    edges = graph.sorted_edges()
    rank = {node: position for position, node in enumerate(sorted(graph.nodes))}
    adjacency: list[list[tuple[int, int]]] = [[] for _ in rank]
    for slot, (u, v) in enumerate(edges):
        adjacency[rank[u]].append((rank[v], slot))
    return edges, rank, adjacency


def _earliest_arrival_indexed(
    source: int,
    destination: int,
    adjacency: list[list[tuple[int, int]]],
    latency: list[float],
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


def _classify_cases(
    source: int,
    destination: int,
    adjacency: list[list[tuple[int, int]]],
    latencies: Sequence[float],
    present: Sequence[bool],
    lossy_slots: Sequence[int],
    state_latencies: Sequence[Sequence[float | None]],
    radix: int,
    deadline_ms: float,
) -> bytes:
    """Outcome code of every enumeration case, one label pass per chunk.

    Case ``c`` puts lossy edge ``lossy_slots[p]`` in state ``s``, the
    base-``radix`` digit ``p`` of ``c`` (least significant first); the
    edge then crosses at ``state_latencies[p][s]``, or not at all where
    that is ``None``.  The other slots are fixed by ``present``.  The
    result holds one outcome byte per case, in case order: 0 lost, 1
    late, 2 on time.

    The low ``k`` digits (the largest ``k`` with ``radix**k`` at most
    :data:`_CHUNK_CASES`) index one Python-int bitset of cases; each
    value of the remaining high digits fixes those edges' states and is
    one chunk, filling ``classes[i * width:(i + 1) * width]``.  Within a
    chunk a label maps ``(arrival, node)`` to the set of cases that can
    reach ``node`` at ``arrival``; labels pop in ``(arrival, node)``
    order, and a popped case set keeps only the cases that reach ``node``
    for the first time, which relax each out-edge state they contain.

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
    digits = 0
    while digits < count and radix ** (digits + 1) <= _CHUNK_CASES:
        digits += 1
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
    parts = []
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
        parts.append(codes.to_bytes(width, "little"))
    return b"".join(parts)


def _case_bytes(cases: int, width: int) -> int:
    """Bitset ``cases`` with bit ``c`` moved to byte ``c``, as an int."""
    digits = format(cases, f"0{width}b").encode("ascii")
    return int.from_bytes(digits.translate(_BIT_BYTES), "big")


@dataclass(frozen=True)
class RecoveryClassification:
    """Loss-value-independent core of the hop-recovery engine.

    The ternary analogue of :class:`MaskClassification`: ``classes[c]``
    holds the outcome code of recovery state ``c``, whose base-3 digit
    ``p`` (least significant first) is the state of lossy edge
    ``lossy_slots[p]`` -- 0 fast, 1 recovered (slow copy), 2 dead.
    Which states deliver on time depends only on the graph structure and
    the fast/slow latencies, so the replay engine caches this across
    loss-only condition changes exactly like the binary engine.
    """

    certain: DeliveryProbabilities | None
    lossy_slots: tuple[int, ...] = ()
    classes: bytes = b""


def classify_recovery_states(
    graph: DisseminationGraph,
    deadline_ms: float,
    latency_of: Callable[[Edge], float],
    loss_of: Callable[[Edge], float],
    recovery_latency_of: Callable[[Edge], float],
    max_lossy_edges: int = MAX_RECOVERY_LOSSY_EDGES,
) -> tuple[RecoveryClassification, list[float]]:
    """Classify every ternary recovery state of ``graph``.

    Returns the classification plus the lossy slots' loss values (in
    slot order) so :func:`accumulate_recovery_probabilities` can finish
    without consulting ``loss_of`` again.
    """
    require(deadline_ms > 0, f"deadline must be positive, got {deadline_ms}")
    edges, rank, adjacency = _index_graph(graph)
    latency: list[float] = []
    present: list[bool] = []
    lossy: list[tuple[int, float]] = []
    for slot, edge in enumerate(edges):
        loss = loss_of(edge)
        require(0.0 <= loss <= 1.0, f"loss out of range on {edge!r}: {loss}")
        normal = latency_of(edge)
        require(normal >= 0.0, f"negative latency on {edge!r}: {normal}")
        latency.append(normal)
        # Zero loss always survives; total loss never does (even the
        # retransmission is lost: permanently dead).
        present.append(loss <= 0.0)
        if 0.0 < loss < 1.0:
            lossy.append((slot, loss))
    if len(lossy) > max_lossy_edges:
        raise ReliabilityLimitError(
            f"{len(lossy)} lossy edges exceed the recovery-enumeration cap "
            f"({max_lossy_edges})"
        )
    source, destination = rank[graph.source], rank[graph.destination]
    baseline = _earliest_arrival_indexed(
        source, destination, adjacency, latency, present
    )
    losses = [loss for _slot, loss in lossy]
    if baseline <= deadline_ms:
        certain = DeliveryProbabilities(on_time=1.0, eventually=1.0)
        return RecoveryClassification(certain=certain), losses
    if not lossy:
        eventually = 1.0 if baseline < _INF else 0.0
        certain = DeliveryProbabilities(on_time=0.0, eventually=eventually)
        return RecoveryClassification(certain=certain), losses

    lossy_slots = [slot for slot, _loss in lossy]
    # Edge states: 0 = fast, 1 = recovered (slow), 2 = dead.  The normal
    # latencies were already read into ``latency`` above; the callback
    # must not be invoked a second time per edge (a non-pure callable
    # would silently diverge between the two reads).
    state_latencies = []
    for slot in lossy_slots:
        edge = edges[slot]
        slow = recovery_latency_of(edge)
        require(slow >= 0.0, f"negative recovery latency on {edge!r}: {slow}")
        state_latencies.append((latency[slot], slow, None))
    classes = _classify_cases(
        source,
        destination,
        adjacency,
        latency,
        present,
        lossy_slots,
        state_latencies,
        3,
        deadline_ms,
    )
    classification = RecoveryClassification(
        certain=None, lossy_slots=tuple(lossy_slots), classes=classes
    )
    return classification, losses


def _finalize_recovery_totals(
    totals: tuple[float, float],
) -> DeliveryProbabilities:
    on_time_total, eventually_total = totals
    return DeliveryProbabilities(
        on_time=min(1.0, on_time_total), eventually=min(1.0, eventually_total)
    )


def accumulate_recovery_probabilities(
    classification: RecoveryClassification, losses: list[float]
) -> DeliveryProbabilities:
    """Weight a recovery classification by the current loss values.

    ``losses`` aligns with ``classification.lossy_slots``; the state
    weights are ``1 - p`` (fast), ``p * (1 - p)`` (recovered) and
    ``p * p`` (dead) per edge, multiplied in base-3 digit order -- on
    the pure backend this is the historical ``3^L`` loop bit for bit.
    """
    if classification.certain is not None:
        return classification.certain
    return _finalize_recovery_totals(
        kernel.recovery_totals(classification.classes, losses)
    )


def accumulate_recovery_probabilities_batch(
    classification: RecoveryClassification,
    losses_rows: Sequence[Sequence[float]],
) -> list[DeliveryProbabilities]:
    """Batched :func:`accumulate_recovery_probabilities` (one vector call)."""
    if classification.certain is not None:
        return [classification.certain] * len(losses_rows)
    return [
        _finalize_recovery_totals(totals)
        for totals in kernel.recovery_totals_batch(
            classification.classes, losses_rows
        )
    ]


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
    :func:`accumulate_recovery_probabilities`, mirroring the plain
    engine's split so the replay engine can cache the classification.
    """
    classification, losses = classify_recovery_states(
        graph,
        deadline_ms,
        latency_of,
        loss_of,
        recovery_latency_of,
        max_lossy_edges,
    )
    return accumulate_recovery_probabilities(classification, losses)


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

    Implemented as :func:`classify_delivery_masks` (the shortest-path
    classification) followed by :func:`accumulate_mask_probabilities` (the
    loss-value weighting); callers that see repeated loss-only condition
    changes can cache the classification and skip the first phase.
    """
    classification, losses = classify_delivery_masks(
        graph, deadline_ms, latency_of, loss_of, max_lossy_edges
    )
    return accumulate_mask_probabilities(classification, losses)


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
