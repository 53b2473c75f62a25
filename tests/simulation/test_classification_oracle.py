"""Lossy-edge classification against an independent per-case oracle.

``classify_delivery_masks`` and ``classify_recovery_states`` classify
all ``2^L`` / ``3^L`` lossy-edge cases of a window in one label pass per
chunk of cases.  The reference below is the enumeration they replaced --
one full Dijkstra run per case -- frozen inline so that a change to
``repro.simulation.reliability`` cannot silently move the goalposts.
Every comparison is on whole classification objects: fast-path
verdicts, radix, lossy slots, the class bytes and the loss values read.
"""

from __future__ import annotations

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dgraph import DisseminationGraph
from repro.simulation.reliability import (
    Classification,
    DeliveryProbabilities,
    classify_delivery_masks,
    classify_recovery_states,
)

_INF = float("inf")


# -- frozen reference: one Dijkstra per case ---------------------------------------
# Copied from the per-case enumeration the chunked label pass replaced.
# These are the ground truth the classifiers must match byte for byte;
# do not "simplify" them.


def _reference_index_graph(graph):
    edges = graph.sorted_edges()
    rank = {node: position for position, node in enumerate(sorted(graph.nodes))}
    adjacency = [[] for _ in rank]
    for slot, (u, v) in enumerate(edges):
        adjacency[rank[u]].append((rank[v], slot))
    return edges, rank, adjacency


def _reference_earliest_arrival(source, destination, adjacency, latency, present):
    best = [_INF] * len(adjacency)
    best[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        time_now, node = heapq.heappop(heap)
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
                heapq.heappush(heap, (candidate, neighbor))
    return best[destination]


def reference_classify_delivery_masks(graph, deadline_ms, latency_of, loss_of):
    edges, rank, adjacency = _reference_index_graph(graph)
    latencies, present, lossy_slots, losses = [], [], [], []
    for slot, edge in enumerate(edges):
        loss = loss_of(edge)
        latencies.append(latency_of(edge))
        present.append(loss <= 0.0)
        if 0.0 < loss < 1.0:
            lossy_slots.append(slot)
            losses.append(loss)
    source, destination = rank[graph.source], rank[graph.destination]
    baseline = _reference_earliest_arrival(
        source, destination, adjacency, latencies, present
    )
    if baseline <= deadline_ms:
        certain = DeliveryProbabilities(on_time=1.0, eventually=1.0)
        return Classification(certain=certain, radix=2), losses
    if not lossy_slots:
        eventually = 1.0 if baseline < _INF else 0.0
        certain = DeliveryProbabilities(on_time=0.0, eventually=eventually)
        return Classification(certain=certain, radix=2), losses
    for slot in lossy_slots:
        present[slot] = True
    best_case = _reference_earliest_arrival(
        source, destination, adjacency, latencies, present
    )
    if not best_case < _INF:
        certain = DeliveryProbabilities(on_time=0.0, eventually=0.0)
        return Classification(certain=certain, radix=2), losses
    count = len(lossy_slots)
    classes = bytearray(1 << count)
    for mask in range(1 << count):
        for bit, slot in enumerate(lossy_slots):
            present[slot] = bool(mask >> bit & 1)
        arrival = _reference_earliest_arrival(
            source, destination, adjacency, latencies, present
        )
        if arrival <= deadline_ms:
            classes[mask] = 2
        elif arrival < _INF:
            classes[mask] = 1
    classification = Classification(
        certain=None,
        radix=2,
        lossy_slots=tuple(lossy_slots),
        classes=bytes(classes),
    )
    return classification, losses


def reference_classify_recovery_states(
    graph, deadline_ms, latency_of, loss_of, recovery_latency_of
):
    edges, rank, adjacency = _reference_index_graph(graph)
    latency, present, lossy = [], [], []
    for slot, edge in enumerate(edges):
        loss = loss_of(edge)
        latency.append(latency_of(edge))
        present.append(loss <= 0.0)
        if 0.0 < loss < 1.0:
            lossy.append((slot, loss))
    source, destination = rank[graph.source], rank[graph.destination]
    baseline = _reference_earliest_arrival(
        source, destination, adjacency, latency, present
    )
    losses = [loss for _slot, loss in lossy]
    if baseline <= deadline_ms:
        certain = DeliveryProbabilities(on_time=1.0, eventually=1.0)
        return Classification(certain=certain, radix=3), losses
    if not lossy:
        eventually = 1.0 if baseline < _INF else 0.0
        certain = DeliveryProbabilities(on_time=0.0, eventually=eventually)
        return Classification(certain=certain, radix=3), losses
    count = len(lossy)
    slow_latency = [recovery_latency_of(edges[slot]) for slot, _loss in lossy]
    base_latency = [latency[slot] for slot, _loss in lossy]
    total_states = 3**count
    classes = bytearray(total_states)
    for code in range(total_states):
        value = code
        for position, (slot, _loss) in enumerate(lossy):
            state = value % 3
            value //= 3
            if state == 0:
                latency[slot] = base_latency[position]
                present[slot] = True
            elif state == 1:
                latency[slot] = slow_latency[position]
                present[slot] = True
            else:
                present[slot] = False
        arrival = _reference_earliest_arrival(
            source, destination, adjacency, latency, present
        )
        if arrival <= deadline_ms:
            classes[code] = 2
        elif arrival < _INF:
            classes[code] = 1
    classification = Classification(
        certain=None,
        radix=3,
        lossy_slots=tuple(slot for slot, _loss in lossy),
        classes=bytes(classes),
    )
    return classification, losses


def _assert_binary_matches(graph, deadline_ms, latency, loss):
    got = classify_delivery_masks(graph, deadline_ms, latency.get, loss.get)
    want = reference_classify_delivery_masks(
        graph, deadline_ms, latency.get, loss.get
    )
    assert got == want
    return got[0]


def _assert_ternary_matches(graph, deadline_ms, latency, loss, recovery):
    got = classify_recovery_states(
        graph, deadline_ms, latency.get, loss.get, recovery.get
    )
    want = reference_classify_recovery_states(
        graph, deadline_ms, latency.get, loss.get, recovery.get
    )
    assert got == want
    return got[0]


# -- random windows ----------------------------------------------------------------

#: Latencies: zero, ties (every value is drawn repeatedly), sums that round
#: (0.1 + 0.2 != 0.3) and an infinite extra latency.
LATENCY_POOL = (0.0, 0.1, 0.2, 0.3, 1.0, 2.0, 2.5, 3.0, _INF)
#: Clean, fractional (two values) or dead.
LOSS_POOL = (0.0, 0.25, 0.5, 1.0)


@st.composite
def windows(draw, max_lossy: int):
    """A digraph of 2-9 nodes with per-edge latency, loss and recovery
    latency, and a deadline that is sometimes exactly a path's sum."""
    count = draw(st.integers(min_value=2, max_value=9))
    nodes = [f"N{index}" for index in range(count)]
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    edges = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=14, unique=True)
    )
    latency = {edge: draw(st.sampled_from(LATENCY_POOL)) for edge in edges}
    loss = {edge: draw(st.sampled_from(LOSS_POOL)) for edge in edges}
    lossy = [edge for edge in edges if 0.0 < loss[edge] < 1.0]
    for edge in lossy[max_lossy:]:
        loss[edge] = 0.0
    recovery = {edge: draw(st.sampled_from(LATENCY_POOL)) for edge in edges}
    graph = DisseminationGraph(nodes[0], nodes[-1], frozenset(edges))
    deadline = draw(st.sampled_from((0.3, 1.0, 2.9, 4.0, 100.0)))
    if draw(st.booleans()):
        # Walk from the source and take the left-to-right float sum of
        # the walk's latencies, exactly as Dijkstra adds them.
        node, arrival = nodes[0], 0.0
        for _step in range(draw(st.integers(min_value=1, max_value=count))):
            out = sorted(edge for edge in edges if edge[0] == node)
            if not out:
                break
            edge = draw(st.sampled_from(out))
            arrival += latency[edge]
            node = edge[1]
        if 0.0 < arrival < _INF:
            deadline = arrival
    return graph, deadline, latency, loss, recovery


class TestRandomWindows:
    @given(window=windows(max_lossy=10))
    @settings(max_examples=150, deadline=None)
    def test_binary_matches_per_case_dijkstra(self, window):
        graph, deadline, latency, loss, _recovery = window
        _assert_binary_matches(graph, deadline, latency, loss)

    @given(window=windows(max_lossy=6))
    @settings(max_examples=150, deadline=None)
    def test_ternary_matches_per_case_dijkstra(self, window):
        graph, deadline, latency, loss, recovery = window
        _assert_ternary_matches(graph, deadline, latency, loss, recovery)

    @given(window=windows(max_lossy=10))
    @settings(max_examples=300, deadline=None)
    def test_late_best_case_means_no_on_time_case(self, window):
        """Dropping lossy edges only removes paths, so when the case in
        which every lossy edge survives (the last) is not on time, no
        case is: the accumulation needs no best-case zeroing."""
        graph, deadline, latency, loss, _recovery = window
        classification, _losses = classify_delivery_masks(
            graph, deadline, latency.get, loss.get
        )
        if classification.certain is None and classification.classes[-1] != 2:
            assert 2 not in classification.classes


# -- deterministic windows ---------------------------------------------------------


def _fan(lossy_count: int):
    """``S -> Mi`` lossy, a clean ``M0 -> M1 -> ...`` chain and ``Mi -> T``,
    with latencies that give every outcome code many times over."""
    spokes = [f"M{index:02d}" for index in range(lossy_count)]
    latency, loss, recovery = {}, {}, {}
    for index, spoke in enumerate(spokes):
        latency[("S", spoke)] = float(index % 4)
        loss[("S", spoke)] = 0.5
        recovery[("S", spoke)] = float(index % 3) * 2.0
        latency[(spoke, "T")] = float(3 + index % 5)
        if index:
            latency[(spokes[index - 1], spoke)] = 0.5
    for edge in latency:
        loss.setdefault(edge, 0.0)
        recovery.setdefault(edge, latency[edge])
    graph = DisseminationGraph("S", "T", frozenset(latency))
    return graph, latency, loss, recovery


class TestDeterministicWindows:
    def test_binary_window_spanning_two_chunks(self):
        graph, latency, loss, _recovery = _fan(13)  # 8192 cases, 4096 a chunk
        for deadline in (4.0, 5.5, 7.0):
            classification = _assert_binary_matches(graph, deadline, latency, loss)
            assert len(classification.classes) == 1 << 13
            assert set(classification.classes) == {0, 1, 2}

    def test_ternary_window_spanning_three_chunks(self):
        graph, latency, loss, recovery = _fan(8)  # 6561 cases, 2187 a chunk
        for deadline in (4.0, 5.5, 7.0):
            classification = _assert_ternary_matches(
                graph, deadline, latency, loss, recovery
            )
            assert len(classification.classes) == 3**8
            assert set(classification.classes) == {0, 1, 2}

    def test_ladder_with_a_distinct_arrival_per_case(self):
        """Stage ``i``: a free lossy hop or a clean ``2^i`` ms detour, so
        case ``m`` arrives at ``1023 - m`` ms: no two cases share a
        destination label, the label pass's worst case."""
        latency, loss = {}, {}
        for stage in range(10):
            here, there = f"A{stage:02d}", f"A{stage + 1:02d}"
            detour = f"B{stage:02d}"
            latency[(here, there)] = 0.0
            loss[(here, there)] = 0.5
            latency[(here, detour)] = float(1 << stage)
            latency[(detour, there)] = 0.0
        for edge in latency:
            loss.setdefault(edge, 0.0)
        graph = DisseminationGraph("A00", "A10", frozenset(latency))
        classification = _assert_binary_matches(graph, 511.5, latency, loss)
        assert classification.classes == bytes([1] * 512 + [2] * 512)

    def test_infinite_latency_path_is_lost_not_late(self):
        """Dijkstra never relaxes an infinite candidate, so a packet whose
        only surviving path has infinite latency is lost."""
        latency = {("S", "A"): 10.0, ("A", "T"): _INF, ("S", "T"): 5.0}
        loss = {("S", "A"): 0.0, ("A", "T"): 0.0, ("S", "T"): 0.5}
        graph = DisseminationGraph("S", "T", frozenset(latency))
        binary = _assert_binary_matches(graph, 20.0, latency, loss)
        assert binary.classes == b"\x00\x02"
        recovery = {edge: 30.0 for edge in latency}
        ternary = _assert_ternary_matches(graph, 20.0, latency, loss, recovery)
        assert ternary.classes == b"\x02\x01\x00"
