"""Node-disjoint path sets on the routing index: correctness, minimality,
networkx and max-flow cross-checks."""

from __future__ import annotations

import itertools
import pickle
import random
import sys
import threading

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.core.algorithms import SplitNetwork
from repro.core.algorithms.disjoint import strip_cycles
from repro.core.algorithms.maxflow import max_disjoint_path_count
from repro.core.algorithms.mincostflow import MinCostFlow
from repro.core.builders import k_disjoint_paths_graph
from repro.core.graph import Topology
from repro.netmodel.topology import build_reference_topology
from repro.topogen import resolve_workload
from repro.util.validation import ValidationError
from tests.core.graphutil import (
    adjacency_of,
    endpoints,
    path_weight,
    random_adjacency,
    to_networkx,
    topology_of,
)


def disjoint_paths(graph, source, target, k=2):
    """``SplitNetwork.disjoint_paths`` at base latencies; ``graph`` is a
    topology or a dict adjacency."""
    topology = graph if isinstance(graph, Topology) else topology_of(graph)
    index = topology.routing_index
    return SplitNetwork(index, source, target).disjoint_paths(index.latencies, k)


def assert_node_disjoint(paths, source, target):
    for a, b in itertools.combinations(paths, 2):
        shared = set(a[1:-1]) & set(b[1:-1])
        assert not shared, f"paths share interior nodes {shared}"
    for path in paths:
        assert path[0] == source and path[-1] == target
        assert len(set(path)) == len(path), f"path revisits a node: {path}"


class TestStripCycles:
    def test_no_cycle_untouched(self):
        assert strip_cycles(["S", "A", "T"]) == ["S", "A", "T"]

    def test_simple_cycle_removed(self):
        assert strip_cycles(["S", "A", "B", "A", "T"]) == ["S", "A", "T"]

    def test_cycle_at_start(self):
        assert strip_cycles(["S", "A", "S", "B", "T"]) == ["S", "B", "T"]

    def test_nested_cycles(self):
        assert strip_cycles(["S", "A", "B", "C", "B", "A", "T"]) == ["S", "A", "T"]


class TestTwoDisjoint:
    def test_diamond(self, diamond):
        paths = disjoint_paths(diamond, "S", "T", k=2)
        assert len(paths) == 2
        assert_node_disjoint(paths, "S", "T")
        assert paths[0] == ["S", "A", "T"]
        assert paths[1] == ["S", "B", "T"]

    def test_suurballe_trap(self):
        """Greedy shortest-first fails here; min-cost flow must not.

        The shortest path S-M-T uses the only middle node; removing it
        would leave no second path, yet two disjoint paths exist.
        """
        adjacency = {
            "S": {"M": 1.0, "A": 10.0},
            "M": {"T": 1.0, "B": 1.0},
            "A": {"M": 1.0, "T": 10.0},
            "B": {"T": 1.0},
            "T": {},
        }
        paths = disjoint_paths(adjacency, "S", "T", k=2)
        assert len(paths) == 2
        assert_node_disjoint(paths, "S", "T")

    def test_minimal_total_weight(self, braided):
        adjacency = adjacency_of(braided)
        paths = disjoint_paths(braided, "S", "T", k=2)
        assert len(paths) == 2
        total = sum(path_weight(adjacency, p) for p in paths)
        # Exhaustive check over all node-disjoint simple-path pairs.
        graph = to_networkx(adjacency)
        best = float("inf")
        simple = list(nx.all_simple_paths(graph, "S", "T"))
        for a, b in itertools.combinations(simple, 2):
            if set(a[1:-1]) & set(b[1:-1]):
                continue
            best = min(best, path_weight(adjacency, a) + path_weight(adjacency, b))
        assert total == pytest.approx(best)

    def test_only_one_path_exists(self, line):
        paths = disjoint_paths(line, "S", "T", k=2)
        assert paths == [["S", "M", "T"]]

    def test_unreachable(self):
        paths = disjoint_paths({"S": {}, "T": {}}, "S", "T", k=2)
        assert paths == []

    def test_same_endpoints_rejected(self, diamond):
        with pytest.raises(ValidationError):
            k_disjoint_paths_graph(diamond, "S", "S")

    def test_bad_k(self, diamond):
        with pytest.raises(ValidationError):
            k_disjoint_paths_graph(diamond, "S", "T", k=0)
        assert disjoint_paths(diamond, "S", "T", k=0) == []  # nothing asked

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            disjoint_paths({"S": {}}, "S", "Z")

    def test_excluded_links_avoided(self, diamond):
        index = diamond.routing_index
        network = SplitNetwork(index, "S", "T")
        excluded = index.link_ids({("S", "A")})
        paths = network.disjoint_paths(index.latencies, 2, excluded)
        assert paths == [["S", "B", "T"]]
        # The network is re-solved per call: the exclusion does not stick.
        assert len(network.disjoint_paths(index.latencies, 2)) == 2

    def test_antiparallel_links_handled(self):
        """Bidirectional links must not let two 'disjoint' paths collide."""
        adjacency = {
            "S": {"A": 1.0, "B": 1.0},
            "A": {"S": 1.0, "B": 1.0, "T": 1.0},
            "B": {"S": 1.0, "A": 1.0, "T": 1.0},
            "T": {"A": 1.0, "B": 1.0},
        }
        paths = disjoint_paths(adjacency, "S", "T", k=2)
        assert len(paths) == 2
        assert_node_disjoint(paths, "S", "T")


class TestKDisjoint:
    def test_k3_on_reference(self, reference_topology):
        # ATL->DEN admits three node-disjoint paths (via DFW, LAX, and
        # the long way around through WAS/NYC/CHI).
        paths = disjoint_paths(reference_topology, "ATL", "DEN", k=3)
        assert len(paths) == 3
        assert_node_disjoint(paths, "ATL", "DEN")

    def test_k_larger_than_available(self, diamond):
        paths = disjoint_paths(diamond, "S", "T", k=5)
        assert len(paths) == 2  # the diamond only has two

    def test_sorted_by_weight(self, reference_topology):
        adjacency = adjacency_of(reference_topology)
        paths = disjoint_paths(reference_topology, "WAS", "SEA", k=3)
        weights = [path_weight(adjacency, p) for p in paths]
        assert weights == sorted(weights)

    def test_shared_middle_node_blocks_second_path(self):
        # Two edge-disjoint paths exist, but both pass through M.
        adjacency = {
            "S": {"A": 1.0, "B": 1.0},
            "A": {"M": 1.0},
            "B": {"M": 1.0},
            "M": {"C": 1.0, "D": 1.0},
            "C": {"T": 1.0},
            "D": {"T": 1.0},
            "T": {},
        }
        assert len(disjoint_paths(adjacency, "S", "T", k=2)) == 1


class TestAgainstMaxFlow:
    """Menger's theorem: max #disjoint paths == max flow."""

    @given(random_adjacency(max_nodes=7))
    @settings(max_examples=50, deadline=None)
    def test_count_matches_menger(self, adjacency):
        source, target = endpoints(adjacency)
        if target in adjacency.get(source, {}):
            # A direct edge makes "node-disjoint" counting trivial but
            # still valid; keep the case.
            pass
        expected = max_disjoint_path_count(adjacency, source, target)
        paths = disjoint_paths(adjacency, source, target, k=max(1, expected + 1))
        assert len(paths) == expected

    @given(random_adjacency(max_nodes=7))
    @settings(max_examples=50, deadline=None)
    def test_paths_are_disjoint_and_valid(self, adjacency):
        source, target = endpoints(adjacency)
        paths = disjoint_paths(adjacency, source, target, k=3)
        assert_node_disjoint(paths, source, target)
        for path in paths:
            for u, v in zip(path, path[1:]):
                assert v in adjacency[u], f"path uses missing edge {u}->{v}"


def views(index, count: int, seed: int):
    """``count`` (weights, k, excluded) solves: inflated, excluding, and base."""
    rng = random.Random(seed)
    links = range(len(index.edges))
    drawn = [(index.latencies, 2, frozenset())]
    for _ in range(count):
        weights = list(index.latencies)
        for link in rng.sample(links, rng.randrange(6)):
            weights[link] += rng.choice((0.5, 5.0, 40.0))
        excluded = frozenset(rng.sample(links, rng.randrange(8)))
        drawn.append((weights, rng.choice((1, 2, 2, 3)), excluded))
    drawn.append((index.latencies, 3, frozenset()))
    return drawn


class TestSharedNetwork:
    """One network per (topology, flow), shared by callers and threads."""

    def test_one_network_per_flow(self):
        topology = build_reference_topology()
        index = topology.routing_index
        network = index.network("NYC", "SJC")
        assert index.network("NYC", "SJC") is network
        assert index.network("SJC", "NYC") is not network
        k_disjoint_paths_graph(topology, "NYC", "SJC")
        assert sorted(key for key in index._memo if key[0] == "network") == [
            ("network", "NYC", "SJC"),
            ("network", "SJC", "NYC"),
        ]

    def test_base_view_is_solved_once(self, monkeypatch):
        index = build_reference_topology().routing_index
        network = index.network("NYC", "SJC")
        sends = []
        original = MinCostFlow.send

        def counting(self, *args):
            sends.append(args)
            return original(self, *args)

        monkeypatch.setattr(MinCostFlow, "send", counting)
        first = network.disjoint_paths(index.latencies, 2)
        first[0].append("mutated by a caller")
        again = network.disjoint_paths(index.latencies, 2)
        assert len(sends) == 1
        # Equal weights in another list are not the base view: solved.
        assert network.disjoint_paths(list(index.latencies), 2) == again
        assert len(sends) == 2
        assert again == SplitNetwork(index, "NYC", "SJC").disjoint_paths(
            list(index.latencies), 2
        )

    def test_networks_stay_out_of_the_pickle(self):
        topology = build_reference_topology()
        bare = pickle.dumps(topology)
        index = topology.routing_index
        pickled_index = pickle.dumps(topology)
        expected = index.network("NYC", "SJC").disjoint_paths(index.latencies, 2)
        shipped = pickle.dumps(topology)
        assert len(shipped) == len(pickled_index) > len(bare)
        restored = pickle.loads(shipped).routing_index
        assert restored._memo == {}
        assert restored.network("NYC", "SJC").disjoint_paths(
            restored.latencies, 2
        ) == expected

    def test_concurrent_solves_match_serial(self):
        """Threads re-solving different views of one network get the
        serial answers, however often they switch.  Every solve forks its
        own costs, residuals, potentials and relax lists; the base view's
        answer is the one shared result."""
        workload = resolve_workload("isp-hier", 100, 7)
        index = workload.topology.routing_index
        flow = workload.flows[0]
        solves = views(index, 24, seed=5)
        serial = SplitNetwork(index, flow.source, flow.destination)
        expected = [serial.disjoint_paths(*solve) for solve in solves]
        shared = SplitNetwork(index, flow.source, flow.destination)
        base_solves: list = []
        solve = shared._solve

        def counting(weights, k, excluded):
            if weights is index.latencies:
                base_solves.append(k)
            return solve(weights, k, excluded)

        shared._solve = counting
        failures: list = []

        def worker(seed: int) -> None:
            order = list(range(len(solves)))
            random.Random(seed).shuffle(order)
            for position in order * 3:
                try:
                    got = shared.disjoint_paths(*solves[position])
                except Exception as error:  # noqa: BLE001 - reported below
                    failures.append((position, repr(error)))
                    return
                if got != expected[position]:
                    failures.append((position, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert sorted(base_solves) == [2, 3]  # once each, however many ask
