"""The continental family: nearest-neighbour overlays and coast-to-coast flows."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.algorithms.maxflow import max_disjoint_path_count
from repro.topogen import coast_to_coast_flows, generate_topology, resolve_workload
from repro.topogen.generators import build_continental
from repro.topogen.registry import DEFAULT_FLOW_COUNT, _resolved
from repro.util.validation import ValidationError
from tests.core.graphutil import adjacency_of


@pytest.fixture(autouse=True, scope="module")
def fresh_registry_memos():
    """This module cycles far more triples than the registry's two
    16-entry memos hold; empty both afterwards, so a workload memoised
    earlier never outlives its artifact's memo entry."""
    yield
    generate_topology.cache_clear()
    _resolved.cache_clear()


def continental(size, seed):
    return generate_topology("continental", size, seed).topology()


class TestGeneration:
    @pytest.mark.parametrize("num_sites", [6, 12, 24])
    def test_site_count(self, num_sites):
        topology = continental(num_sites, 3)
        assert topology.num_nodes == num_sites
        assert topology.frozen

    def test_deterministic(self):
        # A fresh build, past the registry's memo, repeats the bytes.
        assert (
            build_continental(10, 9).to_json()
            == generate_topology("continental", 10, 9).to_json()
        )

    def test_seed_changes_layout(self):
        a = continental(10, 1)
        b = continental(10, 2)
        assert a.edges != b.edges or a.node_attributes("S00") != b.node_attributes(
            "S00"
        )

    def test_min_degree_respected(self):
        topology = continental(15, 4)
        for node in topology.nodes:
            assert len(topology.out_neighbors(node)) >= 3

    def test_too_few_sites_rejected(self):
        with pytest.raises(ValidationError, match="supports sizes 4..48, got 3"):
            generate_topology("continental", 3, 0)

    def test_links_bidirectional_and_symmetric(self):
        topology = continental(10, 5)
        for u, v in topology.edges:
            assert topology.has_edge(v, u)
            assert topology.latency(u, v) == topology.latency(v, u)


class TestBiconnectivity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_two_disjoint_paths_everywhere(self, seed):
        """The generator's contract: every pair admits two node-disjoint
        paths, so every routing scheme in the paper is deployable."""
        topology = continental(12, seed)
        adjacency = adjacency_of(topology)
        nodes = topology.nodes
        # Sampling all pairs is O(n^2) maxflows; spot-check a spread.
        for i in range(0, len(nodes), 3):
            for j in range(1, len(nodes), 4):
                if nodes[i] == nodes[j]:
                    continue
                assert (
                    max_disjoint_path_count(adjacency, nodes[i], nodes[j]) >= 2
                ), (seed, nodes[i], nodes[j])


class TestFlows:
    def test_requested_count(self):
        workload = resolve_workload("continental", 16, 6)
        assert workload.flows == coast_to_coast_flows(
            workload.topology, DEFAULT_FLOW_COUNT
        )
        assert len(workload.flows) == 8
        assert len(set(workload.flows)) == 8

    def test_east_to_west_direction(self):
        topology = continental(16, 6)
        for flow in coast_to_coast_flows(topology, 6):
            source_lon = topology.node_attributes(flow.source)["lon"]
            destination_lon = topology.node_attributes(flow.destination)["lon"]
            assert source_lon > destination_lon  # east of destination

    def test_small_topology(self):
        topology = continental(4, 7)
        flows = coast_to_coast_flows(topology, 2)
        assert 1 <= len(flows) <= 2


class TestPinnedBytes:
    """The family's artifact bytes: a change here moves E11's first pass
    and the table ``examples/scaling_study.py`` prints."""

    def test_digest_sweep(self):
        hasher = hashlib.sha256()
        for size in range(4, 49):
            for seed in range(5):
                digest = generate_topology("continental", size, seed).digest
                hasher.update(digest.encode())
        assert hasher.hexdigest() == (
            "b301642d278cecda62fb9b987cc8dbd0931d7cc3cdc80b034d8694638dd9374d"
        )

    @pytest.mark.parametrize(
        "size,digest",
        [
            (12, "5f2deeaaf76cb95854900e549cae649d4a5f72e529818f9de223f7e5c76b05f0"),
            (16, "6615267808533a882df1d62c97a854c584895038ac63c21a2e9f4d42fed7ea08"),
            (20, "88f5b1ffdd7f7ea941f0c40c03db85d2d7920d7e0fae4bec97e79860755d75c1"),
        ],
    )
    def test_scaling_study_artifacts(self, size, digest):
        assert generate_topology("continental", size, size).digest == digest
