"""Property tests: byte reproducibility and structural invariants.

The tentpole contract is that ``(family, size, seed)`` fixes the artifact
byte-for-byte -- across calls, and across *processes* (no dependence on
hash randomisation, dict order, or ambient state).  Hypothesis drives the
triple; regeneration deliberately bypasses the registry memo so equality
is earned, not cached.
"""

from __future__ import annotations

import json
import subprocess
import sys

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.topogen import family_names
from repro.topogen.registry import family_info

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

triples = st.one_of(
    st.tuples(
        st.sampled_from(("random-geo", "waxman")),
        st.integers(min_value=8, max_value=40),
        st.integers(min_value=0, max_value=999),
    ),
    st.tuples(
        st.just("isp-hier"),
        st.integers(min_value=16, max_value=48),
        st.integers(min_value=0, max_value=999),
    ),
    st.tuples(
        st.just("continental"),
        st.integers(min_value=4, max_value=24),
        st.integers(min_value=0, max_value=999),
    ),
)


def fresh(family, size, seed):
    """Generate without the registry memo (an honest regeneration)."""
    return family_info(family).build(size, seed)


@given(triple=triples)
@SETTINGS
def test_same_triple_same_bytes(triple):
    first = fresh(*triple)
    second = fresh(*triple)
    assert first.to_json() == second.to_json()
    assert first == second


@given(triple=triples)
@SETTINGS
def test_connected_and_latency_symmetric(triple):
    artifact = fresh(*triple)
    topology = artifact.topology()
    # Connectivity: every node reachable from the first.
    neighbors = {node[0]: set() for node in artifact.nodes}
    for a, b, _latency in artifact.links:
        neighbors[a].add(b)
        neighbors[b].add(a)
    first = artifact.nodes[0][0]
    frontier, seen = [first], {first}
    while frontier:
        node = frontier.pop()
        for neighbor in neighbors[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    assert len(seen) == artifact.size
    # Symmetry: undirected links present both ways with equal latency.
    for a, b, latency in artifact.links:
        assert topology.latency(a, b) == topology.latency(b, a) == latency


@given(triple=triples)
@example(triple=("isp-hier", 16, 474))  # C01-C03 outspans the box diagonal
@SETTINGS
def test_latencies_within_declared_bounds(triple):
    artifact = fresh(*triple)
    low = artifact.param("latency_ms_min")
    high = artifact.param("latency_ms_max")
    for _a, _b, latency in artifact.links:
        assert low <= latency <= high


def test_every_family_is_covered_by_the_strategy():
    assert set(family_names()) == {
        "random-geo", "waxman", "isp-hier", "continental",
    }


def test_byte_identity_across_processes(tmp_path):
    """A child interpreter regenerates the identical document."""
    program = (
        "from repro.topogen import generate_topology\n"
        "import sys\n"
        "sys.stdout.write(generate_topology('isp-hier', 60, 11).to_json())\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        check=True,
    )
    from repro.topogen import generate_topology

    assert child.stdout == generate_topology("isp-hier", 60, 11).to_json()
    # And the digest embedded in the document self-verifies.
    document = json.loads(child.stdout)
    assert document["digest"] == generate_topology("isp-hier", 60, 11).digest
