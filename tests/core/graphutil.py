"""Shared helpers for algorithm tests: random graphs, networkx bridges, and
conversions between dict adjacencies and frozen topologies."""

from __future__ import annotations

import networkx as nx
from hypothesis import strategies as st

from repro.core.algorithms.adjacency import Adjacency
from repro.core.graph import Topology


@st.composite
def random_adjacency(
    draw,
    min_nodes: int = 2,
    max_nodes: int = 8,
    edge_probability: float = 0.5,
    max_weight: float = 10.0,
) -> Adjacency:
    """A random weighted digraph containing nodes "N0".."Nk".

    Node "N0" is the conventional source, the highest-numbered node the
    target; connectivity is not guaranteed (tests must handle NoPath).
    """
    count = draw(st.integers(min_nodes, max_nodes))
    nodes = [f"N{i}" for i in range(count)]
    adjacency: Adjacency = {node: {} for node in nodes}
    for u in nodes:
        for v in nodes:
            if u == v:
                continue
            if draw(st.booleans()) and draw(
                st.floats(0, 1, allow_nan=False)
            ) < edge_probability:
                weight = draw(
                    st.floats(0.1, max_weight, allow_nan=False, allow_infinity=False)
                )
                adjacency[u][v] = weight
    return adjacency


def to_networkx(adjacency: Adjacency) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(adjacency)
    for u, neighbors in adjacency.items():
        for v, weight in neighbors.items():
            graph.add_edge(u, v, weight=weight)
    return graph


def endpoints(adjacency: Adjacency) -> tuple[str, str]:
    nodes = sorted(adjacency)
    return nodes[0], nodes[-1]


def topology_of(adjacency: Adjacency) -> Topology:
    """The frozen topology with exactly the adjacency's directed edges."""
    topology = Topology("adjacency")
    for node in adjacency:
        topology.add_node(node)
    for u, neighbors in adjacency.items():
        for v, weight in neighbors.items():
            topology.add_link(u, v, weight, bidirectional=False)
    return topology.freeze()


def adjacency_of(topology: Topology) -> Adjacency:
    """The topology's links as a latency-weighted dict adjacency (for the
    dict-based oracles)."""
    adjacency: Adjacency = {node: {} for node in topology.nodes}
    for link in topology.iter_links():
        adjacency[link.source][link.target] = link.latency_ms
    return adjacency


def path_weight(adjacency: Adjacency, path) -> float:
    return sum(adjacency[u][v] for u, v in zip(path, path[1:]))
