"""From-scratch graph algorithms used by the dissemination-graph builders.

Everything here operates on a plain *weighted adjacency mapping*
(``node -> {neighbor: weight}``) so the algorithms stay decoupled from the
:class:`~repro.core.graph.Topology` type and are easy to property-test
against reference implementations.  :func:`adjacency_from_topology` bridges
the two representations.  The exception is
:class:`~repro.core.algorithms.routing_index.RoutingIndex`, the
integer-indexed graph per-update routing searches under changing
weights.
"""

from repro.core.algorithms.adjacency import (
    Adjacency,
    adjacency_from_topology,
    copy_adjacency,
    reverse_adjacency,
)
from repro.core.algorithms.disjoint import disjoint_paths
from repro.core.algorithms.maxflow import max_disjoint_path_count
from repro.core.algorithms.paths import (
    NoPathError,
    bellman_ford,
    shortest_path,
    single_source_distances,
)
from repro.core.algorithms.steiner import steiner_arborescence
from repro.core.algorithms.yen import k_shortest_paths

__all__ = [
    "Adjacency",
    "NoPathError",
    "adjacency_from_topology",
    "bellman_ford",
    "copy_adjacency",
    "disjoint_paths",
    "k_shortest_paths",
    "max_disjoint_path_count",
    "reverse_adjacency",
    "shortest_path",
    "single_source_distances",
    "steiner_arborescence",
]
