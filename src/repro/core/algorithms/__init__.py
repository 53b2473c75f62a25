"""From-scratch graph algorithms behind the dissemination-graph builders.

Every routing search runs on one graph per frozen topology,
:class:`~repro.core.algorithms.routing_index.RoutingIndex`
(``Topology.routing_index``): shortest paths, distances, through
latencies (the flooding criterion), the greedy Steiner arborescence, and
-- through :class:`~repro.core.algorithms.routing_index.SplitNetwork` and
the successive-shortest-paths min-cost flow -- minimum-total-latency
node-disjoint paths.  The builders call it at base latencies, the
dynamic and targeted policies under each observed view.

Bellman-Ford (:mod:`~repro.core.algorithms.paths`), Edmonds-Karp max
flow (:mod:`~repro.core.algorithms.maxflow`) and the node splitting they
run on (:mod:`~repro.core.algorithms.adjacency`) work on plain dict
adjacencies and share no code with the index: they are the tests'
independent oracles.
"""

from repro.core.algorithms.paths import NoPathError
from repro.core.algorithms.routing_index import RoutingIndex, SplitNetwork

__all__ = ["NoPathError", "RoutingIndex", "SplitNetwork"]
