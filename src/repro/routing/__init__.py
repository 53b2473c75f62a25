"""Routing policies: the six schemes the paper's evaluation compares.

Every policy exposes the same tiny interface
(:class:`~repro.routing.base.RoutingPolicy`): given the *observed* network
view at a decision time, return the dissemination graph to use until the
next decision.  The replay engines feed policies a delayed view of
conditions (modelling monitoring + link-state propagation latency) and
charge them the cost of every edge in whatever graph they pick.

Schemes (paper Section VI):

=====================  ==========================================================
``static-single``      one fixed lowest-latency path
``dynamic-single``     lowest-latency path avoiding currently degraded links
``static-two-disjoint``  one fixed pair of node-disjoint paths
``dynamic-two-disjoint`` re-selected pair of node-disjoint paths
``targeted``           the paper's contribution: two disjoint paths plus
                       precomputed targeted redundancy on endpoint problems
``flooding``           time-constrained flooding (optimal, expensive)
=====================  ==========================================================
"""

from repro.routing.base import RoutingPolicy
from repro.routing.dynamic import DynamicSinglePathPolicy, DynamicTwoDisjointPolicy
from repro.routing.flooding import TimeConstrainedFloodingPolicy
from repro.routing.registry import (
    EXTENDED_SCHEME_NAMES,
    STANDARD_SCHEME_NAMES,
    make_policy,
)
from repro.routing.static import StaticKDisjointPolicy, StaticSinglePathPolicy
from repro.routing.targeted import TargetedRedundancyPolicy

__all__ = [
    "DynamicSinglePathPolicy",
    "DynamicTwoDisjointPolicy",
    "EXTENDED_SCHEME_NAMES",
    "RoutingPolicy",
    "STANDARD_SCHEME_NAMES",
    "StaticKDisjointPolicy",
    "StaticSinglePathPolicy",
    "TargetedRedundancyPolicy",
    "TimeConstrainedFloodingPolicy",
    "make_policy",
]
