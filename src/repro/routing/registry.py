"""Factory for the paper's standard scheme line-up.

The evaluation compares six schemes; benches and the CLI construct them by
name through this registry so every entry point agrees on parameters.
"""

from __future__ import annotations

from typing import Callable

from repro.routing.base import RoutingPolicy
from repro.routing.dynamic import DynamicSinglePathPolicy, DynamicTwoDisjointPolicy
from repro.routing.flooding import TimeConstrainedFloodingPolicy
from repro.routing.static import StaticKDisjointPolicy, StaticSinglePathPolicy
from repro.routing.targeted import TargetedRedundancyPolicy
from repro.util.validation import require

__all__ = [
    "EXTENDED_SCHEME_NAMES",
    "STANDARD_SCHEME_NAMES",
    "make_policy",
]

_FACTORIES: dict[str, Callable[[], RoutingPolicy]] = {
    "static-single": StaticSinglePathPolicy,
    "dynamic-single": DynamicSinglePathPolicy,
    "static-two-disjoint": lambda: StaticKDisjointPolicy(k=2),
    "dynamic-two-disjoint": DynamicTwoDisjointPolicy,
    "targeted": TargetedRedundancyPolicy,
    "flooding": TimeConstrainedFloodingPolicy,
    # Extended spectrum (beyond the paper's six): more disjoint paths --
    # the "just add another path" alternative the targeted approach is
    # measured against in the redundancy-spectrum ablation.
    "static-three-disjoint": lambda: StaticKDisjointPolicy(k=3),
    "dynamic-three-disjoint": lambda: DynamicTwoDisjointPolicy(k=3),
}

#: Scheme names in the paper's presentation order (worst to best).
STANDARD_SCHEME_NAMES: tuple[str, ...] = (
    "static-single",
    "dynamic-single",
    "static-two-disjoint",
    "dynamic-two-disjoint",
    "targeted",
    "flooding",
)

#: Additional schemes available beyond the paper's line-up.
EXTENDED_SCHEME_NAMES: tuple[str, ...] = (
    "static-three-disjoint",
    "dynamic-three-disjoint",
)


def make_policy(name: str) -> RoutingPolicy:
    """Construct a fresh, unattached policy by scheme name."""
    require(
        name in _FACTORIES,
        f"unknown scheme {name!r}; known: {', '.join(sorted(_FACTORIES))}",
    )
    return _FACTORIES[name]()
