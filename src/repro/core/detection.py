"""Problem detection and classification.

The paper's data analysis found that the cases where two disjoint paths do
not perform well "typically involve problems around a source or
destination" (abstract claim C3).  The targeted-redundancy scheme therefore
classifies the current loss pattern, *per flow*, into:

* ``SOURCE`` -- several of the source's adjacent links are degraded;
* ``DESTINATION`` -- several of the destination's adjacent links are;
* ``SOURCE_AND_DESTINATION`` -- both at once;
* ``MIDDLE`` -- degradation elsewhere in the network (handled by
  re-routing, not by adding redundancy);
* ``NONE`` -- clean network.

:class:`ProblemClassifier` is the pure, stateless rule;
:class:`ProblemDetector` adds the temporal behaviour a deployed system
needs: detection only sees conditions that have already propagated through
link-state flooding, and a *hold-down* keeps a problem graph installed for
a minimum time so short gaps in a bursty outage do not cause flapping.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.graph import Edge, NodeId, Topology
from repro.util.validation import (
    fail,
    require,
    require_non_negative,
    require_probability,
)

__all__ = [
    "ProblemType",
    "ProblemAssessment",
    "ProblemClassifier",
    "ProblemDetector",
]


class ProblemType(enum.Enum):
    """Where the current loss pattern is concentrated, for one flow."""

    NONE = "none"
    SOURCE = "source"
    DESTINATION = "destination"
    SOURCE_AND_DESTINATION = "source+destination"
    MIDDLE = "middle"


@dataclass(frozen=True)
class ProblemAssessment:
    """Result of classifying one flow's view of the network."""

    problem_type: ProblemType
    degraded_source_links: tuple[Edge, ...]
    degraded_destination_links: tuple[Edge, ...]
    degraded_middle_edges: tuple[Edge, ...]


@dataclass(frozen=True)
class ProblemClassifier:
    """Stateless loss-pattern classifier for a flow.

    ``loss_threshold`` is the per-link loss rate above which a link counts
    as degraded.  ``endpoint_link_threshold`` is how many degraded adjacent
    links make an endpoint problem: with the default of 2, a single bad
    link near an endpoint is treated as a middle problem (routing around it
    suffices -- two disjoint paths still have a clean way in), while two or
    more degraded adjacent links mean path selection alone is running out
    of clean options and targeted redundancy pays off.
    """

    loss_threshold: float = 0.02
    endpoint_link_threshold: int = 2

    def __post_init__(self) -> None:
        require_probability(self.loss_threshold, "loss_threshold")
        require(
            self.endpoint_link_threshold >= 1,
            "endpoint_link_threshold must be >= 1",
        )

    def degraded_edges(self, loss_rates: Mapping[Edge, float]) -> set[Edge]:
        """Edges whose loss rate is at or above the degradation threshold."""
        return {
            edge
            for edge, loss in loss_rates.items()
            if loss >= self.loss_threshold
        }

    def classify(
        self,
        topology: Topology,
        source: NodeId,
        destination: NodeId,
        loss_rates: Mapping[Edge, float],
    ) -> ProblemAssessment:
        """Classify the loss pattern as seen by flow ``source->destination``."""
        if not (topology.has_node(source)):
            fail(f"unknown source {source!r}")
        if not (topology.has_node(destination)):
            fail(f"unknown destination {destination!r}")
        degraded = self.degraded_edges(loss_rates)
        source_links = tuple(
            sorted(e for e in degraded if source in e)
        )
        destination_links = tuple(
            sorted(e for e in degraded if destination in e)
        )
        middle = tuple(
            sorted(e for e in degraded if source not in e and destination not in e)
        )
        # Count degraded *physical* links at the endpoint: an overlay link
        # degraded in both directions is one problem, not two.
        source_physical = {frozenset(e) for e in source_links}
        destination_physical = {frozenset(e) for e in destination_links}
        source_problem = len(source_physical) >= self.endpoint_link_threshold
        destination_problem = (
            len(destination_physical) >= self.endpoint_link_threshold
        )
        if source_problem and destination_problem:
            problem = ProblemType.SOURCE_AND_DESTINATION
        elif source_problem:
            problem = ProblemType.SOURCE
        elif destination_problem:
            problem = ProblemType.DESTINATION
        elif degraded:
            problem = ProblemType.MIDDLE
        else:
            problem = ProblemType.NONE
        return ProblemAssessment(problem, source_links, destination_links, middle)


@dataclass
class ProblemDetector:
    """Stateful per-flow detector with hold-down.

    ``update(now, loss_rates)`` returns the problem type the routing policy
    should act on at time ``now`` (seconds).  A newly observed problem
    takes effect immediately (the caller is responsible for feeding in a
    *delayed* view of conditions to model detection/propagation latency);
    once active, an endpoint problem type is held for at least
    ``hold_down_s`` after the pattern clears, modelling the paper's
    observation that outages are bursty and reverting instantly causes the
    very losses the redundancy is meant to mask.
    """

    topology: Topology
    source: NodeId
    destination: NodeId
    classifier: ProblemClassifier = field(default_factory=ProblemClassifier)
    hold_down_s: float = 10.0

    _active_type: ProblemType = field(default=ProblemType.NONE, init=False)
    _last_seen_s: float = field(default=float("-inf"), init=False)
    _last_update_s: float = field(default=float("-inf"), init=False)

    def __post_init__(self) -> None:
        require_non_negative(self.hold_down_s, "hold_down_s")

    def update(self, now_s: float, loss_rates: Mapping[Edge, float]) -> ProblemType:
        """Feed the current (already-propagated) loss view; get the decision."""
        if not (now_s >= self._last_update_s):
            fail(f"time went backwards: {now_s} < {self._last_update_s}")
        self._last_update_s = now_s
        assessment = self.classifier.classify(
            self.topology, self.source, self.destination, loss_rates
        )
        observed = assessment.problem_type
        if observed is not ProblemType.NONE:
            # Escalate or switch immediately; merge endpoint problems.
            self._active_type = _merge_problem(self._active_type, observed, now_s,
                                               self._last_seen_s, self.hold_down_s)
            self._last_seen_s = now_s
        elif self._active_type is not ProblemType.NONE:
            if now_s - self._last_seen_s >= self.hold_down_s:
                self._active_type = ProblemType.NONE
        return self._active_type


def _merge_problem(
    active: ProblemType,
    observed: ProblemType,
    now_s: float,
    last_seen_s: float,
    hold_down_s: float,
) -> ProblemType:
    """Combine a newly observed problem with a held one.

    While a held endpoint problem is still within its hold-down, observing
    the *other* endpoint's problem escalates to SOURCE_AND_DESTINATION
    rather than dropping the existing protection.
    """
    if active is ProblemType.NONE or now_s - last_seen_s >= hold_down_s:
        return observed
    endpoint = {
        ProblemType.SOURCE,
        ProblemType.DESTINATION,
        ProblemType.SOURCE_AND_DESTINATION,
    }
    if active in endpoint and observed in endpoint and active is not observed:
        return ProblemType.SOURCE_AND_DESTINATION
    if active in endpoint and observed is ProblemType.MIDDLE:
        return active  # keep endpoint protection; re-routing handles middle
    return observed
