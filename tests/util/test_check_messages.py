"""Replay-path checks: same predicates, same messages, built on failure.

The checks that run per edge, window, boundary or update are written
``if not (condition): fail(f"...")`` so their message is only formatted
when they fail.  Each case below pins one such check's exception type
and its full message, NaN inputs included: ``x >= 0`` rejects NaN, and a
check rewritten as ``x < 0`` would silently let it through.
"""

from __future__ import annotations

import re

import pytest

from repro.core.detection import ProblemClassifier, ProblemDetector
from repro.core.dgraph import DisseminationGraph
from repro.core.encoding import encode_graph
from repro.core.graph import Topology
from repro.exec.plan import ShardSpec, build_plan, merge_results
from repro.netmodel.conditions import ConditionTimeline, Contribution, LinkState
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing.registry import make_policy
from repro.simulation.reliability import (
    DeliveryProbabilities,
    classify_delivery_masks,
    classify_indexed,
    classify_recovery_states,
    index_graph,
)
from repro.simulation.results import ReplayConfig
from repro.simulation.timeline import build_decision_timeline
from repro.util.validation import (
    ValidationError,
    require_non_negative,
    require_positive,
    require_probability,
)

NAN = float("nan")
#: Sorted edges: ("A", "T") is slot 0, ("S", "A") slot 1.
PATH = DisseminationGraph.from_path(["S", "A", "T"])
BAD_EDGE = ("S", "A")
FLOW = FlowSpec("S", "T")


def _line() -> Topology:
    topology = Topology("line")
    for node in ("S", "A", "T"):
        topology.add_node(node)
    topology.add_link("S", "A", 1.0)
    topology.add_link("A", "T", 1.0)
    return topology.freeze()


def _per_edge(bad: float, clean: float):
    return lambda edge: bad if edge == BAD_EDGE else clean


def _classify(radix: int, *, latency=1.0, loss=0.5, recovery=5.0):
    """Both radices through the public callback entry point."""
    latency_of, loss_of = _per_edge(latency, 1.0), _per_edge(loss, 0.0)
    if radix == 2:
        return classify_delivery_masks(PATH, 10.0, latency_of, loss_of)
    return classify_recovery_states(
        PATH, 10.0, latency_of, loss_of, _per_edge(recovery, 5.0)
    )


def _classify_indexed(radix: int, *, latency=1.0, loss=0.5, recovery=5.0):
    """Both radices through the index the replay's memo passes."""
    recovery_latencies = None if radix == 2 else [5.0, recovery]
    return classify_indexed(
        index_graph(PATH), 10.0, [1.0, latency], [0.0, loss], 20, recovery_latencies
    )


def _update_backwards(now_s: float):
    policy = make_policy("static-single")
    policy.attach(_line(), FLOW, ServiceSpec())
    policy.update(2.0, {})
    policy.update(now_s, {})


def _detect_backwards():
    detector = ProblemDetector(_line(), "S", "T")
    detector.update(2.0, {})
    detector.update(1.0, {})


def _decision_timeline(boundaries: list[float]):
    topology = _line()
    timeline = ConditionTimeline(topology, 4.0)
    build_decision_timeline(
        topology,
        timeline,
        FLOW,
        ServiceSpec(),
        make_policy("dynamic-single"),
        boundaries=boundaries,
    )


def _case(call, message: str, label: str | None = None):
    return pytest.param(call, message, id=label or message)


def _merge_missing():
    plan = [ShardSpec(FLOW, "flooding")]
    merge_results(ServiceSpec(), ReplayConfig(), plan, {})


CASES = [
    # -- util.validation helpers (every LinkState and Contribution) --
    _case(lambda: require_probability(NAN, "p"), "p must be in [0, 1], got nan"),
    _case(lambda: require_positive(NAN, "x"), "x must be > 0, got nan"),
    _case(lambda: require_non_negative(NAN, "x"), "x must be >= 0, got nan"),
    _case(lambda: require_non_negative(-1.0, "x"), "x must be >= 0, got -1.0"),
    _case(lambda: LinkState(loss_rate=NAN), "loss_rate must be in [0, 1], got nan"),
    _case(
        lambda: LinkState(extra_latency_ms=NAN),
        "extra_latency_ms must be >= 0, got nan",
    ),
    # -- the classifier, both radices, both entry points --
    *[
        _case(
            lambda entry=entry, radix=radix, kwargs=kwargs: entry(radix, **kwargs),
            message,
            f"{entry.__name__.strip('_')}-radix{radix}-{message}",
        )
        for entry in (_classify, _classify_indexed)
        for radix in (2, 3)
        for kwargs, message in (
            ({"loss": NAN}, "loss out of range on ('S', 'A'): nan"),
            ({"loss": 1.5}, "loss out of range on ('S', 'A'): 1.5"),
            ({"latency": NAN}, "negative latency on ('S', 'A'): nan"),
            ({"latency": -5.0}, "negative latency on ('S', 'A'): -5.0"),
        )
    ],
    _case(
        lambda: _classify(3, latency=20.0, recovery=NAN),
        "negative recovery latency on ('S', 'A'): nan",
    ),
    _case(
        lambda: _classify_indexed(3, latency=20.0, recovery=-1.0),
        "negative recovery latency on ('S', 'A'): -1.0",
    ),
    _case(
        lambda: classify_indexed(index_graph(PATH), NAN, [1.0, 1.0], [0.0, 0.0], 20),
        "deadline must be positive, got nan",
    ),
    _case(
        lambda: DeliveryProbabilities(0.5, 0.25),
        "inconsistent probabilities: on_time=0.5, eventually=0.25",
    ),
    _case(
        lambda: DeliveryProbabilities(NAN, 1.0),
        "inconsistent probabilities: on_time=nan, eventually=1.0",
    ),
    # -- dissemination graphs --
    _case(
        lambda: DisseminationGraph("S", "T", frozenset({("A", "A")})),
        "self-loop edge ('A', 'A')",
    ),
    _case(
        lambda: DisseminationGraph("S", "T", frozenset({("A",)})),
        "edge must be a (source, target) pair, got ('A',)",
    ),
    _case(
        lambda: DisseminationGraph.from_path(["S", "A", "S", "T"]),
        "path revisits a node: ['S', 'A', 'S', 'T']",
    ),
    # -- topology and condition timeline --
    _case(lambda: _line().link("A", "Z"), "no link ('A', 'Z')"),
    _case(
        lambda: encode_graph(
            _line(), DisseminationGraph("S", "T", frozenset({("A", "Z")}))
        ),
        "edge ('A', 'Z') not in topology",
    ),
    *[
        _case(lambda accessor=accessor: accessor(_line(), "Z"), "unknown node 'Z'", name)
        for name, accessor in (
            ("node_attributes", Topology.node_attributes),
            ("out_neighbors", Topology.out_neighbors),
            ("in_neighbors", Topology.in_neighbors),
            ("adjacent_edges", Topology.adjacent_edges),
        )
    ],
    _case(
        lambda: ConditionTimeline(
            _line(), 4.0, [Contribution(("S", "T"), 0.0, 1.0, LinkState(0.5))]
        ),
        "contribution references unknown edge ('S', 'T')",
    ),
    _case(
        lambda: ConditionTimeline(_line(), 4.0).state_at(("S", "A"), NAN),
        "time nan outside [0, 4.0]",
    ),
    _case(
        lambda: ConditionTimeline(_line(), 4.0).degraded_views([2.0, 1.0]),
        "view query times must be non-decreasing (1.0 after 2.0)",
    ),
    # -- decision timelines, policies and detectors --
    _case(
        lambda: _decision_timeline([0.0, 1.0, 1.0, 4.0]),
        "boundaries must be strictly increasing (1.0 after 1.0)",
    ),
    _case(
        lambda: _decision_timeline([0.0, NAN, 4.0]),
        "boundaries must be strictly increasing (nan after 0.0)",
    ),
    _case(
        lambda: _update_backwards(1.0),
        "policy updates must move forward in time (1.0 < 2.0)",
    ),
    _case(
        lambda: _update_backwards(NAN),
        "policy updates must move forward in time (nan < 2.0)",
    ),
    _case(
        lambda: make_policy("static-single").update(0.0, {}),
        "policy static-single is not attached",
    ),
    *[
        _case(
            lambda attribute=attribute: getattr(make_policy("flooding"), attribute),
            "policy flooding is not attached",
            f"unattached-{attribute}",
        )
        for attribute in ("topology", "flow", "service")
    ],
    _case(_detect_backwards, "time went backwards: 1.0 < 2.0"),
    _case(
        lambda: ProblemClassifier().classify(_line(), "Z", "T", {}),
        "unknown source 'Z'",
    ),
    # -- the execution plan --
    _case(
        lambda: build_plan([FLOW, FLOW], ["flooding"]),
        "duplicate (scheme, flow) pair flooding/S->T",
    ),
    _case(_merge_missing, "missing result for shard flooding/S->T"),
]


@pytest.mark.parametrize("call, message", CASES)
def test_check_raises_its_full_message(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
