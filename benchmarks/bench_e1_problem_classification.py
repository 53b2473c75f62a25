"""E1 -- Problem classification (paper's network-data analysis, claim C3).

Regenerates two tables:

1. the distribution of potential problems per flow perspective, and
2. the *unavailability attribution* of two disjoint paths: among the time
   the paper's baseline redundant scheme fails, which problem type was
   active.  The paper's finding: failures concentrate around sources and
   destinations.
"""

from __future__ import annotations

from collections import Counter

import common

from repro.analysis.classify import (
    attribute_unavailability,
    classification_distribution,
    classify_events_for_flows,
)
from repro.analysis.reporting import format_classification_table
from repro.simulation.interval import run_replay
from repro.simulation.results import ReplayConfig


def classify():
    events, _timeline = common.trace()
    return classify_events_for_flows(
        common.topology(), common.flows(), events, common.service().deadline_ms
    )


def test_e1_event_classification(benchmark):
    problems = benchmark(classify)
    counts = Counter(problem.category for problem in problems)
    print(common.banner("E1a: potential problems per flow perspective"))
    print(
        format_classification_table(
            classification_distribution(problems), counts
        )
    )


def test_e1_unavailability_attribution(benchmark):
    events, timeline = common.trace()

    def attribute():
        result = run_replay(
            common.topology(),
            timeline,
            common.flows(),
            common.service(),
            scheme_names=("static-two-disjoint",),
            config=ReplayConfig(
                detection_delay_s=common.DETECTION_DELAY_S, collect_windows=True
            ),
        )
        return attribute_unavailability(common.topology(), timeline, result)

    attribution = benchmark.pedantic(attribute, rounds=1, iterations=1)
    total = sum(attribution.values())
    print(common.banner("E1b: two-disjoint unavailability by problem location"))
    for category in ("destination", "source", "source+destination", "middle", "none"):
        seconds = attribution[category]
        share = 100 * seconds / total if total else 0.0
        print(f"  {category:20s} {seconds:10.1f} s   {share:5.1f}%")
    endpoint = total - attribution["middle"] - attribution["none"]
    endpoint_share = 100 * endpoint / total if total else 0.0
    print(
        f"  => {endpoint_share:.1f}% of two-disjoint failures involve "
        "a source/destination problem (paper: 'typically')"
    )
