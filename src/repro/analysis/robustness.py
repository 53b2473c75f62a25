"""Multi-seed robustness analysis of the headline results.

Heavy-tailed problem episodes make any single trace noisy; the paper's
claims should (and do) hold across traces.  This module runs the full
evaluation over several seeds and aggregates gap coverage and cost
overhead into mean / min / max summaries -- the numbers EXPERIMENTS.md
reports and the E10 bench regenerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.metrics import DEFAULT_BASELINE, DEFAULT_OPTIMAL, gap_coverage
from repro.core.graph import Topology
from repro.exec.engine import run_replay_parallel
from repro.netmodel.scenarios import Scenario, generate_timeline
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.simulation.cost import cost_comparison
from repro.simulation.results import ReplayConfig
from repro.util.stats import mean
from repro.util.validation import require

__all__ = ["SeedOutcome", "RobustnessSummary", "run_seed_sweep", "summarize"]


@dataclass(frozen=True)
class SeedOutcome:
    """Headline metrics of one seed's full replay."""

    seed: int
    gap_coverage: dict[str, float]  # scheme -> fraction
    cost_overhead_targeted: float  # vs two disjoint paths
    unavailable_s: dict[str, float]


@dataclass(frozen=True)
class RobustnessSummary:
    """Aggregate of a seed sweep for one scheme."""

    scheme: str
    mean_coverage: float
    min_coverage: float
    max_coverage: float
    seeds: int


def run_seed_sweep(
    topology: Topology,
    scenario: Scenario,
    flows: Sequence[FlowSpec],
    service: ServiceSpec,
    seeds: Sequence[int],
    scheme_names: Sequence[str] = (
        "static-single",
        DEFAULT_BASELINE,
        "static-two-disjoint",
        "dynamic-two-disjoint",
        "targeted",
        DEFAULT_OPTIMAL,
    ),
    config: ReplayConfig = ReplayConfig(),
    max_workers: int = 0,
    use_cache: bool = False,
) -> list[SeedOutcome]:
    """Replay the full evaluation once per seed.

    Each seed's replay is an independent shard-and-merge job on the
    execution engine; ``max_workers``/``use_cache`` parallelise it and
    reuse cached shards across sweep invocations (the E10 bench sets
    both from the ``REPRO_BENCH_*`` environment variables).
    """
    require(bool(seeds), "need at least one seed")
    outcomes = []
    for seed in seeds:
        _events, timeline = generate_timeline(topology, scenario, seed=seed)
        result, _telemetry = run_replay_parallel(
            topology,
            timeline,
            flows,
            service,
            scheme_names,
            config,
            max_workers=max_workers,
            use_cache=use_cache,
            label=f"seed sweep (seed {seed})",
        )
        coverage = {
            scheme: gap_coverage(result, scheme)
            for scheme in scheme_names
            if scheme not in (DEFAULT_BASELINE, DEFAULT_OPTIMAL)
        }
        comparison = {c.scheme: c for c in cost_comparison(result)}
        outcomes.append(
            SeedOutcome(
                seed=seed,
                gap_coverage=coverage,
                cost_overhead_targeted=comparison["targeted"].overhead_vs_baseline,
                unavailable_s={
                    scheme: result.totals(scheme).unavailable_s
                    for scheme in scheme_names
                },
            )
        )
    return outcomes


def summarize(outcomes: Sequence[SeedOutcome]) -> list[RobustnessSummary]:
    """Per-scheme coverage statistics across seeds."""
    require(bool(outcomes), "need at least one outcome")
    schemes = sorted(outcomes[0].gap_coverage)
    summaries = []
    for scheme in schemes:
        values = [outcome.gap_coverage[scheme] for outcome in outcomes]
        summaries.append(
            RobustnessSummary(
                scheme=scheme,
                mean_coverage=mean(values),
                min_coverage=min(values),
                max_coverage=max(values),
                seeds=len(values),
            )
        )
    return summaries
