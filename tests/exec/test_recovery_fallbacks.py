"""Lower-bound hop-recovery windows are counted everywhere they are reported.

A hop-recovery window that no fast path decides and that has more lossy
edges than ``max_recovery_lossy_edges`` is answered with the no-recovery
lower bound.  The memo counts it in ``recovery_fallbacks``; that count must
reach exec telemetry, the ``exec.prob_cache.*`` metrics, the serve
memo sums and the ``evaluate --trace`` manifest.
"""

from __future__ import annotations

import functools

import repro.cli
import repro.serve.session
from repro.exec.engine import run_replay_parallel
from repro.netmodel.conditions import ConditionTimeline, Contribution, LinkState
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.obs import Observability, read_manifest
from repro.serve.state import ContextCache
from repro.simulation.results import ReplayConfig

from tests.exec.test_plan import SMALL_SCHEMES, braided_topology

#: A ternary cap of one lossy edge: any window with two is a fallback.
CONFIG = ReplayConfig(hop_recovery=True, max_recovery_lossy_edges=1)


def _case():
    topology = braided_topology()
    # S-A and S-C, the source's only links, are lossy together over
    # [60, 110): without them nothing arrives (so the baseline fast path
    # cannot decide), and a graph using both exceeds the cap of one.
    timeline = ConditionTimeline(
        topology,
        600.0,
        [
            Contribution(("S", "A"), 40.0, 110.0, LinkState(loss_rate=0.3)),
            Contribution(("S", "C"), 60.0, 110.0, LinkState(loss_rate=0.3)),
        ],
    )
    return topology, timeline, (FlowSpec("S", "T"),), ServiceSpec(deadline_ms=8.0)


def _replay(**kwargs):
    topology, timeline, flows, service = _case()
    return run_replay_parallel(
        topology,
        timeline,
        flows,
        service,
        SMALL_SCHEMES,
        CONFIG,
        max_workers=0,
        use_cache=False,
        **kwargs,
    )


class TestRecoveryFallbacksReported:
    def test_telemetry_dict(self):
        _result, telemetry = _replay()
        assert telemetry.to_dict()["prob_recovery_fallbacks"] >= 1

    def test_obs_counter(self):
        obs = Observability()
        _replay(obs=obs)
        assert obs.metrics.value("exec.prob_cache.recovery_fallbacks") >= 1

    def test_serve_memo_sums(self):
        topology, timeline, _flows, service = _case()
        contexts = ContextCache()
        context, _warm = contexts.get(topology, timeline, service, CONFIG)
        _replay(context=context)
        assert contexts.prob_counters()["recovery_fallbacks"] >= 1

    def test_evaluate_trace_manifest(self, tmp_path, monkeypatch):
        # ``evaluate`` has no hop-recovery flag; pin the config it builds.
        # Seed 2's trace has flooding windows that need their lossy edges
        # to arrive on time (seed 5's are all decided by a fast path).
        monkeypatch.setattr(
            repro.serve.session,
            "ReplayConfig",
            functools.partial(
                ReplayConfig, hop_recovery=True, max_recovery_lossy_edges=1
            ),
        )
        code = repro.cli.main(
            [
                "evaluate", "--weeks", "0.02", "--seed", "2", "--no-cache",
                "--schemes", "flooding",
                "--trace", "--trace-out", str(tmp_path),
            ]
        )
        assert code == 0
        manifest = read_manifest(tmp_path / "manifest.json")
        assert manifest.exec["prob_recovery_fallbacks"] >= 1
