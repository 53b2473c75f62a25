"""The observability layer wired through kernel, network, nodes, chaos.

The central contracts:

* **exact reconciliation** -- the ``net.*`` counters mirror the
  network's ``sent``/``dropped`` stats bitwise, and per-flow delivery
  counters mirror the flow reports;
* **zero interference** -- a run with observability attached produces
  exactly the same protocol outcome as the same run without it;
* **flight triggers** -- invariant violations and unhealthy flows
  snapshot the recorder (and auto-dump when a directory is set).
"""

from __future__ import annotations

import pytest

from repro.chaos.faults import FaultSchedule, LinkBlackhole
from repro.netmodel.conditions import ConditionTimeline, Contribution, LinkState
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.obs import Observability
from repro.overlay.harness import build_overlay

FLOW = FlowSpec("S", "T")
SERVICE = ServiceSpec(deadline_ms=15.0, send_interval_ms=10.0, rtt_budget_ms=30.0)


def _run(diamond, obs=None, duration_s=20.0, contributions=(), faults=None):
    timeline = ConditionTimeline(diamond, duration_s + 5.0, contributions)
    harness = build_overlay(
        diamond, timeline, [FLOW], SERVICE, scheme="static-two-disjoint",
        seed=3, obs=obs,
    )
    harness.start()
    harness.run(duration_s, faults=faults)
    harness.stop_traffic()
    return harness


def _lossy(diamond):
    return [
        Contribution(edge, 2.0, 18.0, LinkState(loss_rate=0.3))
        for edge in diamond.adjacent_edges("T")
    ]


class TestReconciliation:
    def test_per_link_counters_match_network_stats_exactly(self, diamond):
        obs = Observability()
        harness = _run(diamond, obs, contributions=_lossy(diamond))
        assert harness.network.total_dropped() > 0
        for edge, count in harness.network.sent.items():
            label = f"{edge[0]}->{edge[1]}"
            assert obs.metrics.value(f"net.sent.{label}") == count
        for edge, count in harness.network.dropped.items():
            label = f"{edge[0]}->{edge[1]}"
            assert obs.metrics.value(f"net.dropped.{label}") == count
        # And nothing else: every net.sent/net.dropped counter has a
        # matching stats entry, so the totals agree too.
        sent_total = sum(
            obs.metrics.value(name) for name in obs.metrics.names("net.sent.")
        )
        dropped_total = sum(
            obs.metrics.value(name)
            for name in obs.metrics.names("net.dropped.")
        )
        assert sent_total == harness.network.total_sent()
        assert dropped_total == harness.network.total_dropped()

    def test_delivery_counter_matches_reports(self, diamond):
        obs = Observability()
        harness = _run(diamond, obs, contributions=_lossy(diamond))
        delivered = sum(r.delivered for r in harness.reports.values())
        assert obs.metrics.value("node.delivered") == delivered
        latency = obs.metrics.summarize()[f"flow.latency_ms.{FLOW.name}"]
        assert latency["count"] == delivered

    def test_kernel_event_metrics(self, diamond):
        obs = Observability()
        harness = _run(diamond, obs)
        assert obs.metrics.value("kernel.events") == harness.kernel.processed
        depth = obs.metrics.summarize()["kernel.queue_depth"]
        assert depth["count"] == harness.kernel.processed
        lag = obs.metrics.summarize()["kernel.lag_s"]
        assert lag["min"] >= 0.0


class TestZeroInterference:
    def test_observed_run_is_bitwise_identical(self, diamond):
        plain = _run(diamond, None, contributions=_lossy(diamond))
        observed = _run(
            diamond, Observability(), contributions=_lossy(diamond)
        )
        assert plain.network.sent == observed.network.sent
        assert plain.network.dropped == observed.network.dropped
        for name in plain.reports:
            assert (
                plain.reports[name].latencies_ms
                == observed.reports[name].latencies_ms
            )


class TestSpans:
    def test_packet_journeys_and_hops_linked(self, diamond):
        obs = Observability()
        harness = _run(diamond, obs)
        journeys = [
            s for s in obs.tracer.spans if s.name == "packet.journey"
        ]
        assert len(journeys) == harness.reports[FLOW.name].sent
        journey_ids = {s.span_id for s in journeys}
        hops = [s for s in obs.tracer.spans if s.name == "hop"]
        assert hops
        assert all(hop.parent_id in journey_ids for hop in hops)

    def test_delivered_journeys_closed_with_latency(self, diamond):
        obs = Observability()
        harness = _run(diamond, obs)
        obs.tracer.finalize()
        delivered = [
            s
            for s in obs.tracer.spans
            if s.name == "packet.journey" and "latency_ms" in s.args
        ]
        assert len(delivered) == harness.reports[FLOW.name].delivered


class TestChaosWiring:
    SCHEDULE = FaultSchedule(
        blackholes=(LinkBlackhole(("S", "A"), 2.0, 4.0),)
    )

    def test_fault_events_traced(self, diamond):
        obs = Observability()
        harness = _run(diamond, obs, faults=self.SCHEDULE)
        assert len(harness.injector.log) >= 2
        assert obs.metrics.value("chaos.fault_events") == len(
            harness.injector.log
        )
        faults = [s for s in obs.tracer.spans if s.name == "fault"]
        assert len(faults) == len(harness.injector.log)

    def test_invariant_violation_triggers_flight_dump(self, diamond, tmp_path):
        obs = Observability(flight_dir=tmp_path)
        harness = _run(diamond, obs, faults=self.SCHEDULE)
        assert obs.flight.triggers == 0
        # Force a violation through the checker's own path: the obs tap
        # must fire exactly as it would for a real breach.
        harness.invariants._flag(1.0, "test-invariant", "forced for test")
        assert obs.metrics.value("chaos.invariant_violations") == 1.0
        assert obs.flight.triggers == 1
        dumped = list(tmp_path.glob("flight_*.json"))
        assert len(dumped) == 1

    def test_no_tap_without_obs(self, diamond):
        harness = _run(diamond, None, faults=self.SCHEDULE)
        assert harness.invariants.taps == []


class TestFlowHealth:
    def test_unhealthy_flow_triggers_flight(self, diamond):
        obs = Observability()
        contributions = [
            Contribution(edge, 2.0, 18.0, LinkState(loss_rate=0.9))
            for edge in diamond.adjacent_edges("T")
        ]
        harness = _run(diamond, obs, contributions=contributions)
        unhealthy = harness.flow_health(threshold=0.99)
        assert unhealthy == [FLOW.name]
        assert obs.flight.triggers == 1
        assert obs.metrics.value("obs.flight.unhealthy_flows") == 1.0

    def test_healthy_flows_do_not_trigger(self, diamond):
        obs = Observability()
        harness = _run(diamond, obs)
        assert harness.flow_health(threshold=0.5) == []
        assert obs.flight.triggers == 0

    def test_flow_health_works_without_obs(self, diamond):
        harness = _run(diamond, None)
        assert harness.flow_health(threshold=1.01) == [FLOW.name]


class TestExport:
    def test_export_writes_reconciled_manifest(self, diamond, tmp_path):
        from repro.obs import RunManifest, read_manifest, topology_fingerprint

        obs = Observability()
        harness = _run(diamond, obs, contributions=_lossy(diamond))
        manifest = RunManifest(
            label="test",
            seed=3,
            schemes=("static-two-disjoint",),
            flows=(FLOW.name,),
            topology=topology_fingerprint(diamond),
            duration_s=20.0,
        )
        paths = obs.export(tmp_path, manifest)
        assert set(paths) >= {"trace", "spans", "manifest"}
        loaded = read_manifest(paths["manifest"])
        for edge, count in harness.network.dropped.items():
            name = f"net.dropped.{edge[0]}->{edge[1]}"
            assert loaded.metrics[name]["value"] == count
        assert loaded.spans["recorded"] == len(obs.tracer.spans)
