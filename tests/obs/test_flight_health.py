"""Flight-recorder snapshots on the flow-health threshold path.

``Observability.check_flow_health`` is the bridge between the overlay's
per-flow on-time fractions and the flight recorder: every flow below
the threshold must produce a snapshot that actually carries the recent
span evidence, on disk when a dump directory is configured.  The
overlay-level integration (harness.flow_health feeding real fractions)
lives in test_wiring.py; these tests pin the snapshot contents.
"""

from __future__ import annotations

import json

from repro.obs import Observability
from repro.obs.runtime import DEFAULT_HEALTH_THRESHOLD


def _obs_with_spans(tmp_path=None, spans=3):
    obs = Observability(flight_dir=tmp_path)
    for index in range(spans):
        obs.tracer.complete(
            f"step-{index}", "test", float(index), index + 0.5, flow="NYC->LAX"
        )
    return obs


class TestThreshold:
    def test_flow_at_threshold_is_healthy(self):
        obs = _obs_with_spans()
        fractions = {"NYC->LAX": DEFAULT_HEALTH_THRESHOLD}
        assert obs.check_flow_health(fractions) == []
        assert obs.flight.triggers == 0

    def test_flow_below_threshold_triggers(self):
        obs = _obs_with_spans()
        unhealthy = obs.check_flow_health({"NYC->LAX": 0.5})
        assert unhealthy == ["NYC->LAX"]
        assert obs.flight.triggers == 1
        assert obs.metrics.value("obs.flight.unhealthy_flows") == 1.0

    def test_each_unhealthy_flow_gets_its_own_snapshot(self):
        obs = _obs_with_spans()
        unhealthy = obs.check_flow_health(
            {"NYC->LAX": 0.2, "SJC->NYC": 0.8, "ATL->HKG": 0.95},
            threshold=0.9,
        )
        assert unhealthy == ["NYC->LAX", "SJC->NYC"]  # sorted, ATL healthy
        assert obs.flight.triggers == 2
        assert obs.metrics.value("obs.flight.unhealthy_flows") == 2.0
        reasons = [snap["reason"] for snap in obs.flight.snapshots]
        assert any("NYC->LAX" in reason for reason in reasons)
        assert any("SJC->NYC" in reason for reason in reasons)


class TestSnapshotContents:
    def test_snapshot_carries_recent_spans(self):
        obs = _obs_with_spans(spans=4)
        obs.check_flow_health({"NYC->LAX": 0.1})
        (snapshot,) = obs.flight.snapshots
        names = [span["name"] for span in snapshot["spans"]]
        assert names == ["step-0", "step-1", "step-2", "step-3"]
        assert all(
            span["args"]["flow"] == "NYC->LAX" for span in snapshot["spans"]
        )

    def test_reason_names_flow_fraction_and_threshold(self):
        obs = _obs_with_spans()
        obs.check_flow_health({"NYC->LAX": 0.456}, threshold=0.75)
        (snapshot,) = obs.flight.snapshots
        assert "NYC->LAX" in snapshot["reason"]
        assert "0.456" in snapshot["reason"]
        assert "0.750" in snapshot["reason"]

    def test_ring_capacity_bounds_the_evidence(self):
        obs = Observability(flight_capacity=2)
        for index in range(5):
            obs.tracer.complete(f"step-{index}", "test", float(index), index + 0.5)
        obs.check_flow_health({"NYC->LAX": 0.0})
        (snapshot,) = obs.flight.snapshots
        names = [span["name"] for span in snapshot["spans"]]
        assert names == ["step-3", "step-4"]  # only the newest two


class TestDumping:
    def test_flight_dir_dumps_immediately(self, tmp_path):
        obs = _obs_with_spans(tmp_path=tmp_path)
        obs.check_flow_health({"NYC->LAX": 0.3})
        (path,) = sorted(tmp_path.glob("flight_*.json"))
        payload = json.loads(path.read_text())
        assert "NYC->LAX" in payload["reason"]
        assert payload["trigger"] == 1
        assert [s["name"] for s in payload["spans"]] == [
            "step-0", "step-1", "step-2",
        ]

    def test_export_dumps_pending_health_snapshots(self, tmp_path):
        from repro.obs import RunManifest

        obs = _obs_with_spans()  # no flight_dir: snapshot held in memory
        obs.check_flow_health({"NYC->LAX": 0.3})
        paths = obs.export(tmp_path, RunManifest(label="health", seed=1))
        assert "flight_1" in paths
        payload = json.loads(paths["flight_1"].read_text())
        assert "NYC->LAX" in payload["reason"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["flight"]["triggers"] == 1
        assert (
            manifest["metrics"]["obs.flight.unhealthy_flows"]["value"] == 1.0
        )

    def test_snapshots_are_not_dumped_twice(self, tmp_path):
        from repro.obs import RunManifest

        obs = _obs_with_spans()
        obs.check_flow_health({"NYC->LAX": 0.3})
        obs.export(tmp_path / "first", RunManifest(label="health", seed=1))
        paths = obs.export(tmp_path / "second", RunManifest(label="h", seed=1))
        assert not [key for key in paths if key.startswith("flight_")]
