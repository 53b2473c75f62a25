"""The daemon end to end: equivalence, warmth, rejection, drain.

The headline property: results served by the warm daemon are **bitwise
identical** to cold serial engine runs -- concurrency and cache reuse
change latency, never bits.  Floats survive the JSON wire format
exactly (``repr`` round-trip), so plain ``==`` between served payloads
and locally computed references is an exact comparison.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exec.engine import run_replay_parallel
from repro.netmodel.presets import preset_scenario
from repro.netmodel.scenarios import WEEK_S, generate_timeline
from repro.netmodel.topology import (
    ServiceSpec,
    build_reference_topology,
    reference_flows,
)
from repro.obs.expose import parse_exposition, sample_value
from repro.serve import (
    EvaluateRequest,
    ServeClient,
    ServeConfig,
    ServerError,
    ServerRejected,
    ServerThread,
)
from repro.simulation.results import ReplayConfig
from repro.util.validation import ValidationError

SCHEMES = ("targeted", "static-single")


def _expected_evaluate_payload(request: EvaluateRequest) -> dict:
    """What a cold, serial, cache-free engine run yields for ``request``.

    Mirrors the serve session's payload construction; the JSON round
    trip at the end applies the same wire encoding the server uses.
    """
    topology = build_reference_topology()
    flows = reference_flows()
    service = ServiceSpec(deadline_ms=request.deadline_ms)
    config = ReplayConfig(detection_delay_s=request.detection_delay_s)
    scenario = preset_scenario(request.preset, duration_s=request.weeks * WEEK_S)
    events, timeline = generate_timeline(topology, scenario, seed=request.seed)
    result, _telemetry = run_replay_parallel(
        topology,
        timeline,
        flows,
        service,
        request.schemes,
        config,
        max_workers=0,
        use_cache=False,
    )
    payload = {
        "events": len(events),
        "duration_s": timeline.duration_s,
        "schemes": [
            {
                "scheme": totals.scheme,
                "flows": totals.flows,
                "duration_s": totals.duration_s,
                "unavailable_s": totals.unavailable_s,
                "lost_s": totals.lost_s,
                "late_s": totals.late_s,
                "availability": totals.availability,
                "average_cost_messages": totals.average_cost_messages,
            }
            for totals in result.all_totals()
        ],
        "pairs": [
            {
                "scheme": stats.scheme,
                "flow": stats.flow.name,
                "duration_s": stats.duration_s,
                "unavailable_s": stats.unavailable_s,
                "lost_s": stats.lost_s,
                "late_s": stats.late_s,
                "message_seconds": stats.message_seconds,
                "decision_changes": stats.decision_changes,
            }
            for stats in result
        ],
    }
    return json.loads(json.dumps(payload))


@pytest.fixture(scope="module")
def warm_server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    thread = ServerThread(
        ServeConfig(port=0, max_active=2, max_queue=8, cache_dir=str(cache_dir))
    )
    port = thread.start()
    yield ServeClient(port=port, timeout_s=120.0)
    try:
        thread.server and ServeClient(port=port).shutdown()
    except (ValidationError, ServerError):
        pass
    thread.stop()


class TestConcurrentEquivalence:
    def test_concurrent_requests_match_serial_cold_runs(self, warm_server):
        # Four concurrent requests over two distinct workloads; every
        # served result must equal its own cold serial reference.
        requests = [
            EvaluateRequest(weeks=0.02, seed=3, schemes=SCHEMES),
            EvaluateRequest(weeks=0.02, seed=5, schemes=SCHEMES),
            EvaluateRequest(weeks=0.02, seed=3, schemes=SCHEMES),
            EvaluateRequest(weeks=0.02, seed=5, schemes=SCHEMES),
        ]
        expected = {
            request: _expected_evaluate_payload(request)
            for request in set(requests)
        }
        with ThreadPoolExecutor(max_workers=len(requests)) as pool:
            outcomes = list(pool.map(warm_server.run, requests))
        for request, (result, manifest, _progress) in zip(requests, outcomes):
            assert result == expected[request]
            serve_extra = manifest["extra"]["serve"]
            assert serve_extra["kind"] == "evaluate"
            # The manifest carries this request's own engine record.
            assert manifest["exec"]["label"] == f"serve {serve_extra['request_id']}"
            assert manifest["exec"]["shards_total"] == len(result["pairs"])

    def test_repeated_request_is_warm_and_identical(self, warm_server):
        request = EvaluateRequest(weeks=0.02, seed=11, schemes=SCHEMES)
        first, manifest_first, _ = warm_server.run(request)
        second, manifest_second, _ = warm_server.run(request)
        assert first == second
        serve_extra = manifest_second["extra"]["serve"]
        assert serve_extra["context_warm"] is True
        assert serve_extra["shards_cached"] > 0  # served from the disk cache
        metrics = manifest_second["metrics"]
        assert metrics["serve.cache.context_hits"]["value"] > 0
        assert metrics["serve.cache.shards_cached"]["value"] > 0
        assert metrics["serve.requests.completed"]["value"] >= 2

    def test_warm_request_digests_its_timeline_once(
        self, warm_server, monkeypatch
    ):
        """A warm request takes the resident context's timeline, which was
        digested when the cold request built the context: it generates,
        digests and announces no trace of its own."""
        from repro.netmodel import conditions
        from repro.serve import session

        request = EvaluateRequest(weeks=0.02, seed=13, schemes=SCHEMES)
        cold, _manifest, _progress = warm_server.run(request)
        digests, generated = [], []
        original_hash = conditions.stable_hash
        original_generate = session.generate_timeline

        def counting_hash(value):
            digests.append(value)
            return original_hash(value)

        def counting_generate(*args, **kwargs):
            generated.append(args)
            return original_generate(*args, **kwargs)

        monkeypatch.setattr(conditions, "stable_hash", counting_hash)
        monkeypatch.setattr(session, "generate_timeline", counting_generate)
        result, manifest, progress = warm_server.run(request)
        assert manifest["extra"]["serve"]["context_warm"] is True
        assert len(digests) == 0
        assert len(generated) == 0
        assert [event["phase"] for event in progress] == ["replay"]
        assert result == cold

    def test_status_reports_cache_and_scheduler(self, warm_server):
        status = warm_server.status()
        assert status["server"] == "repro-serve"
        assert status["scheduler"]["max_active"] == 2
        assert status["cache"]["disk_cache"] is True
        assert status["requests"]["completed"] >= 1


class TestRequestFailures:
    def test_unknown_scheme_becomes_error_event(self, warm_server):
        request = {
            "version": 1,
            "kind": "evaluate",
            "weeks": 0.02,
            "schemes": ["no-such-scheme"],
        }
        with pytest.raises(ServerError, match="scheme"):
            warm_server.run(request)

    def test_invalid_request_rejected_before_admission(self, warm_server):
        with pytest.raises(ServerError, match="unknown request kind"):
            warm_server.run({"version": 1, "kind": "frobnicate"})

    def test_malformed_json_is_400(self, warm_server):
        import http.client

        connection = http.client.HTTPConnection(
            warm_server.host, warm_server.port, timeout=30.0
        )
        try:
            connection.request(
                "POST", "/v1/submit", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            payload = json.loads(response.read())
            assert "not valid JSON" in payload["error"]
        finally:
            connection.close()

    def test_repeated_names_are_400_at_admission(self, warm_server):
        import http.client

        body = json.dumps(
            {"version": 1, "kind": "evaluate", "schemes": ["targeted"] * 2}
        ).encode("utf-8")
        connection = http.client.HTTPConnection(
            warm_server.host, warm_server.port, timeout=30.0
        )
        try:
            connection.request(
                "POST", "/v1/submit", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            payload = json.loads(response.read())
            assert "schemes must be distinct" in payload["error"]
        finally:
            connection.close()

    def test_unknown_endpoint_is_404(self, warm_server):
        import http.client

        connection = http.client.HTTPConnection(
            warm_server.host, warm_server.port, timeout=30.0
        )
        try:
            connection.request("GET", "/v1/nonsense")
            assert connection.getresponse().status == 404
        finally:
            connection.close()


class TestTelemetryEndpoints:
    def test_metrics_round_trips_through_exposition_parser(self, warm_server):
        from repro.obs.expose import (
            histogram_quantile,
            parse_exposition,
            sample_value,
        )

        # At least one completed request so the series exist.
        warm_server.run(EvaluateRequest(weeks=0.02, seed=11, schemes=SCHEMES))
        families = parse_exposition(warm_server.metrics())
        completed = sample_value(families, "repro_serve_requests_completed")
        assert completed is not None and completed >= 1
        accepted = sample_value(families, "repro_serve_requests_accepted")
        assert accepted is not None and accepted >= completed
        assert sample_value(families, "repro_serve_queue_depth") is not None
        assert sample_value(families, "repro_serve_uptime_s") >= 0.0
        # Scrape-time gauges: warm-cache stats without a request in flight.
        assert sample_value(families, "repro_serve_cache_context_hits") >= 0
        assert sample_value(families, "repro_serve_cache_prob_hits") >= 0
        # Memo totals are published once, as serve.cache.prob_* gauges;
        # exec.prob_cache.* is a per-run counter the daemon never mirrors.
        assert not [
            name for name in families if name.startswith("repro_exec_prob_cache")
        ]
        # Satellite series: queue-wait and request-wall histograms.
        for dotted in ("repro_serve_queue_wait_s", "repro_serve_request_wall_s"):
            family = families[dotted]
            assert family.type == "histogram"
            count = sample_value(families, f"{dotted}_count")
            assert count is not None and count >= 1
            assert histogram_quantile(family, 0.5) is not None

    def test_profiled_request_manifest_carries_report(self, warm_server):
        request = EvaluateRequest(
            weeks=0.02, seed=17, schemes=SCHEMES, use_cache=False, profile=True
        )
        result, manifest, _progress = warm_server.run(request)
        profile = manifest["extra"]["profile"]
        assert profile["interval_s"] > 0
        assert profile["duration_s"] > 0
        assert profile["samples"] >= 0
        assert isinstance(profile["top"], list)
        for row in profile["top"]:
            assert row["total"] >= row["self"] >= 1
        # Profiling never changes the answer, only annotates the manifest.
        plain = EvaluateRequest(weeks=0.02, seed=17, schemes=SCHEMES)
        plain_result, plain_manifest, _ = warm_server.run(plain)
        assert result == plain_result
        assert "profile" not in plain_manifest["extra"]

    def test_metrics_content_type(self, warm_server):
        import http.client

        connection = http.client.HTTPConnection(
            warm_server.host, warm_server.port, timeout=30.0
        )
        try:
            connection.request("GET", "/v1/metrics")
            response = connection.getresponse()
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            assert "version=0.0.4" in response.headers["Content-Type"]
        finally:
            connection.close()

    def test_metrics_rejects_post(self, warm_server):
        import http.client

        connection = http.client.HTTPConnection(
            warm_server.host, warm_server.port, timeout=30.0
        )
        try:
            connection.request("POST", "/v1/metrics")
            assert connection.getresponse().status == 405
        finally:
            connection.close()

    def test_health_reports_ready(self, warm_server):
        health = warm_server.health()
        assert health["status"] == "ok"
        assert health["draining"] is False
        assert health["uptime_s"] >= 0.0
        assert "active" in health and "queued" in health

    def test_health_turns_503_while_draining(self):
        import http.client

        thread = ServerThread(
            ServeConfig(port=0, max_active=1, max_queue=0, use_disk_cache=False)
        )
        port = thread.start()
        try:
            assert ServeClient(port=port).health()["status"] == "ok"
            # Flip the drain flag directly (a bool read is race-free
            # enough for this check); readiness must fail immediately.
            thread.server.scheduler.draining = True
            connection = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=30.0
            )
            try:
                connection.request("GET", "/v1/health")
                response = connection.getresponse()
                assert response.status == 503
                payload = json.loads(response.read())
                assert payload["status"] == "draining"
                assert payload["draining"] is True
            finally:
                connection.close()
            assert ServeClient(port=port).health()["status"] == "draining"
            thread.server.scheduler.draining = False
        finally:
            try:
                ServeClient(port=port).shutdown()
            except (ValidationError, ServerError):
                pass
            thread.stop()


class TestAdmissionOverHttp:
    def test_queue_full_rejection_with_retry_after(self, monkeypatch):
        # max_active=1, max_queue=0: while one admitted request streams,
        # the next submission must bounce with 429 + Retry-After.  The
        # admitted request waits for the rejection before it runs: a
        # request merely expected to be slow finished first on a fast
        # host, and the second one was admitted.
        from repro.serve import server as server_module

        release = threading.Event()
        execute = server_module.execute_request

        def held(*args, **kwargs):
            assert release.wait(timeout=60.0)
            return execute(*args, **kwargs)

        monkeypatch.setattr(server_module, "execute_request", held)
        thread = ServerThread(
            ServeConfig(
                port=0, max_active=1, max_queue=0, use_disk_cache=False
            )
        )
        port = thread.start()
        client = ServeClient(port=port, timeout_s=120.0)
        slow = EvaluateRequest(weeks=0.1, seed=2, schemes=SCHEMES, use_cache=False)
        try:
            stream = client.submit(slow)
            accepted = next(stream)  # slot is held once this arrives
            assert accepted["event"] == "accepted"
            with pytest.raises(ServerRejected) as excinfo:
                ServeClient(port=port).run(
                    EvaluateRequest(weeks=0.02, seed=3, schemes=SCHEMES)
                )
            release.set()
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after_s is not None
            assert excinfo.value.retry_after_s > 0
            events = [event["event"] for event in stream]
            assert events[-2:] == ["result", "manifest"]  # first one completed
            # An unknown flow passes admission and fails in the worker.
            with pytest.raises(ServerError, match="unknown flow") as failed:
                client.run(
                    EvaluateRequest(
                        weeks=0.02, schemes=SCHEMES, flows=("NOWHERE->NOPLACE",)
                    )
                )
            assert failed.value.status == 400
            # Status, metrics and the shutdown event read one count each.
            counts = {"completed": 1, "failed": 1, "rejected": 1}
            requests = client.status()["requests"]
            assert requests == counts
            assert all(type(value) is int for value in requests.values())
            families = parse_exposition(client.metrics())
            assert {
                outcome: sample_value(families, f"repro_serve_requests_{outcome}")
                for outcome in counts
            } == counts
            shutdown = client.shutdown()
            assert {outcome: shutdown[outcome] for outcome in counts} == counts
        finally:
            release.set()
            thread.stop()

    def test_graceful_drain_finishes_admitted_work(self):
        thread = ServerThread(
            ServeConfig(port=0, max_active=1, max_queue=2, use_disk_cache=False)
        )
        port = thread.start()
        client = ServeClient(port=port, timeout_s=120.0)
        admitted = threading.Event()
        collected: list[dict] = []

        def submit_and_collect():
            for event in client.submit(
                EvaluateRequest(weeks=0.05, seed=4, schemes=SCHEMES, use_cache=False)
            ):
                collected.append(event)
                if event["event"] == "accepted":
                    admitted.set()

        worker = threading.Thread(target=submit_and_collect)
        worker.start()
        try:
            assert admitted.wait(timeout=30.0)
            outcome = ServeClient(port=port, timeout_s=120.0).shutdown()
            worker.join(timeout=60.0)
            assert not worker.is_alive()
            # the admitted request ran to completion before the stop
            names = [event["event"] for event in collected]
            assert names[-2:] == ["result", "manifest"]
            assert outcome["completed"] >= 1
            # and the server is actually gone now
            with pytest.raises(ValidationError, match="unreachable"):
                ServeClient(port=port, timeout_s=5.0).status()
        finally:
            thread.stop()


class TestRequestSpans:
    def test_warm_requests_keep_only_the_flight_ring(self, tmp_path):
        """The daemon's per-request spans live in its flight ring.

        Nothing exports the daemon tracer's span list, so a span kept
        there per request only grew with the daemon's uptime (two per
        request, up to 500,000).
        """
        from repro.obs import Observability

        obs = Observability(flight_capacity=8)
        thread = ServerThread(
            ServeConfig(port=0, cache_dir=str(tmp_path / "serve-cache")), obs=obs
        )
        port = thread.start()
        try:
            client = ServeClient(port=port, timeout_s=120.0)
            request = EvaluateRequest(weeks=0.005, seed=3, schemes=("static-single",))
            for _ in range(12):
                client.run(request)
        finally:
            thread.stop()
        assert obs.tracer.spans == []
        ring = obs.flight.trigger("check")["spans"]
        assert len(ring) == 8
        assert [span["name"] for span in ring[-2:]] == ["request.queued", "request.run"]
