"""Scenario-family fields on the serve wire schema and session paths."""

from __future__ import annotations

import pytest

from repro.scenarios import FAMILY_NAMES
from repro.serve.schema import (
    PROTOCOL_VERSION,
    ChaosRequest,
    EvaluateRequest,
    parse_request,
    request_to_payload,
)
from repro.util.validation import ValidationError


class TestSchemaRoundTrip:
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_evaluate_round_trips(self, family):
        request = EvaluateRequest(scenario_family=family, scenario_seed=11)
        payload = request_to_payload(request)
        assert payload["scenario_family"] == family
        assert payload["scenario_seed"] == 11
        assert parse_request(payload) == request

    def test_chaos_round_trips(self):
        request = ChaosRequest(
            scenario_family="srlg-outage", scenario_seed=3, duration_s=12.0
        )
        assert parse_request(request_to_payload(request)) == request

    def test_fields_default_to_none(self):
        request = parse_request({"version": PROTOCOL_VERSION, "kind": "chaos"})
        assert request.scenario_family is None
        assert request.scenario_seed is None


class TestSchemaValidation:
    def test_unknown_family_is_a_one_line_error(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_request(
                {
                    "version": PROTOCOL_VERSION,
                    "kind": "evaluate",
                    "scenario_family": "solar-flare",
                }
            )
        message = str(excinfo.value)
        assert "\n" not in message
        assert "unknown scenario family" in message
        assert "srlg-outage" in message

    def test_family_must_be_a_string(self):
        with pytest.raises(ValidationError, match="scenario_family"):
            ChaosRequest(scenario_family=7)

    def test_seed_must_be_an_integer(self):
        with pytest.raises(ValidationError, match="scenario_seed"):
            EvaluateRequest(
                scenario_family="diurnal", scenario_seed="notanint"
            )

    def test_seed_without_family_is_allowed(self):
        # The CLI always sends both fields; a bare seed simply defaults
        # the family path off.
        request = EvaluateRequest(scenario_seed=5)
        assert request.scenario_family is None


class TestSessionPaths:
    def test_chaos_uses_the_derived_schedule(self):
        from repro.scenarios import compile_family
        from repro.serve.session import execute_request
        from repro.serve.state import ServeRuntime

        runtime = ServeRuntime()
        request = ChaosRequest(
            scenario_family="srlg-outage",
            scenario_seed=3,
            seed=99,  # must NOT drive the schedule when scenario_seed is set
            duration_s=10.0,
            schemes=("static-single",),
        )
        payload, manifest = execute_request(
            runtime, request, "req-test", lambda event: None
        )
        compiled = compile_family(
            runtime.workload().topology, "srlg-outage", seed=3, duration_s=10.0
        )
        assert payload["schedule"] == compiled.fault_schedule().fingerprint()
        assert payload["faults"] == len(compiled.fault_schedule())
        assert payload["violations"] == 0

    def test_evaluate_uses_the_compiled_timeline(self):
        from repro.scenarios import compile_family
        from repro.serve.session import execute_request
        from repro.serve.state import ServeRuntime

        runtime = ServeRuntime()
        request = EvaluateRequest(
            scenario_family="srlg-outage",
            scenario_seed=3,
            weeks=0.0005,  # ~302 s
            workers=1,
            schemes=("static-single",),
            use_cache=False,
        )
        phases = []
        payload, manifest = execute_request(
            runtime, request, "req-test", lambda event: phases.append(event)
        )
        compiled = compile_family(
            runtime.workload().topology,
            "srlg-outage",
            seed=3,
            duration_s=request.weeks * 604800.0,
        )
        assert payload["events"] == len(compiled.events)
        trace_events = [
            event for event in phases if event.get("phase") == "generate-trace"
        ]
        assert trace_events[0]["scenario_family"] == "srlg-outage"
