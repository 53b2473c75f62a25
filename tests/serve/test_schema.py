"""Wire schema: strict validation, round-tripping, event shape."""

from __future__ import annotations

import json
import math

import pytest

from repro.serve.schema import (
    PROTOCOL_VERSION,
    ChaosRequest,
    ClassifyRequest,
    EvaluateRequest,
    make_event,
    parse_request,
    request_to_payload,
)
from repro.util.validation import ValidationError


def _evaluate_payload(**overrides) -> dict:
    payload = {"version": PROTOCOL_VERSION, "kind": "evaluate"}
    payload.update(overrides)
    return payload


class TestParseRequest:
    def test_minimal_evaluate_uses_defaults(self):
        request = parse_request(_evaluate_payload())
        assert isinstance(request, EvaluateRequest)
        assert request.weeks == 1.0
        assert request.seed == 7
        assert request.schemes is None
        assert request.use_cache is True

    def test_full_evaluate_round_trips(self):
        request = EvaluateRequest(
            weeks=0.25,
            seed=11,
            schemes=("targeted", "static-single"),
            flows=("NYC->LAX",),
            time_shards=4,
            workers=2,
        )
        payload = request_to_payload(request)
        assert payload["version"] == PROTOCOL_VERSION
        assert payload["kind"] == "evaluate"
        assert payload["schemes"] == ["targeted", "static-single"]  # JSON lists
        assert parse_request(payload) == request

    def test_classify_and_chaos_round_trip(self):
        for request in (
            ClassifyRequest(weeks=0.5, seed=3),
            ChaosRequest(seed=9, duration_s=20.0, crashes=2),
        ):
            assert parse_request(request_to_payload(request)) == request

    def test_rejects_non_object(self):
        with pytest.raises(ValidationError, match="JSON object"):
            parse_request([1, 2, 3])

    def test_rejects_wrong_version(self):
        with pytest.raises(ValidationError, match="protocol version"):
            parse_request({"version": 99, "kind": "evaluate"})

    def test_rejects_missing_version(self):
        with pytest.raises(ValidationError, match="protocol version"):
            parse_request({"kind": "evaluate"})

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown request kind"):
            parse_request({"version": PROTOCOL_VERSION, "kind": "frobnicate"})

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown field.*turbo"):
            parse_request(_evaluate_payload(turbo=True))

    def test_rejects_wrong_types(self):
        with pytest.raises(ValidationError, match="weeks"):
            parse_request(_evaluate_payload(weeks="many"))
        with pytest.raises(ValidationError, match="seed"):
            parse_request(_evaluate_payload(seed=1.5))
        with pytest.raises(ValidationError, match="use_cache"):
            parse_request(_evaluate_payload(use_cache="yes"))

    def test_bool_is_not_an_integer(self):
        # JSON true must not sneak in where an int is expected.
        with pytest.raises(ValidationError, match="seed"):
            parse_request(_evaluate_payload(seed=True))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="weeks"):
            parse_request(_evaluate_payload(weeks=0.0))
        with pytest.raises(ValidationError, match="time_shards"):
            parse_request(_evaluate_payload(time_shards=0))
        with pytest.raises(ValidationError, match="crashes"):
            parse_request(
                {"version": PROTOCOL_VERSION, "kind": "chaos", "crashes": -1}
            )

    @pytest.mark.parametrize(
        "kind, field",
        (
            ("evaluate", "weeks"),
            ("evaluate", "deadline_ms"),
            ("classify", "weeks"),
            ("chaos", "duration_s"),
            ("chaos", "send_interval_ms"),
        ),
    )
    def test_rejects_infinite_lengths(self, kind, field):
        # 1e400 is valid JSON that parses to inf: a run that never ends.
        payload = json.loads(
            f'{{"version": {PROTOCOL_VERSION}, "kind": "{kind}", "{field}": 1e400}}'
        )
        with pytest.raises(ValidationError) as excinfo:
            parse_request(payload)
        assert str(excinfo.value) == f"{field} must be finite, got inf"

    def test_requests_reject_inf(self):
        with pytest.raises(ValidationError, match="^weeks must be finite, got inf$"):
            EvaluateRequest(weeks=math.inf)
        with pytest.raises(
            ValidationError, match="^duration_s must be finite, got inf$"
        ):
            ChaosRequest(duration_s=math.inf)

    def test_rejects_empty_name_lists(self):
        with pytest.raises(ValidationError, match="schemes"):
            parse_request(_evaluate_payload(schemes=[]))

    @pytest.mark.parametrize("kind", ("evaluate", "chaos"))
    @pytest.mark.parametrize("field", ("schemes", "flows"))
    def test_rejects_repeated_names(self, kind, field):
        names = ["targeted", "flooding", "targeted"]
        if field == "flows":
            names = ["NYC->LAX", "NYC->LAX"]
        payload = {"version": PROTOCOL_VERSION, "kind": kind, field: names}
        with pytest.raises(ValidationError) as excinfo:
            parse_request(payload)
        message = str(excinfo.value)
        assert message.startswith(f"{field} must be distinct, got (")
        assert names[0] in message
        assert "\n" not in message

    def test_wire_lists_become_tuples(self):
        request = parse_request(_evaluate_payload(schemes=["targeted"]))
        assert request.schemes == ("targeted",)


class TestTopologyFields:
    """Generated-topology overrides validate at admission, not in a worker."""

    def test_defaults_to_reference(self):
        request = parse_request(_evaluate_payload())
        assert request.topology_family is None
        assert request.topology_size is None

    def test_generated_round_trips(self):
        for request in (
            EvaluateRequest(
                topology_family="isp-hier", topology_size=100, topology_seed=7
            ),
            ChaosRequest(
                topology_family="random-geo", topology_size=50, topology_seed=1
            ),
        ):
            assert parse_request(request_to_payload(request)) == request

    def test_unknown_family_gets_registry_error(self):
        with pytest.raises(ValidationError, match="unknown topology family"):
            parse_request(
                _evaluate_payload(topology_family="fat-tree", topology_size=50)
            )

    def test_generated_family_needs_size(self):
        with pytest.raises(ValidationError, match="explicit topology_size"):
            parse_request(_evaluate_payload(topology_family="waxman"))

    def test_size_envelope_enforced(self):
        with pytest.raises(ValidationError, match="supports sizes"):
            parse_request(
                _evaluate_payload(topology_family="isp-hier", topology_size=8)
            )

    def test_reference_rejects_size_and_seed(self):
        with pytest.raises(ValidationError, match="fixed"):
            parse_request(_evaluate_payload(topology_size=100))
        with pytest.raises(ValidationError, match="fixed"):
            parse_request(
                _evaluate_payload(topology_family="reference", topology_seed=3)
            )

    def test_seed_is_optional_but_typed(self):
        request = parse_request(
            _evaluate_payload(topology_family="waxman", topology_size=50)
        )
        assert request.topology_seed is None
        with pytest.raises(ValidationError, match="topology_seed"):
            parse_request(
                _evaluate_payload(
                    topology_family="waxman",
                    topology_size=50,
                    topology_seed="lucky",
                )
            )


class TestMakeEvent:
    def test_shape(self):
        event = make_event("progress", phase="replay", events=3)
        assert event == {"event": "progress", "phase": "replay", "events": 3}
