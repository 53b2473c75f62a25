"""The ``repro.serve`` wire schema: versioned requests and stream events.

A request is one JSON object.  Every request carries ``version`` (the
protocol version, currently 1) and ``kind`` (``evaluate`` /
``classify`` / ``chaos``); the remaining fields are kind-specific and
strictly validated -- unknown fields, wrong types, and out-of-range
values are rejected with a one-line :class:`ValidationError` before any
work is admitted, so a malformed request never occupies a worker slot.

The response to a submitted request is a stream of JSONL *events*
(chunked HTTP), each one JSON object with an ``event`` field:

* ``accepted`` -- the request passed admission control (carries the
  request id and the queue depth observed at admission);
* ``progress`` -- a phase boundary (``generate-trace``, ``replay``,
  ``classify``, ``chaos``...), with phase-specific detail;
* ``result`` -- the kind-specific result payload (tables as data);
* ``manifest`` -- the final record: the request's
  :class:`repro.obs.RunManifest` as JSON, exec telemetry and
  ``serve.cache.*`` counters included;
* ``error`` -- the request failed (carries ``code`` and one-line
  ``error`` text); terminal like ``manifest``.

Rejected requests never enter the stream: admission control answers
with HTTP 429 (queue full) or 503 (draining) and a single JSON body
``{"event": "rejected", "reason": ..., "retry_after_s": ...}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping

from repro.util.validation import ValidationError, require

__all__ = [
    "PROTOCOL_VERSION",
    "ChaosRequest",
    "ClassifyRequest",
    "EvaluateRequest",
    "Request",
    "make_event",
    "parse_request",
    "request_to_payload",
]

#: Bumped whenever a request or event field changes meaning.
PROTOCOL_VERSION = 1

#: Accepted ``kind`` values, in documentation order.
REQUEST_KINDS = ("evaluate", "classify", "chaos")


def _check_str(value: object, name: str) -> str:
    require(isinstance(value, str), f"{name} must be a string, got {value!r}")
    return value  # type: ignore[return-value]


def _check_bool(value: object, name: str) -> bool:
    require(isinstance(value, bool), f"{name} must be a boolean, got {value!r}")
    return value  # type: ignore[return-value]


def _check_int(value: object, name: str, minimum: int | None = None) -> int:
    require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{name} must be an integer, got {value!r}",
    )
    if minimum is not None:
        require(value >= minimum, f"{name} must be >= {minimum}, got {value!r}")
    return value  # type: ignore[return-value]


def _check_float(
    value: object, name: str, minimum: float | None = None, positive: bool = False
) -> float:
    require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{name} must be a number, got {value!r}",
    )
    if positive:
        require(value > 0, f"{name} must be > 0, got {value!r}")
        # inf would never finish, and is not valid JSON in a progress event.
        require(math.isfinite(value), f"{name} must be finite, got {value!r}")
    elif minimum is not None:
        require(value >= minimum, f"{name} must be >= {minimum}, got {value!r}")
    return float(value)  # type: ignore[arg-type]


def _check_names(value: object, name: str) -> tuple[str, ...] | None:
    if value is None:
        return None
    require(
        isinstance(value, (list, tuple)) and bool(value),
        f"{name} must be a non-empty list of names, got {value!r}",
    )
    names = tuple(_check_str(item, f"{name}[]") for item in value)  # type: ignore[union-attr]
    require(len(set(names)) == len(names), f"{name} must be distinct, got {value!r}")
    return names


def _check_scenario(family: object, seed: object) -> None:
    """Validate the scenario-family override fields shared by requests."""
    if family is not None:
        from repro.scenarios.registry import FAMILY_NAMES

        _check_str(family, "scenario_family")
        require(
            family in FAMILY_NAMES,
            f"unknown scenario family {family!r}; "
            f"known: {', '.join(FAMILY_NAMES)}",
        )
    if seed is not None:
        _check_int(seed, "scenario_seed")


def _check_topology(family: object, size: object, seed: object) -> None:
    """Validate the generated-topology override fields shared by requests.

    Name and size-envelope checks go through the :mod:`repro.topogen`
    registry -- the same path the CLI resolves against -- so a bad
    request is rejected at admission with the identical one-line error,
    before it can occupy a worker slot generating a topology.
    """
    from repro.topogen import REFERENCE_NAME
    from repro.topogen.registry import family_info

    if family is None or family == REFERENCE_NAME:
        if family is not None:
            _check_str(family, "topology_family")
        require(
            size is None and seed is None,
            "topology_size/topology_seed apply only to generator "
            "families; the reference topology is fixed",
        )
        return
    _check_str(family, "topology_family")
    info = family_info(family)  # unknown names fail with the registry error
    require(
        size is not None,
        f"topology_family {family!r} needs an explicit topology_size",
    )
    _check_int(size, "topology_size")
    require(
        info.min_size <= size <= info.max_size,  # type: ignore[operator]
        f"family {family!r} supports sizes "
        f"{info.min_size}..{info.max_size}, got {size!r}",
    )
    if seed is not None:
        _check_int(seed, "topology_seed")


@dataclass(frozen=True)
class EvaluateRequest:
    """Replay a generated trace under a scheme line-up (the E2 workload)."""

    weeks: float = 1.0
    seed: int = 7
    preset: str = "default"
    deadline_ms: float = 65.0
    detection_delay_s: float = 1.0
    workers: int = 0
    schemes: tuple[str, ...] | None = None  # None = the standard six
    flows: tuple[str, ...] | None = None  # None = all 16 reference flows
    use_cache: bool = True
    profile: bool = False  # sample the replay; summary in the manifest
    # Scenario-family override: replay this adversarial family (compiled
    # at weeks * WEEK_S) instead of the preset generator.
    scenario_family: str | None = None
    scenario_seed: int | None = None  # None = the request seed
    # Generated-topology override (repro.topogen): replay on a generated
    # overlay instead of the 12-site reference.  Size is required with a
    # family; seed defaults to 0.
    topology_family: str | None = None
    topology_size: int | None = None
    topology_seed: int | None = None

    kind = "evaluate"

    def __post_init__(self) -> None:
        _check_float(self.weeks, "weeks", positive=True)
        _check_int(self.seed, "seed")
        _check_str(self.preset, "preset")
        _check_float(self.deadline_ms, "deadline_ms", positive=True)
        _check_float(self.detection_delay_s, "detection_delay_s", minimum=0.0)
        _check_int(self.workers, "workers", minimum=0)
        _check_names(self.schemes, "schemes")
        _check_names(self.flows, "flows")
        _check_bool(self.use_cache, "use_cache")
        _check_bool(self.profile, "profile")
        _check_scenario(self.scenario_family, self.scenario_seed)
        _check_topology(
            self.topology_family, self.topology_size, self.topology_seed
        )


@dataclass(frozen=True)
class ClassifyRequest:
    """Problem-classification distribution of a generated trace (E1)."""

    weeks: float = 1.0
    seed: int = 7
    preset: str = "default"
    deadline_ms: float = 65.0

    kind = "classify"

    def __post_init__(self) -> None:
        _check_float(self.weeks, "weeks", positive=True)
        _check_int(self.seed, "seed")
        _check_str(self.preset, "preset")
        _check_float(self.deadline_ms, "deadline_ms", positive=True)


@dataclass(frozen=True)
class ChaosRequest:
    """Run the live overlay under a seeded fault schedule (E19)."""

    seed: int = 7
    duration_s: float = 30.0
    schemes: tuple[str, ...] = ("targeted", "static-single")
    flows: tuple[str, ...] | None = None  # None = two representative flows
    crashes: int = 1
    blackholes: int = 1
    partitions: int = 0
    stalls: int = 0
    message_windows: int = 0
    deadline_ms: float = 65.0
    send_interval_ms: float = 50.0
    # Scenario-family override: drive the overlay with the family's
    # derived fault schedule + compiled timeline instead of a generated
    # ChaosSpec schedule.
    scenario_family: str | None = None
    scenario_seed: int | None = None  # None = the request seed
    # Generated-topology override, same contract as EvaluateRequest.
    topology_family: str | None = None
    topology_size: int | None = None
    topology_seed: int | None = None

    kind = "chaos"

    def __post_init__(self) -> None:
        _check_int(self.seed, "seed")
        _check_float(self.duration_s, "duration_s", positive=True)
        schemes = _check_names(self.schemes, "schemes")
        require(schemes is not None, "schemes must be a non-empty list")
        _check_names(self.flows, "flows")
        for field_name in (
            "crashes", "blackholes", "partitions", "stalls", "message_windows"
        ):
            _check_int(getattr(self, field_name), field_name, minimum=0)
        _check_float(self.deadline_ms, "deadline_ms", positive=True)
        _check_float(self.send_interval_ms, "send_interval_ms", positive=True)
        _check_scenario(self.scenario_family, self.scenario_seed)
        _check_topology(
            self.topology_family, self.topology_size, self.topology_seed
        )


Request = EvaluateRequest | ClassifyRequest | ChaosRequest

_REQUEST_TYPES: dict[str, type] = {
    "evaluate": EvaluateRequest,
    "classify": ClassifyRequest,
    "chaos": ChaosRequest,
}


def parse_request(payload: object) -> Request:
    """Validate one JSON request document into its typed form.

    Raises :class:`ValidationError` with a one-line message on any
    malformed input: wrong envelope, unsupported version, unknown kind,
    unknown fields, wrong types, out-of-range values.
    """
    require(
        isinstance(payload, Mapping),
        f"request must be a JSON object, got {type(payload).__name__}",
    )
    assert isinstance(payload, Mapping)
    version = payload.get("version")
    require(
        version == PROTOCOL_VERSION,
        f"unsupported protocol version {version!r} "
        f"(this server speaks version {PROTOCOL_VERSION})",
    )
    kind = payload.get("kind")
    require(
        kind in _REQUEST_TYPES,
        f"unknown request kind {kind!r}; known: {', '.join(REQUEST_KINDS)}",
    )
    request_type = _REQUEST_TYPES[kind]  # type: ignore[index]
    known = {field.name for field in fields(request_type)}
    body = {
        name: value
        for name, value in payload.items()
        if name not in ("version", "kind")
    }
    unknown = sorted(set(body) - known)
    require(
        not unknown,
        f"unknown field(s) for {kind}: {', '.join(unknown)}; "
        f"known: {', '.join(sorted(known))}",
    )
    # Wire lists become tuples so the dataclasses stay hashable/frozen.
    for name in ("schemes", "flows"):
        if isinstance(body.get(name), list):
            body[name] = tuple(body[name])
    try:
        return request_type(**body)
    except TypeError as error:
        raise ValidationError(f"malformed {kind} request: {error}") from error


def request_to_payload(request: Request) -> dict:
    """The JSON wire form of a typed request (what clients submit)."""
    payload: dict = {"version": PROTOCOL_VERSION, "kind": request.kind}
    for field in fields(request):
        value = getattr(request, field.name)
        if isinstance(value, tuple):
            value = list(value)
        payload[field.name] = value
    return payload


def make_event(event: str, **data: object) -> dict:
    """One response-stream event as a JSON-ready dict."""
    return {"event": event, **data}
