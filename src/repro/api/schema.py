"""repro.api.schema: the versioned request/response envelope.

Every payload the reproduction emits across a process boundary — the
service wire protocol (:mod:`repro.service`), the CLI ``--json``
outputs, fleet reports shipped to dashboards — travels inside one
envelope shape::

    {"payload_version": 1, "kind": "<kind>", "body": {...}}

``payload_version`` is the schema generation (bumped only for an
incompatible body change), ``kind`` names the body's type, and ``body``
is the *unchanged* legacy payload for the established kinds — an
enveloped sweep body is byte-for-byte ``SweepRun.to_payload()``, an
enveloped result body is ``SimResult.to_dict()``, an enveloped fleet
body is ``FleetReport.to_payload()``. The envelope adds provenance
around those payloads without perturbing them, so the golden-diff
machinery keeps pinning the same bytes.

Requests are typed dataclasses (:class:`SimulateRequest`,
:class:`SweepRequest`, ...) with ``to_wire``/``from_wire`` that
round-trip exactly; the service dispatches on ``kind`` through
:data:`REQUEST_TYPES`. Responses are built by the ``*_envelope``
helpers so every emitter spells the same kinds.

Old bare shapes (a sweep payload with a top-level ``cells``, a fleet
report with ``aggregate``, a result dict with ``cycles``) remain
*readable* through :func:`read_payload` for one release behind a
:class:`DeprecationWarning`; writers must emit envelopes.

``docs/service.md`` documents the wire protocol this module types.
"""

from __future__ import annotations

import json
import numbers
import warnings
from dataclasses import dataclass, fields

# The schema generation. Bump only for an incompatible change to an
# envelope body; additive request fields with defaults do not count.
PAYLOAD_VERSION = 1

# Envelope kinds with a legacy (pre-envelope) bare shape, and the
# top-level key that identifies each bare shape on sight.
_LEGACY_MARKERS = (
    ("sweep", "cells"),
    ("fleet", "aggregate"),
    ("result", "cycles"),
)


class SchemaError(ValueError):
    """A document that does not parse as a valid envelope or request."""


@dataclass(frozen=True)
class Envelope:
    """One versioned wire document: ``kind`` names the ``body``'s type."""

    kind: str
    body: dict
    payload_version: int = PAYLOAD_VERSION

    def to_wire(self) -> dict:
        return {
            "payload_version": self.payload_version,
            "kind": self.kind,
            "body": self.body,
        }

    @classmethod
    def from_wire(cls, doc: dict) -> "Envelope":
        if not isinstance(doc, dict):
            raise SchemaError(f"envelope must be an object, got {type(doc).__name__}")
        missing = {"payload_version", "kind", "body"} - doc.keys()
        if missing:
            raise SchemaError(f"envelope missing {sorted(missing)}")
        version = doc["payload_version"]
        if version != PAYLOAD_VERSION:
            raise SchemaError(
                f"payload_version {version!r} is not supported "
                f"(this build speaks version {PAYLOAD_VERSION})"
            )
        if not isinstance(doc["kind"], str) or not doc["kind"]:
            raise SchemaError("envelope kind must be a non-empty string")
        if not isinstance(doc["body"], dict):
            raise SchemaError("envelope body must be an object")
        return cls(kind=doc["kind"], body=doc["body"], payload_version=version)


def wire_encode(envelope: Envelope) -> str:
    """One NDJSON line (no trailing newline): sorted keys, compact.

    Sorted-key compact serialization makes identical envelopes
    byte-identical on the wire — the same determinism convention as the
    sweep payload and the JSONL sinks.
    """
    return json.dumps(envelope.to_wire(), sort_keys=True, separators=(",", ":"))


def wire_decode(line: str) -> Envelope:
    """Parse one NDJSON line into a validated :class:`Envelope`."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    return Envelope.from_wire(doc)


# -- typed requests -----------------------------------------------------------


@dataclass
class Request:
    """Base of the typed request vocabulary (never sent itself).

    Subclasses set ``kind`` and declare their fields; ``to_wire`` and
    ``from_wire`` round-trip exactly (unknown body keys are rejected, so
    a typo'd knob fails loudly instead of silently running defaults).
    """

    kind = ""  # overridden per subclass

    def __post_init__(self):
        _check_knobs(self)

    def to_wire(self) -> Envelope:
        body = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            body[spec.name] = value
        return Envelope(kind=self.kind, body=body)

    @classmethod
    def from_wire(cls, envelope: Envelope) -> "Request":
        if envelope.kind != cls.kind:
            raise SchemaError(f"expected kind {cls.kind!r}, got {envelope.kind!r}")
        known = {spec.name for spec in fields(cls)}
        unknown = set(envelope.body) - known
        if unknown:
            raise SchemaError(
                f"{cls.kind} request does not accept {sorted(unknown)} "
                f"(knobs: {sorted(known)})"
            )
        return cls(**envelope.body)

    def _as_tuple(self, *names: str) -> None:
        # Wire JSON has no tuples; normalize list-valued fields back so
        # from_wire(to_wire(req)) == req holds (the round-trip contract).
        for name in names:
            value = getattr(self, name)
            if isinstance(value, list):
                setattr(self, name, tuple(value))


def _check_knobs(request: Request) -> None:
    """The one validation boundary for the simulation knobs.

    ``events`` is a trace length, ``warmup`` the fraction of it that only
    warms the caches (1.0, the whole trace, is the degenerate
    nothing-measured run), and ``overlap`` the fraction of a miss's
    latency the core cannot hide. Out of range, each used to fail late
    or not at all (a NumPy error, 0 cycles, negative infinite cycles).
    """
    events = getattr(request, "events", 0)
    if (isinstance(events, bool) or not isinstance(events, numbers.Integral)
            or events < 0):
        raise SchemaError(f"events must be a non-negative integer, got {events!r}")
    for name in ("warmup", "overlap"):
        value = getattr(request, name, 0.0)
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not 0.0 <= value <= 1.0):
            raise SchemaError(f"{name} must be a fraction in [0, 1], got {value!r}")


@dataclass
class HelloRequest(Request):
    """Names the connection's tenant; first message on a connection."""

    kind = "hello"
    tenant: str = "anon"


@dataclass
class SimulateRequest(Request):
    """One (workload, config) cell through the timing model."""

    kind = "simulate"
    workload: str = "stream"
    config: str = "aise+bmt"
    events: int = 60_000
    overlap: float = 0.7
    warmup: float = 0.25
    metrics: bool = False
    label: str | None = None


@dataclass
class SweepRequest(Request):
    """A (benchmark x configuration) grid; body mirrors :func:`repro.api.sweep`."""

    kind = "sweep"
    configs: tuple | None = None
    benchmarks: tuple | None = None
    events: int = 60_000
    mac_bits: tuple = (None,)
    workers: int = 1
    metrics: bool = False
    overlap: float = 0.7
    warmup: float = 0.25

    def __post_init__(self):
        super().__post_init__()
        self._as_tuple("configs", "benchmarks", "mac_bits")


@dataclass
class TraceRequest(Request):
    """One workload under full observability."""

    kind = "trace"
    workload: str = "stream"
    config: str = "aise+bmt"
    events: int = 60_000
    interval: int = 1024
    warmup: float = 0.25


@dataclass
class PrecompileRequest(Request):
    """Lower a workload's trace ahead of time (shared across sessions)."""

    kind = "precompile"
    workload: str = "stream"
    config: str = "aise+bmt"
    events: int = 60_000


@dataclass
class PresetsRequest(Request):
    """Discover configuration labels; ``full`` includes registry-valid extras."""

    kind = "presets"
    full: bool = False


@dataclass
class StatusRequest(Request):
    """Server statistics (cache tiers, warm pool, jobs served)."""

    kind = "status"


@dataclass
class SubscribeRequest(Request):
    """Stream fleet progress events for subsequent jobs on this connection."""

    kind = "subscribe"
    progress: bool = True


@dataclass
class ShutdownRequest(Request):
    """Ask the server to drain and stop (load-generator teardown)."""

    kind = "shutdown"


REQUEST_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        HelloRequest,
        SimulateRequest,
        SweepRequest,
        TraceRequest,
        PrecompileRequest,
        PresetsRequest,
        StatusRequest,
        SubscribeRequest,
        ShutdownRequest,
    )
}


def request_from_wire(envelope: Envelope) -> Request:
    """Dispatch an envelope to its typed request class."""
    cls = REQUEST_TYPES.get(envelope.kind)
    if cls is None:
        raise SchemaError(
            f"unknown request kind {envelope.kind!r} "
            f"(known: {', '.join(sorted(REQUEST_TYPES))})"
        )
    return cls.from_wire(envelope)


# -- response envelopes -------------------------------------------------------
#
# Builders rather than classes: response bodies ARE the legacy payloads
# (SimResult.to_dict(), SweepRun.to_payload(), ...), enveloped verbatim.


def result_envelope(result: dict, **meta) -> Envelope:
    """A single :class:`~repro.sim.results.SimResult` dict, plus metadata.

    ``meta`` (e.g. ``served_from="lru"``, ``job=3``) rides next to the
    result under reserved keys the result dict never uses.
    """
    body = {"result": result}
    overlap = set(meta) & set(body)
    if overlap:
        raise SchemaError(f"meta keys {sorted(overlap)} collide with the body")
    body.update(meta)
    return Envelope(kind="result", body=body)


def sweep_envelope(payload: dict, **meta) -> Envelope:
    """A ``SweepRun.to_payload()`` body — the golden byte-identity surface."""
    body = dict(payload)
    for key, value in meta.items():
        if key in payload:
            raise SchemaError(f"meta key {key!r} collides with the sweep payload")
        body[key] = value
    return Envelope(kind="sweep", body=body)


def trace_envelope(payload: dict) -> Envelope:
    """A ``TraceRun.to_payload()`` body."""
    return Envelope(kind="trace", body=payload)


def fleet_envelope(payload: dict) -> Envelope:
    """A ``FleetReport.to_payload()`` body."""
    return Envelope(kind="fleet", body=payload)


def presets_envelope(labels) -> Envelope:
    return Envelope(kind="presets", body={"presets": list(labels)})


def status_envelope(stats: dict) -> Envelope:
    return Envelope(kind="status", body=dict(stats))


def event_envelope(record: dict, *, job: int, tenant: str) -> Envelope:
    """One fleet progress record, tagged with its job and tenant."""
    return Envelope(kind="event", body={"job": job, "tenant": tenant, "record": record})


def ok_envelope(**body) -> Envelope:
    return Envelope(kind="ok", body=body)


def error_envelope(message: str, **detail) -> Envelope:
    return Envelope(kind="error", body={"error": message, **detail})


# -- the one-release deprecation shim -----------------------------------------


def read_payload(doc: dict) -> Envelope:
    """Read an enveloped *or* legacy bare payload as an :class:`Envelope`.

    Enveloped documents pass through :meth:`Envelope.from_wire`. Bare
    pre-envelope shapes are recognized by their signature top-level key
    (``cells`` -> sweep, ``aggregate`` -> fleet, ``cycles`` -> result)
    and wrapped, with a :class:`DeprecationWarning`: readable for one
    release, then envelopes only.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"payload must be an object, got {type(doc).__name__}")
    if {"payload_version", "kind", "body"} <= doc.keys():
        return Envelope.from_wire(doc)
    for kind, marker in _LEGACY_MARKERS:
        if marker in doc:
            warnings.warn(
                f"bare {kind} payloads are deprecated; emitters now wrap them in "
                f"the versioned envelope (repro.api.schema, payload_version "
                f"{PAYLOAD_VERSION}) and bare-shape reading will be removed "
                "next release",
                DeprecationWarning,
                stacklevel=2,
            )
            return Envelope(kind=kind, body=doc)
    raise SchemaError(
        "not an envelope (missing payload_version/kind/body) and not a "
        "recognized legacy payload shape"
    )
