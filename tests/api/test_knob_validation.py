"""One validation boundary for the simulation knobs.

``events``, ``warmup`` and ``overlap`` are checked where the request
dataclasses are built (:mod:`repro.api.schema`), and the facade, the CLI
and the service all build one. Out of range, the knobs used to fail
late or not at all: ``events=-5`` died inside NumPy, ``warmup=1.5``
reported 0 cycles and ``overlap=-3`` reported negative infinite cycles.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.__main__ import main
from repro.api import schema
from repro.service import serve_background

EVENTS = 1_000
KNOBBED = (schema.SimulateRequest, schema.SweepRequest, schema.TraceRequest)

BAD = [
    ("events", -5, "events must be a non-negative integer"),
    ("events", 2.5, "events must be a non-negative integer"),
    ("events", True, "events must be a non-negative integer"),
    ("warmup", 1.5, r"warmup must be a fraction in \[0, 1\]"),
    ("warmup", -0.1, r"warmup must be a fraction in \[0, 1\]"),
    ("warmup", float("nan"), r"warmup must be a fraction in \[0, 1\]"),
    ("overlap", -3.0, r"overlap must be a fraction in \[0, 1\]"),
    ("overlap", 1.01, r"overlap must be a fraction in \[0, 1\]"),
    ("overlap", "0.5", r"overlap must be a fraction in \[0, 1\]"),
]


class TestRequestDataclasses:
    @pytest.mark.parametrize("name,value,message", BAD)
    def test_bad_values_rejected(self, name, value, message):
        for cls in KNOBBED:
            if name == "overlap" and cls is schema.TraceRequest:
                continue  # traced runs take no overlap knob
            with pytest.raises(schema.SchemaError, match=message):
                cls(**{name: value})

    def test_precompile_checks_events(self):
        with pytest.raises(schema.SchemaError, match="events"):
            schema.PrecompileRequest(events=-1)

    def test_wire_form_is_checked_too(self):
        envelope = schema.Envelope("simulate", {"warmup": 2.0})
        with pytest.raises(schema.SchemaError, match="warmup"):
            schema.request_from_wire(envelope)

    @settings(max_examples=60, deadline=None)
    @given(events=st.integers(min_value=0, max_value=10**9),
           warmup=st.floats(min_value=0.0, max_value=1.0),
           overlap=st.floats(min_value=0.0, max_value=1.0))
    def test_every_in_range_value_round_trips(self, events, warmup, overlap):
        request = schema.SimulateRequest(events=events, warmup=warmup,
                                         overlap=overlap)
        assert schema.request_from_wire(request.to_wire()) == request

    @settings(max_examples=60, deadline=None)
    @given(value=st.one_of(st.floats(max_value=-1e-9),
                           st.floats(min_value=1.0 + 1e-9)))
    def test_every_out_of_range_fraction_is_rejected(self, value):
        with pytest.raises(schema.SchemaError):
            schema.SweepRequest(warmup=value)
        with pytest.raises(schema.SchemaError):
            schema.SweepRequest(overlap=value)


class TestFacade:
    def test_negative_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            api.simulate("art", "aise+bmt", events=EVENTS, overlap=-3.0)

    def test_warmup_past_the_trace(self):
        with pytest.raises(ValueError, match="warmup"):
            api.simulate("art", "aise+bmt", events=EVENTS, warmup=1.5)

    def test_negative_events(self):
        with pytest.raises(ValueError, match="events"):
            api.simulate("art", events=-5)

    def test_a_ready_trace_is_checked_too(self):
        trace = api.load_trace("art", EVENTS)
        with pytest.raises(ValueError, match="overlap"):
            api.simulate(trace, overlap=2.0)

    def test_sweep_trace_and_precompile(self):
        with pytest.raises(ValueError, match="warmup"):
            api.sweep(["base"], ["art"], events=EVENTS, warmup=-0.5)
        with pytest.raises(ValueError, match="events"):
            api.trace("art", events=-1)
        with pytest.raises(ValueError, match="events"):
            api.precompile("art", events=-1)

    def test_edges_are_accepted(self):
        assert api.simulate("art", events=0).cycles == 0.0
        # warmup=1.0 is the degenerate whole-trace warmup: nothing measured.
        assert api.simulate("art", events=EVENTS, warmup=1.0).cycles == 0.0
        assert api.simulate("art", events=EVENTS, warmup=0.0).cycles > 0.0
        no_stall = api.simulate("art", events=EVENTS, overlap=0.0)
        full_stall = api.simulate("art", events=EVENTS, overlap=1.0)
        assert 0.0 < no_stall.cycles < full_stall.cycles


class TestCli:
    def test_simulate_negative_events_exits_2(self, capsys):
        assert main(["simulate", "--benchmark", "art", "--events", "-5"]) == 2
        assert "events must be a non-negative integer" in capsys.readouterr().err

    def test_sweep_negative_events_exits_2(self):
        assert main(["sweep", "--benchmarks", "art", "--events", "-5"]) == 2

    def test_trace_bad_warmup_exits_2(self, tmp_path):
        assert main(["trace", "art", "--events", "100", "--warmup", "1.5",
                     "--out", str(tmp_path / "t.json")]) == 2

    def test_submit_rejects_before_connecting(self, capsys):
        # No server listens on the port: the knob check must fire first.
        assert main(["submit", "simulate", "--port", "1", "--overlap", "-3"]) == 2
        assert "overlap must be a fraction" in capsys.readouterr().err


class TestService:
    def test_bad_knob_is_an_error_envelope(self):
        with serve_background() as handle, handle.client() as client:
            client._send(schema.Envelope("simulate",
                                         {"workload": "art", "warmup": 1.5}))
            envelope = client._recv()
            assert envelope.kind == "error"
            assert "warmup must be a fraction" in envelope.body["error"]
            # The connection survives the error.
            assert client.status()["requests"] > 0
