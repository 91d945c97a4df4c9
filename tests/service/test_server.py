"""The sweep service over a real socket.

The headline contract: anything the service returns is byte-identical
to what a cold, in-process facade call produces — the server only ever
amortizes *work*, never changes *results*. Plus the service mechanics:
LRU/disk tiers attribute their hits, tenants interleave safely,
subscribers get validatable per-job progress streams, and malformed
requests come back as error envelopes instead of dropped connections.
"""

import json
import threading

import pytest

from repro import api
from repro.api import schema
from repro.obs.fleet import validate_progress_records
from repro.service import ServiceError, serve_background

EVENTS = 2_000


@pytest.fixture(scope="module")
def server():
    with serve_background() as handle:
        yield handle


class TestSimulate:
    def test_matches_cold_facade_call(self, server):
        with server.client() as client:
            body = client.simulate(workload="gzip", config="aise+bmt",
                                   events=EVENTS)
        cold = api.simulate("gzip", "aise+bmt", events=EVENTS,
                            label="aise+bmt")
        assert body["result"] == cold.to_dict()

    def test_repeat_request_serves_from_memory(self, server):
        knobs = dict(workload="eon", config="base", events=EVENTS)
        with server.client() as client:
            first = client.simulate(**knobs)
            second = client.simulate(**knobs)
        assert second["result"] == first["result"]
        assert second["served_from"] == "lru"

    def test_metrics_knob_changes_key_not_result(self, server):
        with server.client() as client:
            plain = client.simulate(workload="gzip", config="base",
                                    events=EVENTS)
            metered = client.simulate(workload="gzip", config="base",
                                      events=EVENTS, metrics=True)
        assert "metrics" not in plain["result"]
        assert metered["result"]["metrics"]
        stripped = dict(metered["result"])
        del stripped["metrics"]
        assert stripped == plain["result"]


class TestSweepByteIdentity:
    KNOBS = dict(configs=["base", "aise+bmt"], benchmarks=["gzip"],
                 events=EVENTS)

    def test_warm_path_body_equals_cold_payload(self, server):
        with server.client() as client:
            body = client.sweep(**self.KNOBS)
        cold = api.sweep(**self.KNOBS).to_payload()
        assert json.dumps(body, indent=2, sort_keys=True) == \
            json.dumps(cold, indent=2, sort_keys=True)

    def test_pool_path_body_equals_cold_payload(self, server):
        with server.client() as client:
            body = client.sweep(workers=2, **self.KNOBS)
        cold = api.sweep(**self.KNOBS).to_payload()
        assert json.dumps(body, indent=2, sort_keys=True) == \
            json.dumps(cold, indent=2, sort_keys=True)

    def test_sweep_body_carries_no_meta_keys(self, server):
        with server.client() as client:
            body = client.sweep(**self.KNOBS)
        assert set(body) == {"benchmarks", "cells", "configs", "events"}


class TestTenancy:
    def test_interleaved_tenants_get_identical_cells(self, server):
        results = {}

        def run(tenant):
            with server.client(tenant=tenant) as client:
                results[tenant] = client.sweep(
                    configs=["aise+bmt"], benchmarks=["eon"], events=EVENTS)

        threads = [threading.Thread(target=run, args=(t,))
                   for t in ("alice", "bob")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results["alice"] == results["bob"]

    def test_concurrent_identical_cells_compute_once(self, tmp_path):
        with serve_background(cache_dir=str(tmp_path)) as handle:
            def run():
                with handle.client() as client:
                    client.simulate(workload="gzip", config="aise+bmt",
                                    events=EVENTS)

            threads = [threading.Thread(target=run) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with handle.client() as client:
                status = client.status()
        # Exactly-once per key: one disk write, however many askers.
        assert status["disk"]["writes"] == 1
        assert sum(status["served"][k] for k in
                   ("lru", "disk", "warm", "cold")) == 6


class TestProgressEvents:
    def test_subscribed_sweep_stream_validates(self, server):
        with server.client(tenant="watcher") as client:
            client.subscribe()
            body = client.sweep(configs=["base"], benchmarks=["gzip", "eon"],
                                events=EVENTS)
            client.status()  # drain any straggling events first
        assert body["cells"]
        jobs = {event["job"] for event in client.events}
        assert len(jobs) == 1
        records = client.progress_records(jobs.pop())
        assert [r["event"] for r in records][0] == "sweep_begin"
        assert [r["event"] for r in records][-1] == "sweep_end"
        assert validate_progress_records(records) == []

    def test_unsubscribed_clients_see_no_events(self, server):
        with server.client() as client:
            client.sweep(configs=["base"], benchmarks=["gzip"], events=EVENTS)
            assert client.events == []


class TestErrors:
    def test_unknown_config_is_an_error_envelope(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError, match="unknown"):
                client.sweep(configs=["warpdrive"], benchmarks=["gzip"],
                             events=EVENTS)
            # The connection survives the error.
            assert client.status()["requests"] > 0

    def test_unknown_benchmark_matches_facade_message(self, server):
        try:
            api.sweep(configs=["base"], benchmarks=["nope"], events=EVENTS)
        except ValueError as exc:
            facade_message = str(exc)
        with server.client() as client:
            with pytest.raises(ServiceError) as err:
                client.sweep(configs=["base"], benchmarks=["nope"],
                             events=EVENTS)
        assert str(err.value) == facade_message

    def test_malformed_line_is_an_error_envelope(self, server):
        with server.client() as client:
            client.sock.sendall(b"this is not json\n")
            envelope = client._recv()
        assert envelope.kind == "error"


class TestOtherOps:
    def test_presets_match_facade(self, server):
        with server.client() as client:
            assert client.presets() == list(api.preset_names())
            full = client.presets(full=True)
        assert full == list(api.preset_names(full=True))
        assert "aise+bmt_lazy" in full

    def test_trace_matches_facade(self, server):
        with server.client() as client:
            body = client.trace(workload="stream", events=EVENTS,
                                interval=512)
        cold = api.trace("stream", events=EVENTS, interval=512).to_payload()
        assert body["result"] == cold["result"]
        assert body["samples"] == cold["samples"]
        assert body["chrome"] == cold["chrome"]

    def test_precompile_reports_shared_lowering(self, server):
        knobs = dict(workload="chase", config="aise+bmt", events=EVENTS)
        with server.client() as client:
            first = client.precompile(**knobs)
            second = client.precompile(**knobs)
        assert first["patterns"]
        # The TraceStore shares one Trace instance, so the second
        # request finds the first request's lowering memoized.
        assert second["cached"] is True

    def test_status_counts_are_coherent(self, server):
        with server.client() as client:
            status = client.status()
        assert status["requests"] >= 1
        assert status["uptime_s"] > 0
        assert set(status["served"]) == {"lru", "disk", "warm", "cold",
                                         "pool"}
        assert status["lru"]["size"] <= status["lru"]["capacity"]


class TestFirstServeLowering:
    """The service lowers a stored trace on first serve.

    The timing engine lowers only on a trace's second cold sighting; a
    :class:`TraceStore` trace is shared across requests, so the service
    lowers it up front and every miss — the first one included — replays.
    """

    @pytest.fixture(autouse=True)
    def _sanitizer_disarmed(self):
        # An armed sanitizer (REPRO_SANITIZE=1) rightly keeps every run
        # off the replay these tests assert.
        from repro.core import sanitizer

        previous = sanitizer.active()
        sanitizer.disarm()
        yield
        if previous is not None:
            sanitizer.arm(previous)

    def test_simulate_miss_on_a_stored_trace_replays(self):
        import asyncio

        from repro.service.server import SweepService

        service = SweepService()
        config = api.MachineConfig.preset("aise+bmt")

        async def serve_two_misses():
            return [await service._cell_record("gzip", config, "aise+bmt",
                                               EVENTS, 0.7, warmup, False)
                    for warmup in (0.25, 0.3)]

        (first, first_tier, first_engine), (second, second_tier, second_engine) = \
            asyncio.run(serve_two_misses())
        assert (first_tier, first_engine) == ("cold", "compiled")
        assert (second_tier, second_engine) == ("warm", "compiled")
        for record, warmup in ((first, 0.25), (second, 0.3)):
            assert record == api.simulate("gzip", "aise+bmt", events=EVENTS,
                                          warmup=warmup, label="aise+bmt").to_dict()


class TestShutdown:
    def test_shutdown_request_stops_the_server(self):
        handle = serve_background()
        with handle.client() as client:
            client.shutdown()
        handle.thread.join(timeout=10)
        assert not handle.thread.is_alive()
