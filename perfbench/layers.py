"""The traced run's wrappers around each layer, and the per-layer metrics.

:func:`install` wraps the library entry points every workload may reach,
at the place each caller looks them up; a workload then wraps its own
instances (the kernel, the machine, the service client). The metric
table below is the contract ``BENCHMARK.json``'s ``per_layer`` list
mirrors: every traced run reports every metric, and a layer a workload
does not exercise reports 0.
"""

from __future__ import annotations

import statistics

from .tracing import SpanView, Tracer

# name -> unit. "/op" values are totals over the traced window divided
# by the ops it timed; "_ms"/"_us" values are medians per call.
PER_LAYER = {
    "workloads.trace_s": "s/op",
    "fastpath.lower_s": "s/op",
    "fastpath.lower_reuse": "ratio",
    "sim.run_s": "s/op",
    "sim.host_us_per_event": "us",
    "sim.runs_compiled": "count/op",
    "sim.runs_per_event": "count/op",
    "sim.runs_reference": "count/op",
    "evalx.self_s": "s/op",
    "api.self_s": "s/op",
    "api.to_dict_ms": "ms",
    "api.wire_ms": "ms",
    "service.self_s": "s/op",
    "service.lru_ms": "ms",
    "service.warm_ms": "ms",
    "service.cold_ms": "ms",
    "service.rtt_ms": "ms",
    "service.hit_ratio": "ratio",
    "core.self_s": "s/op",
    "core.boot_s": "s",
    "core.read_block_us": "us",
    "core.write_block_us": "us",
    "core.page_export_ms": "ms",
    "core.page_install_ms": "ms",
    "integrity.self_s": "s/op",
    "integrity.verify_us": "us",
    "integrity.update_us": "us",
    "crypto.aes_calls_per_op": "count/op",
    "osmodel.self_s": "s/op",
    "osmodel.read_ms": "ms",
    "osmodel.write_ms": "ms",
    "osmodel.faults_per_op": "count/op",
    "osmodel.swap_outs_per_op": "count/op",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def install(tracer: Tracer) -> None:
    """Wrap the module- and class-level entry points of every layer."""
    from repro.api import schema
    from repro.core.machine import SecureMemorySystem
    from repro.crypto.ctr_mode import PadGenerator
    from repro.evalx import parallel, runner
    from repro.fastpath import compiled
    from repro.sim.results import SimResult
    from repro.sim.simulator import TimingSimulator
    from repro.workloads import spec2k

    import repro.api as api

    # Trace generation: the Runner and run_cells bind spec_trace at
    # import; load_trace imports it from its module on every call.
    for owner in (spec2k, runner, parallel):
        tracer.patch(owner, "spec_trace", "workloads")
    tracer.patch(api, "load_trace", "api")
    # Lowering: execute_compiled calls compiled_for, which calls lower,
    # both through the compiled module's globals.
    tracer.patch(compiled, "compiled_for", "fastpath")
    tracer.patch(compiled, "lower", "fastpath")

    def engine(args):
        sim, trace = args[0], args[1]
        telemetry = sim.engine_telemetry
        hits = telemetry.lowering_hits

        def done() -> None:
            tracer.bump(f"sim.runs_{telemetry.last_engine}")
            tracer.bump("sim.events", len(trace))
            tracer.bump("fastpath.lowering_hits", telemetry.lowering_hits - hits)

        return done

    tracer.patch(TimingSimulator, "run", "sim", observe=engine)
    tracer.patch(runner, "run_cells", "evalx")
    tracer.patch(SimResult, "to_dict", "api")
    tracer.patch(schema, "wire_encode", "api")
    tracer.patch(schema, "wire_decode", "api")
    tracer.patch(SecureMemorySystem, "boot", "core")
    # One call per pad the cipher generates (AES, or its keyed-BLAKE2s
    # stand-in under fast_crypto): counted, not timed.
    tracer.patch_counter(PadGenerator, "_generate", "crypto.aes_calls")


def install_machine(tracer: Tracer, machine) -> None:
    """Wrap one machine's block datapath and its integrity engine where
    the kernel and the machine look them up (instance attributes)."""
    for attr in ("read_block", "write_block", "export_page_image",
                 "install_page_image"):
        tracer.patch(machine, attr, "core")
    for attr in ("verify_data", "update_data", "verify_metadata", "update_metadata"):
        tracer.patch(machine.integrity, attr, "integrity")
    # The encryption engine holds its own bound references to these.
    for attr, name in (("verify_block", "verify_data"),
                       ("metadata_verify", "verify_metadata"),
                       ("metadata_update", "update_metadata")):
        tracer.patch(machine.encryption, attr, "integrity", name)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def compute(view: SpanView, tracer: Tracer, counts: dict, ops: int,
            extras: dict) -> dict:
    """Every :data:`PER_LAYER` metric for one traced window.

    ``counts`` holds the tracer's count deltas over the window, ``ops``
    the number of timed ops, ``extras`` the workload's own values (the
    service tiers, kernel paging, overhead); anything not measured is 0.
    """
    per_op = 1.0 / ops if ops else 0.0
    compiled_runs = counts.get("sim.runs_compiled", 0)
    memo_hits = counts.get("fastpath.lowering_hits", 0)
    sim_self = view.self_seconds("sim")
    events = counts.get("sim.events", 0)
    boots = tracer.durations("core", {"boot"})
    values = {
        "workloads.trace_s": view.self_seconds("workloads") * per_op,
        "fastpath.lower_s": view.total_seconds("fastpath", {"lower"}) * per_op,
        "fastpath.lower_reuse": memo_hits / compiled_runs if compiled_runs else 0.0,
        "sim.run_s": sim_self * per_op,
        "sim.host_us_per_event": sim_self / events * 1e6 if events else 0.0,
        "sim.runs_compiled": compiled_runs * per_op,
        "sim.runs_per_event": counts.get("sim.runs_per_event", 0) * per_op,
        "sim.runs_reference": counts.get("sim.runs_reference", 0) * per_op,
        "evalx.self_s": view.self_seconds("evalx") * per_op,
        "api.self_s": view.self_seconds("api") * per_op,
        "api.to_dict_ms": _ms(view.median_seconds("api", {"to_dict"})),
        "api.wire_ms": _ms(view.median_seconds("api", {"wire_encode", "wire_decode"})),
        "service.self_s": view.self_seconds("service") * per_op,
        "core.self_s": view.self_seconds("core") * per_op,
        "core.boot_s": statistics.median(boots) if boots else 0.0,
        "core.read_block_us": view.median_seconds("core", {"read_block"}) * 1e6,
        "core.write_block_us": view.median_seconds("core", {"write_block"}) * 1e6,
        "core.page_export_ms": _ms(view.median_seconds("core", {"export_page_image"})),
        "core.page_install_ms": _ms(view.median_seconds("core", {"install_page_image"})),
        "integrity.self_s": view.self_seconds("integrity") * per_op,
        "integrity.verify_us": view.median_seconds("integrity", {"verify_data"}) * 1e6,
        "integrity.update_us": view.median_seconds("integrity", {"update_data"}) * 1e6,
        "crypto.aes_calls_per_op": counts.get("crypto.aes_calls", 0) * per_op,
        "osmodel.self_s": view.self_seconds("osmodel") * per_op,
        "osmodel.read_ms": _ms(view.median_seconds("osmodel", {"read"})),
        "osmodel.write_ms": _ms(view.median_seconds("osmodel", {"write"})),
    }
    values.update(extras)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()}
