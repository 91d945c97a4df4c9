"""The benchmark's own tests: the checks bite, the wrappers only observe,
and a smoke-size run of every workload completes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stdout

import pytest

from perfbench import ROOT, use_checkout_sources

use_checkout_sources()

from perfbench import common, fig6_grid, layers, run, secure_os, service_mix  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

CHEAP_SLICE = "eon"
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _one_slice(seed: int = 1) -> fig6_grid.State:
    state = fig6_grid.setup(seed)
    state.order = [CHEAP_SLICE]
    return state


def test_traced_fig6_slice_matches_golden():
    state = _one_slice()
    tracer = Tracer()
    layers.install(tracer)
    try:
        fig6_grid.install(tracer, state)
        window = fig6_grid.measure(state, 0, 1, tracer)
    finally:
        tracer.restore()
    assert window.attempted == 1 and window.failed == 0
    assert window.work == len(state.configs)
    view = tracer.since(0)
    for layer in ("api", "evalx", "sim", "fastpath", "workloads"):
        assert view.self_seconds(layer) > 0, layer
    # Restored: the library runs unwrapped again.
    from repro.sim.simulator import TimingSimulator

    assert not hasattr(TimingSimulator.run, "__wrapped__")


def test_wrong_golden_cell_is_a_failed_op():
    state = _one_slice()
    key = f"{CHEAP_SLICE}/aise+bmt/default"
    state.expected[key] = state.expected[key].replace('"cycles": ', '"cycles": 1')
    window = fig6_grid.measure(state, 0, 1)
    assert window.attempted == 1 and window.failed == 1


def test_wrong_shadow_byte_is_a_failed_op():
    state = secure_os.setup(3)
    for key, data in state.shadow.items():
        state.shadow[key] = bytes([data[0] ^ 1]) + data[1:]
    window = common.Window()
    kernel = state.kernel
    secure_os._run_ops(state, random.Random(3), window,
                       kernel.read, kernel.write, limit=secure_os.READS + secure_os.WRITES)
    assert window.failed >= 1


def test_tamper_probes_detect_spoofing():
    state = secure_os.setup(4)
    window = common.Window()
    secure_os.verify(state, window)
    assert window.attempted == secure_os.TAMPER_PROBES and window.failed == 0


def test_wrong_hit_cell_is_a_failed_op():
    state = service_mix.setup(5)
    try:
        pair = service_mix.PAIRS[0]
        state.expected[pair] = state.expected[pair] + " "
        window = service_mix.measure(state, 0, 5)
        service_mix.verify(state, window)
    finally:
        state.close()
    # The window runs whole rounds until it holds a median's worth of ops;
    # every hit of the corrupted pair fails, nothing else does.
    round_ops = len(service_mix.PAIRS) * service_mix.MISS_REPEATS + service_mix.ROUND_HITS
    rounds = -(-common.MIN_OPS // round_ops)
    hits = [service_mix.PAIRS[i % len(service_mix.PAIRS)]
            for i in range(rounds * service_mix.ROUND_HITS)]
    assert window.attempted == rounds * round_ops
    assert window.failed == hits.count(pair)


def test_median_needs_ten_samples_beyond():
    assert common.median_ms([0.001] * 10 + [0.002] * 9) is None
    assert common.median_ms([i / 1000 for i in range(19)]) is None
    assert common.median_ms([i / 1000 for i in range(21)]) == pytest.approx(10.0)


def test_metrics_match_manifest():
    """Every workload prints exactly the manifest's metrics, in its units."""
    window = common.Window()
    for i in range(common.MIN_OPS):
        window.record("read" if i % 3 else "write", 0.001 * (i + 1))
    window.peak_rss_mb = 50.0
    metrics, _ = run.end_to_end_metrics(0.5, window)
    assert {name: body["unit"] for name, body in metrics.items()} == {
        m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert all(body["value"] > 0 for body in metrics.values())
    assert layers.PER_LAYER == {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.WORKLOADS)


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap("core", "inner", lambda: time.sleep(0.02))

    def outer_fn():
        time.sleep(0.01)
        inner()

    tracer.wrap("osmodel", "outer", outer_fn, anchor=True)()
    view = tracer.since(0)
    assert view.self_seconds("osmodel") == pytest.approx(0.01, abs=0.008)
    assert view.self_seconds("core") == pytest.approx(0.02, abs=0.008)
    assert view.covered_seconds() == pytest.approx(0.03, abs=0.01)


@pytest.mark.parametrize("workload", ["service_mix", "secure_os"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "2",
                         "--seconds", "0.3", "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    group = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in MANIFEST[group]}


def test_smoke_fig6_slice():
    state = _one_slice(2)
    window = fig6_grid.measure(state, 0, 2)
    fig6_grid.verify(state, window)
    assert window.failed == 0 and window.work == len(state.configs)
    assert window.ops_per_s > 0
    # One slice is too few ops for a median: no partial result is printed.
    with pytest.raises(RuntimeError):
        run.end_to_end_metrics(0.5, window)
