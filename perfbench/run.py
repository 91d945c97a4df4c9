"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 perfbench/run.py --workload fig6_grid --seed 1 --seconds 25 --trace 0

``--trace 0`` sets up the workload several times, each in a fresh
interpreter (reporting the median set-up time), measures ``--seconds``
of ops with nothing installed, and prints every end-to-end metric; the
timed ones are scaled to a reference host speed (``common.host_speed``),
and a line above the result gives them as measured.
``--trace 1`` measures an untraced window, then installs the per-layer
span wrappers, sets up afresh and measures a traced window of the same
length; it prints every per-layer metric, including the traced/untraced
gap as ``trace.overhead``, and writes the spans to ``.perfbench-out/``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. The library is imported from
the checkout's ``src/``; without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import OUT_DIR, use_checkout_sources  # noqa: E402
from perfbench import common  # noqa: E402

WORKLOADS = ("fig6_grid", "service_mix", "secure_os")


def settle() -> None:
    """Collect, then freeze the set-up heap out of later collections."""
    gc.collect()
    gc.freeze()


def untraced(name: str, seed: int, seconds: float):
    workload, state, timed_setup_s, setup_s = common.timed_setups(name, seed)
    settle()
    window = workload.measure(state, seconds, seed)
    # Peak memory of set-up and the window, before the checks recompute.
    window.peak_rss_mb = common.peak_rss_mb()
    workload.verify(state, window)
    print(f"  as timed: host speed {window.speed:.4f}, setup_s {timed_setup_s:.6g}, "
          f"ops_per_s {window.ops_per_s:.6g}, "
          f"p50_ms {statistics.median(window.all_samples()) * 1e3:.6g}")
    return workload, state, setup_s, window


def end_to_end_metrics(setup_s: float, window) -> tuple[dict, dict]:
    """The end-to-end metrics, timed ones at the reference host speed."""
    p50_ms = common.median_ms(window.all_samples())
    if p50_ms is None:
        raise RuntimeError(f"{window.attempted} timed ops are too few for a median")
    speed = window.speed
    metrics = {
        "setup_s": common.metric(setup_s, "s"),
        "ops_per_s": common.metric(window.ops_per_s / speed, "1/s"),
        "peak_rss_mb": common.metric(window.peak_rss_mb, "MiB"),
        "p50_ms": common.metric(p50_ms * speed, "ms"),
    }
    counts = {"ops_per_s": window.attempted, "p50_ms": window.attempted}
    return metrics, counts


def traced(name: str, seed: int, seconds: float):
    from perfbench import layers
    from perfbench.tracing import Tracer

    workload, state, _, plain = untraced(name, seed, seconds)
    state.close()
    del state
    gc.unfreeze()
    gc.collect()

    tracer = Tracer()
    layers.install(tracer)
    try:
        state = workload.setup(seed)
        workload.install(tracer, state)
        settle()
        first = len(tracer)
        counts_before = dict(tracer.counts)
        window = workload.measure(state, seconds, seed, tracer)
        last = len(tracer)
        ops = window.attempted
        counts = {key: value - counts_before.get(key, 0)
                  for key, value in tracer.counts.items()}
        workload.verify(state, window)
        view = tracer.since(first, last)
        extras = workload.layer_extras(state, window, ops)
        extras["trace.coverage"] = view.covered_seconds() / window.wall
        extras["trace.overhead"] = ((plain.ops_per_s / plain.speed)
                                    / (window.ops_per_s / window.speed) - 1.0)
        metrics = layers.compute(view, tracer, counts, ops, extras)
        state.close()
    finally:
        tracer.restore()
    tracer.write(OUT_DIR / f"{name}-seed{seed}-spans.npz")
    return plain, window, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_sources()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        plain, window, metrics = traced(args.workload, args.seed, args.seconds)
        attempted = plain.attempted + window.attempted
        failed = plain.failed + window.failed
        counts = {}
    else:
        _, _, setup_s, window = untraced(args.workload, args.seed, args.seconds)
        metrics, counts = end_to_end_metrics(setup_s, window)
        attempted, failed = window.attempted, window.failed
    common.emit(failed == 0, attempted, failed, metrics, counts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
