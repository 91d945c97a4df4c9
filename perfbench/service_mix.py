"""``service_mix``: one tenant on the sweep service, LRU hits and warm misses.

The service runs in this process (``serve_background()`` at default
settings); one client sends ``SimulateRequest``s at 30,000 events over
one connection, in a closed loop.

* **hit**: a golden figure-6 cell that set-up already requested, served
  from the LRU tier; its result must byte-equal the golden.
* **miss**: one of :data:`PAIRS` with a fresh ``warmup`` in [0.2, 0.3),
  so the result key is new. The five pairs span five workloads and two
  presets, within the default trace-store (8) and warm-pool (8)
  capacities, so each miss replays a lowering set-up already made on a
  pooled machine. A seeded sample of misses is recomputed in-process
  with ``api.simulate`` after the window and must match.

Each round is two misses per pair and four hits (the pairs' golden
cells in turn), shuffled by the seed, so the op mix is the same in every
run. Hits take about 1 ms and the pairs roughly 9, 15, 20, 34 and 44 ms
per miss, so the median of all ops lies 30% into the misses: the middle
of the second pair's samples, never on the step between two classes.
"""

from __future__ import annotations

import itertools
import random
import time

from .common import MIN_OPS, Window
from .fig6_grid import EVENTS, canonical

IMPORTS = ("repro.api", "repro.service", "repro.service.server")
PAIRS = (
    ("eon", "aise+bmt"),
    ("gzip", "aise+bmt"),
    ("twolf", "global64+mt"),
    ("swim", "aise+bmt"),
    ("mcf", "global64+mt"),
)
# Each round misses every pair twice and hits four golden cells in turn.
MISS_REPEATS = 2
ROUND_HITS = 4
GOLDEN_WARMUP = 0.25
# Set-up's own misses (one per pair, to pool a machine for each preset)
# use warmups outside the window's [0.2, 0.3) range.
SETUP_WARMUP = 0.35
SAMPLE_MISSES = 8
STATUS_PROBES = 30


class State:
    """The running service, its client and the expected hit results."""

    def __init__(self, handle, client, expected: dict, setup_rtts: dict):
        self.handle = handle
        self.client = client
        self.expected = expected
        self.setup_rtts = setup_rtts  # served_from -> [seconds]
        self.setup_failed = 0

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.handle is not None:
            self.handle.stop()
            if self.handle.thread.is_alive():
                raise RuntimeError("sweep service thread did not stop")
            self.handle = None


def _golden_cells() -> dict:
    import json

    from . import GOLDEN

    with open(GOLDEN) as handle:
        cells = json.load(handle)["cells"]
    return {pair: canonical(cells[f"{pair[0]}/{pair[1]}/default"]) for pair in PAIRS}


def setup(seed: int) -> State:
    """Boot the service and fill the hit set and the warm tier."""
    from repro.service import serve_background

    expected = _golden_cells()
    handle = serve_background()
    state = State(handle, handle.client("perfbench"), expected, {})
    try:
        for warmup in (GOLDEN_WARMUP, SETUP_WARMUP):
            for workload, config in PAIRS:
                t0 = time.perf_counter()
                body = state.client.simulate(workload=workload, config=config,
                                             events=EVENTS, warmup=warmup)
                state.setup_rtts.setdefault(body["served_from"], []).append(
                    time.perf_counter() - t0)
                if (warmup == GOLDEN_WARMUP
                        and canonical(body["result"]) != expected[(workload, config)]):
                    state.setup_failed += 1
    except BaseException:
        state.close()
        raise
    return state


def _fresh_warmup(rng: random.Random, used: set) -> float:
    while True:
        warmup = round(0.2 + 0.1 * rng.random(), 9)
        if warmup not in used:
            used.add(warmup)
            return warmup


def measure(state: State, seconds: float, seed: int, tracer=None) -> Window:
    """Whole rounds of hits and misses until ``seconds`` have elapsed."""
    client = state.client
    simulate = client.simulate
    if tracer is not None:
        simulate = tracer.wrap("service", "simulate", simulate, anchor=True)
    rng = random.Random(seed)
    sampler = random.Random(seed + 1)
    used: set = set()
    window = Window()
    window.failed = state.setup_failed
    served_before = client.status()["served"]
    rtts: dict = {}
    sample: list = []  # reservoir of (workload, config, warmup, result)
    misses = 0
    hit_pairs = itertools.cycle(PAIRS)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or window.attempted < MIN_OPS:
        round_ops = ([("miss", pair) for pair in PAIRS * MISS_REPEATS]
                     + [("hit", next(hit_pairs)) for _ in range(ROUND_HITS)])
        rng.shuffle(round_ops)
        for kind, (workload, config) in round_ops:
            warmup = GOLDEN_WARMUP if kind == "hit" else _fresh_warmup(rng, used)
            t0 = time.perf_counter()
            try:
                body = simulate(workload=workload, config=config,
                                events=EVENTS, warmup=warmup)
            except Exception:  # a refused or broken request is a failed op
                window.record(kind, time.perf_counter() - t0)
                window.fail()
                continue
            elapsed = time.perf_counter() - t0
            window.record(kind, elapsed)
            source = body["served_from"]
            rtts.setdefault(source, []).append(elapsed)
            result = body["result"]
            if kind == "hit":
                ok = source == "lru" and canonical(result) == state.expected[(workload, config)]
            else:
                ok = source in ("warm", "cold")
                misses += 1
                if len(sample) < SAMPLE_MISSES:
                    sample.append((workload, config, warmup, result))
                else:
                    slot = sampler.randrange(misses)
                    if slot < SAMPLE_MISSES:
                        sample[slot] = (workload, config, warmup, result)
            if not ok:
                window.fail()
            del body, result
    window.wall = time.perf_counter() - start
    served_after = client.status()["served"]
    window.notes.update(
        rtts=rtts,
        sample=sample,
        served={key: served_after.get(key, 0) - served_before.get(key, 0)
                for key in served_after},
    )
    return window


def verify(state: State, window: Window) -> None:
    """Recompute the sampled misses in-process; a mismatch fails an op."""
    from repro import api

    traces: dict = {}
    for workload, config, warmup, result in window.notes["sample"]:
        trace = traces.get(workload)
        if trace is None:
            trace = traces[workload] = api.load_trace(workload, EVENTS)
        expected = api.simulate(trace, config, warmup=warmup).to_dict()
        if canonical(expected) != canonical(result):
            window.fail()
    window.notes["sample"] = []


def install(tracer, state: State) -> None:
    """The client request is the op's anchor span (wrapped in measure)."""


def layer_extras(state: State, window: Window, ops: int) -> dict:
    import statistics

    rtts = window.notes["rtts"]

    def p50_ms(values) -> float:
        return statistics.median(values) * 1e3 if values else 0.0

    probes = []
    for _ in range(STATUS_PROBES):
        t0 = time.perf_counter()
        state.client.status()
        probes.append(time.perf_counter() - t0)
    served = window.notes["served"]
    total = sum(served.values())
    return {
        "service.lru_ms": p50_ms(rtts.get("lru", [])),
        "service.warm_ms": p50_ms(rtts.get("warm", [])),
        "service.cold_ms": p50_ms(state.setup_rtts.get("cold", [])),
        "service.rtt_ms": p50_ms(probes),
        "service.hit_ratio": served.get("lru", 0) / total if total else 0.0,
    }
