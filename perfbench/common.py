"""Timing, statistics and result assembly shared by the three workloads."""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import import_module

from . import ROOT

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
# The median is reported only with at least this many samples above it.
MIN_BEYOND = 10
# A window times at least this many ops, so its median has MIN_BEYOND above.
MIN_OPS = 2 * MIN_BEYOND + 1

# The host probe: a fixed mix of the kinds of work the workloads do, none
# of it library code: a BLAKE2s chain (the cipher and MAC stand-in), a
# pointer chase through a large list (the big dicts and tables), a
# replay-style loop over tuples (the simulator's replay) and a small
# comprehension. The shared host runs faster and slower for seconds to
# minutes at a time, and every op slows with it; the probe's times over a
# window measure by how much. Timed metrics are reported at the speed at
# which one probe pass takes REFERENCE_PROBE_S (between its times in the
# fast and the slow state of the 2-vCPU VM this was written on).
REFERENCE_PROBE_S = 0.7e-3
# A window probes once after the first op to end at least PROBE_EVERY_S
# after the last probe; set-up probes SETUP_PROBES times before and after.
PROBE_EVERY_S = 0.1
SETUP_PROBES = 10


def _probe_inputs():
    rng = random.Random(0)
    order = list(range(1 << 16))
    rng.shuffle(order)
    chase = [0] * len(order)  # one cycle through every slot
    for here, there in zip(order, order[1:] + order[:1]):
        chase[here] = there
    replay = [(i % 7, rng.randrange(1024), i & 1) for i in range(2000)]
    return chase, replay


_CHASE, _REPLAY = _probe_inputs()


def _probe_pass() -> None:
    digest, table = b"perfbench-probe!", {}
    for i in range(500):
        digest = hashlib.blake2s(digest).digest()
        table[i & 63] = digest[i & 31] + i
    j = 0
    for _ in range(1000):
        j = _CHASE[j]
    clock, busy = 0.0, 0
    for kind, cycles, flag in _REPLAY:
        clock += cycles / 4
        if flag:
            busy += kind
    acc = 0
    for x in [i * 3 for i in range(1000)]:
        acc += x & 7 if x % 3 else x >> 1


def probe_seconds() -> float:
    """Seconds one pass of the host probe takes, timed on a third pass so
    that what the workload left in the caches does not move it (the
    second pass after an op still ran about 5% slower). The collector is
    off meanwhile, so the probe's allocations do not make it collect what
    the workload's ops allocated."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_pass()
        _probe_pass()
        t0 = time.perf_counter()
        _probe_pass()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def host_speed(probes) -> float:
    """How fast the host ran while ``probes`` were taken, relative to the
    reference speed (above 1: faster).

    The host switches between a fast and a slow state (about 1.8x apart)
    every few seconds, so the probe times are bimodal and their median
    jumps between the two; their mean, like the op rate, weighs each
    state by its share of the time. The top and bottom tenth are dropped
    so that a probe the scheduler preempted does not count.
    """
    ordered = sorted(probes)
    cut = len(ordered) // 10
    return REFERENCE_PROBE_S / statistics.fmean(ordered[cut:len(ordered) - cut])


@dataclass
class Window:
    """What one measured window of a workload produced.

    ``samples`` maps an op class (``hit``, ``read``, ...) to the seconds
    each op of that class took; ``work`` is the number of work units
    ``ops_per_s`` counts (grid cells for ``fig6_grid``, ops otherwise)
    and ``op_seconds`` the summed duration of every timed op. ``wall``
    spans the whole window, inline checks included; ``peak_rss_mb`` is
    the process's peak memory when the window ended. ``probes`` holds
    the host probe's times, taken between ops (outside their timing).
    """

    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    work: int = 0
    op_seconds: float = 0.0
    wall: float = 0.0
    peak_rss_mb: float = 0.0
    notes: dict = field(default_factory=dict)
    probes: list = field(default_factory=list)
    next_probe: float = 0.0

    def record(self, op_class: str, seconds: float, work: int = 1) -> None:
        self.samples.setdefault(op_class, []).append(seconds)
        self.op_seconds += seconds
        self.work += work
        self.attempted += 1
        if time.perf_counter() >= self.next_probe:
            self.probes.append(probe_seconds())
            self.next_probe = time.perf_counter() + PROBE_EVERY_S

    def fail(self, count: int = 1) -> None:
        self.failed += count

    def all_samples(self) -> list:
        return [v for values in self.samples.values() for v in values]

    @property
    def ops_per_s(self) -> float:
        return self.work / self.op_seconds if self.op_seconds else 0.0

    @property
    def speed(self) -> float:
        return host_speed(self.probes)


def median_ms(values) -> float | None:
    """The median of ``values`` (seconds) in ms, or None when fewer than
    :data:`MIN_BEYOND` samples lie above it."""
    if len(values) < 2:
        return None
    cut = statistics.median(values)
    if sum(1 for v in values if v > cut) < MIN_BEYOND:
        return None
    return cut * 1e3


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_once(name: str, seed: int):
    """Import workload ``name`` and the library modules it uses, then set
    it up. Returns ``(workload module, state, seconds, host speed)``; in
    a fresh interpreter the seconds include the imports. The host probe
    runs before and after set-up, outside its timing."""
    probes = [probe_seconds() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    workload = import_module(f"perfbench.{name}")
    for module in workload.IMPORTS:
        import_module(module)
    state = workload.setup(seed)
    seconds = time.perf_counter() - start
    probes += [probe_seconds() for _ in range(SETUP_PROBES)]
    return workload, state, seconds, host_speed(probes)


def fresh_setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """:func:`setup_once` in a child interpreter: ``(seconds, host speed)``
    as the child measured them."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT)!r}); "
            "from perfbench import common, use_checkout_sources; "
            "use_checkout_sources(); "
            f"_, state, seconds, speed = common.setup_once({name!r}, {seed}); "
            "state.close(); print(seconds, speed)")
    child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                           capture_output=True, text=True)
    seconds, speed = child.stdout.split()[-2:]
    return float(seconds), float(speed)


def timed_setups(name: str, seed: int):
    """Set workload ``name`` up :data:`SETUP_REPEATS` times, each in a
    fresh interpreter: first in child interpreters, last in this one,
    whose state the window then uses. Returns ``(workload module,
    state, median seconds as timed, median seconds at the reference
    host speed)``."""
    runs = [fresh_setup_seconds(name, seed) for _ in range(SETUP_REPEATS - 1)]
    workload, state, seconds, speed = setup_once(name, seed)
    runs.append((seconds, speed))
    return (workload, state, statistics.median(s for s, _ in runs),
            statistics.median(s * v for s, v in runs))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         counts: dict | None = None) -> None:
    """Print a readable table, then the result object as the last line."""
    counts = counts or {}
    for name, body in metrics.items():
        n = counts.get(name)
        suffix = f"  (n={n})" if n is not None else ""
        print(f"  {name:28s} {body['value']:14.6g} {body['unit']}{suffix}")
    print(f"  ops attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
