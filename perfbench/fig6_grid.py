"""``fig6_grid``: the paper's figure-6 grid, one benchmark slice per op.

An op is ``api.sweep(benchmarks=[b], events=30000)`` over the seven
canonical presets plus its ``to_payload()`` serialization, with no disk
cache. A run measures whole passes over the 21 SPEC profiles, so every
run prices the same 147 cells and times at least 21 slices (enough for
their median); the seed only permutes the slice order (the golden pins
the inputs). Every cell is checked against
``benchmarks/golden/figure6-events30000.json`` after its op is timed,
and the op's outputs are dropped before the next one starts.
"""

from __future__ import annotations

import json
import random
import time

from . import GOLDEN
from .common import Window

# api.sweep imports the runner and fleet modules on first use.
IMPORTS = ("repro.api", "repro.evalx.runner", "repro.obs.fleet")
EVENTS = 30_000


def canonical(cell: dict) -> str:
    """The byte form cells are compared in (sorted keys, as the golden)."""
    return json.dumps(cell, sort_keys=True)


class State:
    """The golden cells (as canonical strings) and the seeded slice order."""

    def __init__(self, expected: dict, order: list, configs: list):
        self.expected = expected
        self.order = order
        self.configs = configs

    def close(self) -> None:
        """Nothing to release: the state is plain data."""


def setup(seed: int) -> State:
    from repro import api

    with open(GOLDEN) as handle:
        golden = json.load(handle)
    if golden["events"] != EVENTS or list(golden["configs"]) != list(api.preset_names()):
        raise ValueError("golden grid does not match the canonical 30k-event sweep")
    expected = {key: canonical(cell) for key, cell in golden["cells"].items()}
    order = list(golden["benchmarks"])
    random.Random(seed).shuffle(order)
    return State(expected, order, list(golden["configs"]))


def slice_failures(payload: dict, expected: dict, bench: str, configs) -> int:
    """Cells of one slice that are missing or differ from ``expected``."""
    cells = payload["cells"]
    bad = 0
    for label in configs:
        key = f"{bench}/{label}/default"
        cell = cells.get(key)
        if cell is None or canonical(cell) != expected.get(key):
            bad += 1
    if len(cells) != len(configs):
        bad += 1
    return bad


def measure(state: State, seconds: float, seed: int, tracer=None) -> Window:
    """Whole passes over the grid until ``seconds`` have elapsed."""
    from repro import api

    sweep = api.sweep
    if tracer is not None:
        sweep = tracer.wrap("api", "sweep", sweep, anchor=True)
    window = Window()
    start = time.perf_counter()
    while True:
        for bench in state.order:
            t0 = time.perf_counter()
            run = sweep(benchmarks=[bench], events=EVENTS)
            payload = run.to_payload()
            elapsed = time.perf_counter() - t0
            del run
            window.record("slice", elapsed, work=len(payload["cells"]))
            if slice_failures(payload, state.expected, bench, state.configs):
                window.fail()
            del payload
        if time.perf_counter() - start >= seconds:
            break
    window.wall = time.perf_counter() - start
    return window


def verify(state: State, window: Window) -> None:
    """Every cell was checked inline; nothing is left to recompute."""


def install(tracer, state: State) -> None:
    from repro.api import SweepRun

    tracer.patch(SweepRun, "to_payload", "api")


def layer_extras(state: State, window: Window, ops: int) -> dict:
    return {}
