"""repro.fastpath: the batched and compiled execution engines.

The timing simulator's event loop and the functional crypto path are the
two hot paths of the repository. This package owns the *fast* versions
of both and the switches that select them:

* :func:`enabled` / :func:`forced` — one feature gate (``REPRO_FASTPATH``,
  default on) shared by every optimization layer: the keystream pad memo
  (:class:`repro.crypto.engine.PadCache`), the interned seed tuples
  (:meth:`repro.core.seeds.SeedScheme.seeds_for_block`), the integer-XOR
  block cipher application (:mod:`repro.crypto.ctr_mode`), and the
  batched timing loops below. Disabling the gate restores the reference
  implementations byte-for-byte — ``benchmarks/bench_throughput.py``
  runs both sides in the same process and reports the speedup, and the
  equivalence tests assert identical output either way.
* :func:`compiled_enabled` / :func:`forced_compiled` — a second gate
  (``REPRO_COMPILED``, default on, subordinate to the first) for the
  trace **pre-compiler** (:mod:`repro.fastpath.compiled`): a ``Trace``
  is lowered once into typed arrays plus a recorded traffic program,
  then replayed through a lean arithmetic loop. The lowering is
  memoized on the trace and reused by every run that shares its
  traffic-shaping geometry — repeated runs, service misses on a stored
  trace, and sweeps that vary only timing parameters.
* :func:`execute` (:mod:`repro.fastpath.engine`) — the batched event
  loop for :meth:`repro.sim.TimingSimulator.run`, and the one place the
  engine is chosen. It dispatches to the compiled replay when one is
  applicable (cold caches, no armed sanitizer, no deferred tree
  updates) *and reused*: a lowering costs about 1.7 per-event passes
  and a replay about 0.2, so it replays only a lowering that is
  already memoized, lowers on the second cold sighting of a
  (trace, geometry) pair, and runs the first sighting per-event with
  reason ``single_use``. ``forced_compiled(True)`` lowers whenever
  eligible. On the end-to-end benchmark that choice is worth both
  ways: the figure-6 grid, where no cell replays a lowering, ran at
  12.3 ops/s per-event against 6.7 compiled, while the service mix,
  where every miss replays one, ran at 61 compiled against 11
  per-event. Either way the arithmetic is identical operation for
  operation to the instrumented reference loop, so results — including
  the committed figure-6 golden sweep — are byte-identical.

The simulator falls back to its instrumented reference loop whenever a
:mod:`repro.obs` session is active (live hooks need per-event callbacks)
or the gate is off.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

_FORCED: bool | None = None
_FORCED_COMPILED: bool | None = None
_FALSEY = ("0", "off", "false", "no")

# The engine-attribution vocabulary. Every TimingSimulator.run() is
# attributed to exactly one engine; a run on anything but the compiled
# replay also carries the *reason* the faster engine was passed over.
ENGINE_COMPILED = "compiled"
ENGINE_PER_EVENT = "per_event"
ENGINE_REFERENCE = "reference"
ENGINES = (ENGINE_COMPILED, ENGINE_PER_EVENT, ENGINE_REFERENCE)
FALLBACK_REASONS = (
    "obs_session",        # reference: live hooks need per-event callbacks
    "fastpath_gate_off",  # reference: REPRO_FASTPATH=0 / forced(False)
    "compiled_gate_off",  # per-event: REPRO_COMPILED=0 / forced_compiled(False)
    "sanitizer_armed",    # per-event: reference helpers carry its checks
    "warm_caches",        # per-event: the lowering replays onto cold caches only
    "empty_trace",        # per-event: nothing to replay
    "deferred_updates",   # per-event: reference helpers own the pending-walk queue
    "single_use",         # per-event: first cold sighting; lowering pays only when replayed
)


class EngineTelemetry:
    """Per-simulator record of which execution engine each run() used.

    Mutated only by the engine-selection code (this package and
    :meth:`TimingSimulator.run`); everyone else reads it through the
    pull-model gauges :func:`repro.obs.adapters.register_engine_telemetry`
    binds — the OBS002 lint rule holds engine code to exactly that
    split. Recording is one attribute bump per *run* (never per event),
    so disabled-mode output and cost are untouched.
    """

    __slots__ = ("compiled", "per_event", "reference", "fallbacks",
                 "lowering_hits", "lowering_misses",
                 "last_engine", "last_reason")

    def __init__(self):
        self.compiled = 0
        self.per_event = 0
        self.reference = 0
        # {reason: runs}; only reasons that actually occurred appear.
        self.fallbacks: dict[str, int] = {}
        self.lowering_hits = 0
        self.lowering_misses = 0
        self.last_engine: str | None = None
        self.last_reason: str | None = None

    def record(self, engine: str, reason: str | None = None) -> None:
        """Attribute one run; ``reason`` is required unless compiled."""
        if engine == ENGINE_COMPILED:
            self.compiled += 1
        elif engine == ENGINE_PER_EVENT:
            self.per_event += 1
        elif engine == ENGINE_REFERENCE:
            self.reference += 1
        else:
            raise ValueError(f"unknown engine {engine!r}")
        if reason is not None:
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
        self.last_engine = engine
        self.last_reason = reason

    def record_lowering(self, hit: bool) -> None:
        """One compiled-lowering memo probe (see ``compiled_for``)."""
        if hit:
            self.lowering_hits += 1
        else:
            self.lowering_misses += 1

    @property
    def runs(self) -> int:
        return self.compiled + self.per_event + self.reference

    @property
    def lowering_hit_rate(self) -> float:
        probes = self.lowering_hits + self.lowering_misses
        return self.lowering_hits / probes if probes else 0.0


def enabled() -> bool:
    """Whether the fast paths are active (default: yes).

    ``REPRO_FASTPATH=0`` (or ``off``/``false``/``no``) selects the
    reference implementations; :func:`forced` overrides the environment
    for a scope (benchmarks, equivalence tests).
    """
    if _FORCED is not None:
        return _FORCED
    return os.environ.get("REPRO_FASTPATH", "1").lower() not in _FALSEY


@contextmanager
def forced(state: bool):
    """Force the gate on or off within a ``with`` block.

    Only components *constructed or run* inside the block are affected:
    engines resolve the gate when built, the simulator on each ``run()``.
    """
    global _FORCED
    previous = _FORCED
    _FORCED = bool(state)
    try:
        yield
    finally:
        _FORCED = previous


def compiled_enabled() -> bool:
    """Whether the compiled trace replay may be used (default: yes).

    Subordinate to :func:`enabled`: the compiled engine is one of the
    fast paths, so ``REPRO_FASTPATH=0`` disables it too. Setting
    ``REPRO_COMPILED=0`` keeps the batched per-event engine while
    skipping the pre-compiler — the mode ``bench_throughput.py`` uses to
    price the two layers separately.
    """
    if _FORCED_COMPILED is not None:
        return _FORCED_COMPILED
    return os.environ.get("REPRO_COMPILED", "1").lower() not in _FALSEY


@contextmanager
def forced_compiled(state: bool):
    """Force the compiled-replay gate on or off within a ``with`` block."""
    global _FORCED_COMPILED
    previous = _FORCED_COMPILED
    _FORCED_COMPILED = bool(state)
    try:
        yield
    finally:
        _FORCED_COMPILED = previous


from .engine import execute  # noqa: E402  (the gates above must exist first)

__all__ = [
    "ENGINES",
    "ENGINE_COMPILED",
    "ENGINE_PER_EVENT",
    "ENGINE_REFERENCE",
    "EngineTelemetry",
    "FALLBACK_REASONS",
    "compiled_enabled",
    "enabled",
    "execute",
    "forced",
    "forced_compiled",
]
