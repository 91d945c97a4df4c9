"""The trace pre-compiler: lower once, replay per configuration.

The timing model's event loop interleaves two very different kinds of
work. The *cache state machine* — L2/counter/node lookups, LRU motion,
evictions, the metadata traffic they trigger — depends only on the
access sequence and the machine's traffic-shaping geometry (cache
shapes, scheme flags, metadata layout). The *clock arithmetic* — bus
queueing, exposed decrypt latency, stall overlap — depends on the
timing parameters (latencies, bus speed, issue width, warmup) but never
feeds back into a single cache decision. :func:`lower` exploits that
split: it runs the state machine once, off the clock, and records its
complete observable behaviour as a :class:`CompiledTrace` — per-event
hit/miss flags, each miss's bus-transfer program (interned patterns of
transfer kinds), stall and verification markers, per-miss statistics
deltas, L2 occupancy samples, and the final cache contents.

:func:`execute_compiled` then replays a lowering under any timing
parameters: a lean sequential loop reproduces the reference clock
arithmetic operation for operation (float rounding is order-sensitive,
so the per-event additions are replayed, never re-associated), while
every order-insensitive statistic settles through NumPy slice sums and
the owners' batch-credit APIs. Results are byte-identical to the
reference loop — the committed figure-6 golden and the equivalence
property tests pin this.

The lowering is memoized on the :class:`~repro.sim.trace.Trace` keyed
by the traffic-shaping geometry, so it is paid once and replayed by
every run that shares it: repeated runs of one cell, golden
regeneration, and `repro.evalx` sweeps that vary only timing knobs
(memory/AES/MAC latency, bus speed, issue width, overlap, warmup,
precise verification) replay the same artifact — the multiplicative
grid win. A replay requires cold caches (it installs the recorded final
contents afterwards, so back-to-back warm ``run()`` calls fall back to
the per-event engine) and, like every fast path, steps aside when the
runtime sanitizer is armed.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..core import sanitizer
from ..mem.cache import CODE, COUNTER, DATA, MAC, MERKLE
from ..mem.layout import BLOCK_SIZE

# Transfer-kind codes. Each miss's bus traffic is recorded as a tuple of
# these (the *pattern*, excluding the leading demand fetch, which every
# miss issues first). Codes map to (reported kind, duration class):
# everything moves a full block except the uncached-MAC transfers.
K_DATA = 0
K_COUNTER = 1
K_MERKLE = 2
K_MAC = 3        # cached data MAC: full block
K_MAC_FRAC = 4   # uncached data MAC read: mac_bytes only
K_DATA_WB = 5
K_COUNTER_WB = 6
K_MERKLE_WB = 7
K_MAC_WB = 8     # uncached data MAC read-modify-write: mac_bytes only

_N_KINDS = 9
# Reported-kind settlement order matches the per-event engine's flush.
_KIND_SETTLEMENT = (
    ("data", (K_DATA,)),
    ("counter", (K_COUNTER,)),
    ("merkle", (K_MERKLE,)),
    ("mac", (K_MAC, K_MAC_FRAC)),
    ("data_wb", (K_DATA_WB,)),
    ("counter_wb", (K_COUNTER_WB,)),
    ("merkle_wb", (K_MERKLE_WB,)),
    ("mac_wb", (K_MAC_WB,)),
)

# Columns of the per-miss statistics-delta matrix (metadata traffic
# only; the demand hit/miss itself is derived from the miss flags).
_L2H, _L2M, _L2WB = 0, 1, 2
_CCH, _CCM, _CCWB = 3, 4, 5
_TH, _TM, _TWB = 6, 7, 8
_CA, _CM = 9, 10
_N_META = 11

_MEMO_CAPACITY = 2  # lowerings kept per Trace (sweeps replay one)


def classification_key(sim, sample_period: int) -> tuple:
    """Everything that can change the lowering of a trace for ``sim``.

    Timing parameters (latencies, bus speed, issue width, overlap,
    warmup, precise verification) are deliberately absent: they shape
    the clock, not the traffic, so runs differing only in them replay
    one artifact.
    """
    l2 = sim.l2
    cc = sim.counter_cache
    nc = sim.node_cache
    uses_cc = sim.uses_counter_cache
    return (
        "lowering-v1",
        sample_period,
        (l2.num_sets, l2.assoc, l2.block_size),
        (cc.num_sets, cc.assoc),
        None if nc is None else (nc.num_sets, nc.assoc),
        uses_cc,
        sim._cb_span if uses_cc else 0,
        sim._ctr_base if uses_cc else 0,
        sim._walks_tree,
        tuple(sim._walk_bases),
        sim._arity,
        sim._covered_start,
        sim._tree_covers_data,
        sim._uses_data_macs,
        sim._cache_data_macs,
        sim._mac_base,
        sim._mac_bytes,
    )


class CompiledTrace:
    """One trace lowered for one traffic-shaping geometry.

    Immutable after :func:`lower` builds it; the per-timing-parameter
    binding memos (``pres``/``prog``/``busy_per_miss``) cache derived
    forms keyed by the timing knobs they depend on.
    """

    __slots__ = (
        "n",
        "miss_flags",
        "miss_cum",
        "pattern_list",
        "pat_idx",
        "cc_stalls",
        "iflags",
        "kcounts",
        "transfers",
        "metas",
        "ticks",
        "gaps",
        "final_l2",
        "final_cc",
        "final_node",
        "_pres_memo",
        "_prog_memo",
        "_busy_memo",
    )

    def __init__(self, n, miss_flags, miss_cum, pattern_list, pat_idx,
                 cc_stalls, iflags, kcounts, metas, ticks, gaps,
                 final_l2, final_cc, final_node):
        self.n = n
        self.miss_flags = miss_flags
        self.miss_cum = miss_cum
        self.pattern_list = pattern_list
        self.pat_idx = pat_idx
        self.cc_stalls = cc_stalls
        self.iflags = iflags
        self.kcounts = kcounts
        self.transfers = kcounts.sum(axis=1, dtype=np.int64)
        self.metas = metas
        self.ticks = ticks
        self.gaps = gaps
        self.final_l2 = final_l2
        self.final_cc = final_cc
        self.final_node = final_node
        self._pres_memo = {}
        self._prog_memo = {}
        self._busy_memo = {}

    @property
    def misses(self) -> int:
        return len(self.pat_idx)

    def pres(self, issue_width: int) -> list:
        """Per-event clock increments ``gap / issue`` as Python floats.

        IEEE-754 division of exactly-representable integers matches the
        reference loop's inline ``gap / issue`` bit for bit.
        """
        cached = self._pres_memo.get(issue_width)
        if cached is None:
            cached = (self.gaps / issue_width).tolist()
            self._pres_memo[issue_width] = cached
        return cached

    def _durations(self, full_dur: int, frac_dur: int) -> tuple:
        durs = [full_dur] * _N_KINDS
        durs[K_MAC_FRAC] = frac_dur
        durs[K_MAC_WB] = frac_dur
        return tuple(durs)

    def prog(self, full_dur: int, frac_dur: int) -> list:
        """The per-miss replay program ``(rest_durations, stall, ifetch)``.

        ``rest_durations`` is the event's bus transfers after the demand
        fetch, as duration tuples (interned per pattern); ``stall`` marks
        a demand counter-read miss (the counter fetch is then always the
        first rest transfer); ``ifetch`` marks a nonzero integrity fetch
        count for precise verification.
        """
        key = (full_dur, frac_dur)
        cached = self._prog_memo.get(key)
        if cached is None:
            durs = self._durations(full_dur, frac_dur)
            pattern_durs = [tuple(durs[k] for k in pattern)
                            for pattern in self.pattern_list]
            cached = list(zip((pattern_durs[i] for i in self.pat_idx),
                              self.cc_stalls, self.iflags))
            self._prog_memo[key] = cached
        return cached

    def busy_per_miss(self, full_dur: int, frac_dur: int) -> np.ndarray:
        """Total bus occupancy cycles of each miss event (int64)."""
        key = (full_dur, frac_dur)
        cached = self._busy_memo.get(key)
        if cached is None:
            durvec = np.asarray(self._durations(full_dur, frac_dur),
                                dtype=np.int64)
            cached = self.kcounts @ durvec
            self._busy_memo[key] = cached
        return cached


def lower(sim, trace, sample_period: int) -> CompiledTrace:
    """Run the cache state machine once and record its behaviour.

    The state transitions transliterate the per-event engine's inlined
    miss path (`repro.fastpath.engine._make_miss_engine`) — which itself
    mirrors ``TimingSimulator._miss`` and its helpers operation for
    operation — with every bus request and statistics delta recorded
    instead of timed.
    """
    decoded = trace.decoded()
    ops = decoded.ops
    addresses = decoded.addresses

    l2 = sim.l2
    counter_cache = sim.counter_cache
    node_cache = sim.node_cache

    bs = BLOCK_SIZE
    demand_block_size = l2.block_size
    uses_cc = sim.uses_counter_cache
    walks_tree = sim._walks_tree
    tree_covers_data = sim._tree_covers_data
    uses_data_macs = sim._uses_data_macs
    cache_data_macs = sim._cache_data_macs
    walk_bases = tuple(sim._walk_bases)
    arity = sim._arity
    covered_start = sim._covered_start
    mac_base = sim._mac_base
    mac_bytes = sim._mac_bytes
    ctr_base = sim._ctr_base if uses_cc else 0
    cb_span = sim._cb_span if uses_cc else 1

    # Model cache state, evolved exactly as the engine evolves the real
    # caches (cold start — execute_compiled only replays onto cold ones).
    l2_nsets = l2.num_sets
    l2_assoc = l2.assoc
    l2_num_lines = l2.num_lines
    l2_sets = [OrderedDict() for _ in range(l2_nsets)]
    l2_classes: dict = {}
    cc_nsets = counter_cache.num_sets
    cc_assoc = counter_cache.assoc
    cc_sets = [OrderedDict() for _ in range(cc_nsets)]
    cc_classes: dict = {}
    if node_cache is not None:
        t_nsets = node_cache.num_sets
        t_assoc = node_cache.assoc
        t_sets = [OrderedDict() for _ in range(t_nsets)]
        t_classes: dict = {}
        tree_is_l2 = False
    else:
        t_nsets, t_assoc = l2_nsets, l2_assoc
        t_sets, t_classes = l2_sets, l2_classes
        tree_is_l2 = True

    # Recorded program.
    miss_flags: list = []
    pat_idx: list = []
    cc_stalls: list = []
    iflags: list = []
    kcount_rows: list = []
    meta_rows: list = []
    patterns: dict = {}
    pattern_list: list = []
    ticks: list = []

    # Per-miss recording slots, rebound by the demand loop per miss.
    row: list = []
    krow: list = []
    ev_kinds: list = []

    def tree_walk(covered_addr, make_dirty):
        index = (covered_addr - covered_start) // bs
        fetched = 0
        for base in walk_bases:
            index //= arity
            node_addr = base + index * bs
            block = node_addr // bs
            cache_set = t_sets[block % t_nsets]
            entry = cache_set.get(block)
            if entry is not None:
                cache_set.move_to_end(block)
                if make_dirty and not entry[0]:
                    cache_set[block] = (True, entry[1])
                row[_L2H if tree_is_l2 else _TH] += 1
                return fetched
            row[_L2M if tree_is_l2 else _TM] += 1
            krow[K_MERKLE] += 1
            ev_kinds.append(K_MERKLE)
            fetched += 1
            if len(cache_set) >= t_assoc:
                vblock, (vdirty, vclass) = cache_set.popitem(last=False)
                t_classes[vclass] = t_classes.get(vclass, 1) - 1
                if vdirty:
                    row[_L2WB if tree_is_l2 else _TWB] += 1
                    cache_set[block] = (make_dirty, MERKLE)
                    t_classes[MERKLE] = t_classes.get(MERKLE, 0) + 1
                    writeback(vblock, vclass)
                    continue
            cache_set[block] = (make_dirty, MERKLE)
            t_classes[MERKLE] = t_classes.get(MERKLE, 0) + 1
        return fetched

    def counter_access(addr, write):
        # Returns True when a demand *read* missed the counter cache —
        # the replay then exposes the counter-fetch stall.
        cb_addr = ctr_base + (addr // cb_span) * bs
        row[_CA] += 1
        block = cb_addr // bs
        cache_set = cc_sets[block % cc_nsets]
        entry = cache_set.get(block)
        if entry is not None:
            cache_set.move_to_end(block)
            if write and not entry[0]:
                cache_set[block] = (True, entry[1])
            row[_CCH] += 1
            return False
        row[_CCM] += 1
        row[_CM] += 1
        krow[K_COUNTER] += 1
        ev_kinds.append(K_COUNTER)
        if len(cache_set) >= cc_assoc:
            vblock, (vdirty, vclass) = cache_set.popitem(last=False)
            cc_classes[vclass] = cc_classes.get(vclass, 1) - 1
            cache_set[block] = (write, COUNTER)
            cc_classes[COUNTER] = cc_classes.get(COUNTER, 0) + 1
            if vdirty:
                row[_CCWB] += 1
                krow[K_COUNTER_WB] += 1
                ev_kinds.append(K_COUNTER_WB)
                if walks_tree:
                    tree_walk(vblock * bs, True)
        else:
            cache_set[block] = (write, COUNTER)
            cc_classes[COUNTER] = cc_classes.get(COUNTER, 0) + 1
        if walks_tree:
            tree_walk(cb_addr, False)
        return not write

    def mac_traffic(addr, write):
        mac_addr = mac_base + (addr // bs * mac_bytes // bs) * bs
        if cache_data_macs:
            block = mac_addr // bs
            cache_set = l2_sets[block % l2_nsets]
            entry = cache_set.get(block)
            if entry is not None:
                cache_set.move_to_end(block)
                if write and not entry[0]:
                    cache_set[block] = (True, entry[1])
                row[_L2H] += 1
                return 0
            row[_L2M] += 1
            krow[K_MAC] += 1
            ev_kinds.append(K_MAC)
            if len(cache_set) >= l2_assoc:
                vblock, (vdirty, vclass) = cache_set.popitem(last=False)
                l2_classes[vclass] = l2_classes.get(vclass, 1) - 1
                cache_set[block] = (write, MAC)
                l2_classes[MAC] = l2_classes.get(MAC, 0) + 1
                if vdirty:
                    row[_L2WB] += 1
                    writeback(vblock, vclass)
            else:
                cache_set[block] = (write, MAC)
                l2_classes[MAC] = l2_classes.get(MAC, 0) + 1
            return 1
        # Uncached MACs: only the MAC itself crosses the bus.
        if write:
            krow[K_MAC_WB] += 1
            ev_kinds.append(K_MAC_WB)
            return 0
        krow[K_MAC_FRAC] += 1
        ev_kinds.append(K_MAC_FRAC)
        return 1

    def writeback(vblock, vclass):
        if vclass == MERKLE or vclass == MAC:
            krow[K_MERKLE_WB] += 1
            ev_kinds.append(K_MERKLE_WB)
            return
        krow[K_DATA_WB] += 1
        ev_kinds.append(K_DATA_WB)
        addr = vblock * bs
        if uses_cc:
            counter_access(addr, True)
        if tree_covers_data:
            tree_walk(addr, True)
        elif uses_data_macs:
            mac_traffic(addr, True)

    countdown = sample_period
    for op, addr in zip(ops, addresses):
        write = op == 1
        block = addr // demand_block_size
        cache_set = l2_sets[block % l2_nsets]
        entry = cache_set.get(block)
        if entry is not None:
            cache_set.move_to_end(block)
            if write and not entry[0]:
                cache_set[block] = (True, entry[1])
            miss_flags.append(0)
        else:
            miss_flags.append(1)
            row = [0] * _N_META
            krow = [0] * _N_KINDS
            ev_kinds = []
            krow[K_DATA] += 1  # the demand fetch, always transfer 0
            stall = False
            integrity = 0
            if uses_cc:
                stall = counter_access(addr, False)
            if tree_covers_data:
                integrity = tree_walk(addr, False)
            elif uses_data_macs:
                integrity = mac_traffic(addr, False)
            # insert(addr, DATA, dirty=write) into the L2
            dblock = addr // bs
            dset = l2_sets[dblock % l2_nsets]
            dentry = dset.get(dblock)
            if dentry is not None:
                # Refill of a present line (a metadata insert raced the fill).
                dset[dblock] = (dentry[0] or write, DATA)
                dset.move_to_end(dblock)
                if dentry[1] != DATA:
                    l2_classes[dentry[1]] = l2_classes.get(dentry[1], 1) - 1
                    l2_classes[DATA] = l2_classes.get(DATA, 0) + 1
            elif len(dset) >= l2_assoc:
                vblock, (vdirty, vclass) = dset.popitem(last=False)
                l2_classes[vclass] = l2_classes.get(vclass, 1) - 1
                dset[dblock] = (write, DATA)
                l2_classes[DATA] = l2_classes.get(DATA, 0) + 1
                if vdirty:
                    row[_L2WB] += 1
                    writeback(vblock, vclass)
            else:
                dset[dblock] = (write, DATA)
                l2_classes[DATA] = l2_classes.get(DATA, 0) + 1

            pattern = tuple(ev_kinds)
            idx = patterns.get(pattern)
            if idx is None:
                idx = patterns[pattern] = len(pattern_list)
                pattern_list.append(pattern)
            pat_idx.append(idx)
            cc_stalls.append(1 if stall else 0)
            iflags.append(1 if integrity else 0)
            kcount_rows.append(krow)
            meta_rows.append(row)
        countdown -= 1
        if countdown == 0:
            countdown = sample_period
            free = l2_num_lines - sum(l2_classes.values())
            ticks.append([
                l2_classes.get(DATA, 0) + free,
                l2_classes.get(CODE, 0),
                l2_classes.get(COUNTER, 0),
                l2_classes.get(MERKLE, 0),
                l2_classes.get(MAC, 0),
            ])

    m = len(pat_idx)
    return CompiledTrace(
        n=len(miss_flags),
        miss_flags=miss_flags,
        miss_cum=np.cumsum(np.asarray(miss_flags, dtype=np.int64)),
        pattern_list=pattern_list,
        pat_idx=pat_idx,
        cc_stalls=cc_stalls,
        iflags=iflags,
        kcounts=np.asarray(kcount_rows, dtype=np.int64).reshape(m, _N_KINDS),
        metas=np.asarray(meta_rows, dtype=np.int64).reshape(m, _N_META),
        ticks=np.asarray(ticks, dtype=np.int64).reshape(len(ticks), 5),
        gaps=trace.gaps,
        final_l2=(tuple(tuple(s.items()) for s in l2_sets), dict(l2_classes)),
        final_cc=(tuple(tuple(s.items()) for s in cc_sets), dict(cc_classes)),
        final_node=(None if node_cache is None else
                    (tuple(tuple(s.items()) for s in t_sets), dict(t_classes))),
    )


def compiled_for(sim, trace, sample_period: int) -> CompiledTrace:
    """The memoized lowering of ``trace`` for ``sim``'s traffic geometry.

    Cached on the trace instance (like :meth:`Trace.decoded`, and
    likewise dropped on pickling) with a small capacity bound: a sweep
    replays one geometry per trace, so a deep artifact stack would only
    hold memory hostage. Each probe is recorded on the simulator's
    :class:`~repro.fastpath.EngineTelemetry` (hit = the lowering was
    already memoized).
    """
    key = classification_key(sim, sample_period)
    memo = trace.__dict__.setdefault("_compiled", {})
    artifact = memo.get(key)
    telemetry = getattr(sim, "engine_telemetry", None)
    if telemetry is not None:
        telemetry.record_lowering(artifact is not None)
    if artifact is None:
        while len(memo) >= _MEMO_CAPACITY:
            memo.pop(next(iter(memo)))
        artifact = memo[key] = lower(sim, trace, sample_period)
    return artifact


def lowered(sim, trace, sample_period: int) -> bool:
    """Whether ``trace`` holds a lowering for ``sim``'s geometry.

    A plain membership test: unlike :func:`compiled_for` it records no
    memo probe on the simulator's telemetry.
    """
    return classification_key(sim, sample_period) in trace.__dict__.get("_compiled", ())


# Cold runs of one trace under one geometry from which lowering before
# the first beats both per-event runs and the engine's own rule: lowering
# costs about 1.7 per-event passes and a replay about 0.2, so k runs cost
# 1.7 + 0.2k lowered first, k per-event, 2.5 + 0.2k lowered on the second.
LOWER_AHEAD_RUNS = 3


def lower_ahead(sim, trace) -> None:
    """Lower ``trace`` for ``sim`` now, if a cold run could replay it.

    For callers that know the lowering will be replayed — a service
    trace shared across requests, a sweep group of cells on one trace
    and geometry: left alone, the engine lowers only on the second cold
    sighting, one per-event pass later. A no-op when the compiled engine
    is gated off, the run would be ineligible, or the lowering exists.
    """
    from ..sim.simulator import _OCCUPANCY_SAMPLE_PERIOD as period
    from . import compiled_enabled, enabled

    if (enabled() and compiled_enabled() and ineligibility(sim, trace) is None
            and not lowered(sim, trace, period)):
        compiled_for(sim, trace, period)


def first_sighting(sim, trace, sample_period: int) -> bool:
    """Record a cold run of ``trace`` under ``sim``'s lowering key.

    True when no lowering is memoized for the key and the trace was never
    run cold under it before. Lowering costs about 1.7 per-event passes
    and a replay about 0.2, so a lowering used once is pure overhead: the
    caller runs that first sighting per-event and lowers on the second.
    The marker lives on the trace next to the lowering memo (dropped on
    pickling alike); the check is not a memo probe, so the telemetry's
    lowering counters see only runs that replay.
    """
    key = classification_key(sim, sample_period)
    if key in trace.__dict__.get("_compiled", ()):
        return False
    sighted = trace.__dict__.setdefault("_sighted", set())
    if key in sighted:
        return False
    sighted.add(key)
    return True


def ineligibility(sim, trace) -> str | None:
    """Why a compiled replay cannot run, or ``None`` when it can.

    The checks mirror :func:`execute_compiled`'s gate exactly, in the
    same order; the returned string is one of
    :data:`repro.fastpath.FALLBACK_REASONS` and feeds the
    engine-selection telemetry.
    """
    if sanitizer.active() is not None:
        return "sanitizer_armed"
    if sim._deferred_updates:
        # The lowering records synchronous tree-walk traffic; a deferred
        # scheme's pending-walk queue lives in the reference helpers.
        return "deferred_updates"
    node_cache = sim.node_cache
    if (sim.l2.occupied_lines or sim.counter_cache.occupied_lines
            or (node_cache is not None and node_cache.occupied_lines)):
        return "warm_caches"
    if len(trace) == 0:
        return "empty_trace"
    return None


def _run_segment(pres, mflags, prog, i0, i1, mp, now, bf, queue, exposed,
                 full_dur, mem_latency, aes_latency, mac_latency,
                 hit_latency, overlap, uses_cc, serial_decrypt,
                 verify_on_path):
    """Replay events ``[i0, i1)``: the reference clock arithmetic, lean.

    Every float operation matches the reference loop's in kind and
    order. Bus transfers after an event's demand fetch are back-to-back
    (the bus-free timestamp already exceeds the event clock), so their
    start cycles read straight from the running ``bf`` — the same values
    ``MemoryBus.request`` would return, without the branch.
    """
    for pre, mf in zip(pres[i0:i1], mflags[i0:i1]):
        now += pre
        if mf:
            rest, stall_flag, ifetch = prog[mp]
            mp += 1
            start = bf if bf > now else now
            queue += start - now
            data_ready = start + mem_latency
            bf = start + full_dur
            extra = 0.0
            if stall_flag:
                # The counter fetch is the first rest transfer; its
                # start cycle is the running bf.
                stall = ((bf + mem_latency) + aes_latency) - data_ready
                extra = stall if stall > 0.0 else 0.0
                exposed += extra
            elif uses_cc:
                exposed += extra
            elif serial_decrypt:
                extra = aes_latency  # decryption serialized after the fetch
                exposed += extra
            for dur in rest:
                queue += bf - now
                bf = bf + dur
            if verify_on_path:
                extra += mac_latency
                if ifetch:
                    extra += mem_latency
            now += hit_latency + ((data_ready - now) + extra) * overlap
        else:
            now += hit_latency
    return mp, now, bf, queue, exposed


def execute_compiled(sim, trace, warmup: float, sample_period: int):
    """Replay ``trace``'s lowering through ``sim``; None when ineligible.

    Eligibility mirrors the fast-path contract: no armed sanitizer (the
    reference helpers carry its per-insert checks), and additionally
    cold caches — the lowering starts from empty contents, and the
    recorded final state is installed on the real caches afterwards so
    warm reuse (and the live line-count gauges) behave exactly as if
    the per-event engine had run. :func:`ineligibility` names the reason
    a run is turned away.
    """
    if ineligibility(sim, trace) is not None:
        return None
    l2 = sim.l2
    counter_cache = sim.counter_cache
    node_cache = sim.node_cache
    n = len(trace)

    artifact = compiled_for(sim, trace, sample_period)
    bus = sim.bus
    mac_bytes = sim._mac_bytes
    cycles_per_block = bus.cycles_per_block
    full_dur = max(1, round(cycles_per_block * 1.0))
    mac_frac_dur = max(1, round(cycles_per_block * (mac_bytes / BLOCK_SIZE)))

    pres = artifact.pres(sim.issue_width)
    prog = artifact.prog(full_dur, mac_frac_dur)
    mflags = artifact.miss_flags
    m = artifact.misses

    warm_events = int(n * warmup)
    degenerate = warm_events >= n
    boundary = n if degenerate else warm_events
    if boundary > 0:
        warm_misses = int(artifact.miss_cum[boundary - 1])
    else:
        warm_misses = 0

    mp, now, bf, queue, exposed = _run_segment(
        pres, mflags, prog, 0, boundary, 0, 0.0, bus._free_at, 0.0, 0.0,
        full_dur, sim.mem_latency, sim.aes_latency, sim.mac_latency,
        sim.l2_hit_latency, sim.overlap, sim.uses_counter_cache,
        sim._serial_decrypt, sim._verify_on_path,
    )
    measured_from = now
    queue = 0.0
    exposed = 0.0
    if not degenerate:
        mp, now, bf, queue, exposed = _run_segment(
            pres, mflags, prog, boundary, n, mp, now, bf, queue, exposed,
            full_dur, sim.mem_latency, sim.aes_latency, sim.mac_latency,
            sim.l2_hit_latency, sim.overlap, sim.uses_counter_cache,
            sim._serial_decrypt, sim._verify_on_path,
        )

    # Settle the order-insensitive statistics for the measured interval.
    if degenerate:
        warm_misses = m
        measured_events = 0
        measured_instructions = 0
    else:
        measured_events = n - warm_events
        measured_instructions = (
            int(artifact.gaps[warm_events:].sum(dtype=np.int64))
            + measured_events
        )
    measured_misses = m - warm_misses
    meta = artifact.metas[warm_misses:].sum(axis=0)
    demand_hits = measured_events - measured_misses
    l2.credit_demand(
        demand_hits + int(meta[_L2H]),
        measured_misses + int(meta[_L2M]),
        int(meta[_L2WB]),
    )
    counter_cache.credit_demand(int(meta[_CCH]), int(meta[_CCM]),
                                int(meta[_CCWB]))
    if node_cache is not None:
        node_cache.credit_demand(int(meta[_TH]), int(meta[_TM]),
                                 int(meta[_TWB]))

    kind_totals = artifact.kcounts[warm_misses:].sum(axis=0)
    by_kind = {}
    for name, codes in _KIND_SETTLEMENT:
        count = int(sum(kind_totals[code] for code in codes))
        if count:
            by_kind[name] = count
    transfers = int(artifact.transfers[warm_misses:].sum())
    busy = float(int(artifact.busy_per_miss(full_dur, mac_frac_dur)
                     [warm_misses:].sum()))
    bus.credit(transfers, busy, queue, by_kind, bf)

    tick0 = warm_events // sample_period
    measured_ticks = artifact.ticks[tick0:]
    if len(measured_ticks):
        occupancy = measured_ticks.sum(axis=0)
        l2.credit_occupancy(
            len(measured_ticks) * l2.num_lines,
            {
                DATA: int(occupancy[0]),
                CODE: int(occupancy[1]),
                COUNTER: int(occupancy[2]),
                MERKLE: int(occupancy[3]),
                MAC: int(occupancy[4]),
            },
        )

    sim.exposed_cycles += exposed
    sim.counter_accesses += int(meta[_CA])
    sim.counter_misses += int(meta[_CM])
    sim.demand_accesses = measured_events
    sim.demand_misses = measured_misses

    # Install the recorded end-of-run cache contents: warm reuse and the
    # live occupancy gauges see exactly what the per-event engine leaves.
    l2.restore_state(*artifact.final_l2)
    counter_cache.restore_state(*artifact.final_cc)
    if node_cache is not None:
        node_cache.restore_state(*artifact.final_node)

    return now, measured_from, measured_instructions
