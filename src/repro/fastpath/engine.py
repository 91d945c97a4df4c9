"""The batched per-event execution engine for the timing core.

:func:`execute` is the batched event loop behind
:meth:`repro.sim.TimingSimulator.run`. It consumes a pre-decoded trace
(:meth:`repro.sim.trace.Trace.decoded`: the per-run numpy→list
conversion done once and memoized) and turns the per-access attribute
chases of the reference loop into a tight local-variable loop: cache
sets, bound methods, and latency parameters are resolved once, demand
hit/miss tallies accumulate in locals and are credited back in bulk
through the owning cache's :meth:`~repro.mem.cache.SetAssociativeCache.
credit_demand`. The arithmetic is identical operation for operation, so
results — including the committed figure-6 golden sweep — are
byte-identical to the reference loop.

When the compiled-replay gate is on (see the package docstring), the
run qualifies — cold caches, no armed sanitizer — and its lowering is
reused, ``execute`` instead dispatches to
:func:`repro.fastpath.compiled.execute_compiled`, which replays the
trace's memoized lowering through an even leaner loop with, again,
bit-identical arithmetic. A lowering counts as reused when it is
already memoized or the trace was already run cold once under the same
traffic geometry; the first sighting runs here with reason
``single_use``, because lowering costs about 1.7 per-event passes and
pays off only when replayed.
"""

from __future__ import annotations

from .compiled import execute_compiled, first_sighting, ineligibility


def execute(sim, trace, warmup: float, sample_period: int) -> tuple[float, float, int]:
    """Run ``trace`` through ``sim`` on the batched fast path.

    Returns ``(now, measured_from, measured_instructions)`` exactly as
    the reference loop in :meth:`TimingSimulator.run` would compute them.
    The caller has already rebased the bus and reset statistics; live
    obs hooks must NOT be armed (the fast path has no per-event
    callback sites). Each run is attributed on the simulator's
    :class:`~repro.fastpath.EngineTelemetry`: compiled replay when
    eligible and reused (always, under ``forced_compiled(True)``),
    otherwise the batched loop with the reason compiled replay was
    passed over.
    """
    from . import _FORCED_COMPILED, ENGINE_COMPILED, ENGINE_PER_EVENT, compiled_enabled

    telemetry = sim.engine_telemetry
    if compiled_enabled():
        reason = ineligibility(sim, trace)
        if (reason is None and not _FORCED_COMPILED
                and first_sighting(sim, trace, sample_period)):
            reason = "single_use"
        if reason is None:
            telemetry.record(ENGINE_COMPILED)
            return execute_compiled(sim, trace, warmup, sample_period)
    else:
        reason = "compiled_gate_off"
    telemetry.record(ENGINE_PER_EVENT, reason)

    decoded = trace.decoded()
    gaps = decoded.gaps
    ops = decoded.ops
    addresses = decoded.addresses

    l2 = sim.l2
    # Pre-resolved L2 probe state: the demand lookup is inlined below
    # (set indexing + LRU touch), mirroring SetAssociativeCache.lookup
    # exactly; hit/miss tallies accumulate in locals and are credited
    # back through the cache's own API.
    sets = l2._sets
    num_sets = l2.num_sets
    block_size = l2.block_size
    tick_occupancy = l2.tick_occupancy
    issue = sim.issue_width
    hit_latency = sim.l2_hit_latency
    overlap = sim.overlap

    engine = _make_miss_engine(sim)
    if engine is not None:
        miss_path, reset_engine, flush_engine = engine
    else:
        miss_path, reset_engine, flush_engine = sim._miss, None, None

    now = 0.0
    l2_hits = 0
    l2_misses = 0
    sample_countdown = sample_period
    warm_events = int(len(addresses) * warmup)
    measured_from = 0.0
    measured_instructions = 0
    event_index = 0

    for gap, op, addr in zip(gaps, ops, addresses):
        if event_index == warm_events:
            sim._reset_stats()
            l2_hits = 0
            l2_misses = 0
            if reset_engine is not None:
                reset_engine()
            measured_from = now
        event_index += 1
        now += gap / issue
        write = op == 1
        block = addr // block_size
        cache_set = sets[block % num_sets]
        entry = cache_set.get(block)
        if entry is not None:
            cache_set.move_to_end(block)
            if write and not entry[0]:
                cache_set[block] = (True, entry[1])
            l2_hits += 1
            now += hit_latency
        else:
            l2_misses += 1
            now += hit_latency + miss_path(addr, write, now) * overlap
        if event_index > warm_events:
            measured_instructions += gap + 1
        sample_countdown -= 1
        if sample_countdown == 0:
            tick_occupancy()
            sample_countdown = sample_period

    l2.credit_demand(l2_hits, l2_misses)
    if flush_engine is not None:
        flush_engine()
    sim.demand_accesses = l2_hits + l2_misses
    sim.demand_misses = l2_misses

    if addresses and warm_events >= len(addresses):
        # Degenerate warmup covering the whole trace: nothing measured.
        sim._reset_stats()
        measured_from = now
        measured_instructions = 0

    return now, measured_from, measured_instructions


def _make_miss_engine(sim):
    """Build the inlined miss path for ``sim``: (miss, reset, flush).

    The engine replicates ``TimingSimulator._miss`` and its helpers
    (``_counter_access``, ``_tree_walk``, ``_data_mac_traffic``, the
    writeback chain, ``MemoryBus.request``, and the cache ``lookup``/
    ``insert`` operations) operation for operation, with every model
    parameter pre-resolved into closure variables and every statistic
    accumulated in local tallies. ``flush()`` settles the tallies
    through the owning objects' batch-credit APIs at end of run;
    ``reset()`` zeroes them at the warmup boundary (mirroring
    ``_reset_stats``). Arithmetic — including bus-queueing timestamps
    and ``max(0, ...)`` stall clamps — is bit-identical to the
    reference helpers; the committed figure-6 golden pins that.

    Returns None when a :mod:`repro.core.sanitizer` config is armed
    (the reference helpers carry the sanitizer's per-insert checks) or
    the scheme defers tree updates (the reference helpers own the
    pending-walk queue the end-of-run drain settles) — the caller then
    falls back to ``sim._miss``.
    """
    from ..core import sanitizer
    from ..mem.cache import COUNTER, DATA, MAC, MERKLE
    from ..mem.layout import BLOCK_SIZE

    if sanitizer.active() is not None or sim._deferred_updates:
        return None

    bus = sim.bus
    l2 = sim.l2
    counter_cache = sim.counter_cache
    node_cache = sim.node_cache

    bs = BLOCK_SIZE
    mem_latency = sim.mem_latency
    aes_latency = sim.aes_latency
    mac_latency = sim.mac_latency
    uses_cc = sim.uses_counter_cache
    serial_decrypt = sim._serial_decrypt
    walks_tree = sim._walks_tree
    tree_covers_data = sim._tree_covers_data
    uses_data_macs = sim._uses_data_macs
    cache_data_macs = sim._cache_data_macs
    verify_on_path = sim._verify_on_path
    walk_bases = tuple(sim._walk_bases)
    arity = sim._arity
    covered_start = sim._covered_start
    mac_base = sim._mac_base
    mac_bytes = sim._mac_bytes
    ctr_base = sim._ctr_base if uses_cc else 0
    cb_span = sim._cb_span if uses_cc else 1

    # Pre-quantized bus transfer durations (MemoryBus.request quantizes
    # per call; the only fractional transfer is the uncached-MAC case).
    cycles_per_block = bus.cycles_per_block
    full_dur = max(1, round(cycles_per_block * 1.0))
    mac_frac_dur = max(1, round(cycles_per_block * (mac_bytes / bs)))

    # Cache internals (sets + class tallies are mutated in place with the
    # exact lookup/insert state transitions; hit/miss/writeback counts
    # settle through credit_demand at flush time).
    l2_sets = l2._sets
    l2_nsets = l2.num_sets
    l2_assoc = l2.assoc
    l2_classes = l2._class_lines
    cc_sets = counter_cache._sets
    cc_nsets = counter_cache.num_sets
    cc_assoc = counter_cache.assoc
    cc_classes = counter_cache._class_lines
    tree_cache = node_cache if node_cache is not None else l2
    t_sets = tree_cache._sets
    t_nsets = tree_cache.num_sets
    t_assoc = tree_cache.assoc
    t_classes = tree_cache._class_lines
    tree_is_l2 = tree_cache is l2

    # Statistic tallies (settled in flush / zeroed in reset).
    l2_hits = l2_misses = l2_wb = 0
    cc_hits = cc_misses = cc_wb = 0
    t_hits = t_misses = t_wb = 0
    counter_accesses = counter_misses = 0
    exposed = 0.0
    bus_free = bus._free_at
    bus_transfers = 0
    bus_busy = 0.0
    bus_queue = 0.0
    k_data = k_data_wb = k_counter = k_counter_wb = 0
    k_merkle = k_merkle_wb = k_mac = k_mac_wb = 0

    def tree_walk(covered_addr, now, make_dirty):
        # Mirrors TimingSimulator._tree_walk.
        nonlocal t_hits, t_misses, t_wb, l2_hits, l2_misses, l2_wb
        nonlocal bus_free, bus_transfers, bus_busy, bus_queue, k_merkle
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
                if tree_is_l2:
                    l2_hits += 1
                else:
                    t_hits += 1
                return fetched
            if tree_is_l2:
                l2_misses += 1
            else:
                t_misses += 1
            start = bus_free if bus_free > now else now
            bus_free = start + full_dur
            bus_transfers += 1
            bus_busy += full_dur
            bus_queue += start - now
            k_merkle += 1
            fetched += 1
            # insert(node_addr, MERKLE, dirty=make_dirty)
            if len(cache_set) >= t_assoc:
                vblock, (vdirty, vclass) = cache_set.popitem(last=False)
                t_classes[vclass] = t_classes.get(vclass, 1) - 1
                if vdirty:
                    if tree_is_l2:
                        l2_wb += 1
                    else:
                        t_wb += 1
                    cache_set[block] = (make_dirty, MERKLE)
                    t_classes[MERKLE] = t_classes.get(MERKLE, 0) + 1
                    writeback(vblock, vclass, now)
                    continue
            cache_set[block] = (make_dirty, MERKLE)
            t_classes[MERKLE] = t_classes.get(MERKLE, 0) + 1
        return fetched

    def counter_access(addr, now, write, data_ready):
        # Mirrors TimingSimulator._counter_access.
        nonlocal cc_hits, cc_misses, cc_wb, counter_accesses, counter_misses
        nonlocal bus_free, bus_transfers, bus_busy, bus_queue, k_counter, k_counter_wb
        cb_addr = ctr_base + (addr // cb_span) * bs
        counter_accesses += 1
        block = cb_addr // bs
        cache_set = cc_sets[block % cc_nsets]
        entry = cache_set.get(block)
        if entry is not None:
            cache_set.move_to_end(block)
            if write and not entry[0]:
                cache_set[block] = (True, entry[1])
            cc_hits += 1
            return 0.0
        cc_misses += 1
        counter_misses += 1
        start = bus_free if bus_free > now else now
        bus_free = start + full_dur
        bus_transfers += 1
        bus_busy += full_dur
        bus_queue += start - now
        k_counter += 1
        counter_ready = start + mem_latency
        # insert(cb_addr, COUNTER, dirty=write)
        if len(cache_set) >= cc_assoc:
            vblock, (vdirty, vclass) = cache_set.popitem(last=False)
            cc_classes[vclass] = cc_classes.get(vclass, 1) - 1
            cache_set[block] = (write, COUNTER)
            cc_classes[COUNTER] = cc_classes.get(COUNTER, 0) + 1
            if vdirty:
                cc_wb += 1
                # _writeback_counter_block(vblock * bs, now)
                vstart = bus_free if bus_free > now else now
                bus_free = vstart + full_dur
                bus_transfers += 1
                bus_busy += full_dur
                bus_queue += vstart - now
                k_counter_wb += 1
                if walks_tree:
                    tree_walk(vblock * bs, now, True)
        else:
            cache_set[block] = (write, COUNTER)
            cc_classes[COUNTER] = cc_classes.get(COUNTER, 0) + 1
        if walks_tree:
            tree_walk(cb_addr, now, False)
        if write:
            return 0.0  # writebacks are off the critical path
        pad_ready = counter_ready + aes_latency
        stall = pad_ready - data_ready
        return stall if stall > 0.0 else 0.0

    def mac_traffic(addr, now, write):
        # Mirrors TimingSimulator._data_mac_traffic.
        nonlocal l2_hits, l2_misses, l2_wb
        nonlocal bus_free, bus_transfers, bus_busy, bus_queue, k_mac, k_mac_wb
        mac_addr = mac_base + (addr // bs * mac_bytes // bs) * bs
        if cache_data_macs:
            block = mac_addr // bs
            cache_set = l2_sets[block % l2_nsets]
            entry = cache_set.get(block)
            if entry is not None:
                cache_set.move_to_end(block)
                if write and not entry[0]:
                    cache_set[block] = (True, entry[1])
                l2_hits += 1
                return 0
            l2_misses += 1
            start = bus_free if bus_free > now else now
            bus_free = start + full_dur
            bus_transfers += 1
            bus_busy += full_dur
            bus_queue += start - now
            k_mac += 1
            # insert(mac_addr, MAC, dirty=write)
            if len(cache_set) >= l2_assoc:
                vblock, (vdirty, vclass) = cache_set.popitem(last=False)
                l2_classes[vclass] = l2_classes.get(vclass, 1) - 1
                cache_set[block] = (write, MAC)
                l2_classes[MAC] = l2_classes.get(MAC, 0) + 1
                if vdirty:
                    l2_wb += 1
                    writeback(vblock, vclass, now)
            else:
                cache_set[block] = (write, MAC)
                l2_classes[MAC] = l2_classes.get(MAC, 0) + 1
            return 1
        # Uncached MACs: only the MAC itself crosses the bus.
        start = bus_free if bus_free > now else now
        bus_free = start + mac_frac_dur
        bus_transfers += 1
        bus_busy += mac_frac_dur
        bus_queue += start - now
        if write:
            k_mac_wb += 1
            return 0
        k_mac += 1
        return 1

    def writeback(vblock, vclass, now):
        # Mirrors TimingSimulator._writeback for a dirty victim.
        nonlocal bus_free, bus_transfers, bus_busy, bus_queue
        nonlocal k_merkle_wb, k_data_wb
        start = bus_free if bus_free > now else now
        bus_free = start + full_dur
        bus_transfers += 1
        bus_busy += full_dur
        bus_queue += start - now
        if vclass == MERKLE or vclass == MAC:
            k_merkle_wb += 1
            return
        k_data_wb += 1
        addr = vblock * bs
        if uses_cc:
            counter_access(addr, now, True, now)
        if tree_covers_data:
            tree_walk(addr, now, True)
        elif uses_data_macs:
            mac_traffic(addr, now, True)

    def miss(addr, is_write, now):
        # Mirrors TimingSimulator._miss.
        nonlocal l2_wb, exposed
        nonlocal bus_free, bus_transfers, bus_busy, bus_queue, k_data
        start = bus_free if bus_free > now else now
        bus_free = start + full_dur
        bus_transfers += 1
        bus_busy += full_dur
        bus_queue += start - now
        k_data += 1
        data_ready = start + mem_latency
        extra = 0.0
        if uses_cc:
            extra = counter_access(addr, now, False, data_ready)
            exposed += extra
        elif serial_decrypt:
            extra = aes_latency  # decryption serialized after the fetch
            exposed += extra
        integrity_fetches = 0
        if tree_covers_data:
            integrity_fetches = tree_walk(addr, now, False)
        elif uses_data_macs:
            integrity_fetches = mac_traffic(addr, now, False)
        if verify_on_path:
            extra += mac_latency
            if integrity_fetches:
                extra += mem_latency
        # insert(addr, DATA, dirty=is_write) into the L2
        block = addr // bs
        cache_set = l2_sets[block % l2_nsets]
        entry = cache_set.get(block)
        if entry is not None:
            # Refill of a present line (a metadata insert raced the fill).
            cache_set[block] = (entry[0] or is_write, DATA)
            cache_set.move_to_end(block)
            if entry[1] != DATA:
                l2_classes[entry[1]] = l2_classes.get(entry[1], 1) - 1
                l2_classes[DATA] = l2_classes.get(DATA, 0) + 1
        elif len(cache_set) >= l2_assoc:
            vblock, (vdirty, vclass) = cache_set.popitem(last=False)
            l2_classes[vclass] = l2_classes.get(vclass, 1) - 1
            cache_set[block] = (is_write, DATA)
            l2_classes[DATA] = l2_classes.get(DATA, 0) + 1
            if vdirty:
                l2_wb += 1
                writeback(vblock, vclass, now)
        else:
            cache_set[block] = (is_write, DATA)
            l2_classes[DATA] = l2_classes.get(DATA, 0) + 1
        return (data_ready - now) + extra

    def reset():
        # Mirrors _reset_stats for the local tallies (warmup boundary).
        nonlocal l2_hits, l2_misses, l2_wb, cc_hits, cc_misses, cc_wb
        nonlocal t_hits, t_misses, t_wb, counter_accesses, counter_misses
        nonlocal exposed, bus_transfers, bus_busy, bus_queue
        nonlocal k_data, k_data_wb, k_counter, k_counter_wb
        nonlocal k_merkle, k_merkle_wb, k_mac, k_mac_wb
        l2_hits = l2_misses = l2_wb = 0
        cc_hits = cc_misses = cc_wb = 0
        t_hits = t_misses = t_wb = 0
        counter_accesses = counter_misses = 0
        exposed = 0.0
        bus_transfers = 0
        bus_busy = 0.0
        bus_queue = 0.0
        k_data = k_data_wb = k_counter = k_counter_wb = 0
        k_merkle = k_merkle_wb = k_mac = k_mac_wb = 0

    def flush():
        # Settle tallies through the owners' batch-credit APIs.
        l2.credit_demand(l2_hits, l2_misses, l2_wb)
        counter_cache.credit_demand(cc_hits, cc_misses, cc_wb)
        if node_cache is not None:
            node_cache.credit_demand(t_hits, t_misses, t_wb)
        by_kind = {}
        for kind, count in (
            ("data", k_data), ("counter", k_counter), ("merkle", k_merkle),
            ("mac", k_mac), ("data_wb", k_data_wb),
            ("counter_wb", k_counter_wb), ("merkle_wb", k_merkle_wb),
            ("mac_wb", k_mac_wb),
        ):
            if count:
                by_kind[kind] = count
        bus.credit(bus_transfers, bus_busy, bus_queue, by_kind, bus_free)
        sim.exposed_cycles += exposed
        sim.counter_accesses += counter_accesses
        sim.counter_misses += counter_misses

    return miss, reset, flush
