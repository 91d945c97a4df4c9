"""``secure_os``: 4 KiB kernel reads and writes on a paging ``aise+bmt`` machine.

Set-up boots ``build_machine("aise+bmt")`` with :data:`PHYSICAL_BYTES`
of data memory under a :class:`Kernel`, starts :data:`PROCESSES`
processes and maps them :data:`OVERSUBSCRIPTION` times as many pages as
there are frames, touches every page with one seeded byte (the kernel
zero-fills it first; a shadow copy of every page is what reads are
checked against) and runs :data:`WARM_OPS` ops, so swap-out and
swap-in are already a steady part of the stream.

An op is one page-aligned 4 KiB ``Kernel.read`` or ``Kernel.write`` of a
uniformly chosen mapped page. Each round of eight ops holds seven reads
and one write in a seeded order. About 20% of ops fault (a swap-out of
the oldest frame, then a swap-in).

Op classes, counted by the work each op does (MACs computed, pads
generated, faults taken) over a 15-s window on a 2-vCPU VM:

* reads: 66% find every pad in the engine's memo and compute no MAC
  (median 0.56 ms); 20% fault (median 3.0 ms); the other 14% rebuild
  some pads or MACs in between.
* writes: every resident write does the same work (448 MACs and 512
  DRAM block writes), and a faulting write adds one swap to it (about
  +0.7 ms); they take 3.7 ms (q10) to 6.6 ms (q90).

Memo-served reads are 58% of all ops and fill the span from 0.3 to
0.75 ms, with its densest mode at 0.60 to 0.65 ms holding the 20th to
52nd percentiles of all ops. The median of all ops lies in that mode,
and under 2% of ops take 0.8 to 1.0 ms, so it is far from the next
class.

The engine's pad memo is cleared whenever it reaches its capacity,
which with this op mix happens about every 3 s: eight or more times per
window, so the window's class mix is the same from run to run.

After the window, untimed tamper probes spoof a resident block through
``repro.attacks``, read it back (which must raise ``IntegrityError``),
restore it and read it again (which must return the shadow bytes).
"""

from __future__ import annotations

import math
import random
import time

from .common import MIN_OPS, Window

IMPORTS = ("repro.api", "repro.attacks")
PHYSICAL_BYTES = 1024 * 1024
PROCESSES = 4
OVERSUBSCRIPTION = 1.25
BASE_VADDR = 0x1000_0000
READS, WRITES = 7, 1
WARM_OPS = 200
TAMPER_PROBES = 4


class State:
    """The machine, its kernel, the processes and the shadow contents."""

    def __init__(self, machine, kernel, pages: list, shadow: dict,
                 page_size: int, seed: int):
        self.machine = machine
        self.kernel = kernel
        self.pages = pages  # (pid, vaddr) of every mapped page
        self.shadow = shadow  # (pid, vaddr) -> bytes last written
        self.page_size = page_size
        self.seed = seed

    def close(self) -> None:
        self.machine = self.kernel = None
        self.pages, self.shadow = [], {}


def _rounds(rng: random.Random):
    """An endless stream of op kinds (True = read) in seeded rounds."""
    kinds = [True] * READS + [False] * WRITES
    while True:
        rng.shuffle(kinds)
        yield from kinds


def setup(seed: int) -> State:
    from repro import api
    from repro.mem.layout import PAGE_SIZE

    machine = api.build_machine("aise+bmt", physical_bytes=PHYSICAL_BYTES)
    kernel = api.Kernel(machine)
    per_process = math.ceil(machine.data_pages * OVERSUBSCRIPTION / PROCESSES)
    rng = random.Random(seed)
    pages, shadow = [], {}
    for index in range(PROCESSES):
        pid = kernel.create_process(f"bench{index}").pid
        kernel.mmap(pid, BASE_VADDR, per_process)
        for page in range(per_process):
            # First touch: the kernel zero-fills the page, then one
            # seeded byte lands in it; the window's writes fill the rest.
            vaddr = BASE_VADDR + page * PAGE_SIZE
            mark = rng.randbytes(1)
            kernel.write(pid, vaddr, mark)
            shadow[(pid, vaddr)] = mark + bytes(PAGE_SIZE - 1)
            pages.append((pid, vaddr))
    state = State(machine, kernel, pages, shadow, PAGE_SIZE, seed)
    warm = Window()
    _run_ops(state, rng, warm, kernel.read, kernel.write, limit=WARM_OPS)
    if warm.failed:
        raise RuntimeError("secure_os warm-up read back wrong bytes")
    return state


def _run_ops(state: State, rng: random.Random, window: Window, read, write,
             limit: int | None = None, seconds: float = 0.0) -> None:
    pages, shadow, size = state.pages, state.shadow, state.page_size
    kinds = _rounds(rng)
    start = time.perf_counter()
    done = 0
    while True:
        if limit is not None:
            if done >= limit:
                break
        elif (done >= MIN_OPS and done % (READS + WRITES) == 0
              and time.perf_counter() - start >= seconds):
            break
        is_read = next(kinds)
        pid, vaddr = pages[rng.randrange(len(pages))]
        if is_read:
            t0 = time.perf_counter()
            data = read(pid, vaddr, size)
            window.record("read", time.perf_counter() - t0)
            if data != shadow[(pid, vaddr)]:
                window.fail()
        else:
            data = rng.randbytes(size)
            t0 = time.perf_counter()
            write(pid, vaddr, data)
            window.record("write", time.perf_counter() - t0)
            shadow[(pid, vaddr)] = data
        done += 1


def measure(state: State, seconds: float, seed: int, tracer=None) -> Window:
    """Whole rounds of reads and writes until ``seconds`` have elapsed."""
    kernel = state.kernel
    read, write = kernel.read, kernel.write
    if tracer is not None:
        read = tracer.wrap("osmodel", "read", read, anchor=True)
        write = tracer.wrap("osmodel", "write", write, anchor=True)
    stats = kernel.stats
    faults, swap_outs = stats.page_faults, stats.swap_outs
    window = Window()
    start = time.perf_counter()
    _run_ops(state, random.Random(seed), window, read, write, seconds=seconds)
    window.wall = time.perf_counter() - start
    window.notes.update(faults=stats.page_faults - faults,
                        swap_outs=stats.swap_outs - swap_outs)
    return window


def verify(state: State, window: Window) -> None:
    """Tamper probes: a spoofed resident block must fail verification."""
    from repro.api import IntegrityError
    from repro.attacks import MemoryTamperer
    from repro.mem.layout import BLOCK_SIZE

    kernel, size = state.kernel, state.page_size
    tamperer = MemoryTamperer(state.machine)
    rng = random.Random(state.seed)
    resident = []
    for pid, vaddr in state.pages:
        entry = kernel.processes[pid].page_table.entry(vaddr // size)
        if entry.present:
            resident.append((pid, vaddr, entry.frame))
    for pid, vaddr, frame in rng.sample(resident, TAMPER_PROBES):
        block = rng.randrange(size // BLOCK_SIZE) * BLOCK_SIZE
        paddr = frame * size + block
        window.attempted += 1
        record = tamperer.spoof(paddr)
        try:
            kernel.read(pid, vaddr + block, BLOCK_SIZE)
            detected = False
        except IntegrityError:
            detected = True
        tamperer.replay(record)
        intact = (kernel.read(pid, vaddr + block, BLOCK_SIZE)
                  == state.shadow[(pid, vaddr)][block:block + BLOCK_SIZE])
        if not (detected and intact):
            window.fail()


def install(tracer, state: State) -> None:
    from .layers import install_machine

    install_machine(tracer, state.machine)


def layer_extras(state: State, window: Window, ops: int) -> dict:
    return {
        "osmodel.faults_per_op": window.notes["faults"] / ops if ops else 0.0,
        "osmodel.swap_outs_per_op": window.notes["swap_outs"] / ops if ops else 0.0,
    }
