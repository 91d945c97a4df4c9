"""Span recording for the traced run, from the benchmark's own files.

A :class:`Tracer` replaces public entry points of the library's layers
with wrappers that record one span per call: op id, layer, name, start,
end and parent span. The wrapper is installed where the caller looks the
callable up (a module attribute, a class attribute or an instance
attribute), and :meth:`Tracer.restore` puts every original back.

Spans are kept in memory in typed arrays and written to disk once, when
the run ends. The untraced runs never construct a tracer.

Parenting: a span's parent is the innermost open span of its own
thread. A span opened on a thread with no open span (the service's event
loop and worker threads) is parented to the current op's *anchor*, the
span the benchmark opened around the op itself, so server-side work
nests under the client request that caused it.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from array import array

import numpy as np

# The library's layers, by module name under ``repro``.
LAYERS = ("workloads", "fastpath", "sim", "evalx", "api", "service",
          "core", "crypto", "integrity", "osmodel")


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._names: dict[tuple[str, str], int] = {}
        self.op = array("i")
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[str, int] = {}
        self._op_id = -1
        self._anchor = -1
        self._patched: list[tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, layer: str, name: str) -> int:
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        key = (layer, name)
        with self._lock:
            return self._names.setdefault(key, len(self._names))

    def _open(self, name_id: int, stack: list) -> int:
        parent = stack[-1] if stack else self._anchor
        with self._lock:
            sid = len(self.start)
            self.op.append(self._op_id)
            self.name.append(name_id)
            self.parent.append(parent)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(sid)
        return sid

    def _close(self, sid: int, stack: list) -> None:
        self.end[sid] = time.perf_counter()
        stack.pop()

    def wrap(self, layer: str, name: str, fn, *, anchor: bool = False,
             observe=None):
        """A span-recording wrapper around ``fn``.

        ``anchor=True`` starts a new op: the wrapper takes the next op id
        and becomes the parent of spans opened on idle threads until the
        next anchor. ``observe(args)`` runs before the call and returns a
        callable that runs once the call has returned (the
        engine-telemetry hook of ``TimingSimulator.run``).
        """
        name_id = self._name_id(layer, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if anchor:
                self._op_id += 1
            done = observe(args) if observe is not None else None
            sid = self._open(name_id, stack)
            if anchor:
                self._anchor = sid
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, stack)
            if done is not None:
                done()
            return result

        return traced

    def counter(self, key: str, fn):
        """A wrapper that only counts calls (no span): for hot leaf calls."""
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    # -- installation --------------------------------------------------------

    def patch(self, owner, attr: str, layer: str, name: str | None = None,
              **options) -> None:
        """Replace ``owner.attr`` with a span wrapper (restored later)."""
        self._install(owner, attr, self.wrap(layer, name or attr,
                                             getattr(owner, attr), **options))

    def patch_counter(self, owner, attr: str, key: str) -> None:
        self._install(owner, attr, self.counter(key, getattr(owner, attr)))

    def _install(self, owner, attr: str, replacement) -> None:
        own = attr in getattr(owner, "__dict__", {})
        self._patched.append((owner, attr, owner.__dict__.get(attr) if own else None, own))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        with self._lock:
            return {column: np.array(getattr(self, column))
                    for column in ("op", "name", "start", "end", "parent")}

    def names(self) -> list[tuple[str, str]]:
        """(layer, name) per name id."""
        ordered = sorted(self._names.items(), key=lambda item: item[1])
        return [key for key, _ in ordered]

    def durations(self, layer: str, names) -> list[float]:
        """Per-call durations of the named spans over the whole run."""
        ids = [i for i, (lay, nm) in enumerate(self.names())
               if lay == layer and nm in names]
        cols = self.arrays()
        mask = np.isin(cols["name"], ids)
        return (cols["end"][mask] - cols["start"][mask]).tolist()

    def since(self, first: int, last: int | None = None) -> "SpanView":
        """Spans ``first`` up to (excluding) ``last``, with self times."""
        return SpanView(self, first, last)

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """Write every span (columns) plus the name table to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = self.arrays()
        np.savez(path, **columns,
                 names=np.array(json.dumps(self.names())))


class SpanView:
    """A window of spans with per-span self time.

    A span's self time is its duration minus the time its child spans
    cover, each child clipped to the parent's interval; children of one
    span run one after another (ops are serial), so their clipped
    durations add up.
    """

    def __init__(self, tracer: Tracer, first: int, last: int | None = None):
        cols = tracer.arrays()
        self.table = tracer.names()
        sl = slice(first, last)
        self.name = cols["name"][sl]
        self.start = cols["start"][sl]
        self.end = cols["end"][sl]
        self.duration = self.end - self.start
        parent = cols["parent"][sl].astype(np.int64) - first
        has_parent = (parent >= 0) & (parent < len(self.start))
        child_time = np.zeros(len(self.start))
        idx = np.nonzero(has_parent)[0]
        if len(idx):
            p = parent[idx]
            clipped = (np.minimum(self.end[idx], self.end[p])
                       - np.maximum(self.start[idx], self.start[p]))
            np.add.at(child_time, p, np.clip(clipped, 0.0, None))
        self.self_time = np.clip(self.duration - child_time, 0.0, None)

    def _mask(self, layer: str, names=None) -> np.ndarray:
        ids = [i for i, (lay, nm) in enumerate(self.table)
               if lay == layer and (names is None or nm in names)]
        return np.isin(self.name, ids)

    def self_seconds(self, layer: str) -> float:
        """Total self time of one layer's spans."""
        return float(self.self_time[self._mask(layer)].sum())

    def total_seconds(self, layer: str, names) -> float:
        """Total (inclusive) duration of the named spans of one layer."""
        return float(self.duration[self._mask(layer, names)].sum())

    def median_seconds(self, layer: str, names) -> float:
        """Median duration per call of the named spans (0.0 if none ran)."""
        durations = self.duration[self._mask(layer, names)]
        return float(np.median(durations)) if len(durations) else 0.0

    def covered_seconds(self) -> float:
        """Wall time covered by the union of all spans in the view."""
        if not len(self.start):
            return 0.0
        order = np.argsort(self.start, kind="stable")
        starts = self.start[order]
        reach = np.maximum.accumulate(self.end[order])
        # A new merged interval begins wherever a span starts after
        # everything before it has ended.
        begins = np.ones(len(starts), dtype=bool)
        begins[1:] = starts[1:] > reach[:-1]
        first = np.nonzero(begins)[0]
        last = np.append(first[1:] - 1, len(starts) - 1)
        return float((reach[last] - starts[first]).sum())
