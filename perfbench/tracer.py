"""In-memory span tracer for the traced benchmark run.

The tracer replaces every public function of the traced ``shotgenre``
modules (the names in each module's ``__all__``) with a wrapper that records
a span: name, start, end and parent. The wrapper is bound at every name the
package looks the function up by, so ``cli.read_dataset`` is traced as well
as ``featurestore.read_dataset``. Nothing under ``src/`` changes: the
wrappers are installed from here and removed again by :meth:`Tracer.uninstall`.

Each thread keeps its own span stack and span buffer, because ``tfidf``
scores genres in a thread pool. A span opened in a pool thread has no
parent there, so ``textlab.build_genre_tables.self_s`` includes the time it
waits for its ``tfidf_scores`` workers. Spans stay in memory as flat arrays
and are written once, by :meth:`Tracer.save`, when the run ends.
"""

import functools
import inspect
import os
import sys
import threading
import time
from array import array

import numpy as np

# Percentiles are reported only where a function is called at least this
# often, so that p90 has at least ten samples above it.
MIN_CALLS_FOR_PERCENTILES = 100


class _ThreadSpans:
    """Spans recorded by one thread, in the order they were opened."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []


class Tracer:
    def __init__(self):
        self._names = []
        self._index = {}
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._patches = []
        self.counters = {}

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self._names)
            self._names.append(name)
        return self._index[name]

    def _buffer(self) -> _ThreadSpans:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadSpans()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped in a span named ``name``. ``observe(args,
        kwargs, result)`` runs after the span closes, outside its time."""
        idx = self._intern(name)
        clock = time.perf_counter
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = self._buffer()
            stack = buf.stack
            slot = len(buf.name)
            buf.name.append(idx)
            buf.parent.append(stack[-1] if stack else -1)
            buf.start.append(0.0)
            buf.end.append(0.0)
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                buf.start[slot] = start
                buf.end[slot] = end
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installing into the package ----------------------------------------

    def install(self, layers, observers=None) -> int:
        """Wrap the public functions of ``shotgenre.<layer>`` for each layer,
        at every module-level name in the package that refers to them.
        Returns the number of names patched."""
        observers = observers or {}
        package = [m for n, m in sorted(sys.modules.items())
                   if (n == "shotgenre" or n.startswith("shotgenre.")) and m is not None]
        for layer in layers:
            module = sys.modules[f"shotgenre.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, fn, observers.get(name))
                for ns in package:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapped)
                            self._patches.append((ns, key, fn))
        return len(self._patches)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patches):
            setattr(ns, key, fn)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def _arrays(self):
        names, durations, selfs = [], [], []
        for buf in self._buffers:
            if buf.stack:
                raise RuntimeError("tracer: spans still open at the end of the run")
            name = np.frombuffer(buf.name, dtype=np.int32)
            parent = np.frombuffer(buf.parent, dtype=np.int64)
            dur = np.frombuffer(buf.end, dtype=np.float64) - np.frombuffer(buf.start, dtype=np.float64)
            has_parent = parent >= 0
            child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
            names.append(name)
            durations.append(dur)
            selfs.append(dur - child)
        return np.concatenate(names), np.concatenate(durations), np.concatenate(selfs)

    def stats(self) -> dict:
        """``{span name: {calls, total_s, self_s, p50_us, p90_us}}`` for every
        span name the tracer knows, called or not."""
        name, dur, self_t = self._arrays()
        out = {}
        for idx, span_name in enumerate(self._names):
            mask = name == idx
            calls = int(mask.sum())
            d = dur[mask]
            row = {
                "calls": calls,
                "total_s": float(d.sum()),
                "self_s": float(self_t[mask].sum()),
                "p50_us": 0.0,
                "p90_us": 0.0,
            }
            if calls >= MIN_CALLS_FOR_PERCENTILES:
                p50, p90 = np.percentile(d, [50, 90]) * 1e6
                row["p50_us"], row["p90_us"] = float(p50), float(p90)
            out[span_name] = row
        return out

    def span_count(self) -> int:
        return sum(len(buf.name) for buf in self._buffers)

    def save(self, path) -> None:
        """Write every span (per-thread arrays, concatenated) to ``path``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        thread = np.concatenate([np.full(len(b.name), i, dtype=np.int32)
                                 for i, b in enumerate(self._buffers)])
        cat = lambda attr, dt: np.concatenate(
            [np.frombuffer(getattr(b, attr), dtype=dt) for b in self._buffers])
        np.savez(path, names=np.array(self._names), thread=thread,
                 name=cat("name", np.int32), parent=cat("parent", np.int64),
                 start=cat("start", np.float64), end=cat("end", np.float64))
