"""Span tracer for the traced benchmark run.

Wraps the public functions of the vekua_lab layers from outside the
package: every module namespace that holds a function gets the wrapper,
because `harness` and `cli` import engines by name.  Spans are kept in
memory, one open-span stack per thread (the suite runs identities on a
thread pool), and are aggregated into per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# Spans whose name starts with one of these begin a new request: all spans
# below one identity check or one DtN export share its trace id.
REQUEST_PREFIXES = ("harness.identity.", "cli.main")
# Workload entry points.  Spans other than these and the request spans
# are layer spans.
ENTRY_NAMES = ("harness.run_suite", "cli.main")


class Span:
    __slots__ = ("id", "parent", "trace", "name", "thread", "start", "end",
                 "work", "cg_iterations", "fallbacks")

    def __init__(self, span_id, parent, trace, name, thread, start):
        self.id = span_id
        self.parent = parent
        self.trace = trace
        self.name = name
        self.thread = thread
        self.start = start
        self.end = None
        self.work = 0
        self.cg_iterations = 0
        self.fallbacks = 0

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class _CountingLinalg:
    """Stands in for `scipy.sparse.linalg` inside `vekua_lab.pde`.

    Counts conjugate-gradient iterations and sparse direct solves on the
    span that issued them; everything else is forwarded unchanged.
    """

    def __init__(self, tracer, real):
        self._tracer = tracer
        self._real = real

    def __getattr__(self, attr):
        return getattr(self._real, attr)

    def cg(self, *args, **kwargs):
        span = self._tracer.current()
        inner = kwargs.pop("callback", None)

        def count(xk):
            if span is not None:
                span.cg_iterations += 1
            if inner is not None:
                inner(xk)

        return self._real.cg(*args, callback=count, **kwargs)

    def spsolve(self, *args, **kwargs):
        span = self._tracer.current()
        if span is not None:
            span.fallbacks += 1
        return self._real.spsolve(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._entry = None
        self._patches = []

    # -- spans ------------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name):
        stack = self._stack()
        is_entry = not stack and threading.current_thread() is threading.main_thread()
        # A span opened on a pool thread with nothing open belongs to the
        # entry point that started the pool.
        parent = stack[-1] if stack else (None if is_entry else self._entry)
        if name.startswith(REQUEST_PREFIXES):
            trace = next(self._traces)
        else:
            trace = parent.trace if parent is not None else 0
        span = Span(next(self._ids), parent, trace, name,
                    threading.get_ident(), time.perf_counter())
        if is_entry:
            self._entry = span
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name, fn, work=None):
        """`fn` recorded as span `name`; `work(*args, **kwargs)` counts its size.

        `name` may be a function of the call's arguments.
        """
        label = name if callable(name) else (lambda *args, **kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(label(*args, **kwargs))
            try:
                if work is not None:
                    span.work = work(*args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    # -- installation -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, name=None, work=None):
        """Replace module.attr in every vekua_lab module that holds it."""
        original = getattr(module, attr)
        if name is None:
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        traced = self.wrap(name, original, work)
        for mod in list(sys.modules.values()):
            if mod is None or not mod.__name__.startswith("vekua_lab"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def patch_method(self, cls, attr, name):
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def patch_linalg(self, module):
        """Count solver iterations as `module` sees scipy.sparse.linalg."""
        self._set(module, "spla", _CountingLinalg(self, module.spla))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output -----------------------------------------------------------------

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                row = span.as_dict()
                row["parent"] = span.parent.id if span.parent is not None else None
                fh.write(json.dumps(row) + "\n")


def _union_length(intervals):
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans):
    """Span duration minus the part of it that its child spans cover."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent.id, []).append((span.start, span.end))
    return {
        span.id: (span.end - span.start) - _union_length(children.get(span.id, ()))
        for span in spans
    }


def coverage(spans, wall_s):
    """Share of wall time during which at least one layer span was open."""
    layer = [(s.start, s.end) for s in spans
             if not s.name.startswith(ENTRY_NAMES + REQUEST_PREFIXES)]
    return _union_length(layer) / wall_s


def per_span_cost(samples=20000):
    """Measured time a wrapper adds to one call, for the overhead estimate."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("calibration", noop)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        t1 = time.perf_counter()
        for _ in range(samples):
            traced()
        t2 = time.perf_counter()
        tracer.spans.clear()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
    return best
