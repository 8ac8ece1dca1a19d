"""Spans recorded from outside the program, around its layers' public
entry points.

:class:`Patch` swaps each entry point for a wrapper everywhere it is
bound: on its defining module or class and on every module under the
given package that imported it with ``from ... import``.  A wrapper opens
a span on the outermost call of its span name only (so the recursion of
``project`` is one span), and reads work counts from the value the call
returns.  Spans live in memory as ``[name, start, end, parent, op]`` rows;
:meth:`Tracer.layer_totals` folds them into self times, where a span's
self time is its duration minus the time covered by its child spans, so
the self times of one op sum exactly to its root span.

Nothing is wrapped unless a :class:`Patch` is applied, so an untraced op
constructs no spans (:attr:`Tracer.constructed` does not move).
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span recorder with per-name outermost-call nesting."""

    #: Spans constructed by every tracer in the process.
    constructed = 0

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._seen: set[tuple[str, int, int | None]] = set()
        self.gc_ns: dict[int, int] = defaultdict(int)
        self.gc_collections = 0
        self._gc_start: int | None = None

    # -- recording ------------------------------------------------------

    def begin(self, name: str) -> int:
        Tracer.constructed += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._active[name] += 1
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = self.clock()
        popped = self._stack.pop()
        assert popped == index, "spans must nest"
        self._active[span[0]] -= 1

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def count(self, metric: str, amount: float) -> None:
        self.counts[metric] += amount

    def count_once(self, metric: str, obj, amount: float) -> None:
        """Count *amount* for *obj* once per op (memoised results come
        back as the same object)."""
        key = (metric, id(obj), self.op)
        if key not in self._seen:
            self._seen.add(key)
            self.counts[metric] += amount

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as op *op_id* under a root ``op`` span."""
        self.op = op_id
        index = self.begin("op")
        try:
            return fn(*args)
        finally:
            self.end(index)
            self.op = None

    # -- garbage collector ---------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if self.op is None:
            return
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.gc_ns[self.op] += self.clock() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- folding --------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: duration minus the durations of its children."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] is not None:
                own[span[3]] -= span[2] - span[1]
        return own

    def layer_totals(self, scale=None) -> dict[str, float]:
        """Self time per span name, in nanoseconds; with *scale* (op id
        to factor) each op's spans are scaled by its factor."""
        totals: dict[str, float] = defaultdict(int)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[0]] += own * (scale[span[4]] if scale else 1)
        return dict(totals)

    def root_total(self, scale=None) -> float:
        return sum((span[2] - span[1]) * (scale[span[4]] if scale else 1)
                   for span in self.spans if span[3] is None)

    def gc_total(self, scale=None) -> float:
        return sum(ns * (scale[op] if scale else 1)
                   for op, ns in self.gc_ns.items())

    def write(self, path: str) -> None:
        """One JSON row per span: name, start and end (ns), parent
        index, op id."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def wrap(tracer: Tracer, fn, name: str, counter=None):
    """*fn* recorded as span *name* on its outermost call; *counter*
    (``counter(tracer, result, args)``) reads work counts off the
    result.  Generator functions get one span per resumption, so the
    caller's code between two items is never charged to the generator."""
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            if tracer.active(name):
                yield from fn(*args, **kwargs)
                return
            tracer.calls[name] += 1
            iterator = fn(*args, **kwargs)
            while True:
                index = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                yield item
        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active(name):
            return fn(*args, **kwargs)
        tracer.calls[name] += 1
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if counter is not None:
            counter(tracer, result, args)
        return result
    for attr in ("cache_info", "cache_clear"):  # lru_cache entry points
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


def _resolve(module_name: str, qualname: str):
    """The owner of *qualname* in *module_name* and the attribute name, or
    ``None`` when either is not there."""
    owner = sys.modules.get(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


class Patch:
    """Every ``(module, qualname, span, counter)`` entry point wrapped for
    *tracer*, at its definition and at each module-level rebinding of it
    under *package*.  :meth:`apply` and :meth:`revert` swap the wrappers
    in and out; the sites are found once, here.  Entry points the program
    no longer has are listed in :attr:`missing`."""

    def __init__(self, tracer: Tracer, entry_points,
                 package: str = "repro") -> None:
        modules = [module for name, module in sorted(sys.modules.items())
                   if module is not None
                   and (name == package or name.startswith(package + "."))]
        self.sites = []
        self.missing = []
        for module_name, qualname, span, counter in entry_points:
            found = _resolve(module_name, qualname)
            if found is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            owner, attr = found
            original = vars(owner)[attr]
            wrapper = wrap(tracer, original, span, counter)
            self.sites.append((owner, attr, original, wrapper))
            if inspect.isclass(owner):
                continue
            for module in modules:
                for key, value in vars(module).items():
                    if value is original and (module, key) != (owner, attr):
                        self.sites.append((module, key, original, wrapper))

    def apply(self) -> "Patch":
        for owner, attr, _, wrapper in self.sites:
            setattr(owner, attr, wrapper)
        return self

    def revert(self) -> None:
        for owner, attr, original, _ in self.sites:
            setattr(owner, attr, original)
