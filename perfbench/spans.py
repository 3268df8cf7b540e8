"""Span tracing of genimm from outside the package.

``Tracer.install()`` replaces every public function of each genimm module,
and every public method of the classes those modules define, with a wrapper
that opens a span around the call.  A function bound under several names
(``cli.lk_of_family`` next to ``invariants.lk_of_family``) is rebound under
all of them, so one span catches every route into it.  ``uninstall()`` puts
the originals back.  No file under ``src/`` is touched.

A span records its caller's span id; on close its duration is charged to
the parent as child time, so a span's self time is its duration minus the
time its child spans cover.  Spans are aggregated per name as they close
(calls, total, self, one named count, caller names) rather than stored one
by one: a double-curve solve opens more than a million spans.

A generator function (``strata.random_paths``) is timed while it is
consumed: each resume of the generator is one span segment, and the call
is counted once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time

import numpy as np

LAYERS = ("config", "qform", "surfaces", "strata", "invariants", "geometry",
          "numtopo", "cli")


def _points(x) -> int:
    """Number of points in a (..., d) array argument."""
    shape = getattr(x, "shape", None)
    if shape is None:
        shape = np.shape(x)
    n = 1
    for k in shape[:-1]:
        n *= k
    return n


# span name -> (count name, extractor(args, kwargs, result) -> int)
COUNTS = {
    "numtopo.degree_S3": ("preimages", lambda a, kw, r: r.count),
    "numtopo.solve_self_intersection": ("curves", lambda a, kw, r: len(r)),
    "geometry.FamilyMap.ambient_eval":
        ("points", lambda a, kw, r: _points(a[1] if len(a) > 1 else kw["x"])),
    "geometry.domain_constraint":
        ("points", lambda a, kw, r: _points(a[0] if a else kw["x"])),
    "qform.q_table": ("vectors", lambda a, kw, r: len(r)),
    "strata.verify_first_order": ("checked", lambda a, kw, r: r.checked),
    "strata.invariance_along_paths": ("checked", lambda a, kw, r: r.checked),
}


class SpanStat:
    __slots__ = ("calls", "total_s", "self_s", "count", "parents")

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.count = 0
        self.parents = {}


class Tracer:
    """Owns the wrappers, the open-span stack and the per-name statistics."""

    def __init__(self):
        self.stats: dict[str, SpanStat] = {}
        self._stack: list[list] = []
        self._root = [0, "<root>", 0.0, 0.0, 0]   # parent of top-level spans
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        """A wrapper that times fn as span ``name``.

        An open span is [span id, name, start, child seconds, parent id];
        its parent is the span open below it on the stack.  The bookkeeping
        is a few list operations, because a double-curve solve closes over
        a million spans.
        """
        stat = self.stats.setdefault(name, SpanStat())
        counter = COUNTS.get(name)
        extract = counter[1] if counter else None
        stack, ids, clock = self._stack, self._ids, time.perf_counter

        def close(span, start):
            dur = clock() - start
            if stack.pop() is not span:
                raise RuntimeError(f"span {name} closed out of order")
            stat.total_s += dur
            stat.self_s += dur - span[3]
            parent = stack[-1] if stack else self._root
            parent[3] += dur
            stat.parents[parent[1]] = stat.parents.get(parent[1], 0) + 1

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    start = clock()
                    span = [next(ids), name, start, 0.0,
                            stack[-1][0] if stack else 0]
                    stack.append(span)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(span, start)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            span = [next(ids), name, start, 0.0,
                    stack[-1][0] if stack else 0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stat.calls += 1
                close(span, start)
            if extract is not None:
                stat.count += extract(args, kwargs, result)
            return result
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Rebind every public genimm function and method to a wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"genimm.{layer}")
                   for layer in LAYERS}
        wrappers = {}   # original function -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_methods(f"{layer}.{attr}", obj)
        package = importlib.import_module("genimm")
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def _install_methods(self, prefix, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(raw):
                new = self._wrap(f"{prefix}.{attr}", raw)
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(f"{prefix}.{attr}",
                                              raw.__func__))
            else:
                continue   # properties and plain class attributes
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        """Restore every rebound attribute, most recent first."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans left open")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading ------------------------------------------------------------

    def reset(self):
        for stat in self.stats.values():
            stat.reset()

    def snapshot(self) -> dict[str, dict]:
        """Statistics of every span that fired since the last reset."""
        out = {}
        for name, stat in sorted(self.stats.items()):
            if not stat.calls:
                continue
            row = {"calls": stat.calls, "self_s": stat.self_s,
                   "total_s": stat.total_s,
                   "parents": dict(sorted(stat.parents.items(),
                                          key=lambda kv: -kv[1])[:4])}
            if name in COUNTS:
                row[COUNTS[name][0]] = stat.count
            out[name] = row
        return out
