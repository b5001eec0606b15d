"""Timing wrappers installed from outside the package, for the traced run only.

``install`` replaces each layer module's public functions, plus the methods in
``METHODS``, by wrappers that record a span (name, start, end, parent).  A
function is replaced under every name a qtherm module binds it to, so calls
that another module makes through ``from .x import f`` are traced too.  Spans
stay in memory until ``Tracer.dump``.  ``summarize`` turns them into per-layer
self time: a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

# qtherm module -> layer label used in metric names (a name may not start with "_")
LAYERS = {"qcore": "qcore", "models": "models", "engine": "engine", "thermo": "thermo",
          "generators": "generators", "cli": "cli", "_svg": "svg"}

# (module, class, attribute, span name): methods traced besides public functions.
# A class that no longer exists is skipped and its metrics read 0.
METHODS = (
    ("qcore", "DensityMatrix", "__init__", "qcore.DensityMatrix"),
    ("qcore", "Propagator", "from_operator", "qcore.Propagator.from_operator"),
    ("models", "JointSystem", "propagator", "models.propagator"),
    ("generators", "_LinearPropagator", "__init__", "generators.LinearPropagator.init"),
    ("generators", "_LinearPropagator", "apply", "generators.LinearPropagator.apply"),
)


class Tracer:
    """Records spans; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent span or None]
        self.active = True                   # cleared once the sample's output is written
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            # a pool worker's outermost span belongs to the main thread's open span
            parent = stack[-1] if stack else (self._main[-1] if self._main else None)
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def dump(self) -> list[list]:
        """Spans as [name, start, end, parent index or -1]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [[n, a, b, -1 if p is None else index[id(p)]] for n, a, b, p in self.spans]


def install(tracer: Tracer) -> None:
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == "qtherm" or n.startswith("qtherm."))]
    for modname, label in LAYERS.items():
        mod = importlib.import_module("qtherm." + modname)
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            traced = tracer.wrap(f"{label}.{attr}", obj)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is obj:
                        setattr(m, key, traced)
    for modname, clsname, attr, name in METHODS:
        cls = getattr(importlib.import_module("qtherm." + modname), clsname, None)
        if cls is None or attr not in vars(cls):
            continue
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(tracer.wrap(name, raw.__func__))
        elif isinstance(raw, functools.cached_property):
            new = functools.cached_property(tracer.wrap(name, raw.func))
            new.__set_name__(cls, attr)
        else:
            new = tracer.wrap(name, raw)
        setattr(cls, attr, new)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans: list[list]) -> dict:
    """Per-layer self time and calls, per-span-name inclusive time and calls."""
    children = defaultdict(list)
    for _, a, b, parent in spans:
        if parent >= 0:
            children[parent].append((a, b))
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    name_s = defaultdict(float)
    name_calls = defaultdict(int)
    for i, (name, a, b, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        layer_self[layer] += (b - a) - _covered(children[i], a, b)
        layer_calls[layer] += 1
        name_s[name] += b - a
        name_calls[name] += 1
    return {"layer_self": dict(layer_self), "layer_calls": dict(layer_calls),
            "name_s": dict(name_s), "name_calls": dict(name_calls)}
