"""Run-time span tracing of the package's public functions.

`Tracer.install()` replaces every public function of each layer module with
a wrapper that records a span (name, start, end, parent) around the call.
A name bound into another module with `from ... import` is replaced there
too, so its time is not charged to the caller.  When a call returns an
iterator, each `next()` on it is a further span of the same name, so lazy
enumeration is timed where it is consumed.  Nothing in the package changes:
`uninstall()` puts every original back.

Spans are folded into per-name totals as they close: call counts, self
time (the span's duration minus its direct children) and inclusive time
counted once per outermost span of a group, so nested or recursive calls
are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from collections.abc import Iterator
from time import perf_counter

LAYERS = ("partitions", "qt_series", "rpp_core", "vertex_model", "coupling",
          "sliding", "render", "checks", "cli")

# A one-line accessor called millions of times per pass inside enumeration;
# a span around it would cost several times the work it measures.
UNTRACED = frozenset({"partitions.part"})

# Names whose inclusive time is reported together, counted once when they nest.
GROUPS = {
    "rpp_core.enumerate_rpps": "rpp_core.enumerate",
    "rpp_core.enumerate_pairs": "rpp_core.enumerate",
    "qt_series.hook_product_single": "qt_series.hook_product",
    "qt_series.hook_product_pair": "qt_series.hook_product",
}


def _enumerated(tracer, args, kwargs, result):
    lam, bound = (*args, *kwargs.values())[:2]
    shape = tuple(int(p) for p in lam if int(p))
    tracer.enum_bounds[shape] = max(tracer.enum_bounds.get(shape, -1), bound)


def _counter(key, measure):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += measure(result)
    return hook


# Work counts read from the arguments or results at a layer boundary.
HOOKS = {
    "rpp_core.enumerate_rpps": _enumerated,
    "sliding.check_t0_constraints": _counter("sliding.t0_accepted", bool),
    "render.pair_svg": _counter("render.svg_bytes", lambda s: len(s.encode())),
    "vertex_model.verify_ybe": _counter("vertex_model.ybe_evaluations",
                                        lambda r: r["checked"]),
    "coupling.verify_colored_ybe": _counter("coupling.colored_ybe_evaluations",
                                            lambda r: r["checked"]),
}


class Tracer:
    """Collects spans while installed.  A span is (name, start, end, parent):
    open spans live on a stack, whose top is the parent of the next one, and
    each span is folded into the totals when it closes; a pass makes
    millions of them, too many to keep."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.group_time: defaultdict = defaultdict(float)
        self.enum_bounds: dict = {}
        self._stack: list[list] = []
        self._depth: Counter = Counter()
        self._group_start: dict = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, group: str) -> None:
        start = perf_counter()
        if not self._depth[group]:
            self._group_start[group] = start
        self._depth[group] += 1
        self._stack.append([name, group, start, 0.0])  # 0.0: time in children

    def _close(self) -> None:
        end = perf_counter()
        name, group, start, child = self._stack.pop()
        duration = end - start
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        self._depth[group] -= 1
        if not self._depth[group]:
            self.group_time[group] += end - self._group_start[group]

    def _iterate(self, name: str, group: str, it: Iterator):
        while True:
            self._open(name, group)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close()
            self.items[name] += 1
            yield item

    def wrap(self, name: str, fn):
        group = GROUPS.get(name, name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            self._open(name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                hook(self, args, kwargs, result)
            if isinstance(result, Iterator):
                return self._iterate(name, group, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "coupledrpp") -> None:
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrapped[id(value)] = self.wrap(name, value)
        for mod in [importlib.import_module(package), *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._set(mod, attr, wrapped[id(value)])
        series = modules["qt_series"].QTSeries
        self._set(series, "add_term",
                  self.wrap("qt_series.add_term", series.add_term))
        checks = modules["checks"]
        self._set(checks, "ALL_CHECKS",
                  [(number, self.wrap(f"checks.criterion_{number}", fn))
                   for number, fn in checks.ALL_CHECKS])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- totals ------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items()
                   if name.split(".", 1)[0] == layer)
