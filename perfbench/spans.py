"""Per-layer self time for the traced run, measured from outside the program.

:class:`Spans` is the accounting: every traced call is a span, and a span's
*self* time is its duration minus the part covered by its child spans.
:class:`Instrumentation` installs the spans by replacing, for the duration
of a traced repetition, each function and class method defined in the
``repro`` layer packages with a wrapper that opens a span keyed by the
package (the *layer*).  Callbacks handed to ``Simulator.schedule_at`` /
``post_at`` are wrapped too and keyed by the package that owns them, so
event handlers count towards their own layer instead of ``netsim``.

Code that is not wrapped (numpy, networkx, ``repro.services``,
``repro.persist``, generator bodies resumed by their consumer, and the
wrappers' own bookkeeping) is charged to the innermost open span, which is
how ``quantum.self_s`` comes to include the numpy time reached through
quantum calls.  Time outside every span is ``other``.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
import types
from dataclasses import dataclass

#: The measured layers: one ``repro`` subpackage each.
LAYERS = ("netsim", "linklayer", "core", "quantum", "analysis", "obs",
          "control", "network", "traffic", "apps", "campaign", "hardware")

#: Dunder methods worth a span (the rest are comparisons and reprs that
#: the heap and containers call far too often to time).
_TRACED_DUNDERS = ("__init__", "__call__")


def layer_of(module_name: str):
    """The layer owning ``module_name`` (None outside the measured layers)."""
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


class Spans:
    """Self-time accounting over nested spans.

    ``_open`` holds one child-time accumulator per open span; its first
    entry is the root, so ``covered_ns`` is the total duration of the
    top-level spans — the sum of every layer's self time.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: Inclusive nanoseconds of spans opened with a name.
        self.inclusive_ns: dict[str, int] = {}
        #: ``Simulator.post_at`` calls (the denominator of the pool hit ratio).
        self.posts = 0
        self._open = [0]

    @property
    def covered_ns(self) -> int:
        """Wall time spent inside top-level spans."""
        return self._open[0]

    def wrap(self, layer: str, fn, inclusive: str | None = None):
        """``fn`` wrapped in a span of ``layer`` (plus a named inclusive total)."""
        clock, open_spans = self.clock, self._open
        self_ns, calls, inclusive_ns = self.self_ns, self.calls, self.inclusive_ns
        if inclusive is not None:
            inclusive_ns.setdefault(inclusive, 0)

        def traced(*args, **kwargs):
            calls[layer] += 1
            open_spans.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[layer] += elapsed - open_spans.pop()
                open_spans[-1] += elapsed
                if inclusive is not None:
                    inclusive_ns[inclusive] += elapsed

        functools.update_wrapper(traced, fn)
        traced.__perfbench_layer__ = layer
        return traced

    def freeze(self, wall_ns: int) -> "SpanTotals":
        """The totals so far, for a traced interval that lasted ``wall_ns``.

        Objects built while traced keep calling their wrappers afterwards
        (registry sources are bound methods, for one), so a repetition's
        figures are copied out the moment it ends.
        """
        self_s = {layer: ns / 1e9 for layer, ns in self.self_ns.items()}
        self_s["other"] = (wall_ns - self.covered_ns) / 1e9
        return SpanTotals(wall_s=wall_ns / 1e9, self_s=self_s,
                          calls=dict(self.calls), posts=self.posts)


@dataclass(frozen=True)
class SpanTotals:
    """Frozen figures of one traced interval.

    ``self_s`` holds every layer's self seconds plus ``other``, the time
    outside all spans, so its values sum to ``wall_s``.
    """

    wall_s: float
    self_s: dict
    calls: dict
    posts: int


def _is_traced(fn) -> bool:
    return hasattr(getattr(fn, "__func__", fn), "__perfbench_layer__")


def _callback_layer(callback):
    """Layer of the package that defines ``callback`` (None if unmeasured)."""
    while isinstance(callback, functools.partial):
        callback = callback.func
    target = getattr(callback, "__func__", callback)
    return layer_of(getattr(target, "__module__", None) or "")


class Instrumentation:
    """Install and remove the span wrappers around the ``repro`` layers."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self._undo: list = []
        self._wrapped: dict[int, object] = {}

    def __enter__(self) -> Spans:
        self.install()
        return self.spans

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        for module in _layer_modules():
            layer = layer_of(module.__name__)
            for name, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, type):
                    self._wrap_class(layer, value)
                elif (not name.startswith("_")
                      and isinstance(value, types.FunctionType)):
                    self._set(module, name, self._wrapper(layer, value))
        self._rebind_imports()
        self._wrap_scheduler()

    def uninstall(self) -> None:
        while self._undo:
            kind, target, name, original = self._undo.pop()
            if kind == "attr":
                setattr(target, name, original)
            else:
                target[name] = original
        self._wrapped.clear()

    # -- wrapping -------------------------------------------------------

    def _set(self, target, name, value) -> None:
        self._undo.append(("attr", target, name, target.__dict__[name]))
        setattr(target, name, value)

    def _wrapper(self, layer, fn):
        wrapped = self._wrapped.get(id(fn))
        if wrapped is None:
            wrapped = self._wrapped[id(fn)] = self.spans.wrap(layer, fn)
        return wrapped

    def _wrap_class(self, layer, cls) -> None:
        if issubclass(cls, BaseException) or getattr(cls, "_is_protocol", False):
            return
        for name, attr in list(cls.__dict__.items()):
            if name.startswith("__") and name not in _TRACED_DUNDERS:
                continue
            if isinstance(attr, types.FunctionType):
                self._set(cls, name, self._wrapper(layer, attr))
            elif isinstance(attr, (staticmethod, classmethod)):
                inner = attr.__func__
                if isinstance(inner, types.FunctionType):
                    self._set(cls, name,
                              type(attr)(self._wrapper(layer, inner)))

    def _rebind_imports(self) -> None:
        """Point ``from x import f`` copies and module-level registries at
        the wrappers, so calls through them are spans too."""
        wrapped = self._wrapped
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and id(value) in wrapped:
                    self._set(module, name, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if (isinstance(item, types.FunctionType)
                                and id(item) in wrapped):
                            self._undo.append(("item", value, key, item))
                            value[key] = wrapped[id(item)]

    def _wrap_scheduler(self) -> None:
        """Key each event callback by its owner's layer at schedule time."""
        from repro.netsim.scheduler import Simulator

        spans = self.spans

        def traced_callback(callback):
            if _is_traced(callback):
                return callback
            layer = _callback_layer(callback)
            return callback if layer is None else spans.wrap(layer, callback)

        schedule_at, post_at = Simulator.schedule_at, Simulator.post_at

        def traced_schedule_at(sim, when, callback, *args):
            return schedule_at(sim, when, traced_callback(callback), *args)

        def traced_post_at(sim, when, callback, *args):
            spans.posts += 1
            return post_at(sim, when, traced_callback(callback), *args)

        self._set(Simulator, "schedule_at", traced_schedule_at)
        self._set(Simulator, "post_at", traced_post_at)


def _layer_modules() -> list:
    """Every module of the measured layer packages, imported."""
    modules = []
    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        modules.append(package)
        for info in pkgutil.iter_modules(package.__path__, f"repro.{layer}."):
            modules.append(importlib.import_module(info.name))
    return modules
