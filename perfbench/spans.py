"""Span timing for the traced benchmark run.

The tracer swaps the library's public callables for wrappers that time
each call as a span, nested by call order, and attributes to each span
its *self* time: its duration minus the part covered by spans it caused.
Every name is patched where it is looked up, so a function that
``specadapt.adapt`` imported by name is wrapped in ``adapt`` too.  Only
aggregates are kept (calls, self seconds, counters); nothing is written.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from specadapt import adapt, approx, basis, indicators

clock = time.perf_counter

MODULES = (basis, approx, indicators, adapt)

# span name -> the library function it times
FUNCTIONS = {
    "basis.quadrature": basis.quadrature,
    "basis.eval_weighted_all": basis.eval_weighted_all,
    "basis.eval_basis_all": basis.eval_basis_all,
    "approx.interpolate": approx.interpolate,
    "indicators.frequency_indicator": indicators.frequency_indicator,
    "indicators.exterior_error_indicator": indicators.exterior_error_indicator,
}

# span name -> the state methods it times (1-d and per-axis 2-d forms)
METHODS = {
    "adapt.rescaled": ((adapt.FrameState, "rescaled"), (adapt.FrameState2D, "rescaled_x"), (adapt.FrameState2D, "rescaled_y")),
    "adapt.moved": ((adapt.FrameState, "moved"), (adapt.FrameState2D, "moved_x"), (adapt.FrameState2D, "moved_y")),
    "adapt.exterior": ((adapt.FrameState, "exterior"), (adapt.FrameState2D, "exterior_x"), (adapt.FrameState2D, "exterior_y")),
    "adapt.frequency": ((adapt.FrameState, "frequency"), (adapt.FrameState2D, "frequency_x"), (adapt.FrameState2D, "frequency_y")),
    "adapt.error": ((adapt.FrameState, "error"), (adapt.FrameState2D, "error")),
}

MARK = "perfbench_span"


def _weighted_values(scaled_basis, x):
    """Computed work of one eval_weighted_all call: (order+1) * len(x)."""
    return (scaled_basis.order + 1) * np.size(x)


class Tracer:
    """Aggregated span timer with install/uninstall of the library wrappers."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._open = []  # time covered by children, one entry per open span
        self._patches = []  # (owner, attribute, original object)

    def wrap(self, name, fn, count=None):
        """``fn`` timed as span ``name``; ``count`` adds computed work."""
        open_spans, self_s, calls = self._open, self.self_s, self.calls

        def traced(*args, **kwargs):
            if count is not None:
                self.counts[name + ".values"] += count(*args, **kwargs)
            start = clock()
            open_spans.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed

        setattr(traced, MARK, name)
        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def install(self):
        for name, original in FUNCTIONS.items():
            count = _weighted_values if name == "basis.eval_weighted_all" else None
            wrapper = self.wrap(name, original, count)
            for module in MODULES:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attribute, wrapper)
        for name, sites in METHODS.items():
            for cls, attribute in sites:
                self._patch(cls, attribute, self.wrap(name, vars(cls)[attribute]))
        self._patch_frame()

    def _patch_frame(self):
        """Time ``Frame(...)``; a call that grows the frame cache is a build."""
        frame_cls = adapt.Frame
        timed_new = self.wrap("adapt.Frame", vars(frame_cls)["__new__"].__func__)

        def new(cls, *args, **kwargs):
            size = len(frame_cls._cache)
            start = clock()
            frame = timed_new(cls, *args, **kwargs)
            if len(frame_cls._cache) > size:
                self.counts["adapt.Frame.builds"] += 1
                self.counts["adapt.Frame.build_ms"] += (clock() - start) * 1e3
            return frame

        setattr(new, MARK, "adapt.Frame")
        self._patch(frame_cls, "__new__", staticmethod(new))

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def leftovers(self) -> list[str]:
        """Library attributes that still hold a tracer wrapper."""
        found = []
        for module in MODULES:
            for attribute, value in vars(module).items():
                owners = [(attribute, value)]
                if isinstance(value, type) and value.__module__ == module.__name__:
                    owners = [(f"{attribute}.{a}", v) for a, v in vars(value).items()]
                for label, item in owners:
                    if hasattr(getattr(item, "__func__", item), MARK):
                        found.append(f"{module.__name__}.{label}")
        return found
