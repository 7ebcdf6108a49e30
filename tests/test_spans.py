"""The benchmark tracer's contract with the library: every method it times is where it patches it.

``perfbench/spans.py`` replaces each ``(class, name)`` of its ``METHODS``
in that class's own ``__dict__`` with a timing wrapper.  A name that moved
to a base class would fail at install, and a 2-d class that overrode a
generic method would route every 2-d call around the generic wrapper, so
its spans would silently read zero.
"""

from __future__ import annotations

import importlib.util
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import specadapt
from specadapt import adapt

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_every_traced_method_is_in_its_class_dict():
    sites = [(name, cls, attribute) for name, pairs in spans.METHODS.items() for cls, attribute in pairs]
    assert sites
    for name, cls, attribute in sites:
        assert attribute in vars(cls), f"{name}: {cls.__name__}.{attribute} is not in the class's own __dict__"


def test_the_2d_state_overrides_no_generic_method():
    for name in ("frequency", "exterior", "moved", "rescaled", "split_point"):
        assert name not in vars(adapt.FrameState2D), name
    # error is the generic function itself, under the 2-d class's own name
    assert vars(adapt.FrameState2D)["error"] is vars(adapt.FrameState)["error"]


def test_the_2d_aliases_are_the_generic_calls():
    state = adapt.frame_state_2d_from(
        lambda x, y, t: np.exp(-0.4 * x) / (1.0 + np.exp(y - 3.0)), 10, 1.6, 12, 2.1, x_left=0.2, y_left=0.1
    )
    assert (state.frame_x, state.frame_y, state.y_left) == (*state.frames, state.lefts[1])
    for axis, suffix in ((0, "x"), (1, "y")):
        alias = lambda name: getattr(state, f"{name}_{suffix}")
        split = state.split_point(axis)
        assert np.array_equal(alias("nodes")(), state.nodes(axis))
        assert alias("frequency")() == state.frequency(axis)
        assert alias("exterior")(split + 0.01) == state.exterior(split + 0.01, axis)
        assert np.array_equal(alias("moved")(0.01).values, state.moved(0.01, axis).values)
        assert np.array_equal(alias("rescaled")(1.9).values, state.rescaled(1.9, axis).values)


@pytest.mark.parametrize("two_d", [False, True], ids=["1d", "2d"])
def test_installed_tracer_times_each_generic_call_once(two_d):
    if two_d:
        state = adapt.frame_state_2d_from(lambda x, y, t: np.exp(-x - y), 8, 2.0, 8, 2.0)
        calls = lambda: (state.frequency(1), state.exterior(state.split_point(1), 1), state.moved(0.01, 1),
                         state.rescaled(1.9, 1), state.error(lambda x, y, t: np.exp(-x - y), 0.0))
    else:
        state = adapt.frame_state_from(lambda x, t: np.exp(-x), 8, 2.0)
        calls = lambda: (state.frequency(), state.exterior(state.split_point()), state.moved(0.01),
                         state.rescaled(1.9), state.error(lambda x, t: np.exp(-x), 0.0))
    tracer = spans.Tracer()
    tracer.install()
    try:
        calls()
    finally:
        tracer.uninstall()
    assert tracer.leftovers() == []
    counted = {name: tracer.calls[name] for name in spans.METHODS}
    assert counted == dict.fromkeys(spans.METHODS, 1)


def test_the_tracer_walks_every_library_module():
    library = {f"specadapt.{info.name}" for info in pkgutil.iter_modules(specadapt.__path__)}
    assert {module.__name__ for module in spans.MODULES} == library


def _site(owner, attribute) -> str:
    """The label ``leftovers()`` gives a patched module attribute or class attribute."""
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__name__}.{attribute}"
    return f"{owner.__name__}.{attribute}"


def test_leftovers_name_every_patched_site_while_installed():
    # ``leftovers()`` walks only the classes defined in a module of
    # ``MODULES``: a traced class moved to a module the tracer does not
    # walk would keep its wrappers unseen, and this test fails
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = sorted(_site(owner, attribute) for owner, attribute, _ in tracer._patches)
        assert len(patched) == len(set(patched)) == 29
        assert sorted(tracer.leftovers()) == patched
    finally:
        tracer.uninstall()
    assert tracer.leftovers() == []
