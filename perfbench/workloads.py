"""The four benchmark workloads, each run once per fresh process.

A workload draws its profile parameters from the seed (small stated ranges
around nominal values), hands the library only the sampled callables, and
returns what the episode measured: set-up time, per-operation times,
failures, and the controller outcome read back from the run's history.

Library calls go through the module attributes (``adapt.run_frames``,
``approx.interpolate``, ...) so that a traced run, which swaps those
attributes for timing wrappers, sees every call.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

from specadapt import adapt, approx, basis

clock = time.perf_counter

# parameter -> (nominal value, relative half-range of the seeded jitter)
JITTER = {
    "front-move": {"speed": (5.0, 0.05), "width": (2.0, 0.05)},
    "spread-scale": {"width": (2.0, 0.05), "rate": (1.0, 0.05)},
    "bump-2d": {
        "speed_x": (1.0, 0.05),
        "speed_y": (0.8, 0.05),
        "widen_x": (1.0, 0.05),
        "widen_y": (0.8, 0.05),
    },
    "cold-orders": {"width": (2.0, 0.05)},
}

# Sizes of a full run and of the smoke test.  ``steps`` = horizon / dt; a
# full run has 1000 steps, so that ten lie beyond the 99th percentile.
SIZES = {
    "full": {
        "front-move": {"order": 128, "beta": 2.5, "dt": 0.001, "steps": 1000},
        "spread-scale": {"order": 128, "beta": 2.5, "dt": 0.04, "steps": 1000},
        "bump-2d": {"order": 48, "beta": 2.0, "dt": 0.005, "steps": 1000},
        "cold-orders": {"orders": (32, 64, 128, 256), "beta": 2.5},
        "tolerance": 1e-8,
    },
    "smoke": {
        "front-move": {"order": 16, "beta": 2.5, "dt": 0.01, "steps": 20},
        "spread-scale": {"order": 16, "beta": 2.5, "dt": 0.05, "steps": 20},
        "bump-2d": {"order": 8, "beta": 2.0, "dt": 0.05, "steps": 10},
        "cold-orders": {"orders": (8, 16), "beta": 2.5},
        "tolerance": 1e-1,
    },
}

# The 2-d run uses the move parameters of the 2-d tests: a wider search
# (20 candidates) so that the mover's cap is reached on part of the steps.
BUMP_CONFIG = {"mu": 1.003, "delta": 0.005, "d_max": 0.1}


def params(name: str, seed: int) -> dict:
    """Profile parameters for ``name``, jittered reproducibly from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    return {
        key: nominal * (1.0 + spread * (2.0 * rng.random() - 1.0))
        for key, (nominal, spread) in JITTER[name].items()
    }


def logistic(z):
    """1 / (1 + exp(z)) without overflow."""
    return 0.5 * (1.0 - np.tanh(0.5 * z))


class Untraced:
    """Stand-in for the tracer: calls pass straight through."""

    def wrap(self, name, fn):
        return fn

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _finite(value) -> bool:
    return value is not None and math.isfinite(value)


def _step_failed(record, tolerance: float, indicators) -> bool:
    """A step fails on a bad error or an undefined indicator."""
    if not (_finite(record.error) and record.error <= tolerance):
        return True
    return not all(_finite(value) for value in indicators(record))


def _moves(lefts, d_max: float) -> tuple[int, int]:
    steps = np.diff(lefts)
    return int(np.sum(steps > 0.0)), int(np.sum(np.abs(steps - d_max) < 1e-12))


def _rescales(betas, q: float) -> int:
    """Accepted ladder rungs: each one multiplies beta by q."""
    ratios = np.asarray(betas[:-1]) / np.asarray(betas[1:])
    return int(np.sum(np.rint(np.log(ratios) / -math.log(q))))


def _stepping(name, p, size, tolerance, tracer, t0):
    """Set up and run one 1-d or 2-d stepping workload."""
    two_d = name == "bump-2d"
    cfg = adapt.AdaptConfig(**BUMP_CONFIG) if two_d else adapt.AdaptConfig()
    order, beta, dt, steps = size["order"], size["beta"], size["dt"], size["steps"]

    if name == "front-move":
        def profile(x, t):
            return logistic((np.asarray(x, dtype=float) - 5.0 - p["speed"] * t) / p["width"])
    elif name == "spread-scale":
        def profile(x, t):
            return logistic((np.asarray(x, dtype=float) - 5.0) / (p["width"] + p["rate"] * t))
    else:
        def profile(x, y, t):
            fx = logistic((np.asarray(x, dtype=float) - 2.0 - p["speed_x"] * t) / (2.0 + p["widen_x"] * t))
            fy = logistic((np.asarray(y, dtype=float) - 2.0 - p["speed_y"] * t) / (2.0 + p["widen_y"] * t))
            return fx * fy

    profile = tracer.wrap("workload.evolve", profile)
    marks = []

    if two_d:
        def evolve(state, t, dt_):
            marks.append(clock())
            grid_x, grid_y = np.meshgrid(state.nodes_x(), state.nodes_y(), indexing="ij")
            values = profile(grid_x, grid_y, t + dt_)
            return adapt.FrameState2D(state.frame_x, state.frame_y, values, state.x_left, state.y_left)

        def setup():
            return adapt.frame_state_2d_from(profile, order, beta, order, beta)

        run, mode = adapt.run_2d, adapt.MODE_MOVE_SCALE
    else:
        def evolve(state, t, dt_):
            marks.append(clock())
            values = profile(state.x_left + state.frame.nodes, t + dt_)
            return adapt.FrameState(state.frame, values, state.x_left)

        def setup():
            return adapt.frame_state_from(profile, order, beta)

        run = adapt.run_frames
        mode = adapt.MODE_MOVE_SCALE if name == "front-move" else adapt.MODE_SCALE

    evolve = tracer.wrap("workload.evolve", evolve)
    frames_before = len(adapt.Frame._cache)
    start = clock()
    initial = tracer.call("workload.setup", setup)
    ready = clock()
    records, final = tracer.call("adapt.loop", run, evolve, initial, cfg, dt, steps * dt, mode, reference=profile)
    done = clock()

    if two_d:
        def indicators(r):
            return (r.freq, r.ext, r.extras["freq_y"], r.extras["ext_y"])
    else:
        def indicators(r):
            return (r.freq, r.ext)

    failed = [_step_failed(r, tolerance, indicators) for r in records]
    lefts = [r.x_left for r in records]
    betas = [r.beta for r in records]
    moves, cap_hits = _moves(lefts, cfg.d_max)
    accepted = _rescales(betas, cfg.q)
    outcome = {"final_beta": final.frame_x.beta if two_d else final.beta, "final_x_left": final.x_left}
    if two_d:
        moves_y, caps_y = _moves([r.extras["yL"] for r in records], cfg.d_max)
        moves, cap_hits = moves + moves_y, cap_hits + caps_y
        accepted += _rescales([r.extras["beta_y"] for r in records], cfg.q)
        outcome.update(final_beta_y=final.frame_y.beta, final_y_left=final.y_left)
        outcome["front_x"] = 2.0 + p["speed_x"] * steps * dt
    elif name == "front-move":
        outcome["front_x"] = 5.0 + p["speed"] * steps * dt
    outcome.update(moves=moves, cap_hits=cap_hits, accepted_rescales=accepted,
                   frames_built=len(adapt.Frame._cache) - frames_before)
    marks.append(done)
    return {
        "setup_s": ready - t0,
        "ops": len(records) - 1,
        "failed": sum(failed[1:]),
        "initial_ok": not failed[0],
        "busy_s": done - ready,
        "lead_ms": (marks[0] - ready) * 1e3,
        "op_ms": [(b - a) * 1e3 for a, b in zip(marks, marks[1:])],
        "max_error": float(np.max([r.error for r in records])),
        "outcome": outcome,
        "traced_wall_s": done - start,
    }


def _cold_frame(profile, order, beta):
    state = adapt.frame_state_from(profile, order, beta)
    return state.error(profile, 0.0), (state.frequency(), state.exterior(state.split_point()))


def _cold_expansion(profile, order, beta, cfg):
    scaled = basis.laguerre_basis(order, beta)
    rule = basis.quadrature(scaled)
    expansion = approx.interpolate(profile(rule.nodes, 0.0), scaled, rule)
    state = adapt.initial_state(expansion, cfg)
    return approx.relative_error(expansion, lambda x: profile(x, 0.0)), (state.f0, state.e0)


def _cold_orders(p, size, tolerance, tracer, t0):
    """Cold set-up of a spreading profile at each order, in both engines."""
    cfg = adapt.AdaptConfig()

    def profile(x, t):
        return logistic((np.asarray(x, dtype=float) - 5.0) / (p["width"] + t))

    profile = tracer.wrap("workload.evolve", profile)
    op_ms, errors, failures = [], [], []

    def setup():
        for order in size["orders"]:
            for engine in ("frame", "expansion"):
                begin = clock()
                try:
                    if engine == "frame":
                        error, indicators = _cold_frame(profile, order, size["beta"])
                    else:
                        error, indicators = _cold_expansion(profile, order, size["beta"], cfg)
                except (ValueError, ArithmeticError):
                    error, indicators = math.nan, ()
                op_ms.append((clock() - begin) * 1e3)
                ok = _finite(error) and error <= tolerance and all(_finite(v) for v in indicators)
                errors.append(error)
                if not ok:
                    failures.append(f"{engine}@{order}")

    frames_before = len(adapt.Frame._cache)
    start = clock()
    tracer.call("workload.setup", setup)
    done = clock()
    finite = [e for e in errors if math.isfinite(e)]
    return {
        "setup_s": done - t0,
        "ops": len(op_ms),
        "failed": len(failures),
        "initial_ok": True,
        "busy_s": sum(op_ms) / 1e3,
        "lead_ms": 0.0,
        "op_ms": op_ms,
        "max_error": max(finite) if finite else math.nan,
        "outcome": {"failed_ops": failures, "frames_built": len(adapt.Frame._cache) - frames_before},
        "traced_wall_s": done - start,
    }


def run(name: str, seed: int, smoke: bool, tracer, t0: float) -> dict:
    """One episode of workload ``name``; ``t0`` is the clock before import."""
    sizes = SIZES["smoke" if smoke else "full"]
    p = params(name, seed)
    if name == "cold-orders":
        result = _cold_orders(p, sizes[name], sizes["tolerance"], tracer, t0)
    else:
        result = _stepping(name, p, sizes[name], sizes["tolerance"], tracer, t0)
    result["params"] = p
    return result
