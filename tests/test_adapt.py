"""Unit and property tests for the adaptive controllers."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import stat
import tracemalloc
import warnings
import weakref
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, expit

import specadapt.basis as basis_module
from specadapt import adapt
from specadapt.adapt import (
    AdaptConfig,
    ExperimentRecord,
    Frame,
    FrameState,
    FrameState2D,
    MODE_MOVE,
    MODE_MOVE_SCALE,
    MODE_NONE,
    MODE_SCALE,
    frame_resample_evolver,
    frame_state_2d_from,
    frame_state_from,
    history_to_csv,
    initial_state,
    run_2d,
    run_frames,
)
from specadapt.approx import evaluate, interpolate, relative_error
from specadapt.basis import (
    HERMITE,
    LAGUERRE,
    eval_weighted_all,
    gamma_norms,
    hermite_basis,
    laguerre_basis,
    modified_weights,
    quadrature,
)
from specadapt.indicators import default_split_point, exterior_error_indicator, frequency_indicator

from oracles import damped_laguerre_all, laguerre_all, marginal_state, public_run


def diffusive_front(x, t):
    """Pure spreading: front fixed at 5, width growing like 2 + t."""
    return expit(-(np.asarray(x, dtype=float) - 5.0) / (2.0 + t))


def moving_front(x, t):
    """Pure translation: fixed width 2, front at 5t."""
    return expit(-(np.asarray(x, dtype=float) - 5.0 * t) / 2.0)


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_and_nu_fallback():
    cfg = AdaptConfig()
    assert cfg.q == 0.95
    assert cfg.nu == pytest.approx(1.0 / 0.95)
    assert cfg.beta_min == 0.05
    assert cfg.mu == 1.005
    assert cfg.delta == 0.004
    assert cfg.d_max == 0.04


def test_config_explicit_nu_kept():
    assert AdaptConfig(nu=1.5).nu == 1.5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"q": 0.0},
        {"q": 1.0},
        {"q": 1.2},
        {"nu": 1.0},
        {"nu": 0.5},
        {"beta_min": 0.0},
        {"mu": 1.0},
        {"delta": 0.0},
        {"delta": 0.05, "d_max": 0.04},
        {"nu": math.inf},
        {"beta_min": math.inf},
        {"mu": math.inf},
        {"d_max": math.inf},
        {"delta": math.inf, "d_max": math.inf},
        {"mu": math.nan},
    ],
)
def test_config_rejects_bad_values(kwargs):
    # the message names the offending field
    with pytest.raises(ValueError, match="|".join(kwargs)):
        AdaptConfig(**kwargs)


@pytest.mark.parametrize(
    "alias, expected",
    [
        (None, MODE_NONE),
        ("none", MODE_NONE),
        ("ScaleOnly", MODE_SCALE),
        ("scale", MODE_SCALE),
        ("MoveOnly", MODE_MOVE),
        ("move", MODE_MOVE),
        ("MoveScale", MODE_MOVE_SCALE),
        ("move-scale", MODE_MOVE_SCALE),
        ("move_scale", MODE_MOVE_SCALE),
    ],
)
def test_mode_aliases(alias, expected):
    # the driver takes each mode under its one name and refuses every other
    # spelling, naming the four, before the first step
    state = frame_state_from(moving_front, 8, 2.0)
    evolver = frame_resample_evolver(moving_front)
    if alias == expected:
        records, _ = run_frames(evolver, state, AdaptConfig(), 0.1, 0.2, alias)
        assert len(records) == 3
    else:
        with pytest.raises(ValueError, match="expected one of none, scale, move, move-scale"):
            run_frames(evolver, state, AdaptConfig(), 0.1, 0.2, alias)


def test_unknown_mode_rejected():
    def evolver(state, t, dt):
        raise AssertionError("stepped under an unknown mode")

    with pytest.raises(ValueError, match="unknown mode 'wiggle'"):
        run_frames(evolver, frame_state_from(moving_front, 8, 2.0), AdaptConfig(), 0.1, 0.2, "wiggle")


# ---------------------------------------------------------------------------
# CSV export


def test_csv_header_and_precision(tmp_path):
    records = [
        ExperimentRecord(t=0.0, beta=2.5, x_left=0.0, error=1 / 3, freq=1e-9, ext=None),
        ExperimentRecord(t=0.1, beta=2.375, x_left=0.004, error=None, freq=None, ext=0.25),
    ]
    path = tmp_path / "history.csv"
    text = history_to_csv(records, path)
    assert path.read_text() == text
    lines = text.splitlines()
    assert lines[0] == "t,error,beta,freq,ext,xL"
    first = lines[1].split(",")
    # 17 significant digits round-trip float64 exactly
    assert float(first[1]) == 1 / 3
    assert first[1] == format(1 / 3, ".17g")
    assert first[4] == ""  # absent optional -> empty field
    second = lines[2].split(",")
    assert second[1] == "" and second[3] == ""
    assert float(second[5]) == 0.004


def test_csv_extra_columns_and_ordering():
    records = [
        ExperimentRecord(t=0.0, beta=1.0, x_left=0.0, extras={"beta_y": 2.0}),
        ExperimentRecord(t=1.0, beta=1.0, x_left=0.0),
    ]
    text = history_to_csv(records, extra_columns=["beta_y", "missing"])
    lines = text.splitlines()
    assert lines[0] == "t,error,beta,freq,ext,xL,beta_y,missing"
    assert lines[1].endswith(",2,")
    assert lines[2].endswith(",,")


def test_csv_rejects_decreasing_times():
    records = [
        ExperimentRecord(t=1.0, beta=1.0, x_left=0.0),
        ExperimentRecord(t=0.5, beta=1.0, x_left=0.0),
    ]
    with pytest.raises(ValueError):
        history_to_csv(records)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_csv_rejects_non_finite_times(tmp_path, bad):
    # a NaN compares false both ways, so it used to pass the order check and
    # switch it off for the rows after it: [0, nan, -5] was written
    records = [ExperimentRecord(t=t, beta=1.0, x_left=0.0) for t in (0.0, bad, -5.0)]
    with pytest.raises(ValueError, match="finite"):
        history_to_csv(records, tmp_path / "h.csv")
    assert list(tmp_path.iterdir()) == []


def test_csv_write_is_atomic_no_stray_tmp(tmp_path, monkeypatch):
    records = [ExperimentRecord(t=0.0, beta=1.0, x_left=0.0)]
    target = tmp_path / "h.csv"
    history_to_csv(records, target)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.csv"]
    # a write that fails, in the text or in the rename, leaves the old file
    # and no temp file
    written = target.read_text()
    with pytest.raises(UnicodeEncodeError):
        adapt._atomic_write_text(target, "t\ud800")

    def refused(source, destination):
        raise OSError("rename refused")

    monkeypatch.setattr(adapt.os, "replace", refused)
    with pytest.raises(OSError, match="rename refused"):
        history_to_csv(records * 2, target)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.csv"] and target.read_text() == written


def test_csv_write_takes_a_target_name_of_any_length(tmp_path):
    # the temp file's name does not grow with the target's
    target = tmp_path / ("h" * 251 + ".csv")
    history_to_csv([ExperimentRecord(t=0.0, beta=1.0, x_left=0.0)], target)
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def test_csv_file_has_the_mode_of_a_plain_write(tmp_path):
    # the temp file that the write renames is made with mode 0o600; a new
    # file gets the mode open(path, "w") gives under the umask, and a
    # replaced file keeps its own
    records = [ExperimentRecord(t=0.0, beta=1.0, x_left=0.0)]
    umask = os.umask(0o027)
    try:
        history_to_csv(records, tmp_path / "h.csv")
        open(tmp_path / "plain.csv", "w").close()
    finally:
        os.umask(umask)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("h.csv", "plain.csv")]
    assert modes == [0o640, 0o640]
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    kept.chmod(0o604)
    history_to_csv(records, kept)
    assert stat.S_IMODE(kept.stat().st_mode) == 0o604 and kept.read_text() == history_to_csv(records)


# ---------------------------------------------------------------------------
# trivial guards


def test_short_horizon_yields_initial_record_only():
    state = frame_state_from(diffusive_front, 16, 2.5)
    records, final = run_frames(
        frame_resample_evolver(diffusive_front), state, AdaptConfig(), 0.5, 0.4, MODE_SCALE
    )
    assert len(records) == 1
    assert records[0].t == 0.0
    assert final.beta == 2.5


def test_nonpositive_steps_rejected():
    state = frame_state_from(diffusive_front, 16, 2.5)
    evolve = frame_resample_evolver(diffusive_front)
    with pytest.raises(ValueError, match="dt"):
        run_frames(evolve, state, AdaptConfig(), 0.0, 1.0)
    with pytest.raises(ValueError, match="t_final"):
        run_frames(evolve, state, AdaptConfig(), 0.1, -1.0)
    # non-finite horizons and steps are rejected by name, not by OverflowError
    with pytest.raises(ValueError, match="t_final"):
        run_frames(evolve, state, AdaptConfig(), 0.1, math.inf)
    with pytest.raises(ValueError, match="dt"):
        run_frames(evolve, state, AdaptConfig(), math.nan, 1.0)
    with pytest.raises(ValueError, match="t_final / dt"):
        run_frames(evolve, state, AdaptConfig(), 5e-324, 1.0)
    with pytest.raises(ValueError, match="dt"):
        run_2d(
            frame_resample_evolver(product_front), frame_state_2d_from(product_front, 6, 2.0, 6, 2.0),
            AdaptConfig(), math.inf, 1.0,
        )


@pytest.mark.parametrize("profile, mode", [(diffusive_front, MODE_SCALE), (moving_front, MODE_MOVE)], ids=["scale", "move"])
def test_guards_leave_a_frozen_state_untouched(profile, mode):
    # a frozen-in-time profile raises neither the frequency nor the exterior indicator
    def frozen(x, t):
        return profile(x, 0.0)

    records, _ = run_frames(
        frame_resample_evolver(frozen), frame_state_from(frozen, 20, 2.5), AdaptConfig(), 0.1, 1.0, mode
    )
    assert len(records) == 11
    assert all(r.beta == 2.5 and r.x_left == 0.0 for r in records)


# ---------------------------------------------------------------------------
# determinism and error propagation


def test_runs_are_bitwise_deterministic():
    cfg = AdaptConfig()
    texts = []
    for _ in range(2):
        state = frame_state_from(diffusive_front, 24, 2.5)
        records, _ = run_frames(
            frame_resample_evolver(diffusive_front),
            state,
            cfg,
            0.05,
            2.0,
            MODE_SCALE,
            reference=diffusive_front,
        )
        texts.append(history_to_csv(records))
    assert texts[0] == texts[1]


def _failing_at(evolve, t_fail: float):
    def bomb(state, t, dt):
        if t >= t_fail:
            raise RuntimeError("solver blew up")
        return evolve(state, t, dt)

    return bomb


def _nan_from(evolve, t_nan: float):
    """``evolve``, writing one NaN into every state it returns from ``t_nan`` on."""

    def poisoned(state, t, dt):
        state = evolve(state, t, dt)
        if t + dt < t_nan:
            return state
        values = state.values.copy()
        values.flat[3] = math.nan
        return FrameState(state.frames, values, state.lefts)

    return poisoned


def widening_gauss(x, t):
    x = np.asarray(x, dtype=float)
    return np.exp(-((x / (1.0 + t)) ** 2))


def _drive_hermite(wrap):
    initial = frame_state_from(widening_gauss, 16, 1.0, family=HERMITE)
    evolve = wrap(frame_resample_evolver(widening_gauss))
    return run_frames(evolve, initial, AdaptConfig(), 0.1, 1.0, MODE_MOVE_SCALE)


def _drive_frames(wrap):
    initial = frame_state_from(diffusive_front, 16, 2.5)
    evolve = wrap(frame_resample_evolver(diffusive_front))
    return run_frames(evolve, initial, AdaptConfig(), 0.1, 1.0, MODE_MOVE_SCALE)


def _drive_2d(wrap):
    initial = frame_state_2d_from(product_front, 8, 2.0, 8, 2.0)
    evolve = wrap(frame_resample_evolver(product_front))
    return run_2d(evolve, initial, AdaptConfig(), 0.1, 1.0, MODE_MOVE_SCALE)


@pytest.mark.parametrize("drive", [_drive_hermite, _drive_frames, _drive_2d], ids=["hermite", "run_frames", "run_2d"])
def test_evolver_failure_carries_timestamp(drive):
    with pytest.raises(RuntimeError, match=r"failed at t = 0.3.*solver blew up"):
        drive(lambda evolve: _failing_at(evolve, 0.3))


@pytest.mark.parametrize("drive", [_drive_hermite, _drive_frames, _drive_2d], ids=["hermite", "run_frames", "run_2d"])
def test_non_finite_state_fails_loudly(drive):
    # a NaN energy used to read as frequency 1.0, and the ladder accepted
    # every rung down to beta_min
    with pytest.raises(ValueError, match="state energy is nan"):
        drive(lambda evolve: _nan_from(evolve, 0.3))


@pytest.mark.parametrize("mode", [MODE_NONE, MODE_MOVE, MODE_SCALE, MODE_MOVE_SCALE])
def test_non_finite_state_fails_loudly_in_every_mode(mode):
    # the failure names the time of the state that was read, as the records
    # and the CSV write it: step 6 of dt = 0.01, and t = 0 for the initial state
    initial = frame_state_from(diffusive_front, 32, 2.5)
    initial_2d = frame_state_2d_from(product_front, 8, 2.0, 8, 2.0)
    drives = [
        (run_frames, initial, _nan_from(frame_resample_evolver(diffusive_front), 0.06)),
        (run_2d, initial_2d, _nan_from(frame_resample_evolver(product_front), 0.06)),
    ]
    for drive, state, evolve in drives:
        with pytest.raises(ValueError, match=rf"reading failed at t = {6 * 0.01:.17g}: state energy is nan"):
            drive(evolve, state, AdaptConfig(), 0.01, 0.2, mode)
        poisoned = evolve(state, 0.05, 0.01)
        with pytest.raises(ValueError, match=r"reading failed at t = 0: state energy is nan"):
            drive(evolve, poisoned, AdaptConfig(), 0.01, 0.2, mode)


def _poisoned_reference(reference, bad: float, t_bad: float):
    """``reference``, with one value replaced by ``bad`` from ``t_bad`` on."""

    def poisoned(*args):
        values = np.array(reference(*args), dtype=float)
        if args[-1] >= t_bad:
            values.flat[5] = bad
        return values

    return poisoned


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_reference_fails_loudly(bad):
    # a reference that is NaN or infinite at one refined node used to give
    # error = nan, which the records and the CSV then carried
    state = frame_state_from(diffusive_front, 16, 2.5)
    state_2d = frame_state_2d_from(product_front, 8, 2.0, 8, 2.0)
    for current, reference in ((state, diffusive_front), (state_2d, product_front)):
        with pytest.raises(ValueError, match="error sums are not finite"):
            current.error(_poisoned_reference(reference, bad, 0.0), 0.0)
    # through both drivers, with and without the controllers, the failure
    # names the time of the record
    drives = [
        (run_frames, state, diffusive_front, frame_resample_evolver(diffusive_front)),
        (run_2d, state_2d, product_front, frame_resample_evolver(product_front)),
    ]
    for drive, initial, reference, evolve in drives:
        for mode in (MODE_NONE, MODE_MOVE_SCALE):
            poisoned = _poisoned_reference(reference, bad, 0.055)
            with pytest.raises(ValueError, match=rf"reading failed at t = {6 * 0.01:.17g}: error sums are not finite"):
                drive(evolve, initial, AdaptConfig(), 0.01, 0.1, mode, reference=poisoned)


def test_expansion_evolver_must_keep_basis():
    # an evolver that changes a frame's order, beta or family, or an origin,
    # breaks the contract of both drivers, in every mode, at the step where
    # it does so
    initial = frame_state_from(diffusive_front, 16, 2.5)
    initial_2d = frame_state_2d_from(product_front, 8, 2.0, 8, 2.0)
    evolve = frame_resample_evolver(diffusive_front)
    evolve_2d = frame_resample_evolver(product_front)

    def hermite_x(s, t, dt):
        frame = Frame(8, s.frame_x.beta, HERMITE)
        return FrameState2D(frame, s.frame_y, evolve_2d(s, t, dt).values, s.x_left, s.y_left)

    cases = [
        (run_frames, initial, "0", lambda s, t, dt: evolve(s, t, dt).rescaled(0.5 * s.beta)),
        (run_frames, initial, r"0\.3\d*", lambda s, t, dt: evolve(s, t, dt).moved(0.1 if t > 0.25 else 0.0)),
        (run_frames, initial, "0", lambda s, t, dt: frame_state_from(diffusive_front, 18, s.beta, s.x_left, t + dt)),
        (run_frames, initial, "0", lambda s, t, dt: frame_state_from(diffusive_front, 16, s.beta, s.x_left, t + dt,
                                                                     family=HERMITE)),
        (run_2d, initial_2d, "0", lambda s, t, dt: evolve_2d(s, t, dt).rescaled(0.95 * s.frame_y.beta, 1)),
        (run_2d, initial_2d, "0", lambda s, t, dt: evolve_2d(s, t, dt).moved(0.1, 1)),
        (run_2d, initial_2d, "0", lambda s, t, dt: frame_state_2d_from(
            product_front, 10, s.frame_x.beta, 8, s.frame_y.beta, s.x_left, s.y_left, t + dt)),
        (run_2d, initial_2d, "0", hermite_x),
    ]
    for drive, state, t_fail, stepper in cases:
        for mode in (MODE_NONE, MODE_MOVE_SCALE):
            with pytest.raises(ValueError, match=rf"at t = {t_fail} changed a frame or an origin"):
                drive(stepper, state, AdaptConfig(), 0.1, 1.0, mode)


def test_evolver_must_keep_the_number_of_axes():
    # a step that turns a 1-d state into a 2-d one, or back, used to escape
    # as a bare AttributeError ("'FrameState2D' object has no attribute
    # 'frame'", and the reverse for frame_x)
    initial = frame_state_from(diffusive_front, 16, 2.5)
    initial_2d = frame_state_2d_from(product_front, 16, 2.5, 8, 2.0)
    to_2d = lambda s, t, dt: FrameState2D(s.frame, initial_2d.frame_y, initial_2d.values, s.x_left)
    to_1d = lambda s, t, dt: FrameState(s.frame, initial.values, s.x_left)
    for drive, state, stepper in ((run_frames, initial, to_2d), (run_2d, initial_2d, to_1d)):
        for mode in (MODE_NONE, MODE_MOVE_SCALE):
            with pytest.raises(ValueError, match=r"step at t = 0 changed a frame or an origin"):
                drive(stepper, state, AdaptConfig(), 0.1, 1.0, mode)


# ---------------------------------------------------------------------------
# scaling behavior


def test_scale_only_beta_monotone_and_bounded():
    state = frame_state_from(diffusive_front, 24, 2.5)
    cfg = AdaptConfig(beta_min=1.5)
    records, final = run_frames(
        frame_resample_evolver(diffusive_front), state, cfg, 0.05, 6.0, MODE_SCALE
    )
    betas = [r.beta for r in records]
    assert all(b2 <= b1 for b1, b2 in zip(betas, betas[1:]))
    assert all(b >= cfg.beta_min for b in betas)
    # beta_min actually binds on this horizon: without it beta would go lower
    assert final.beta < 2.5
    assert final.beta >= cfg.beta_min


def test_accepted_rescale_never_raises_frequency(monkeypatch):
    accepted = []
    ladder = adapt._scaling_ladder

    def checked(state, axis, f, f0, cfg):
        result = ladder(state, axis, f, f0, cfg)
        if result[2]:
            assert result[0].frequency(axis) <= f
            accepted.append(result[2])
        return result

    monkeypatch.setattr(adapt, "_scaling_ladder", checked)
    state = frame_state_from(diffusive_front, 24, 2.5)
    records, _ = run_frames(
        frame_resample_evolver(diffusive_front), state, AdaptConfig(), 0.05, 4.0, MODE_SCALE
    )
    assert accepted  # the ladder did accept on this horizon
    for rec in records:
        assert rec.freq is not None and 0.0 <= rec.freq <= 1.0


def test_mode_none_never_adapts():
    state = frame_state_from(diffusive_front, 20, 2.5)
    records, final = run_frames(
        frame_resample_evolver(diffusive_front), state, AdaptConfig(), 0.1, 3.0, MODE_NONE
    )
    assert all(r.beta == 2.5 and r.x_left == 0.0 for r in records)
    assert final.beta == 2.5


# ---------------------------------------------------------------------------
# moving behavior


def test_move_only_geometry_invariants():
    state = frame_state_from(moving_front, 24, 2.5)
    cfg = AdaptConfig(mu=1.005, delta=0.004, d_max=0.04)
    records, final = run_frames(
        frame_resample_evolver(moving_front), state, cfg, 0.002, 1.0, MODE_MOVE
    )
    lefts = [r.x_left for r in records]
    assert all(x2 >= x1 for x1, x2 in zip(lefts, lefts[1:]))
    for x1, x2 in zip(lefts, lefts[1:]):
        step = x2 - x1
        assert step <= cfg.d_max + 1e-12
        multiples = step / cfg.delta
        assert abs(multiples - round(multiples)) < 1e-9
    # MoveOnly never rescales: the window width x_R - x_L is constant
    assert all(r.beta == 2.5 for r in records)
    assert final.x_left == pytest.approx(5.0 * 1.0, abs=0.5)


def test_move_search_caps_at_d_max():
    # an evolver that teleports the front far ahead forces the cap
    def jumped(x, t):
        return moving_front(x, t * 40.0)

    state = frame_state_from(jumped, 24, 2.5)
    cfg = AdaptConfig(mu=1.005, delta=0.004, d_max=0.04)
    records, _ = run_frames(
        frame_resample_evolver(jumped), state, cfg, 0.01, 0.05, MODE_MOVE
    )
    steps = np.diff([r.x_left for r in records])
    assert steps.max() <= cfg.d_max + 1e-12
    assert any(abs(s - cfg.d_max) < 1e-12 for s in steps)


# ---------------------------------------------------------------------------
# distinguishability of the mechanisms (short horizons)


@pytest.mark.parametrize(
    "profile, alone, dt", [(diffusive_front, MODE_SCALE, 0.01), (moving_front, MODE_MOVE, 0.002)],
    ids=["diffusive", "translating"],
)
def test_move_scale_is_identical_to_the_one_controller_that_acts(profile, alone, dt):
    # a spreading front never fires the mover, and a translating one never
    # the ladder: the records, which carry beta and the origin, and the
    # final values are those of the mode of the one that acts
    runs = []
    for mode in (alone, MODE_MOVE_SCALE):
        records, final = run_frames(
            frame_resample_evolver(profile), frame_state_from(profile, 40, 2.5), AdaptConfig(), dt, 2.0, mode
        )
        runs.append((history_to_csv(records), final.values.tobytes()))
    assert runs[0] == runs[1]


def test_step_level_spreading_profile_never_triggers_moving():
    # at every step, fresh interpolants of a pure spreading profile never
    # move the frame: the mover must not mistake diffusion for translation
    # (the ladder may rescale; a widening front needs a smaller beta)
    records, _ = run_frames(
        frame_resample_evolver(diffusive_front), frame_state_from(diffusive_front, 40, 2.5), AdaptConfig(),
        0.01, 1.0, MODE_MOVE_SCALE,
    )
    assert len(records) == 101
    assert all(r.x_left == 0.0 for r in records)


def test_record_count_is_steps_plus_initial():
    state = frame_state_from(diffusive_front, 16, 2.5)
    records, _ = run_frames(
        frame_resample_evolver(diffusive_front), state, AdaptConfig(), 0.1, 1.0, MODE_NONE
    )
    assert len(records) == 11
    assert records[0].t == 0.0
    assert records[-1].t == pytest.approx(1.0)


# the ladder's accepted rungs per step (beta = 0.95**rungs), as the deleted
# coefficient-space ``run`` recorded them on the same problem
HERMITE_RUNGS = [0] * 11 + [3] + [11] * 7 + [15] * 4 + [16, 17, 18, 18, 19, 19, 20, 20]


def test_hermite_run_scales_without_sentinel(monkeypatch):
    # The recorded readings of steps 24-30 sit at 1.5e-15 to 3.1e-15, below
    # the order's round-off floor of 9.27e-15.  But the rungs of steps 23,
    # 24, 25, 27 and 29 fire on the evolved state's reading before the
    # ladder: 4.5e-11, 2.5e-12, 2.7e-14, 7.9e-14 and 1.1e-13, that is 2.9 to
    # 4856 floors.  So the floor moves none of them.
    ladder, triggers = adapt._scaling_ladder, []

    def recorded_ladder(state, axis, f, f0, cfg):
        result = ladder(state, axis, f, f0, cfg)
        if result[2]:
            triggers.append(f / state.units[axis].frequency_floor)
        return result

    monkeypatch.setattr(adapt, "_scaling_ladder", recorded_ladder)
    initial = frame_state_from(widening_gauss, 24, 1.0, family=HERMITE)
    records, final = run_frames(
        frame_resample_evolver(widening_gauss), initial, AdaptConfig(), 0.1, 3.0, MODE_SCALE,
        reference=widening_gauss,
    )
    assert [round(math.log(r.beta) / math.log(0.95)) for r in records] == HERMITE_RUNGS
    # 8 steps accept rungs; the nearest to the floor is step 25's, at 2.9 floors
    assert len(triggers) == 8 and min(triggers) > 2.0
    assert final.beta == pytest.approx(0.95**20, rel=1e-13)
    assert all(r.ext is None for r in records)  # no exterior sentinel for this family
    assert all(r.x_left == 0.0 for r in records)
    assert records[-1].error < 1e-8


@pytest.mark.parametrize("beta", [0.7, 1.3])
def test_hermite_frame_matches_the_coefficient_expansion(beta):
    # the frame's functions h_l(beta*x) are those of hermite_basis(N, beta)
    # without the factor sqrt(beta), so the frame and the coefficient
    # expansion share their nodes, frequency indicator and interpolant
    def bump(x, t=0.0):
        return np.exp(-0.5 * (np.asarray(x, dtype=float) - 0.5) ** 2) * np.cos(x)

    state = frame_state_from(bump, 24, beta, family=HERMITE)
    basis = hermite_basis(24, beta)
    rule = quadrature(basis)
    expansion = interpolate(bump(rule.nodes), basis, rule)
    assert np.allclose(state.frame.nodes, rule.nodes, rtol=1e-14, atol=0)
    assert state.frequency() == pytest.approx(frequency_indicator(expansion), rel=1e-9)
    assert state.split_point() is None and state.exterior(state.split_point()) is None
    assert state.error(bump, 0.0) == pytest.approx(relative_error(expansion, bump), rel=1e-6)
    rescaled = state.rescaled(0.95 * beta)
    assert rescaled.frame.family == HERMITE
    _assert_close(rescaled.values, evaluate(expansion, rescaled.frame.nodes), 1e-11)


def _count_calls(monkeypatch, owner, name) -> list:
    """Record the arguments of every call to ``owner.name``, ``self`` first for a method."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_passes(monkeypatch) -> list:
    """Record, in order, every build pass ("pass") and every eval_weighted_all call ("eval").

    An evaluation runs the recurrence kernel too, but sums no columns, so a
    kernel call that sums none is not counted as a pass.
    """
    calls = []

    def counted_pass(*args):
        if args[3]:
            calls.append("pass")
        return basis_pass(*args)

    def counted_eval(basis, x):
        calls.append("eval")
        return eval_weighted_all(basis, x)

    basis_pass = basis_module._basis_pass
    monkeypatch.setattr(basis_module, "_basis_pass", counted_pass)
    monkeypatch.setattr(adapt, "eval_weighted_all", counted_eval)
    return calls


def _unit(frame):
    """The unit operators of a frame's order, from the store."""
    return adapt._unit_frame(frame.order, frame.family)


def _empty_store(monkeypatch, budget: int | None = None) -> None:
    """An empty operator store for the rest of the test, with ``budget`` bytes if given."""
    monkeypatch.setattr(basis_module, "_store", {})
    monkeypatch.setattr(basis_module, "_store_bytes", 0)
    if budget is not None:
        monkeypatch.setattr(basis_module, "_STORE_BYTES", budget)


def _entries(kind: str, family: str, order: int) -> dict:
    """The store's ``kind`` entries of an order by memo key, least recently used first."""
    return {key[3]: value for key, (value, _) in basis_module._store.items() if key[:3] == (kind, family, order)}


def _assert_close(actual: np.ndarray, expected: np.ndarray, rel: float) -> None:
    """Max-norm relative agreement."""
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


def _partial(state, axis: int) -> np.ndarray:
    """A state's values transformed along ``axis`` alone."""
    tomodal = state.units[axis].tomodal
    return tomodal @ state.values if axis == 0 else (tomodal @ state.values.T).T


def _resample(partial: np.ndarray, psi: np.ndarray, axis: int) -> np.ndarray:
    """``partial`` (from :func:`_partial`) summed along ``axis`` against the functions ``psi[l, k]``."""
    return partial @ psi if axis == partial.ndim - 1 else psi.T @ partial


def _check_frame_resampling(monkeypatch, state) -> None:
    """Each axis of ``state`` moved by 0.01 and rescaled by 0.95: exact, and memoized per axis."""
    axes = range(len(state.frames))
    targets = [Frame(frame.order, 0.95 * frame.beta) for frame in state.frames]

    def derived():
        """The values of the state moved along each axis, then of it rescaled along each axis."""
        return ([state.moved(0.01, axis).values for axis in axes]
                + [state.rescaled(target.beta, axis).values for axis, target in zip(axes, targets)])

    calls = _count_calls(monkeypatch, adapt, "eval_weighted_all")
    first = derived()
    assert len(calls) == len(axes)  # the rescales'; a move's miss shifts the order's basis
    again = derived()
    assert len(calls) == len(axes)
    assert all(np.array_equal(a, b) for a, b in zip(again, first))
    moved, rescaled = first[: len(axes)], first[len(axes) :]
    # a move's miss does not depend on the store's history: in an empty
    # store it is rebuilt to the same bits, evaluating no basis
    _empty_store(monkeypatch)
    calls.clear()
    rebuilt = [state.moved(0.01, axis).values for axis in axes]
    assert calls == []
    assert all(np.array_equal(a, b) for a, b in zip(rebuilt, moved))
    for axis, frame, target in zip(axes, state.frames, targets):
        unit, partial = state.units[axis], _partial(state, axis)
        # the unit-variable oracle: a move by d reads the functions at
        # y + round(beta*d, 12), a rescale to beta' at y*round(beta/beta', 12)
        y_moved = unit.nodes + round(frame.beta * 0.01, 12)
        y_rescaled = unit.nodes * round(frame.beta / target.beta, 12)
        _assert_close(moved[axis], _resample(partial, damped_laguerre_all(frame.order, y_moved), axis), 1e-12)
        assert np.array_equal(rescaled[axis], _resample(partial, damped_laguerre_all(frame.order, y_rescaled), axis))
        # the x-variable evaluation agrees to rounding
        for values, x in ((moved, frame.nodes + 0.01), (rescaled, target.nodes)):
            _assert_close(values[axis], _resample(partial, damped_laguerre_all(frame.order, frame.beta * x), axis), 1e-12)


def test_frame_resampling_is_exact_and_memoized(monkeypatch):
    # orders no other test uses, so the first calls are cold
    _check_frame_resampling(monkeypatch, frame_state_from(moving_front, 37, 1.7, t=0.5))


def test_2d_frame_resampling_is_exact_and_memoized(monkeypatch):
    _check_frame_resampling(monkeypatch, frame_state_2d_from(product_front, 11, 1.7, 13, 2.3, t=0.5))


def _scratch_coeffs(state) -> np.ndarray:
    """The tensor transform of a state's values, one product per axis."""
    coeffs = state.units[0].tomodal @ state.values
    return coeffs if len(state.units) == 1 else coeffs @ state.units[1].tomodal.T


def _scratch_frequencies(coeffs: np.ndarray) -> list:
    """Each axis's frequency reading: the share of the energy c^2 in the axis's top max(1, N//3) modes."""
    energy = coeffs * coeffs
    total = float(energy.sum())
    readings = []
    for axis, size in enumerate(coeffs.shape):
        tail = energy[(slice(None),) * axis + (slice(size - max(1, (size - 1) // 3), None),)]
        readings.append(min(1.0, math.sqrt(tail.sum() / total)))
    return readings


def _axis_values(state, axis: int) -> np.ndarray:
    """The values that the readings of ``axis`` read: the state's own on one axis, the marginal ones on two."""
    return state.values if len(state.frames) == 1 else marginal_state(state, axis).values


def _scratch_indicators(frame, values: np.ndarray, offsets, unit: bool = True) -> tuple:
    """Frequency and exterior ratios from nodal values, with no memo.

    ``frame`` is a :class:`Frame` or a :func:`_direct_frame` build.  The
    frequency is the ratio of the squared coefficients, each of whose
    functions has the same norm.  The exterior ratios come from the
    derivative's own coefficients (a reverse cumsum), independently of the
    frame's derivative memo, and integrate with the frame's Gauss weights
    in x.  The tails evaluate in the unit variable, as a frame does, or
    with ``unit=False`` at the shifted x-nodes.
    """
    coeffs = (frame.tomodal if isinstance(frame, SimpleNamespace) else _unit(frame).tomodal) @ values
    weights = quadrature(laguerre_basis(frame.order, frame.beta)).weights
    above = np.zeros_like(coeffs)
    above[:-1] = np.cumsum(coeffs[:0:-1])[::-1]
    dcoeffs = -frame.beta * (above + 0.5 * coeffs)
    unit_nodes = adapt._unit_frame(frame.order, LAGUERRE).nodes

    def tail(shift: float) -> float:
        y = unit_nodes + round(frame.beta * shift, 12) if unit else frame.beta * (frame.nodes + shift)
        dv = dcoeffs @ damped_laguerre_all(frame.order, y)
        return float(np.sum(weights * dv * dv))

    whole = tail(0.0)
    exterior = [
        math.exp(-0.5 * frame.beta * float(s)) * math.sqrt(max(0.0, tail(float(s)) / whole))
        for s in offsets
    ]
    return _scratch_frequencies(coeffs)[0], exterior


def _memo_free_exterior(frame: Frame, values: np.ndarray, offsets) -> list:
    """The exterior ratios in the frame's own form, exp(-beta*s/2)*|G(s) c|/|G(0) c|.

    ``offsets[0]`` is the frame's split.  Its ratio and the denominator come
    from one product with G(0) stacked on G(s*), s* = round(split, 12) in
    the unit variable, as a state reads its own split; every other offset
    reads G at its unit-variable shift s, as a miss of :meth:`adapt._UnitFrame.dpsi_at`
    builds it: the basis at s* shifted by s - s* when s >= s*, else the
    basis at the nodes shifted by s (:func:`adapt._shift`).  Every base is
    evaluated afresh, so a memoized reading must equal these bit for bit.
    """
    unit = adapt._unit_frame(frame.order, LAGUERRE)
    coeffs = unit.tomodal @ values
    split = round(unit.split, 12)

    def g(shift: float) -> np.ndarray:
        base = split if shift >= split else 0.0
        return unit.dpsi(adapt._shift(damped_laguerre_all(frame.order, unit.nodes + base), shift - base))

    stacked = np.vstack((g(0.0), g(split))) @ coeffs
    whole, tail = stacked[: frame.order + 1], stacked[frame.order + 1 :]
    whole = math.sqrt(whole.dot(whole))
    ratios = [math.exp(-0.5 * split) * (math.sqrt(tail.dot(tail)) / whole)]
    for s in offsets[1:]:
        shifted = g(round(frame.beta * float(s), 12)) @ coeffs
        ratios.append(math.exp(-0.5 * frame.beta * float(s)) * (math.sqrt(shifted.dot(shifted)) / whole))
    return ratios


def _search_offsets(state, axis: int, cfg: AdaptConfig) -> list:
    """The sentinel offsets a full mover search along ``axis`` evaluates, as the state forms them."""
    split, left = state.split_point(axis), state.lefts[axis]
    n_max = int(math.floor(cfg.d_max / cfg.delta + 1e-12))
    return [split - left] + [(split + n * cfg.delta) - left for n in range(1, n_max + 1)]


def _check_frame_state_memo(monkeypatch, state) -> None:
    """The memoized readings of ``state`` and of its derived states against memo-free ones; one set-up per axis."""
    cfg = AdaptConfig(mu=1.003, delta=0.005, d_max=0.1)
    axes = range(len(state.frames))
    coeffs = _scratch_coeffs(state)
    assert np.array_equal(state._coeffs, coeffs)
    frequencies = _scratch_frequencies(coeffs)
    setups = _count_calls(monkeypatch, FrameState, "_set_up")
    for axis, frame in zip(axes, state.frames):
        offsets, values = _search_offsets(state, axis, cfg), _axis_values(state, axis)
        exterior = _memo_free_exterior(frame, values, offsets)
        assert exterior == pytest.approx(_scratch_indicators(frame, values, offsets)[1], rel=1e-12, abs=0)
        # the x-variable evaluation agrees to rounding
        assert exterior == pytest.approx(_scratch_indicators(frame, values, offsets, unit=False)[1], rel=1e-12, abs=0)
        split = state.split_point(axis)
        e = state.exterior(split, axis)
        assert e == exterior[0]
        # a baseline no candidate can meet runs the search to its cap
        assert adapt._moving_distance(state, axis, e, 1e-300, cfg) == cfg.d_max
        assert [state.exterior(split + n * cfg.delta, axis) for n in range(len(exterior))] == exterior
        assert state.frequency(axis) == frequencies[axis]
    assert setups == [(state, axis) for axis in axes]
    # a derived state sets up its own indicators from its own values, each axis once
    for derived in ([state.moved(2 * cfg.delta, axis) for axis in axes]
                    + [state.rescaled(0.95 * frame.beta, axis) for axis, frame in zip(axes, state.frames)]):
        setups.clear()
        coeffs = _scratch_coeffs(derived)
        assert np.array_equal(derived._coeffs, coeffs)
        assert [derived.frequency(axis) for axis in axes] == _scratch_frequencies(coeffs)
        for axis, frame in zip(axes, derived.frames):
            offsets, values = _search_offsets(derived, axis, cfg)[:1], _axis_values(derived, axis)
            e = derived.exterior(derived.split_point(axis), axis)
            assert e == _memo_free_exterior(frame, values, offsets)[0]
            assert e == pytest.approx(_scratch_indicators(frame, values, offsets)[1][0], rel=1e-12, abs=0)
        assert setups == [(derived, axis) for axis in axes]


def test_frame_state_memo_is_exact_and_set_up_once(monkeypatch):
    # orders and scales no other test uses, so the memos are cold
    _check_frame_state_memo(monkeypatch, frame_state_from(moving_front, 29, 1.9, x_left=0.3, t=0.4))


def test_2d_frame_state_memo_is_exact_and_set_up_once(monkeypatch):
    _check_frame_state_memo(monkeypatch, frame_state_2d_from(product_front, 9, 1.6, 10, 2.1, x_left=0.2, y_left=0.1, t=0.3))


def test_frame_state_values_are_a_read_only_copy():
    frame = Frame(12, 2.0)
    mine = moving_front(frame.nodes, 0.2)
    kept = mine.copy()
    state = FrameState(frame, mine)
    state.frequency()
    with pytest.raises(ValueError):
        state.values[0] = 1.0
    mine[0] = -1.0
    assert np.array_equal(state.values, kept)
    state_2d = frame_state_2d_from(product_front, 6, 2.0, 7, 2.0)
    mine_2d = np.array(state_2d.values)
    state_2d = FrameState2D(state_2d.frame_x, state_2d.frame_y, mine_2d)
    with pytest.raises(ValueError):
        state_2d.values[0] = 1.0
    with pytest.raises(ValueError):
        state_2d._coeffs[0] = 1.0
    assert mine_2d.flags.writeable


def test_frame_state_rejects_values_of_the_wrong_shape():
    frame = Frame(12, 2.0)
    values = moving_front(frame.nodes, 0.2)
    for wrong in (values[:, None], values[None, :], values[:-1], np.float64(1.0)):
        with pytest.raises(ValueError, match=r"values shape .* != \(13,\)"):
            FrameState(frame, wrong)
    # the evolver samples by the broadcast rule, so it names the grid shape
    with pytest.raises(ValueError, match=r"shape \(12,\), which does not broadcast to the grid shape \(13,\)"):
        frame_resample_evolver(lambda x, t: values[:-1])(FrameState(frame, values), 0.0, 0.1)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_frame_state_rejects_a_non_finite_origin(bad):
    # an infinite origin used to run: every record had x_left = inf and
    # ext = None (-inf read finite), and a NaN one failed only at its first
    # move, as "unit shift nan"
    frame, frame_y = Frame(12, 2.0), Frame(9, 1.5)
    values = moving_front(frame.nodes, 0.2)
    grid = np.ones((13, 10))
    with pytest.raises(ValueError, match="origin of axis 0 must be finite"):
        FrameState(frame, values, bad)
    with pytest.raises(ValueError, match="origin of axis 0 must be finite"):
        frame_state_from(moving_front, 12, 2.0, x_left=bad)
    with pytest.raises(ValueError, match="origin of axis 0 must be finite"):
        FrameState2D(frame, frame_y, grid, bad, 0.0)
    with pytest.raises(ValueError, match="origin of axis 1 must be finite"):
        FrameState2D(frame, frame_y, grid, 0.0, bad)
    with pytest.raises(ValueError, match="origin of axis 1 must be finite"):
        FrameState((frame, frame_y), grid, (0.0, bad))


def test_frame_state_of_one_or_two_axes():
    # one frame and origin, or a tuple of each; FrameState2D is the same state
    frame, frame_y = Frame(12, 2.0), Frame(9, 1.5)
    values = moving_front(frame.nodes, 0.2)
    grid = np.outer(values, np.exp(-frame_y.nodes))
    one = FrameState(frame, values, 0.3)
    assert (one.frames, one.lefts, one.frame, one.x_left) == ((frame,), (0.3,), frame, 0.3)
    assert FrameState((frame,), values, (0.3,)).frequency() == one.frequency()
    two, shim = FrameState((frame, frame_y), grid, (0.3, 0.1)), FrameState2D(frame, frame_y, grid, 0.3, 0.1)
    assert (two.frames, two.lefts) == (shim.frames, shim.lefts) == ((frame, frame_y), (0.3, 0.1))
    for axis in (0, 1):
        assert two.frequency(axis) == shim.frequency(axis)
        assert two.exterior(two.split_point(axis), axis) == shim.exterior(shim.split_point(axis), axis)
        assert type(shim.moved(0.01, axis)) is FrameState2D and type(two.rescaled(1.9, axis)) is FrameState
    for frames, lefts in (((frame, frame_y), (0.0,)), ((frame, frame_y, frame), (0.0, 0.0, 0.0)), ((), ())):
        with pytest.raises(ValueError, match="one or two axes"):
            FrameState(frames, grid, lefts)


def _memo_names(cls) -> list:
    """The names of the read-once memos a state class defines or inherits."""
    return [name for owner in cls.__mro__ for name, value in vars(owner).items() if isinstance(value, adapt._memoized)]


def _exercised_states() -> tuple:
    """A 1-d and a 2-d state with every reading, set-up and the error read three times."""
    state = frame_state_from(moving_front, 24, 2.0, x_left=0.3, t=0.2)
    state_2d = frame_state_2d_from(product_front, 9, 1.6, 10, 2.1, x_left=0.2, y_left=0.1, t=0.3)
    for _ in range(3):
        state.frequency()
        state.exterior(state.split_point())
        state.exterior(state.split_point() + 0.01)
        state.error(moving_front, 0.2)
        state.moved(0.01)
        state.rescaled(1.9)
        state_2d._coeffs
        state_2d.frequency(0)
        state_2d.frequency(1)
        state_2d.exterior(state_2d.split_point(0), 0)
        state_2d.exterior(state_2d.split_point(1) + 0.01, 1)
        state_2d.error(product_front, 0.3)
    return state, state_2d


def test_lock_free_memos_run_once_per_state(monkeypatch):
    runs = []
    assert _memo_names(FrameState2D) == _memo_names(FrameState)  # the 2-d class adds none
    for name in _memo_names(FrameState):
        memo = getattr(FrameState, name)  # on the class, the memo itself

        def counted(owner, _compute=memo.compute, _name=name):
            runs.append((owner, _name))  # holds the state, so no id is reused
            return _compute(owner)

        monkeypatch.setattr(memo, "compute", counted)
    setups = _count_calls(monkeypatch, FrameState, "_set_up")
    state, state_2d = _exercised_states()
    keys = [(id(owner), name) for owner, name in runs]
    assert len(keys) == len(set(keys))
    # each state runs every memo once and sets up each axis once, and no
    # other state runs either: no reading goes through a derived state
    for owner in (state, state_2d):
        assert sorted(name for read, name in runs if read is owner) == sorted(_memo_names(FrameState))
    assert all(owner is state or owner is state_2d for owner, _ in runs)
    assert [(owner, axis) for owner, axis in setups] == [(state, 0), (state_2d, 0), (state_2d, 1)]
    # each memo is a plain instance attribute once read; the exterior
    # set-ups are a list with one entry per axis, which a one-axis state
    # takes from its own coefficients and a two-axis one from its marginal
    # values
    for owner in (state, state_2d):
        assert all(name in vars(owner) for name in _memo_names(FrameState))
        assert len(owner._exteriors) == len(owner.frames) and all(type(entry) is tuple for entry in owner._exteriors)
    assert state._exteriors[0][0] is state._coeffs
    # a two-axis set-up holds, bit for bit, the coefficients of the one-axis
    # state on the axis's marginal values, which no reading builds
    for axis in (0, 1):
        assert np.array_equal(state_2d._exteriors[axis][0], marginal_state(state_2d, axis)._coeffs)


def test_memo_names_refuse_assignment():
    fresh = frame_state_from(moving_front, 24, 2.0, t=0.2)
    fresh_2d = frame_state_2d_from(product_front, 9, 1.6, 10, 2.1, t=0.3)
    for target in (fresh, fresh_2d, *_exercised_states()):
        for name in _memo_names(type(target)) + ["_exteriors"]:
            before = vars(target).get(name)
            with pytest.raises(FrozenInstanceError):
                setattr(target, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(target, name)
            assert vars(target).get(name) is before


def test_memo_arrays_stay_read_only():
    state, state_2d = _exercised_states()
    targets = (state, state_2d, marginal_state(state_2d, 0), marginal_state(state_2d, 1))
    arrays = [
        vars(target)[name]
        for target in targets
        for name in _memo_names(type(target))
        if isinstance(vars(target).get(name), np.ndarray)
    ]
    # the exterior set-ups' coefficients: the 1-d state's own, and one per
    # axis of the marginal values of the 2-d state
    assert state._exteriors[0][0] is state._coeffs
    arrays += [coeffs for coeffs, _, _ in state_2d._exteriors]
    arrays.append(state.units[0].pair)
    assert len(arrays) == 5  # the 1-d coefficients, the 2-d ones, two marginals', the pair
    # the values of every state are read-only too, also where a move, a
    # rescale or the resampling evolver stores its own array without a copy
    derived = (state.moved(0.01), state.rescaled(1.9), state_2d.moved(0.01, 1), state_2d.rescaled(2.0, 1),
               frame_resample_evolver(moving_front)(state, 0.2, 0.1),
               frame_resample_evolver(product_front)(state_2d, 0.3, 0.1))
    arrays += [target.values for target in targets + derived]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0


def _check_readings_memoized(monkeypatch, state) -> None:
    """Repeated readings of ``state`` are memoized; a two-axis state's axes read their marginal values."""
    axes = range(len(state.frames))
    coeffs = _scratch_coeffs(state)
    energy, frequencies = coeffs * coeffs, _scratch_frequencies(coeffs)
    exteriors = []
    for axis, frame in zip(axes, state.frames):
        split, left, values = state.split_point(axis), state.lefts[axis], _axis_values(state, axis)
        offsets = [split - left, split + 0.05 - left]
        exteriors.append(_memo_free_exterior(frame, values, offsets))
        assert exteriors[-1] == pytest.approx(_scratch_indicators(frame, values, offsets)[1], rel=1e-12, abs=0)
    setups = _count_calls(monkeypatch, FrameState, "_set_up")
    tails = _count_calls(monkeypatch, adapt._UnitFrame, "dpsi_at")
    frequency = _count_calls(monkeypatch, adapt, "_high_mode_fraction")
    for axis in axes:
        for _ in range(3):
            assert state.frequency(axis) == frequencies[axis]
            assert state.exterior(state.split_point(axis), axis) == exteriors[axis][0]
        # the first frequency reading reads every axis from one energy
        # matrix, and an axis's split reading is its one set-up's
        assert (len(frequency), len(setups), len(tails)) == (len(axes), axis + 1, 2 * axis)
        # any other split is evaluated on every call, over the one set-up
        for _ in range(2):
            assert state.exterior(state.split_point(axis) + 0.05, axis) == exteriors[axis][1]
        assert (len(setups), len(tails)) == (axis + 1, 2 * axis + 2)
    # one fraction per axis, of one energy matrix and its one total
    assert [(start, axis) for _, _, start, axis in frequency] == [
        (frame.order + 1 - frame.order // 3, axis) for axis, frame in enumerate(state.frames)
    ]
    assert all(np.array_equal(read, energy) and read is frequency[0][0] for read, _, _, _ in frequency)
    assert [read_total for _, read_total, _, _ in frequency] == [float(energy.sum())] * len(axes)
    # a derived state reads its own indicators
    moved = state.moved(0.01)
    moved.frequency()
    moved.exterior(moved.split_point())
    assert (len(frequency), len(setups), len(tails)) == (2 * len(axes), len(axes) + 1, 2 * len(axes))


def test_frame_state_readings_are_memoized(monkeypatch):
    _check_readings_memoized(monkeypatch, frame_state_from(moving_front, 24, 2.0, x_left=0.3, t=0.2))


def test_frame_state_2d_readings_are_memoized(monkeypatch):
    _check_readings_memoized(monkeypatch, frame_state_2d_from(product_front, 9, 1.6, 10, 2.1, x_left=0.2, y_left=0.1, t=0.3))


@pytest.mark.parametrize("mode", [MODE_MOVE, MODE_SCALE, MODE_MOVE_SCALE])
def test_run_2d_reads_each_reading_once_per_state(monkeypatch, mode):
    # the controllers and the per-step record share each state's readings:
    # over a whole run, no state evaluates a frequency or an exterior twice
    cfg = AdaptConfig(mu=1.003, delta=0.005, d_max=0.1)
    setups = _count_calls(monkeypatch, FrameState, "_set_up")
    exterior = _count_calls(monkeypatch, FrameState, "exterior")
    frequency = _count_calls(monkeypatch, adapt, "_high_mode_fraction")
    records, _ = run_2d(
        frame_resample_evolver(product_front), frame_state_2d_from(product_front, 12, 2.0, 12, 2.0),
        cfg, 0.05, 1.0, mode,
    )
    tails = [(state, split, axis) for state, split, axis in exterior if split != state.split_point(axis)]
    assert len(records) == 21 and len(frequency) >= 42 and len(setups) >= 42
    assert len(tails) > 0 if mode != MODE_SCALE else len(tails) == 0
    # the calls hold their arguments, so no id is reused within one list:
    # one frequency reading per axis of a state's energy, one set-up per
    # axis of a state, and no shifted reading twice
    assert len({(id(energy), axis) for energy, _, _, axis in frequency}) == len(frequency)
    assert len({(id(state), axis) for state, axis in setups}) == len(setups)
    assert len({(id(state), split, axis) for state, split, axis in tails}) == len(tails)


def _non_separable(x, y, t):
    return np.exp(-((x - 1.0) ** 2) - (y - 2.0) ** 2 - x * y / 10.0 - t)


def test_2d_references_are_called_on_open_grids():
    shapes = []

    def recording(x, y, t):
        shapes.append((np.shape(x), np.shape(y)))
        return _non_separable(x, y, t)

    state = frame_state_2d_from(recording, 9, 1.5, 6, 2.0)
    evolved = frame_resample_evolver(recording)(state, 0.0, 0.1)
    evolved.error(recording, 0.1)
    assert shapes == [((10, 1), (1, 7)), ((10, 1), (1, 7)), ((20, 1), (1, 14))]


def test_resample_evolver_2d_takes_any_two_axis_state():
    # it used to read frame_x, so a generic two-axis state failed at the
    # first step with an AttributeError
    frames, lefts = (Frame(9, 1.5), Frame(6, 2.0)), (0.2, 0.1)
    generic = FrameState(frames, _non_separable(frames[0].nodes[:, None] + 0.2, frames[1].nodes + 0.1, 0.0), lefts)
    shim = FrameState2D(*frames, generic.values, *lefts)
    kept = np.ones((10, 7))

    def cached(x, y, t):
        return kept  # the reference's own array

    for state in (generic, shim):
        evolved = frame_resample_evolver(_non_separable)(state, 0.0, 0.1)
        assert type(evolved) is type(state)
        assert (evolved.frames, evolved.lefts, evolved.units) == (state.frames, state.lefts, state.units)
        grid = np.meshgrid(state.nodes(0), state.nodes(1), indexing="ij")
        assert np.array_equal(evolved.values, _non_separable(*grid, 0.1))
        # the samples are copied and made read-only; the reference's array is left as it was
        copied = frame_resample_evolver(cached)(state, 0.0, 0.1).values
        assert copied is not kept and np.array_equal(copied, kept)
        assert not copied.flags.writeable and kept.flags.writeable
        records, final = run_2d(
            frame_resample_evolver(product_front), state, AdaptConfig(mu=1.003, delta=0.005, d_max=0.1),
            0.1, 1.0, MODE_MOVE_SCALE, reference=product_front,
        )
        assert type(final) is type(state) and len(records) == 11
    assert records[-1].x_left > 0.2  # the movers ran on the generic state too


def test_open_grids_match_full_grid_sampling():
    state = frame_state_2d_from(_non_separable, 14, 1.5, 11, 2.0, x_left=0.2, y_left=0.1, t=0.3)
    grid_x, grid_y = np.meshgrid(state.nodes(0), state.nodes(1), indexing="ij")
    assert np.array_equal(state.values, _non_separable(grid_x, grid_y, 0.3))
    evolved = frame_resample_evolver(_non_separable)(state, 0.3, 0.1)
    assert np.array_equal(evolved.values, _non_separable(grid_x, grid_y, 0.4))
    # an oracle error on the full refined grid with the outer grid of the
    # doubled-order rules' weights for plain dx
    fx, fy = state.frame_x, state.frame_y
    grid_x, grid_y = np.meshgrid(
        state.x_left + fx.refined_nodes, state.y_left + fy.refined_nodes, indexing="ij"
    )
    approx = _unit(fx).psi_refined.T @ state._coeffs @ _unit(fy).psi_refined
    rx, ry = (quadrature(laguerre_basis(2 * f.order + 1, f.beta)) for f in (fx, fy))
    assert np.array_equal(rx.nodes, fx.refined_nodes) and np.array_equal(ry.nodes, fy.refined_nodes)
    weights = np.multiply.outer(modified_weights(rx), modified_weights(ry))
    for t in (0.3, 0.5):
        exact = _non_separable(grid_x, grid_y, t)
        oracle = math.sqrt(np.sum(weights * (approx - exact) ** 2) / np.sum(weights * exact**2))
        assert oracle > 1e-12
        assert state.error(_non_separable, t) == pytest.approx(oracle, rel=1e-13, abs=0)


def test_open_grid_reference_results_broadcast_or_raise():
    state = frame_state_2d_from(lambda x, y, t: 2.0, 8, 1.5, 6, 2.0)
    assert state.values.shape == (9, 7)
    assert np.all(state.values == 2.0)
    assert state.values.flags.owndata and not state.values.flags.writeable
    full = lambda x, y, t: np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), 2.0)
    assert state.error(lambda x, y, t: 2.0, 0.0) == state.error(full, 0.0)
    wrong = lambda x, y, t: np.ones((3, 3))
    with pytest.raises(ValueError, match=r"\(3, 3\).*grid shape \(9, 7\)"):
        frame_state_2d_from(wrong, 8, 1.5, 6, 2.0)
    with pytest.raises(ValueError, match=r"\(3, 3\).*grid shape \(9, 7\)"):
        frame_resample_evolver(wrong)(state, 0.0, 0.1)
    with pytest.raises(ValueError, match=r"\(3, 3\).*grid shape \(18, 14\)"):
        state.error(wrong, 0.0)


def test_one_axis_reference_results_broadcast_or_raise():
    # a one-axis reference follows the rule of a two-axis one: a constant
    # fills the node grid, and a result that does not broadcast names its shape
    state = frame_state_from(lambda x, t: 2.0, 8, 1.5)
    assert state.values.shape == (9,) and np.all(state.values == 2.0)
    evolved = frame_resample_evolver(lambda x, t: 3.0)(state, 0.0, 0.1)
    assert evolved.values.shape == (9,) and np.all(evolved.values == 3.0)
    assert evolved.values.flags.owndata and not evolved.values.flags.writeable
    wrong = lambda x, t: np.ones(3)
    with pytest.raises(ValueError, match=r"\(3,\).*grid shape \(9,\)"):
        frame_state_from(wrong, 8, 1.5)
    with pytest.raises(ValueError, match=r"\(3,\).*grid shape \(9,\)"):
        frame_resample_evolver(wrong)(state, 0.0, 0.1)


@pytest.mark.parametrize(
    "families", [(LAGUERRE,), (LAGUERRE, LAGUERRE), (LAGUERRE, HERMITE)], ids=["1d", "2d", "laguerre-hermite"]
)
def test_resample_evolver_keeps_the_state_it_was_given(families):
    # one evolver for every state: the next state is of the input's class,
    # on its frames and origins, and takes over its unit operators
    frames = tuple(Frame(9 + axis, 1.5 + 0.5 * axis, family) for axis, family in enumerate(families))
    lefts = (0.2, -0.3)[: len(frames)]
    if len(frames) == 1:
        def reference(x, t):
            return np.exp(-x - t)
    else:
        def reference(x, y, t):
            return np.exp(-x - t) * np.exp(-0.5 * y * y)

    def sampled(frames, lefts, t):
        points = [left + frame.nodes for frame, left in zip(frames, lefts)]
        return reference(*np.meshgrid(*points, indexing="ij", sparse=True), t)

    if len(frames) == 1:
        initial = frame_state_from(reference, 9, 1.5, lefts[0])
    else:
        initial = frame_state_2d_from(reference, 9, 1.5, 10, 2.0, *lefts, family_y=families[1])
    assert initial.frames == frames
    for state in (initial, initial.moved(0.01), initial.rescaled(1.4)):
        evolved = frame_resample_evolver(reference)(state, 0.3, 0.1)
        assert type(evolved) is type(state)
        assert (evolved.frames, evolved.lefts) == (state.frames, state.lefts)
        assert evolved.units is state.units
        assert np.array_equal(evolved.values, sampled(state.frames, state.lefts, 0.4))


@pytest.mark.parametrize(
    "families", [(LAGUERRE,), (LAGUERRE, LAGUERRE), (LAGUERRE, HERMITE)], ids=["1d", "2d", "laguerre-hermite"]
)
def test_resample_evolver_steps_the_history_of_the_public_constructor(families):
    # the library's evolver builds each state on the input's unit operators;
    # an evolver that samples the same grid and builds each state with the
    # public FrameState(frames, values, lefts) steps the same run, bit for bit
    front = lambda x, t: expit(-(x - 2.0 - t) / (2.0 + 0.5 * t))
    if families == (LAGUERRE,):
        reference = front
    elif families[1] == LAGUERRE:
        reference = lambda x, y, t: front(x, t) * front(y, 0.5 * t)
    else:
        reference = lambda x, y, t: front(x, t) * np.exp(-0.5 * (y / (1.0 + 0.5 * t)) ** 2)
    frames = tuple(Frame(12, 2.0, family) for family in families)
    lefts = (0.0,) * len(frames)

    def sampled(frames, lefts, t):
        points = [left + frame.nodes for frame, left in zip(frames, lefts)]
        return reference(*np.meshgrid(*points, indexing="ij", sparse=True), t)

    def public(state, t, dt):
        return FrameState(state.frames, sampled(state.frames, state.lefts, t + dt), state.lefts)

    initial = FrameState(frames, sampled(frames, lefts, 0.0), lefts)
    cfg = AdaptConfig(mu=1.003, delta=0.005, d_max=0.1)
    runs = [run_frames(evolver, initial, cfg, 0.05, 2.0, MODE_MOVE_SCALE, reference=reference)
            for evolver in (frame_resample_evolver(reference), public)]
    (records, final), (public_records, public_final) = runs
    assert final.lefts[0] > 0.5 and final.frames[0].beta != 2.0
    assert records == public_records
    assert (final.frames, final.lefts) == (public_final.frames, public_final.lefts)
    assert np.array_equal(final.values, public_final.values)


def _alpha_one_tails(frame: Frame, profiles, offsets) -> list:
    """Each profile's exterior ratios with the derivative taken in scipy's alpha = 1 family.

    One list per profile.  The alpha = 1 functions depend only on the
    shift, so each shift evaluates them once for every profile.  Nodes
    whose weight underflows to 0 are left out: they add nothing, and the
    undamped polynomials overflow there.
    """
    coeffs = [_unit(frame).tomodal @ values for values in profiles]
    degrees = np.arange(frame.order)[:, None]
    weights = quadrature(laguerre_basis(frame.order, frame.beta)).weights
    kept = weights > 0.0

    def tails(shift: float) -> list:
        points = frame.nodes[kept] + shift
        y = frame.beta * points
        damped_alpha_one = np.exp(-0.5 * y) * eval_genlaguerre(degrees, 1.0, y)
        damped = damped_laguerre_all(frame.order, y)
        sums = []
        for c in coeffs:
            dv = (-frame.beta * c[1:]) @ damped_alpha_one - 0.5 * frame.beta * (c @ damped)
            sums.append(float(np.sum(weights[kept] * dv * dv)))
        return sums

    whole = tails(0.0)
    shifted = [tails(s) for s in offsets]
    return [
        [math.exp(-0.5 * frame.beta * s) * math.sqrt(at[i] / whole[i]) for s, at in zip(offsets, shifted)]
        for i in range(len(coeffs))
    ]


@pytest.mark.parametrize("order", [16, 48, 128, 256, 363])
@pytest.mark.parametrize("beta", [0.2, 1.0, 2.5])
def test_frame_tails_match_alpha_one_derivative(order, beta):
    frame = Frame(order, beta)
    x = frame.nodes
    profiles = (
        expit(-(x - 5.0 / beta) / (2.0 / beta)),
        expit(-(x - frame.split_rel) / (0.2 * frame.split_rel)),
        np.exp(-0.25 * beta * x),
    )
    # the ratio carries exp(-beta*offset/2), so past the default split of
    # the larger orders it is far below 1e-12; fixed unit offsets keep
    # every case compared
    offsets = [frame.split_rel + n * 0.004 / beta for n in (0, 1, 10)]
    offsets += [y / beta for y in (0.5, 5.0, 20.0, 40.0)]
    compared = 0
    for values, tails in zip(profiles, _alpha_one_tails(frame, profiles, offsets)):
        for offset, expected in zip(offsets, tails):
            if expected > 1e-12:
                actual = FrameState(frame, values).exterior(offset)
                assert actual == pytest.approx(expected, rel=1e-10, abs=0)
                compared += 1
    assert compared >= 8


def test_fresh_interpolant_error_is_small_and_seen_between_nodes():
    state = frame_state_from(diffusive_front, 40, 2.5)
    assert state.error(diffusive_front, 0.0) < 1e-10
    # a visibly wrong state has a visibly large interpolant error
    wrong = FrameState(state.frame, state.values * 1.5, state.x_left)
    assert wrong.error(diffusive_front, 0.0) > 0.1
    # against a zero reference it is the interpolant's absolute L2 norm in x
    refined = quadrature(laguerre_basis(81, 2.5))
    interpolant = (state.units[0].tomodal @ state.values) @ damped_laguerre_all(40, 2.5 * refined.nodes)
    norm = math.sqrt(float(np.sum(modified_weights(refined) * interpolant**2)))
    assert state.error(lambda x, t: 0.0, 0.0) == pytest.approx(norm, rel=1e-12)


def test_error_is_the_plain_l2_norm_in_x():
    # a 1e-3 bump at the centre of a front 5 units right of the origin
    # reads 4.35e-4 in L2(dx); under the Gauss-Laguerre weights, which
    # integrate exp(-beta*x) dx, it read 2.9e-6
    def front(x, t):
        return expit(-(np.asarray(x, dtype=float) - 5.0) / 2.0)

    def bumped(x, t):
        return front(x, t) + 1e-3 * np.exp(-(((np.asarray(x, dtype=float) - 5.0) / 0.5) ** 2))

    state = frame_state_from(front, 128, 2.5)
    bump_norm = quad(lambda x: (bumped(x, 0.0) - front(x, 0.0)) ** 2, 0.0, 60.0, points=[5.0], limit=200)[0]
    norm = quad(lambda x: bumped(x, 0.0) ** 2, 0.0, 400.0, limit=400)[0]
    expected = math.sqrt(bump_norm / norm)
    assert expected == pytest.approx(4.35e-4, rel=1e-3)
    assert state.error(bumped, 0.0) == pytest.approx(expected, rel=1e-7)


def test_frame_operators_finite_at_order_256():
    unit = _unit(Frame(256, 1.0))
    for operator in (unit.mod_weights, unit.tomodal, unit.psi_refined):
        assert np.all(np.isfinite(operator))


def test_frame_state_at_order_256_is_accurate():
    state = frame_state_from(diffusive_front, 256, 2.5)
    assert state.error(diffusive_front, 0.0) <= 1e-8
    assert math.isfinite(state.frequency())
    assert math.isfinite(state.exterior(state.split_point()))


def test_frame_order_ceiling():
    # exp(-y/2) at the largest node leaves the normal float64 range at 364
    tomodal = _unit(Frame(363, 1.0)).tomodal
    assert np.all(np.isfinite(tomodal))
    assert np.all(np.any(tomodal != 0.0, axis=0))
    state = frame_state_from(moving_front, 363, 2.5)
    records, _ = run_frames(
        frame_resample_evolver(moving_front), state, AdaptConfig(), 0.05, 0.15,
        MODE_MOVE_SCALE, reference=moving_front,
    )
    assert max(r.error for r in records) <= 1e-8
    before = len(Frame._cache)
    with pytest.raises(ValueError, match="364"):
        Frame(364, 1.0)
    assert len(Frame._cache) == before
    # a Hermite frame's refined rule of order 2N+1 stops at 727, so its
    # last order is 363 too
    unit = _unit(Frame(363, 1.0, HERMITE))
    for operator in (unit.tomodal, unit.psi_refined):
        assert np.all(np.isfinite(operator))
        assert np.all(np.any(operator != 0.0, axis=0))
    state = frame_state_from(widening_gauss, 363, 1.0, family=HERMITE)
    assert state.error(widening_gauss, 0.0) <= 1e-8
    assert state.rescaled(0.95).error(widening_gauss, 0.0) <= 1e-8
    before = (dict(Frame._cache), list(basis_module._store))
    with pytest.raises(ValueError, match="order 729 exceeds the ceiling of 727"):
        Frame(364, 1.0, HERMITE)
    assert (dict(Frame._cache), list(basis_module._store)) == before


def _direct_frame(order: int, beta: float) -> SimpleNamespace:
    """A from-scratch (order, beta) frame in the x variable, sharing nothing."""
    basis = laguerre_basis(order, beta)
    rule = quadrature(basis)
    refined = quadrature(laguerre_basis(2 * order + 1, beta))
    mod_weights = modified_weights(rule)
    gamma = gamma_norms(basis)
    return SimpleNamespace(
        order=order,
        beta=beta,
        basis=basis,
        nodes=rule.nodes,
        refined_nodes=refined.nodes,
        weights=rule.weights,
        mod_weights=mod_weights,
        gamma=gamma,
        tomodal=eval_weighted_all(basis, rule.nodes) * mod_weights / gamma[:, None],
        psi_refined=eval_weighted_all(basis, refined.nodes),
    )


@pytest.mark.parametrize("order", [32, 128, 300])
@pytest.mark.parametrize("beta", [0.2, 2.5, 2.5 * 0.95**7])
def test_unit_frame_matches_direct_build(order, beta):
    frame = Frame(order, beta)
    unit = _unit(frame)
    direct = _direct_frame(order, beta)
    # beta only places the nodes: the x-variable weights are the unit ones
    # times beta**-1, bit for bit, and every norm gamma is 1/beta
    for name in ("nodes", "refined_nodes"):
        actual, expected = getattr(frame, name), getattr(direct, name)
        assert np.all(np.abs(actual - expected) <= 1e-14 * np.abs(expected)), name
    assert np.array_equal(unit.weights * beta**-1.0, direct.weights)
    assert np.array_equal(unit.mod_weights * beta**-1.0, direct.mod_weights)
    assert np.all(direct.gamma == 1.0 / beta)
    _assert_close(unit.tomodal, direct.tomodal, 1e-13)
    _assert_close(unit.psi_refined, direct.psi_refined, 1e-13)
    # Nodal values of a function of y = beta*x have indicators free of beta,
    # so they are compared with a from-scratch build at beta = 1, where x
    # and y coincide.  (The x-variable build at beta itself strays from it:
    # by 2e-8 for the 2e-8 frequency of the front at N=128, beta=0.2.)
    at_one = _direct_frame(order, 1.0)
    y = at_one.nodes
    split = y[(order + 2) // 3]
    unit_offsets = [split + n * 0.004 for n in (0, 1, 10)] + [0.5, 5.0, 20.0]
    compared = 0
    for values in (expit(-(y - 10.0) / 2.0), np.exp(-0.5 * np.abs(y - 10.0))):
        state = FrameState(frame, values)
        frequency, exterior = _scratch_indicators(at_one, values, unit_offsets, unit=False)
        actual = [state.frequency()] + [state.exterior(s / beta) for s in unit_offsets]
        for a, expected in zip(actual, [frequency] + exterior):
            if expected > 1e-10:
                assert a == pytest.approx(expected, rel=1e-12, abs=0)
                compared += 1
    assert compared >= 7


def _unit_profile(y):
    return expit(-(y - 10.0) / 2.0) * (1.0 + 0.1 * np.sin(y))


def test_readings_do_not_depend_on_beta():
    # beta only places the nodes: the same unit-variable values, and a
    # reference that returns the same refined-node values, read bit for bit
    # alike at every beta
    unit = adapt._unit_frame(48, LAGUERRE)
    values, fixed = _unit_profile(unit.nodes), _unit_profile(unit.refined_nodes)
    readings = set()
    for beta in (0.3, 1.0, 2.5, 7.0, 2.5 * 0.95**7):
        state = FrameState(Frame(48, beta), values, 0.4)
        readings.add((state.frequency(), state.exterior(state.split_point()), state.error(lambda x, t: fixed, 0.0)))
    assert len(readings) == 1
    (frequency, exterior, error), = readings
    assert 0.0 < frequency < 1.0 and 0.0 < exterior < 1.0 and 0.0 < error < 1e-3
    ux, uy = adapt._unit_frame(24, LAGUERRE), adapt._unit_frame(20, LAGUERRE)
    values = _unit_profile(ux.nodes)[:, None] * _unit_profile(0.5 * uy.nodes)[None, :] + np.outer(
        np.exp(-0.2 * ux.nodes), np.exp(-0.1 * uy.nodes)
    )
    readings = set()
    for beta_x, beta_y in ((1.0, 1.0), (2.5, 0.3), (7.0, 2.5 * 0.95**3)):
        state = FrameState2D(Frame(24, beta_x), Frame(20, beta_y), values, 0.2, 0.1)
        readings.add((
            state.frequency(0), state.frequency(1),
            state.exterior(state.split_point(0), 0), state.exterior(state.split_point(1), 1),
        ))
    assert len(readings) == 1


def test_frames_of_one_order_share_one_unit_frame():
    before = len(basis_module._store)
    frames = [Frame(41, 0.3 + 0.01 * k) for k in range(300)]
    assert len(basis_module._store) <= before + 3  # the unit frame and its two rules
    unit = adapt._unit_frame(41, LAGUERRE)
    assert all(FrameState(frame, unit.psi[0]).units == (unit,) for frame in frames)
    # a frame holds only what beta changes, O(N): no (N+1)^2 operator
    for frame in frames:
        arrays = [value for value in vars(frame).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 2 and all(array.shape in ((42,), (84,)) for array in arrays)


@pytest.mark.parametrize("family, order", [(LAGUERRE, 16), (LAGUERRE, 48), (LAGUERRE, 128), (HERMITE, 24)])
def test_frequency_floor_is_the_largest_non_tail_reading(family, order):
    # each psi_l with l <= N-m has no exact tail: its reading is round-off,
    # set by the rounded transform far more than by the product's order of
    # summation (other orders move the floor by about 1 %)
    unit = adapt._unit_frame(order, family)
    m = order // 3
    readings = [FrameState(Frame(order, 1.0, family), unit.psi[l]).frequency() for l in range(order + 1 - m)]
    floor = unit.frequency_floor
    assert floor == pytest.approx(max(readings), rel=0.05)
    assert 1e-16 < floor < 1e-12
    # one value per order, read by the state of every frame of it
    states = [FrameState(Frame(order, beta, family), unit.psi[0]) for beta in (0.3, 2.5, 7.0)]
    assert all(state.units[0].frequency_floor == floor for state in states)


def test_frequency_floor_is_built_on_the_first_trigger_only():
    # orders no other test uses, so the floor's memo starts empty
    unit, unit_2d = adapt._unit_frame(35, LAGUERRE), adapt._unit_frame(43, LAGUERRE)

    def frozen(x, t):
        return diffusive_front(x, 0.0)

    def frozen_2d(x, y, t):
        return diffusive_front(x, 0.0) * diffusive_front(y, 0.0)

    # set-up, readings, moves and rescales never build it, nor do steps that do not trigger
    state = frame_state_from(frozen, 35, 2.5)
    state.moved(0.1).rescaled(2.0).exterior(state.split_point())
    run_frames(frame_resample_evolver(frozen), state, AdaptConfig(), 0.1, 1.0, MODE_MOVE_SCALE)
    run_2d(
        frame_resample_evolver(frozen_2d), frame_state_2d_from(frozen_2d, 43, 2.5, 43, 2.5),
        AdaptConfig(), 0.1, 1.0, MODE_MOVE_SCALE,
    )
    assert "frequency_floor" not in vars(unit) and "frequency_floor" not in vars(unit_2d)
    # the first trigger builds it
    records, _ = run_frames(frame_resample_evolver(diffusive_front), state, AdaptConfig(), 0.1, 1.0, MODE_SCALE)
    assert records[-1].beta < 2.5 and "frequency_floor" in vars(unit)
    records, _ = run_2d(
        frame_resample_evolver(product_front), frame_state_2d_from(product_front, 43, 2.0, 43, 2.0),
        AdaptConfig(), 0.1, 2.0, MODE_SCALE,
    )
    assert records[-1].beta < 2.0 and "frequency_floor" in vars(unit_2d)


def test_resampling_memos_are_bounded(monkeypatch):
    state = frame_state_from(moving_front, 128, 2.5, t=0.3)
    split = state.split_point()
    # room for 64 of the order's (N+1)^2 entries: 200 of each kind overflow it
    budget = 64 * 129 * 129 * 8
    _empty_store(monkeypatch, budget)
    for k in range(200):
        state.exterior(split + 0.001 * k)
        state.rescaled(2.5 * (0.5 + 0.002 * k))
        state.moved(0.001 * (k + 1))
        assert basis_module._store_bytes <= budget
    memos = [_entries(kind, LAGUERRE, 128) for kind in ("psi_at", "psi_on", "dpsi_at")]
    assert sum(len(memo) for memo in memos) <= 64
    for memo in memos:
        assert 0 < len(memo) and all(psi.shape == (129, 129) for psi in memo.values())
    # the most recent entries are the ones kept
    assert round(2.5 * (split + 0.199), 12) in memos[2]
    assert round(1.0 / (0.5 + 0.002 * 199), 12) in memos[1]
    assert round(2.5 * 0.2, 12) in memos[0]


def test_derivative_memo_drops_the_least_recently_used_entry(monkeypatch):
    frame = Frame(23, 1.0)  # an order no other test uses
    # the budget holds 64 of the order's (N+1)^2 entries; the unit frame,
    # which the test holds, is the oldest entry and the first to go
    _empty_store(monkeypatch, 64 * 24 * 24 * 8)
    unit = _unit(frame)
    assert _entries("dpsi_at", LAGUERRE, 23) == {}
    shifts = [0.01 * k for k in range(1, 65)]
    first = [unit.dpsi_at(round(s, 12)) for s in shifts]
    memo = _entries("dpsi_at", LAGUERRE, 23)
    assert len(memo) == len(basis_module._store) == 64
    calls = _count_calls(monkeypatch, adapt, "eval_weighted_all")
    unit.dpsi_at(round(shifts[0], 12))  # a hit makes the oldest entry the most recent
    unit.dpsi_at(0.0)  # shift 0 lives in the order's pair, so here it is a miss
    memo = _entries("dpsi_at", LAGUERRE, 23)
    assert len(memo) == 64
    assert round(shifts[1], 12) not in memo
    assert round(shifts[0], 12) in memo and round(shifts[2], 12) in memo
    # a dropped entry is built again, to the same bits
    assert np.array_equal(unit.dpsi_at(round(shifts[1], 12)), first[1])
    assert round(shifts[2], 12) not in _entries("dpsi_at", LAGUERRE, 23)
    assert calls == []  # a miss shifts the order's basis, with no evaluation
    # the memo's G(0) has the bits of the pair's, which the build's one
    # evaluation gave; the pair costs no evaluation
    assert np.array_equal(unit.dpsi_at(0.0), unit.pair[: frame.order + 1])
    assert calls == []


def _checked_store(monkeypatch) -> None:
    """Check the store after every lookup: within its budget, its count exact, its arrays read-only."""
    stored = basis_module._stored

    def checked(*args):
        value = stored(*args)
        total = 0
        for entry, size in basis_module._store.values():
            arrays = entry if isinstance(entry, tuple) else [entry] if isinstance(entry, np.ndarray) else vars(entry).values()
            arrays = {id(a): a for a in arrays if isinstance(a, np.ndarray)}.values()
            assert size == sum(a.nbytes for a in arrays) and not any(a.flags.writeable for a in arrays)
            total += size
        assert total == basis_module._store_bytes <= basis_module._STORE_BYTES
        return value

    monkeypatch.setattr(basis_module, "_stored", checked)
    monkeypatch.setattr(adapt, "_stored", checked)


def _sweep_order(order: int) -> None:
    """A set-up, its readings and a few steps' moves, searches and rescales at ``order``, filling its memos."""
    state = frame_state_from(moving_front, order, 2.5, t=0.3)
    state.error(moving_front, 0.3)
    split = state.split_point()
    for k in range(4):
        state.exterior(split + 0.004 * (k + 1))
        state = state.moved(0.01).rescaled(state.beta * 0.95)
        state.frequency()


def test_store_stays_within_its_budget_over_an_order_sweep(monkeypatch):
    # 300 kB: each order's unit frame, rules and memo entries fill it
    # several times over from order 24 on
    default = basis_module._STORE_BYTES
    _empty_store(monkeypatch, 300_000)
    monkeypatch.setattr(Frame, "_cache", {})
    _checked_store(monkeypatch)
    for order in range(8, 61, 4):
        _sweep_order(order)
        assert ("psi_on", LAGUERRE, order, round(1 / 0.95, 12)) in basis_module._store
    assert ("unit", LAGUERRE, 8) not in basis_module._store
    # the default budget keeps every order of the sweep
    _empty_store(monkeypatch, default)
    for order in range(8, 61, 4):
        _sweep_order(order)
    assert all(("unit", LAGUERRE, order) in basis_module._store for order in range(8, 61, 4))


@pytest.mark.parametrize("family", [LAGUERRE, HERMITE])
@pytest.mark.parametrize("order", [1, 2, 24, 128, 363])
def test_unit_frame_constants_are_their_formulas(family, order):
    # the per-order constants every reading uses, computed once at the build
    unit = adapt._unit_frame(order, family)
    assert (unit.size, unit.high_start) == (order + 1, order + 1 - max(1, order // 3))
    if family == HERMITE:
        assert unit.split is None and unit.split_shift is None and unit.split_decay is None
        return
    shift = round(unit.split, 12)
    assert unit.split_shift.hex() == shift.hex()
    assert unit.split_decay.hex() == math.exp(-0.5 * shift).hex()


@pytest.mark.parametrize("order", [24, 128, 256, 363])
def test_dpsi_leaves_its_input_and_holds_no_full_size_temporary(order):
    unit = adapt._unit_frame(order, LAGUERRE)
    psi = np.array(unit.psi_split)
    # the former in-place form: cumulative sums, minus the halved input
    expected = np.cumsum(psi, axis=0)
    expected -= 0.5 * psi
    expected *= np.sqrt(unit.weights)
    out = np.empty((order + 1, order + 1), order="F")
    tracemalloc.start()
    try:
        g = unit.dpsi(psi, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(psi, unit.psi_split)
    assert np.array_equal(g, expected.T) and np.shares_memory(g, out)
    # three blocks of rows at most: 37 % of psi's size at order 256, 26 % at 363
    assert peak < 3 * adapt._ROWS * (order + 1) * psi.itemsize, (peak, psi.nbytes)
    # the Laguerre pair holds G at shift 0 and at the split, from unchanged bases
    assert np.array_equal(unit.pair[order + 1 :], expected.T)
    assert np.array_equal(unit.pair[: order + 1], unit.dpsi(np.array(unit.psi)))


def _operator_digest(unit, frame) -> str:
    """sha256 over an order's unit operators, its rules and a shifted, a rescaled and a derivative entry."""
    digest = hashlib.sha256()
    order, family = unit.basis.order, unit.basis.family
    arrays = [getattr(unit, name) for name in (
        "nodes", "weights", "mod_weights", "refined_nodes", "refined_weights",
        "psi", "psi_refined", "psi_split", "tomodal", "pair",
    )]
    arrays += list(basis_module._unit_rule(family, order)) + list(basis_module._unit_rule(family, 2 * order + 1))
    arrays += [unit.psi_at(round(frame.beta * 0.3, 12)), unit.psi_on(round(1 / 0.95, 12)),
               unit.dpsi_at(round(frame.beta * 1.7, 12))]
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(repr((unit.split, unit.frequency_floor)).encode())
    return digest.hexdigest()


def test_an_evicted_order_rebuilds_bit_for_bit(monkeypatch):
    frame = Frame(48, 2.0)
    _empty_store(monkeypatch)
    unit = _unit(frame)
    before = _operator_digest(unit, frame)
    # a budget of 100 kB and a sweep of other orders evict order 48 and every entry of it
    monkeypatch.setattr(basis_module, "_STORE_BYTES", 100_000)
    for order in (20, 24, 28):
        _sweep_order(order)
    assert not any(key[1:3] == (LAGUERRE, 48) for key in basis_module._store)
    rebuilt = _unit(frame)
    assert rebuilt is not unit
    assert _operator_digest(rebuilt, frame) == before


def test_a_cached_frame_does_not_keep_an_evicted_order_alive(monkeypatch):
    _empty_store(monkeypatch)
    monkeypatch.setattr(Frame, "_cache", {})
    state = frame_state_from(moving_front, 44, 2.0)
    frame, reference = state.frame, weakref.ref(state.units[0])
    state = state.moved(0.01).rescaled(1.9)
    # a live state keeps its order's operators, evicted or not: a budget of
    # 100 kB, less than order 44's unit frame, and one insert evict them
    monkeypatch.setattr(basis_module, "_STORE_BYTES", 100_000)
    frame_state_from(moving_front, 20, 2.0)
    assert ("unit", LAGUERRE, 44) not in basis_module._store
    gc.collect()
    assert reference() is state.units[0]
    assert state.exterior(state.split_point()) is not None
    # the frame in the cache does not
    del state
    gc.collect()
    assert Frame(44, 2.0) is frame and reference() is None
    assert _unit(frame) is not None


def test_histories_do_not_depend_on_the_store_budget(monkeypatch):
    # a budget of 20 kB evicts on almost every insert: every operator is
    # rebuilt on its next read, with the same bits
    def front(x, t):
        return expit(-(np.asarray(x, dtype=float) - 5.0 - 5.0 * t) / (2.0 + t))

    def run():
        records, _ = run_frames(
            frame_resample_evolver(front), frame_state_from(front, 24, 2.0), AdaptConfig(),
            0.01, 0.5, MODE_MOVE_SCALE, reference=front,
        )
        records_2d, _ = run_2d(
            frame_resample_evolver(product_front), frame_state_2d_from(product_front, 14, 2.0, 14, 2.0),
            AdaptConfig(mu=1.003, delta=0.005, d_max=0.1), 0.05, 3.0, MODE_MOVE_SCALE, reference=product_front,
        )
        return history_to_csv(records), history_to_csv(records_2d, extra_columns=("beta_y", "freq_y", "ext_y", "yL"))

    default = run()
    _empty_store(monkeypatch, 20_000)
    monkeypatch.setattr(Frame, "_cache", {})
    builds = _count_calls(monkeypatch, adapt._UnitFrame, "__init__")
    assert run() == default
    # the 1-d order's unit frame (36.4 kB) is dropped at its own insert, so
    # every lookup rebuilds it; a state passes its unit operators on, so
    # only the public constructor and a new frame look it up: 8 builds,
    # where an evolver that built each state with the public constructor
    # made 58
    assert sum(order == 24 for _, order, _ in builds) <= 8
    # the runs moved and rescaled
    rows = [line.split(",") for text in default for line in text.splitlines()[1:]]
    assert len({row[2] for row in rows}) > 2 and len({row[5] for row in rows}) > 2


def _scratch_g(weights: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """G[k, l] = sqrt(w_k)*(sum_{j<l} psi_j + psi_l/2) from psi[l, k]."""
    return np.sqrt(weights)[:, None] * (np.cumsum(psi, axis=0) - 0.5 * psi).T


def test_derivative_memo_zero_shift_shares_the_build_evaluation(monkeypatch):
    _empty_store(monkeypatch)
    calls = _count_passes(monkeypatch)
    unit = adapt._unit_frame(17, LAGUERRE)
    # the nodes, the refined nodes and the split in one pass, which also
    # gives G(0) and G(s*)
    assert calls == ["pass"]
    psi, pair = unit.psi, unit.pair
    assert not psi.flags.writeable
    assert pair.shape == (36, 18) and not pair.flags.writeable
    at_split = damped_laguerre_all(17, unit.nodes + round(unit.split, 12))
    np.testing.assert_allclose(pair[:18], _scratch_g(unit.weights, psi), rtol=1e-12, atol=0)
    np.testing.assert_allclose(pair[18:], _scratch_g(unit.weights, at_split), rtol=1e-12, atol=0)
    # the basis at shift 0 gives back the bits of the build's psi
    assert np.array_equal(unit.psi_at(0.0), psi)
    assert calls == ["pass"]
    assert _entries("dpsi_at", LAGUERRE, 17) == {}


def test_the_order_build_gives_the_pair_with_one_evaluation(monkeypatch):
    # an empty store and frame cache, whichever tests ran before
    monkeypatch.setattr(Frame, "_cache", {})
    _empty_store(monkeypatch)
    calls = _count_passes(monkeypatch)
    state = frame_state_from(moving_front, 40, 2.5, t=0.3)
    unit = state.units[0]
    pair = unit.pair
    assert calls == ["pass"] and pair.shape == (82, 41)  # the pair comes from the build's pass
    state.frequency()
    state.moved(0.01)
    assert calls == ["pass"]  # a move shifts the order's basis
    e = state.exterior(state.split_point())
    assert calls == ["pass"] and unit.pair is pair
    # every later state of the order, at any beta, reads through that pair
    for later in (frame_state_from(moving_front, 40, 2.5, t=0.5), frame_state_from(moving_front, 40, 1.7)):
        assert later.units[0] is unit
        later.exterior(later.split_point())
    assert calls == ["pass"] and _entries("dpsi_at", LAGUERRE, 40) == {}
    assert e == _memo_free_exterior(state.frame, state.values, [state.frame.split_rel])[0]


@pytest.mark.parametrize("family, order", [(LAGUERRE, 16), (LAGUERRE, 128), (LAGUERRE, 363), (HERMITE, 24), (HERMITE, 200)])
def test_build_evaluation_has_the_bits_of_separate_evaluations(family, order):
    unit = adapt._unit_frame(order, family)
    basis = unit.basis
    parts = [(unit.psi, unit.nodes), (unit.psi_refined, unit.refined_nodes)]
    if family == LAGUERRE:
        parts.append((unit.psi_split, unit.nodes + round(unit.split, 12)))
    else:
        assert unit.psi_split is None
    for psi, points in parts:
        assert np.array_equal(psi, eval_weighted_all(basis, points))
        assert psi.flags.c_contiguous and not psi.flags.writeable


def test_hermite_frame_has_no_derivative_memo():
    state = frame_state_from(widening_gauss, 20, 1.0, family=HERMITE)
    unit = state.units[0]
    assert state.split_point() is None and state.exterior(state.split_point()) is None
    records, _ = run_frames(
        frame_resample_evolver(widening_gauss), state, AdaptConfig(), 0.1, 1.0, MODE_SCALE
    )
    assert all(r.ext is None for r in records)
    assert unit.pair is None and unit.psi_split is None
    before = list(basis_module._store)
    with pytest.raises(ValueError, match="Laguerre"):
        unit.dpsi_at(0.1)
    with pytest.raises(ValueError, match="Laguerre"):
        state.exterior(1.0)
    assert list(basis_module._store) == before


@pytest.mark.parametrize("order", [16, 128, 363])
def test_derivative_memo_matches_a_scratch_build(order):
    frame = Frame(order, 2.0)
    unit = _unit(frame)
    rule = quadrature(laguerre_basis(order, 1.0))
    split = frame.split_rel
    for shift in (0.0, split, split + 0.004, 0.7, 25.0):
        key = round(2.0 * shift, 12)
        psi = damped_laguerre_all(order, rule.nodes + key)
        # a miss shifts a stored basis, which moves the rounding of the tiny
        # entries: at orders 128 and 363 entries below 1e-8 differ by up to
        # 4.4e-11 and 1.1e-7 relative, and by at most 2.1e-18 absolute
        _assert_close(unit.dpsi_at(key), _scratch_g(rule.weights, psi), 1e-11)
        if order == 16:  # every entry still agrees to 1e-12 relative (1.5e-13)
            np.testing.assert_allclose(unit.dpsi_at(key), _scratch_g(rule.weights, psi), rtol=1e-12, atol=0)
    # the order's pair stacks the same G at shift 0 and at the unit split
    pair = unit.pair
    for half, shift in ((pair[: order + 1], 0.0), (pair[order + 1 :], round(unit.split, 12))):
        psi = damped_laguerre_all(order, rule.nodes + shift)
        np.testing.assert_allclose(half, _scratch_g(rule.weights, psi), rtol=1e-12, atol=0)
    # and a state's split reading agrees with the reverse-cumsum oracle
    state = frame_state_from(moving_front, order, 2.0, t=0.4)
    oracle = _scratch_indicators(frame, state.values, [split])[1][0]
    assert state.exterior(state.split_point()) == pytest.approx(oracle, rel=1e-12, abs=0)


def _damped_reference(order: int, y: np.ndarray) -> np.ndarray:
    """exp(-y/2) L_l(y), l <= order, by the recurrence started at exp(64 - y/2), then times exp(-64).

    A start exp(-y/2) leaves the normal float64 range past y = 1416.8 and
    there loses precision (7.9e-3 at order 363 and shift s*);
    ``eval_weighted_all`` starts those columns at 2^128*exp(-y/2) instead.
    This start is another one, normal up to y = 1544.8.
    """
    return math.exp(-64.0) * laguerre_all(order, 0.0, y, np.exp(64.0 - 0.5 * y))


def test_rescaled_basis_is_accurate_past_the_normal_start(monkeypatch):
    # at order 363 the ratio 1/0.95 puts the largest rescaled node at
    # y = 1490.7, where exp(-y/2) is subnormal: a start there erred by 3.7e-3
    unit = _unit(Frame(363, 1.0))
    _empty_store(monkeypatch)
    ratio = round(1.0 / 0.95, 12)
    assert 0.5 * unit.nodes[-1] * ratio > adapt._LOG_TINY
    _assert_close(unit.psi_on(ratio), _damped_reference(363, unit.nodes * ratio), 1e-12)


@pytest.mark.parametrize("order", [16, 48, 128, 256, 363])
def test_shifted_memos_match_a_direct_evaluation(order, monkeypatch):
    # a miss shifts a stored base by the addition theorem; over every
    # distance a frame reads, each entry stays within 1e-11 of the direct
    # evaluation (measured: 1.0e-12 at order 363, shift 0.008)
    frame = Frame(order, 1.0)
    unit = _unit(frame)
    _empty_store(monkeypatch)
    split = round(unit.split, 12)
    for shift in (0.008, 1.4, split, split + 0.008, split + 0.2, 50.0):
        key = round(shift, 12)
        psi = _damped_reference(order, unit.nodes + key)
        _assert_close(unit.psi_at(key), psi, 1e-11)
        _assert_close(unit.dpsi_at(key), _scratch_g(unit.weights, psi), 1e-11)
    assert not unit.psi_split.flags.writeable
    # a shift past 16 unit lengths is applied in equal pieces: 50 as 4 of 12.5
    pieces = unit.psi
    for _ in range(4):
        pieces = adapt._shift(pieces, 12.5)
    assert np.array_equal(adapt._shift(unit.psi, 50.0), pieces)
    assert np.array_equal(adapt._shift(unit.psi, 0.0), unit.psi)


def test_shifted_memos_reject_a_negative_shift():
    frame = Frame(20, 1.0)
    unit = _unit(frame)
    before = list(basis_module._store)
    for bad in (-1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="left of its endpoint"):
            adapt._shift(unit.psi, bad)
    # a small negative shift keeps every node right of 0, but is still refused
    for shift in (-0.001, -1.0, -30.0):
        for read in (unit.psi_at, unit.dpsi_at):
            with pytest.raises(ValueError, match="left of its endpoint"):
                read(shift)
    assert list(basis_module._store) == before


def test_hermite_frame_has_no_shifted_basis():
    # the addition theorem is Laguerre's; a move already refuses a Hermite frame
    frame = Frame(20, 1.0, HERMITE)
    unit = _unit(frame)
    before = list(basis_module._store)
    for shift in (0.0, 0.1):
        with pytest.raises(ValueError, match="Laguerre"):
            unit.psi_at(shift)
    assert list(basis_module._store) == before


def test_rescaled_state_keeps_its_order_and_family():
    # a rescale reads its order's entry at the unit ratio beta/beta' and
    # changes only the scale of the axis it acts on
    for family, profile in ((LAGUERRE, moving_front), (HERMITE, widening_gauss)):
        state = frame_state_from(profile, 10, 1.0, family=family)
        rescaled = state.rescaled(2.0)
        assert (rescaled.frame.order, rescaled.frame.family, rescaled.beta) == (10, family, 2.0)
        assert rescaled.units == state.units and rescaled.lefts == state.lefts
        assert np.array_equal(rescaled.values, state._coeffs.dot(state.units[0].psi_on(0.5)))
        pair = FrameState((state.frame, Frame(12, 1.5, family)), np.outer(state.values, np.ones(13)), (0.0, 0.0))
        for axis in (0, 1):
            scaled = pair.rescaled(0.75, axis)
            assert [frame.order for frame in scaled.frames] == [10, 12] and scaled.units == pair.units
            assert [frame.family for frame in scaled.frames] == [family, family]
            assert scaled.frames[axis].beta == 0.75 and scaled.frames[1 - axis] is pair.frames[1 - axis]


def test_frame_state_error_rejects_a_misshaped_reference():
    def f(x, t):
        return np.exp(-x)

    state = frame_state_from(f, 16, 1.0)
    assert state.error(f, 0.0) < 1e-8
    for wrong, shape in (
        (lambda x, t: f(x, t)[:, None], r"\(34, 1\)"),
        (lambda x, t: f(x, t)[:5], r"\(5,\)"),
    ):
        with pytest.raises(ValueError, match=shape + r".*refined-node grid shape \(34,\)"):
            state.error(wrong, 0.0)
    # a scalar reference broadcasts
    full = lambda x, t: np.full(np.shape(x), 2.0)
    assert state.error(lambda x, t: 2.0, 0.0) == state.error(full, 0.0) > 0.1


def test_frame_rejects_bad_input_and_caches_nothing():
    before = (dict(Frame._cache), list(basis_module._store))
    for beta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            Frame(32, beta)
    with pytest.raises(ValueError, match="364"):
        Frame(364, 1.0)
    for order in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            Frame(order, 1.0)
    with pytest.raises(ValueError, match="unknown basis family"):
        Frame(32, 1.0, "chebyshev")
    # int() used to truncate: Frame(12.5, 1.0) built order 12
    for order in (12.5, 32.0, True, np.float64(32.0)):
        with pytest.raises(ValueError, match="order must be an integer"):
            Frame(order, 1.0)
    assert (dict(Frame._cache), list(basis_module._store)) == before
    assert Frame(np.int64(32), 1.0) is Frame(32, 1.0)


def test_coefficient_engine_fails_loudly_past_its_range():
    # the plain polynomials overflow at the far nodes; this used to give
    # e0 == 1.0 (at 192 and 256) and a NaN error (at 256).  The failure is
    # the ValueError alone: no floating-point warning precedes it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order in (192, 256):
            basis = laguerre_basis(order, 2.5)
            expansion = interpolate(diffusive_front(quadrature(basis).nodes, 0.0), basis)
            with pytest.raises(ValueError, match="overflow"):
                initial_state(expansion, AdaptConfig())
        with pytest.raises(ValueError, match="overflow"):
            relative_error(expansion, lambda x: diffusive_front(x, 0.0))


def test_initial_state_reads_the_default_indicators():
    # the baselines of a coefficient expansion: its frequency reading and,
    # on a Laguerre basis, its exterior reading at the default split
    for basis in (laguerre_basis(40, 2.5), hermite_basis(24, 1.0)):
        rule = quadrature(basis)
        expansion = interpolate(widening_gauss(rule.nodes, 0.0), basis, rule)
        split = default_split_point(basis.order, rule.nodes)
        e0 = exterior_error_indicator(expansion, split) if basis.family == LAGUERRE else None
        baselines = initial_state(expansion, AdaptConfig())
        assert baselines.expansion is expansion and (baselines.f0, baselines.e0) == (frequency_indicator(expansion), e0)
        assert 0.0 < baselines.f0 < 1e-3 and (e0 is None or 0.0 < e0 < 1.0)


# ---------------------------------------------------------------------------
# two-dimensional driver


def product_front(x, y, t):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return expit(-(x - 2.0 - t) / (2.0 + 0.3 * t)) * expit(-(y - 2.0 - t) / (2.0 + 0.4 * t))


def test_run_2d_records_and_extras():
    state = frame_state_2d_from(product_front, 12, 2.0, 14, 2.5)
    records, final = run_2d(
        frame_resample_evolver(product_front),
        state,
        AdaptConfig(mu=1.003, delta=0.005, d_max=0.1),
        0.05,
        0.5,
        MODE_MOVE_SCALE,
        reference=product_front,
    )
    assert len(records) == 11
    first = records[0]
    assert set(first.extras) == {"beta_y", "freq_y", "ext_y", "yL"}
    assert first.beta == 2.0 and first.extras["beta_y"] == 2.5
    assert all(r.error is not None and r.error < 1e-2 for r in records)
    assert final.frame_x.order == 12 and final.frame_y.order == 14


def test_2d_marginal_matches_direct_integration():
    state = frame_state_2d_from(product_front, 16, 2.0, 16, 2.0, x_left=0.1, y_left=0.2)
    # the marginal values that a set-up reads, at its axis's nodes, equal
    # integrating the interpolant over the other axis; they are those of the
    # one-axis oracle state on that axis's frame, origin and unit operators
    rule = quadrature(laguerre_basis(16, 2.0))
    weights = rule.weights * np.exp(2.0 * rule.nodes)
    for axis, direct in ((0, state.values @ weights), (1, weights @ state.values)):
        marginal = marginal_state(state, axis)
        assert (marginal.frames, marginal.lefts) == ((state.frames[axis],), (state.lefts[axis],))
        assert marginal.units == (state.units[axis],)
        assert np.array_equal(state._marginal_values(axis), marginal.values)
        assert np.allclose(marginal.values / state.frames[1 - axis].beta, direct, rtol=0, atol=1e-12)


def test_2d_exterior_readings_are_those_of_the_one_axis_marginal_state():
    # a two-axis state sets up each axis's exterior readings from its
    # marginal values, with no marginal state: on evolved, moved and
    # rescaled states, the reading at the split and at every candidate of
    # the mover's search equals, bit for bit, that of a one-axis state built
    # on those values with the public constructor (the oracle state)
    cfg = AdaptConfig(mu=1.003, delta=0.005, d_max=0.1)
    n_max = int(math.floor(cfg.d_max / cfg.delta + 1e-12))
    initial = frame_state_2d_from(product_front, 11, 1.7, 13, 2.2, x_left=0.1, y_left=0.2)
    evolved = frame_resample_evolver(product_front)(initial, 0.0, 0.3)
    derived = (evolved.moved(0.02, 0), evolved.moved(0.035, 1), evolved.rescaled(1.5, 0), evolved.rescaled(2.0, 1))
    for state in (evolved, *derived):
        for axis in (0, 1):
            oracle = marginal_state(state, axis)
            assert np.array_equal(oracle.values, state._marginal_values(axis))
            split = state.split_point(axis)
            assert split == oracle.split_point()
            readings = [state.exterior(split + n * cfg.delta, axis) for n in range(n_max + 1)]
            assert None not in readings
            assert readings == [oracle.exterior(split + n * cfg.delta) for n in range(n_max + 1)]


def _gauss_front(x, y, t):
    """A front translating in x times a Gaussian centred at y = 0 that widens."""
    return expit(-(np.asarray(x, dtype=float) - 2.0 - t) / 2.0) * np.exp(-0.5 * (np.asarray(y, dtype=float) / (1.0 + 0.5 * t)) ** 2)


@pytest.mark.parametrize(
    "families", [(LAGUERRE, LAGUERRE), (LAGUERRE, HERMITE), (HERMITE, LAGUERRE), (HERMITE, HERMITE)],
    ids=["laguerre-laguerre", "laguerre-hermite", "hermite-laguerre", "hermite-hermite"],
)
def test_frame_state_2d_from_takes_a_family_per_axis(families):
    # the sampler equals the node grid sampled by hand and built with the
    # public constructor, bit for bit, and both families default to Laguerre
    family_x, family_y = families
    frame_x, frame_y = Frame(10, 1.5, family_x), Frame(8, 2.0, family_y)
    by_hand = FrameState2D(
        frame_x, frame_y, _gauss_front((0.3 + frame_x.nodes)[:, None], (-0.2 + frame_y.nodes)[None, :], 0.1), 0.3, -0.2
    )
    state = frame_state_2d_from(_gauss_front, 10, 1.5, 8, 2.0, 0.3, -0.2, 0.1, family_x=family_x, family_y=family_y)
    assert type(state) is FrameState2D
    assert (state.frames, state.lefts) == (by_hand.frames, by_hand.lefts)
    assert state.values.tobytes() == by_hand.values.tobytes()
    for axis in (0, 1):
        assert state.frequency(axis) == by_hand.frequency(axis)
        assert state.exterior(state.split_point(axis), axis) == by_hand.exterior(by_hand.split_point(axis), axis)
    assert state.error(_gauss_front, 0.1) == by_hand.error(_gauss_front, 0.1)
    if families == (LAGUERRE, LAGUERRE):
        default = frame_state_2d_from(_gauss_front, 10, 1.5, 8, 2.0, 0.3, -0.2, 0.1)
        assert default.frames == state.frames and default.values.tobytes() == state.values.tobytes()


def test_run_2d_on_a_laguerre_by_hermite_state():
    # the y axis is Hermite: it has no sentinel, so ext_y is None, its
    # mover never fires and only its ladder acts, while the x axis moves
    cfg = AdaptConfig(mu=1.003, delta=0.005, d_max=0.1)
    initial = frame_state_2d_from(_gauss_front, 24, 2.0, 20, 2.0, family_y=HERMITE)
    assert initial.frames == (Frame(24, 2.0), Frame(20, 2.0, HERMITE))
    records, final = run_2d(
        frame_resample_evolver(_gauss_front), initial, cfg, 0.02, 2.0, MODE_MOVE_SCALE, reference=_gauss_front
    )
    assert len(records) == 101
    assert all(r.ext is not None and r.extras["ext_y"] is None for r in records)
    assert all(r.extras["yL"] == 0.0 for r in records) and final.lefts[1] == 0.0
    lefts = [r.x_left for r in records]
    assert lefts[-1] > 1.5 and all(later >= earlier for earlier, later in zip(lefts, lefts[1:]))
    assert final.frames[1].family == HERMITE and final.frames[1].beta < 2.0
    # measured: the error starts at 2.0e-3 and peaks at 2.2e-3 on the first
    # step, while beta_y = 2 is too large for the Gaussian; the y ladder
    # then brings it down, to 2.6e-9 from step 5 on
    assert max(r.error for r in records) < 3e-3 and max(r.error for r in records[5:]) < 1e-8
    with pytest.raises(ValueError, match="only a Laguerre frame has an exterior indicator"):
        final.exterior(1.0, 1)
    assert final.exterior(None, 1) is None


def test_2d_x_move_leaves_y_untouched():
    state = frame_state_2d_from(product_front, 12, 2.0, 12, 2.0)
    moved = state.moved(0.25, 0)
    assert moved.x_left == 0.25 and moved.y_left == 0.0
    assert moved.frame_y is state.frame_y
    # the represented function is unchanged where both frames resolve it:
    # each column's interpolant, read at the offsets xs - x_left
    xs = np.linspace(1.0, 6.0, 7)
    before = _partial(state, 0).T @ damped_laguerre_all(12, 2.0 * xs)
    after = _partial(moved, 0).T @ damped_laguerre_all(12, 2.0 * (xs - 0.25))
    assert np.max(np.abs(after - before)) < 1e-8


def test_run_2d_moves_from_one_state_and_never_reanchors(monkeypatch):
    evolved, moves, ladders = [], [], []
    evolve = frame_resample_evolver(product_front)
    moving_distance, scaling_ladder = adapt._moving_distance, adapt._scaling_ladder

    def recorded_evolve(state, t, dt):
        evolved.append(evolve(state, t, dt))
        return evolved[-1]

    def recorded_move(state, axis, e, e0, cfg):
        moves.append((len(evolved), axis, state, e0))
        return moving_distance(state, axis, e, e0, cfg)

    def recorded_ladder(state, axis, f, f0, cfg):
        result = scaling_ladder(state, axis, f, f0, cfg)
        ladders.append((len(evolved), axis, state, result[0], result[2]))
        return result

    monkeypatch.setattr(adapt, "_moving_distance", recorded_move)
    monkeypatch.setattr(adapt, "_scaling_ladder", recorded_ladder)
    state = frame_state_2d_from(product_front, 12, 2.0, 14, 2.5)
    records, final = run_2d(
        recorded_evolve, state, AdaptConfig(mu=1.003, delta=0.005, d_max=0.1), 0.05, 0.5, MODE_MOVE_SCALE
    )
    steps = len(records) - 1
    assert len(moves) == len(ladders) == 2 * steps
    for n in range(1, steps + 1):
        move_x, move_y = moves[2 * n - 2 : 2 * n]
        ladder_x, ladder_y = ladders[2 * n - 2 : 2 * n]
        assert (move_x[:2], move_y[:2], ladder_x[:2], ladder_y[:2]) == ((n, 0), (n, 1), (n, 0), (n, 1))
        # both distances are taken from the same evolved state
        assert move_x[2] is move_y[2] is evolved[n - 1]
        # the y ladder starts from where the x ladder stopped
        assert ladder_y[2] is ladder_x[3]
    # every step compares against the e0 of the initial state, also after
    # steps where an axis's ladder accepted after its mover had fired
    e0 = (state.exterior(state.split_point(0), 0), state.exterior(state.split_point(1), 1))
    assert all(e == e0[axis] for _, axis, _, e in moves)
    lefts = ([r.x_left for r in records], [r.extras["yL"] for r in records])
    for axis in (0, 1):
        first_move = next(n for n in range(1, steps + 1) if lefts[axis][n] != lefts[axis][n - 1])
        assert any(ladders[2 * n - 2 + axis][4] for n in range(first_move, steps + 1))
    assert final is ladders[-1][3]


def logistic_front(centre, width):
    def front(x, t):
        return expit(-(np.asarray(x, dtype=float) - centre(t)) / width(t))

    return front


# (centre, width) of logistic fronts; each starts inside a frame at x_left = 0
FRONTS = {
    "translate": (lambda t: 5.0 + t, lambda t: 2.0),
    "translate+widen": (lambda t: 2.0 + t, lambda t: 2.0 + t),
    "widen-only": (lambda t: 5.0, lambda t: 2.0 + t),
}


@pytest.mark.parametrize("cfg", [AdaptConfig(), AdaptConfig(mu=1.003, delta=0.005, d_max=0.1)], ids=["default", "bump-2d"])
@pytest.mark.parametrize(
    "name, mode",
    [pytest.param(name, MODE_MOVE_SCALE, id=name) for name in sorted(FRONTS)]
    + [
        pytest.param(
            "translate+widen", MODE_MOVE, id="translate+widen-move-only",
            # moving alone is unsupported on fronts that widen; a stop rule
            # for the mover has to make this pass
            marks=pytest.mark.xfail(strict=True, reason="move-only runs past a widening front"),
        )
    ],
)
def test_move_scale_keeps_the_front_covered(name, mode, cfg):
    # Judged against the reference's front centre, not the recorded error:
    # that error is relative over the frame's own domain, and it stays
    # small while the frame runs past the front.
    centre, width = FRONTS[name]
    front = logistic_front(centre, width)

    def front_2d(x, y, t):
        return front(x, t) * front(y, t)

    t_final = 5.0
    _, final = run_frames(
        frame_resample_evolver(front), frame_state_from(front, 48, 2.0), cfg, 0.005, t_final, mode
    )
    _, final_2d = run_2d(
        frame_resample_evolver(front_2d), frame_state_2d_from(front_2d, 48, 2.0, 48, 2.0),
        cfg, 0.005, t_final, mode,
    )
    for x_left in (final.x_left, final_2d.x_left, final_2d.y_left):
        if name == "widen-only":
            assert x_left == 0.0  # the mover never fires
        else:
            assert centre(t_final) - 3.0 * width(t_final) <= x_left <= centre(t_final)


def _record_bits(records) -> list:
    """Every field of every record, each float by its exact bits."""
    def bits(value):
        return None if value is None else float(value).hex()

    return [([bits(getattr(r, name)) for name in ("t", "beta", "x_left", "error", "freq", "ext")],
             {name: bits(value) for name, value in r.extras.items()}) for r in records]


_WIDENING_FRONT = logistic_front(lambda t: 2.0 + 2.0 * t, lambda t: 2.0 + t)

# (reference, initial state, mode, dt, t_final) of runs that move (where an axis is Laguerre) and take rungs
PUBLIC_RUNS = {
    "laguerre-move-scale": (
        _WIDENING_FRONT, lambda: frame_state_from(_WIDENING_FRONT, 24, 2.5), MODE_MOVE_SCALE, 0.02, 1.0,
    ),
    "hermite-scale": (
        widening_gauss, lambda: frame_state_from(widening_gauss, 24, 1.0, family=HERMITE), MODE_SCALE, 0.1, 4.0,
    ),
    "laguerre-hermite-move-scale": (
        _gauss_front, lambda: frame_state_2d_from(_gauss_front, 24, 2.0, 20, 2.0, family_y=HERMITE),
        MODE_MOVE_SCALE, 0.02, 1.0,
    ),
}


@pytest.mark.parametrize("case", sorted(PUBLIC_RUNS))
def test_run_frames_steps_the_history_of_its_public_readings(case):
    # run_frames reads each state's stored readings directly; a plain driver
    # in its documented order that reads only the public frequency,
    # exterior(split_point) and error, and moves and rescales through the
    # public methods, steps the same records and final state, bit for bit
    reference, initial, mode, dt, t_final = PUBLIC_RUNS[case]
    cfg = AdaptConfig(mu=1.003, delta=0.005, d_max=0.1)
    runs = [driver(frame_resample_evolver(reference), initial(), cfg, dt, t_final, mode, reference=reference)
            for driver in (run_frames, public_run)]
    (records, final), (public_records, public_final) = runs
    assert len(records) >= 41
    assert _record_bits(records) == _record_bits(public_records)
    assert (final.frames, final.lefts) == (public_final.frames, public_final.lefts)
    assert final.values.tobytes() == public_final.values.tobytes()
    betas = [(r.beta, r.extras.get("beta_y")) for r in records]
    assert len(set(betas)) > 1
    if mode == MODE_MOVE_SCALE:
        assert len({r.x_left for r in records}) > 1


# (centre, width, mode, dt, steps) of the translation relation's runs at N=64, beta=2.5
TRANSLATED = {
    "moving": (lambda t: 5.0 + 5.0 * t, lambda t: 2.0 + 0.5 * t, MODE_MOVE_SCALE, 0.002, 500),
    "ladder": (lambda t: 5.0, lambda t: 2.0 + t, MODE_SCALE, 0.04, 300),
}


@pytest.mark.parametrize(
    "case, a",
    [("moving", 3.0), ("moving", 1000.0), ("ladder", 3.0)]
    + [
        pytest.param(
            "ladder", 1000.0,
            # 9 of 301 beta records differ (steps 73-78, 84, 85, 92; same
            # final beta), 10 without the order's round-off floor.  Samples
            # near x = 1000 round on a 1.1e-13 grid, which perturbs readings
            # that sit within one to two floors: at step 73 both runs
            # trigger, but a rung's acceptance f' <= f compares two such
            # readings, and at step 92 the reading is 1.9100e-14 against
            # nu*floor = 1.9126e-14.  The floor covers the transform's
            # rounding, not that of the sampled positions.
            marks=pytest.mark.xfail(strict=True, reason="readings within two round-off floors tip on rounded samples"),
        )
    ],
)
def test_translation_gives_the_same_decisions(case, a):
    # f(x - a) run from x_left = a decides as f run from x_left = 0: the
    # frame origin is the only place a translation happens
    centre, width, mode, dt, steps = TRANSLATED[case]
    front = logistic_front(centre, width)

    def shifted(x, t):
        return front(np.asarray(x, dtype=float) - a, t)

    histories = []
    for profile, x_left in ((front, 0.0), (shifted, a)):
        records, _ = run_frames(
            frame_resample_evolver(profile), frame_state_from(profile, 64, 2.5, x_left=x_left),
            AdaptConfig(), dt, steps * dt, mode,
        )
        histories.append(records)
    plain, translated = histories
    assert len(plain) == steps + 1
    assert [r.beta for r in translated] == [r.beta for r in plain]
    deviation = max(abs(r.x_left - a - p.x_left) for r, p in zip(translated, plain))
    assert deviation <= 1e-13 * (1.0 + abs(a))
    # the decisions miss a wrong move of the values, since the resampling
    # evolver replaces them on the next step; the recorded readings see it
    drift = max(abs(r.ext - p.ext) / p.ext for r, p in zip(translated, plain))
    assert drift <= 1e-11 * (1.0 + abs(a))
    lefts = np.array([r.x_left for r in plain])
    if case == "moving":
        assert np.all(np.diff(lefts) > 0.0)  # the relation is exercised on every step
    else:
        assert np.all(lefts == 0.0) and len({r.beta for r in plain}) > 30


def _rungs(records, beta) -> list:
    """The ladder's accepted rungs per record: beta = beta_0 * q**rungs, q = 0.95."""
    return [round(math.log(r.beta / beta) / math.log(0.95)) for r in records]


def _stretched(profile):
    """lam -> profile(x/lam, t)."""
    return lambda lam: lambda x, t: profile(np.asarray(x, dtype=float) / lam, t)


# (lam -> profile at scale lam, family, order, beta, mode, dt, steps) of the
# scale relation's runs; "ladder-written-out" is the ladder's front with its
# centre and width written times lam, so its samples round differently
SCALED = {
    name: (_stretched(logistic_front(centre, width)), LAGUERRE, 64, 2.5, mode, dt, steps)
    for name, (centre, width, mode, dt, steps) in TRANSLATED.items()
}
SCALED["ladder-written-out"] = (
    lambda lam: logistic_front(lambda t: lam * 5.0, lambda t: lam * (2.0 + t)), LAGUERRE, 64, 2.5, MODE_SCALE, 0.04, 300,
)
SCALED["hermite"] = (_stretched(widening_gauss), HERMITE, 24, 1.0, MODE_SCALE, 0.1, 30)


@pytest.mark.parametrize(
    "case, lam",
    [(case, lam) for case in sorted(SCALED) for lam in (2.0, 3.0) if (case, lam) != ("ladder-written-out", 3.0)]
    + [
        pytest.param(
            "ladder-written-out", 3.0,
            # 7 of 301 rung records differ (steps 73-78, 85), 9 without the
            # floor: the trigger fires above the floor there, but the rung
            # acceptance f' <= f compares two readings near it
            marks=pytest.mark.xfail(strict=True, reason="the ladder's rung acceptance reads round-off"),
        )
    ],
)
def test_scaling_gives_the_same_decisions(case, lam):
    # f(x/lam) at beta/lam, with delta and d_max times lam and beta_min over
    # lam, decides as f at beta: every reading the controllers compare is
    # dimensionless, the round-off floor of the ladder's trigger included
    profile_at, family, order, beta, mode, dt, steps = SCALED[case]
    cfg = AdaptConfig()
    scaled_cfg = replace(cfg, delta=lam * cfg.delta, d_max=lam * cfg.d_max, beta_min=cfg.beta_min / lam)
    histories = []
    for f, b, c in ((profile_at(1.0), beta, cfg), (profile_at(lam), beta / lam, scaled_cfg)):
        records, _ = run_frames(
            frame_resample_evolver(f), frame_state_from(f, order, b, family=family), c, dt, steps * dt, mode
        )
        histories.append((records, _rungs(records, b)))
    (plain, rungs), (scaled, scaled_rungs) = histories
    assert len(plain) == steps + 1
    assert scaled_rungs == rungs
    assert all(abs(r.x_left / lam - p.x_left) <= 1e-13 * (1.0 + abs(p.x_left)) for r, p in zip(scaled, plain))
    # each case exercises its controller: the mover on every step, or the ladder
    if case == "moving":
        assert np.all(np.diff([r.x_left for r in plain]) > 0.0)
    else:
        assert rungs[-1] >= 10


# (f, order, beta, config, mode, dt, steps) of the product reduction's runs
REDUCED = {
    "bump-2d-scale": (
        logistic_front(lambda t: 2.0 + t, lambda t: 2.0 + t), 48, 2.0,
        AdaptConfig(mu=1.003, delta=0.005, d_max=0.1), MODE_SCALE, 0.005, 400,
    ),
    "bump-2d-move-scale": (
        logistic_front(lambda t: 2.0 + t, lambda t: 2.0 + t), 48, 2.0,
        AdaptConfig(mu=1.003, delta=0.005, d_max=0.1), MODE_MOVE_SCALE, 0.005, 400,
    ),
    "spread-scale": (
        logistic_front(lambda t: 5.0, lambda t: 2.0 + t), 128, 2.5, AdaptConfig(), MODE_SCALE, 0.04, 300,
    ),
}


def _assert_reduces_to_one_dimension(case: str, axis: int) -> None:
    """run_2d on f times a static g, f along ``axis``, decides on that axis as run_frames on f.

    The other axis never acts: its beta and origin keep their initial values.
    """
    f, order, beta, cfg, mode, dt, steps = REDUCED[case]
    g = logistic_front(lambda t: 2.0, lambda t: 2.0)

    def product(x, y, t):
        return f(x, t) * g(y, 0.0) if axis == 0 else g(x, 0.0) * f(y, t)

    records, _ = run_frames(frame_resample_evolver(f), frame_state_from(f, order, beta), cfg, dt, steps * dt, mode)
    records_2d, _ = run_2d(
        frame_resample_evolver(product), frame_state_2d_from(product, order, beta, order, beta),
        cfg, dt, steps * dt, mode,
    )
    histories = (
        [(r.beta, r.x_left) for r in records_2d],
        [(r.extras["beta_y"], r.extras["yL"]) for r in records_2d],
    )
    assert histories[axis] == [(r.beta, r.x_left) for r in records]
    assert all(frame == (beta, 0.0) for frame in histories[1 - axis])
    assert records[-1].beta < beta  # the relation is exercised on the ladder
    if mode == MODE_MOVE_SCALE:
        assert records[-1].x_left > 0.0


@pytest.mark.parametrize("case", sorted(REDUCED))
def test_product_with_a_static_factor_reduces_to_one_dimension(case):
    # run_2d on f(x)*g(y) with a static g decides on x as run_frames on f,
    # and the y axis never acts
    _assert_reduces_to_one_dimension(case, axis=0)


@pytest.mark.parametrize("case", sorted(REDUCED))
def test_transposed_product_reduces_to_one_dimension_in_y(case):
    # g(x)*f(y): the y axis decides as run_frames on f, and the x axis never
    # acts.  Unlike the x case, this sees a y ladder that reads the x
    # frequency: the static x reading never rises, so that ladder never fires
    _assert_reduces_to_one_dimension(case, axis=1)


def test_scaling_ladder_ignores_round_off_readings(monkeypatch):
    # A translating front at N=128, beta=2.5 keeps its frequency indicator
    # at the round-off floor (1.15e-14 to 2.22e-14 over these 200 steps),
    # so the trigger f > nu*f0 alone compares two rounding errors: it fired
    # on 199 steps, and each evaluated a rescale candidate the ladder
    # rejected.  The order's floor (5.69e-14 at N=128) keeps it off.
    rescales = _count_calls(monkeypatch, FrameState, "rescaled")
    front = logistic_front(lambda t: 5.0 + 5.0 * t, lambda t: 2.0)
    records, final = run_frames(
        frame_resample_evolver(front), frame_state_from(front, 128, 2.5), AdaptConfig(), 0.001, 0.2,
        MODE_MOVE_SCALE,
    )
    assert len(records) == 201 and final.beta == 2.5
    assert max(r.freq for r in records) < 1e-13
    assert rescales == []
