"""Unit and property tests for the adaptive controllers."""

from __future__ import annotations

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import expit

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
    frame_resample_evolver_2d,
    frame_state_2d_from,
    frame_state_from,
    history_to_csv,
    initial_state,
    normalize_mode,
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
from specadapt.indicators import frequency_indicator


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
    assert normalize_mode(alias) == expected


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        normalize_mode("wiggle")


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


def test_csv_write_is_atomic_no_stray_tmp(tmp_path):
    records = [ExperimentRecord(t=0.0, beta=1.0, x_left=0.0)]
    history_to_csv(records, tmp_path / "h.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.csv"]


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
            frame_resample_evolver_2d(product_front), frame_state_2d_from(product_front, 6, 2.0, 6, 2.0),
            AdaptConfig(), math.inf, 1.0,
        )


def test_scaling_guard_leaves_state_untouched():
    # a frozen-in-time profile never raises its frequency indicator
    def frozen(x, t):
        return diffusive_front(x, 0.0)

    records, _ = run_frames(
        frame_resample_evolver(frozen), frame_state_from(frozen, 20, 2.5), AdaptConfig(), 0.1, 1.0, MODE_SCALE
    )
    assert len(records) == 11
    assert all(r.beta == 2.5 and r.x_left == 0.0 for r in records)


def test_moving_guard_leaves_state_untouched():
    def frozen(x, t):
        return moving_front(x, 0.0)

    records, _ = run_frames(
        frame_resample_evolver(frozen), frame_state_from(frozen, 20, 2.5), AdaptConfig(), 0.1, 1.0, MODE_MOVE
    )
    assert len(records) == 11
    assert all(r.x_left == 0.0 and r.beta == 2.5 for r in records)


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
    evolve = wrap(frame_resample_evolver_2d(product_front))
    return run_2d(evolve, initial, AdaptConfig(), 0.1, 1.0, MODE_MOVE_SCALE)


@pytest.mark.parametrize("drive", [_drive_hermite, _drive_frames, _drive_2d], ids=["hermite", "run_frames", "run_2d"])
def test_evolver_failure_carries_timestamp(drive):
    with pytest.raises(RuntimeError, match=r"failed at t = 0.3.*solver blew up"):
        drive(lambda evolve: _failing_at(evolve, 0.3))


def test_expansion_evolver_must_keep_basis():
    # an evolver that changes a frame's beta or origin breaks the contract
    # of both drivers, in every mode, at the step where it does so
    initial = frame_state_from(diffusive_front, 16, 2.5)
    initial_2d = frame_state_2d_from(product_front, 8, 2.0, 8, 2.0)
    evolve = frame_resample_evolver(diffusive_front)
    evolve_2d = frame_resample_evolver_2d(product_front)
    cases = [
        (run_frames, initial, "0", lambda s, t, dt: evolve(s, t, dt).rescaled(0.5 * s.beta)),
        (run_frames, initial, r"0\.3\d*", lambda s, t, dt: evolve(s, t, dt).moved(0.1 if t > 0.25 else 0.0)),
        (run_2d, initial_2d, "0", lambda s, t, dt: evolve_2d(s, t, dt).rescaled_y(0.95 * s.frame_y.beta)),
        (run_2d, initial_2d, "0", lambda s, t, dt: evolve_2d(s, t, dt).moved_y(0.1)),
    ]
    for drive, state, t_fail, stepper in cases:
        for mode in (MODE_NONE, MODE_MOVE_SCALE):
            with pytest.raises(ValueError, match=rf"at t = {t_fail} changed a frame's beta or origin"):
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

    def checked(state, f, f0, cfg):
        result = ladder(state, f, f0, cfg)
        if result[2]:
            assert result[0].frequency() <= f
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


def test_diffusive_move_scale_identical_to_scale_only():
    cfg = AdaptConfig()
    runs = {}
    for mode in (MODE_SCALE, MODE_MOVE_SCALE):
        state = frame_state_from(diffusive_front, 40, 2.5)
        records, final = run_frames(
            frame_resample_evolver(diffusive_front), state, cfg, 0.01, 2.0, mode
        )
        runs[mode] = (history_to_csv(records), final)
    assert runs[MODE_SCALE][0] == runs[MODE_MOVE_SCALE][0]
    assert runs[MODE_SCALE][1].values.tobytes() == runs[MODE_MOVE_SCALE][1].values.tobytes()
    assert runs[MODE_MOVE_SCALE][1].x_left == 0.0  # the mover never fired


def test_translating_move_scale_identical_to_move_only():
    cfg = AdaptConfig(mu=1.005, delta=0.004, d_max=0.04)
    runs = {}
    for mode in (MODE_MOVE, MODE_MOVE_SCALE):
        state = frame_state_from(moving_front, 40, 2.5)
        records, final = run_frames(
            frame_resample_evolver(moving_front), state, cfg, 0.002, 2.0, mode
        )
        runs[mode] = (history_to_csv(records), final)
    assert runs[MODE_MOVE][0] == runs[MODE_MOVE_SCALE][0]
    assert runs[MODE_MOVE][1].values.tobytes() == runs[MODE_MOVE_SCALE][1].values.tobytes()
    assert runs[MODE_MOVE_SCALE][1].beta == 2.5  # the ladder never fired


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


def test_hermite_run_scales_without_sentinel():
    initial = frame_state_from(widening_gauss, 24, 1.0, family=HERMITE)
    records, final = run_frames(
        frame_resample_evolver(widening_gauss), initial, AdaptConfig(), 0.1, 3.0, MODE_SCALE,
        reference=widening_gauss,
    )
    assert [round(math.log(r.beta) / math.log(0.95)) for r in records] == HERMITE_RUNGS
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


def _eval_at(state, points) -> np.ndarray:
    """A Laguerre frame state's interpolant at physical points."""
    basis = laguerre_basis(state.frame.order, state.beta, x_left=state.x_left)
    return (state.frame.tomodal @ state.values) @ eval_weighted_all(basis, np.asarray(points, dtype=float))


def test_frame_state_rescale_preserves_function():
    state = frame_state_from(diffusive_front, 40, 2.5)
    rescaled = state.rescaled(2.0)
    points = np.linspace(0.5, 8.0, 23)
    assert np.max(np.abs(_eval_at(rescaled, points) - _eval_at(state, points))) < 1e-9


def test_frame_state_move_shifts_origin():
    state = frame_state_from(moving_front, 40, 2.5, t=1.0)
    moved = state.moved(0.5)
    assert moved.x_left == 0.5
    points = np.linspace(1.0, 9.0, 17)
    assert np.max(np.abs(_eval_at(moved, points) - _eval_at(state, points))) < 1e-8


def _count_basis_evaluations(monkeypatch) -> list:
    """Record every eval_weighted_all call the frame engine makes."""
    calls = []

    def counted(basis, x):
        calls.append(basis)
        return eval_weighted_all(basis, x)

    monkeypatch.setattr(adapt, "eval_weighted_all", counted)
    return calls


def _basis(frame):
    """The scaled Laguerre basis whose damped functions a frame evaluates."""
    return laguerre_basis(frame.order, frame.beta)


def _unit_psi(order: int, shift: float = 0.0, ratio: float = 1.0) -> np.ndarray:
    """The damped functions of ``order`` at ratio*y + shift, y the unit nodes.

    A frame at beta evaluates in the unit variable y = beta*x: a move by d
    at y + round(beta*d, 12), a rescale to beta' at y*round(beta/beta', 12).
    """
    unit = laguerre_basis(order, 1.0)
    return eval_weighted_all(unit, quadrature(unit).nodes * ratio + shift)


def _assert_close(actual: np.ndarray, expected: np.ndarray, rel: float) -> None:
    """Max-norm relative agreement."""
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


def test_frame_resampling_is_exact_and_memoized(monkeypatch):
    # an order no other test uses, so the first calls are cold
    state = frame_state_from(moving_front, 37, 1.7, t=0.5)
    frame = state.frame
    coeffs = frame.tomodal @ state.values
    target = Frame(37, 1.7 * 0.95)
    moved_direct = coeffs @ _unit_psi(37, shift=round(1.7 * 0.012, 12))
    rescaled_direct = coeffs @ _unit_psi(37, ratio=round(1.7 / target.beta, 12))
    calls = _count_basis_evaluations(monkeypatch)
    first = [state.moved(0.012).values, state.rescaled(target.beta).values]
    assert len(calls) == 2
    calls.clear()
    again = [state.moved(0.012).values, state.rescaled(target.beta).values]
    assert calls == []
    for values in (first, again):
        assert np.array_equal(values[0], moved_direct)
        assert np.array_equal(values[1], rescaled_direct)
    # the x-variable evaluation agrees to rounding
    monkeypatch.undo()
    _assert_close(first[0], coeffs @ eval_weighted_all(_basis(frame), frame.nodes + 0.012), 1e-12)
    _assert_close(first[1], coeffs @ eval_weighted_all(_basis(frame), target.nodes), 1e-12)


def test_2d_frame_resampling_is_exact_and_memoized(monkeypatch):
    state = frame_state_2d_from(product_front, 11, 1.7, 13, 2.3, t=0.5)
    fx, fy = state.frame_x, state.frame_y
    tx, ty = Frame(11, 1.7 * 0.95), Frame(13, 2.3 * 0.95)
    cx, cy = fx.tomodal @ state.values, (fy.tomodal @ state.values.T).T
    direct = {
        "moved_x": _unit_psi(11, shift=round(1.7 * 0.01, 12)).T @ cx,
        "moved_y": cy @ _unit_psi(13, shift=round(2.3 * 0.01, 12)),
        "rescaled_x": _unit_psi(11, ratio=round(1.7 / tx.beta, 12)).T @ cx,
        "rescaled_y": cy @ _unit_psi(13, ratio=round(2.3 / ty.beta, 12)),
    }
    old = {
        "moved_x": eval_weighted_all(_basis(fx), fx.nodes + 0.01).T @ cx,
        "moved_y": cy @ eval_weighted_all(_basis(fy), fy.nodes + 0.01),
        "rescaled_x": eval_weighted_all(_basis(fx), tx.nodes).T @ cx,
        "rescaled_y": cy @ eval_weighted_all(_basis(fy), ty.nodes),
    }
    args = {"moved_x": 0.01, "moved_y": 0.01, "rescaled_x": tx.beta, "rescaled_y": ty.beta}
    calls = _count_basis_evaluations(monkeypatch)
    for repeat in range(2):
        for name, expected in direct.items():
            values = getattr(state, name)(args[name]).values
            assert np.array_equal(values, expected)
            _assert_close(values, old[name], 1e-12)
        assert len(calls) == (4 if repeat == 0 else 0)
        calls.clear()


def _scratch_indicators(frame, values: np.ndarray, offsets, unit: bool = True) -> tuple:
    """Frequency and exterior ratios from nodal values, with no memo.

    ``frame`` is a :class:`Frame` or a :func:`_direct_frame` build.  The
    exterior ratios come from the derivative's own coefficients (a reverse
    cumsum), independently of the frame's derivative memo.  The tails
    evaluate in the unit variable, as a frame does, or with ``unit=False``
    at the shifted x-nodes.
    """
    coeffs = frame.tomodal @ values
    squares = frame.gamma * coeffs * coeffs
    m = frame.order // 3
    frequency = min(1.0, float(math.sqrt(squares[frame.order + 1 - m :].sum() / float(squares.sum()))))
    above = np.zeros_like(coeffs)
    above[:-1] = np.cumsum(coeffs[:0:-1])[::-1]
    dcoeffs = -frame.beta * (above + 0.5 * coeffs)

    def tail(shift: float) -> float:
        if unit:
            psi = _unit_psi(frame.order, shift=round(frame.beta * shift, 12))
        else:
            psi = eval_weighted_all(_basis(frame), frame.nodes + shift)
        dv = dcoeffs @ psi
        return float(np.sum(frame.weights * dv * dv))

    whole = tail(0.0)
    exterior = [
        math.exp(-0.5 * frame.beta * float(s)) * math.sqrt(max(0.0, tail(float(s)) / whole))
        for s in offsets
    ]
    return frequency, exterior


def _memo_free_exterior(frame: Frame, values: np.ndarray, offsets) -> list:
    """The exterior ratios in the frame's own form, exp(-beta*s/2)*|G(s) c|/|G(0) c|.

    Every G is built afresh from one basis evaluation at the unit-variable
    shift, as a miss of :meth:`Frame.dpsi_at` builds it, so a memoized
    reading must equal these bit for bit.
    """
    unit = adapt._unit_frame(frame.order, LAGUERRE)
    coeffs = frame.tomodal @ values

    def norm(offset: float) -> float:
        psi = eval_weighted_all(unit.basis, unit.nodes + round(frame.beta * float(offset), 12))
        g = unit.dpsi(psi) @ coeffs
        return math.sqrt(g.dot(g))

    whole = norm(0.0)
    return [math.exp(-0.5 * frame.beta * float(s)) * (norm(s) / whole) for s in offsets]


def _count_derivative_setups(monkeypatch) -> list:
    """Record the frame of every exterior-indicator denominator."""
    calls = []
    original = Frame.derivative_norm

    def counted(frame, coeffs):
        calls.append(frame)
        return original(frame, coeffs)

    monkeypatch.setattr(Frame, "derivative_norm", counted)
    return calls


def _search_offsets(control, cfg: AdaptConfig) -> list:
    """The sentinel offsets a full mover search evaluates, as the state forms them."""
    split = control.split_point()
    n_max = int(math.floor(cfg.d_max / cfg.delta + 1e-12))
    return [split - control.x_left] + [
        (split + n * cfg.delta) - control.x_left for n in range(1, n_max + 1)
    ]


def test_frame_state_memo_is_exact_and_set_up_once(monkeypatch):
    # an order and scale no other test uses, so the frame's memos are cold
    cfg = AdaptConfig()
    state = frame_state_from(moving_front, 29, 1.9, x_left=0.3, t=0.4)
    offsets = _search_offsets(state, cfg)
    frequency, oracle = _scratch_indicators(state.frame, state.values, offsets)
    exterior = _memo_free_exterior(state.frame, state.values, offsets)
    assert exterior == pytest.approx(oracle, rel=1e-12, abs=0)
    calls = _count_derivative_setups(monkeypatch)
    e = state.exterior(state.split_point())
    assert e == exterior[0]
    # a baseline no candidate can meet runs the search to its cap
    assert adapt._moving_distance(state, e, 1e-300, cfg) == cfg.d_max
    split = state.split_point()
    for n, expected in enumerate(exterior):
        assert state.exterior(split + n * cfg.delta) == expected
    assert state.frequency() == frequency
    assert calls == [state.frame]
    # the x-variable evaluation agrees to rounding
    x_exterior = _scratch_indicators(state.frame, state.values, offsets, unit=False)[1]
    assert exterior == pytest.approx(x_exterior, rel=1e-12, abs=0)
    # a derived state sets up its own indicators from its own values
    for derived in (state.moved(2 * cfg.delta), state.rescaled(0.95 * state.beta)):
        calls.clear()
        offsets = _search_offsets(derived, cfg)[:1]
        frequency, oracle = _scratch_indicators(derived.frame, derived.values, offsets)
        assert derived.frequency() == frequency
        e = derived.exterior(derived.split_point())
        assert e == _memo_free_exterior(derived.frame, derived.values, offsets)[0]
        assert e == pytest.approx(oracle[0], rel=1e-12, abs=0)
        assert calls == [derived.frame]


def test_2d_frame_state_memo_is_exact_and_set_up_once(monkeypatch):
    cfg = AdaptConfig(mu=1.003, delta=0.005, d_max=0.1)
    state = frame_state_2d_from(product_front, 9, 1.6, 10, 2.1, x_left=0.2, y_left=0.1, t=0.3)
    fx, fy = state.frame_x, state.frame_y
    coeffs = fx.tomodal @ state.values @ fy.tomodal.T
    assert np.array_equal(state.coefficients(), coeffs)
    energy = np.multiply.outer(fx.gamma, fy.gamma) * coeffs**2
    total = float(energy.sum())
    expected_frequency = (
        min(1.0, float(math.sqrt(energy[fx.order + 1 - fx.order // 3 :, :].sum() / total))),
        min(1.0, float(math.sqrt(energy[:, fy.order + 1 - fy.order // 3 :].sum() / total))),
    )
    marginals = (state.values @ fy.mod_weights, fx.mod_weights @ state.values)
    calls = _count_derivative_setups(monkeypatch)
    for axis, frame in ((0, fx), (1, fy)):
        control = adapt._AxisControl(state, axis)
        offsets = _search_offsets(control, cfg)
        oracle = _scratch_indicators(frame, marginals[axis], offsets)[1]
        exterior = _memo_free_exterior(frame, marginals[axis], offsets)
        assert exterior == pytest.approx(oracle, rel=1e-12, abs=0)
        e = control.exterior(control.split_point())
        assert e == exterior[0]
        assert adapt._moving_distance(control, e, 1e-300, cfg) == cfg.d_max
        split = control.split_point()
        for n, expected in enumerate(exterior):
            assert control.exterior(split + n * cfg.delta) == expected
        assert control.frequency() == expected_frequency[axis]
        x_exterior = _scratch_indicators(frame, marginals[axis], offsets, unit=False)[1]
        assert exterior == pytest.approx(x_exterior, rel=1e-12, abs=0)
    assert calls == [fx, fy]
    # derived states set up their own indicators, one per axis again
    for derived in (state.moved_x(0.01), state.moved_y(0.01), state.rescaled_x(1.5), state.rescaled_y(2.0)):
        calls.clear()
        derived.exterior_x(derived.split_x())
        derived.exterior_y(derived.split_y())
        assert calls == [derived.frame_x, derived.frame_y]
        assert np.array_equal(
            derived.coefficients(), derived.frame_x.tomodal @ derived.values @ derived.frame_y.tomodal.T
        )


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
        state_2d.coefficients()[0] = 1.0
    assert mine_2d.flags.writeable


def test_frame_state_rejects_values_of_the_wrong_shape():
    frame = Frame(12, 2.0)
    values = moving_front(frame.nodes, 0.2)
    for wrong in (values[:, None], values[None, :], values[:-1], np.float64(1.0)):
        with pytest.raises(ValueError, match=r"values shape .* != \(13,\)"):
            FrameState(frame, wrong)
    with pytest.raises(ValueError, match="values shape"):
        frame_resample_evolver(lambda x, t: 1.0)(FrameState(frame, values), 0.0, 0.1)


def _count_calls(monkeypatch, owner, name) -> list:
    """Record ``(self, args)`` of every call to the method ``owner.name``."""
    calls = []
    original = getattr(owner, name)

    def counted(self, *args):
        calls.append((self, args))
        return original(self, *args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_frame_state_readings_are_memoized(monkeypatch):
    state = frame_state_from(moving_front, 24, 2.0, x_left=0.3, t=0.2)
    frame = state.frame
    coeffs = frame.tomodal @ state.values
    whole = frame.derivative_norm(coeffs)
    split = state.split_point()
    scratch_frequency = frame.frequency(coeffs)
    scratch_exterior = frame.tails(coeffs, whole, split - state.x_left)
    other = split + 0.05
    scratch_other = frame.tails(coeffs, whole, other - state.x_left)
    oracle = _scratch_indicators(frame, state.values, [split - state.x_left, other - state.x_left])[1]
    assert [scratch_exterior, scratch_other] == pytest.approx(oracle, rel=1e-12, abs=0)
    tails = _count_calls(monkeypatch, Frame, "tails")
    frequency = _count_calls(monkeypatch, Frame, "frequency")
    assert state.frequency() == scratch_frequency
    assert state.exterior(split) == scratch_exterior
    assert (len(frequency), len(tails)) == (1, 1)
    for _ in range(3):
        assert state.frequency() == scratch_frequency
        assert state.exterior(state.split_point()) == scratch_exterior
    assert (len(frequency), len(tails)) == (1, 1)
    # any other split is evaluated on every call
    assert state.exterior(other) == scratch_other
    assert state.exterior(other) == scratch_other
    assert len(tails) == 3
    # a derived state reads its own indicators
    moved = state.moved(0.01)
    moved.frequency()
    moved.exterior(moved.split_point())
    assert (len(frequency), len(tails)) == (2, 4)


def test_frame_state_2d_readings_are_memoized(monkeypatch):
    state = frame_state_2d_from(product_front, 9, 1.6, 10, 2.1, x_left=0.2, y_left=0.1, t=0.3)
    fx, fy = state.frame_x, state.frame_y
    coeffs = fx.tomodal @ state.values @ fy.tomodal.T
    energy = np.multiply.outer(fx.gamma, fy.gamma) * coeffs**2
    total = float(energy.sum())
    scratch_frequency = (
        min(1.0, float(math.sqrt(energy[fx.order + 1 - fx.order // 3 :, :].sum() / total))),
        min(1.0, float(math.sqrt(energy[:, fy.order + 1 - fy.order // 3 :].sum() / total))),
    )
    marginals = (state.values @ fy.mod_weights, fx.mod_weights @ state.values)
    lefts = (state.x_left, state.y_left)
    splits = (state.split_x(), state.split_y())
    scratch_exterior = []
    for frame, marginal, left, split in zip((fx, fy), marginals, lefts, splits):
        coeffs = frame.tomodal @ marginal
        whole = frame.derivative_norm(coeffs)
        scratch_exterior.append(
            (frame.tails(coeffs, whole, split - left), frame.tails(coeffs, whole, split + 0.05 - left))
        )
        oracle = _scratch_indicators(frame, marginal, [split - left, split + 0.05 - left])[1]
        assert list(scratch_exterior[-1]) == pytest.approx(oracle, rel=1e-12, abs=0)
    tails = _count_calls(monkeypatch, Frame, "tails")
    frequency = _count_calls(monkeypatch, FrameState2D, "_frequency_axis")
    for axis in (0, 1):
        control = adapt._AxisControl(state, axis)
        before = (len(frequency), len(tails))
        for _ in range(3):
            assert control.frequency() == scratch_frequency[axis]
            assert control.exterior(control.split_point()) == scratch_exterior[axis][0]
        assert (len(frequency), len(tails)) == (before[0] + 1, before[1] + 1)
        assert control.exterior(splits[axis] + 0.05) == scratch_exterior[axis][1]
        assert control.exterior(splits[axis] + 0.05) == scratch_exterior[axis][1]
        assert len(tails) == before[1] + 3
    assert state._energy_total == total


@pytest.mark.parametrize("mode", [MODE_MOVE, MODE_SCALE, MODE_MOVE_SCALE])
def test_run_2d_reads_each_reading_once_per_state(monkeypatch, mode):
    # the controllers and the per-step record share each state's readings:
    # over a whole run, no state evaluates a frequency or an exterior twice
    cfg = AdaptConfig(mu=1.003, delta=0.005, d_max=0.1)
    tails = _count_calls(monkeypatch, Frame, "tails")
    frequency = _count_calls(monkeypatch, FrameState2D, "_frequency_axis")
    records, _ = run_2d(
        frame_resample_evolver_2d(product_front), frame_state_2d_from(product_front, 12, 2.0, 12, 2.0),
        cfg, 0.05, 1.0, mode,
    )
    assert len(records) == 21 and len(frequency) >= 42 and len(tails) >= 42
    # the calls hold their arguments, so no id is reused within one list
    assert len({(id(state), axis) for state, (axis,) in frequency}) == len(frequency)
    assert len({(id(coeffs), offset) for _, (coeffs, _, offset) in tails}) == len(tails)


def _non_separable(x, y, t):
    return np.exp(-((x - 1.0) ** 2) - (y - 2.0) ** 2 - x * y / 10.0 - t)


def test_2d_references_are_called_on_open_grids():
    shapes = []

    def recording(x, y, t):
        shapes.append((np.shape(x), np.shape(y)))
        return _non_separable(x, y, t)

    state = frame_state_2d_from(recording, 9, 1.5, 6, 2.0)
    evolved = frame_resample_evolver_2d(recording)(state, 0.0, 0.1)
    evolved.error(recording, 0.1)
    assert shapes == [((10, 1), (1, 7)), ((10, 1), (1, 7)), ((20, 1), (1, 14))]


def test_open_grids_match_full_grid_sampling():
    state = frame_state_2d_from(_non_separable, 14, 1.5, 11, 2.0, x_left=0.2, y_left=0.1, t=0.3)
    grid_x, grid_y = np.meshgrid(state.nodes_x(), state.nodes_y(), indexing="ij")
    assert np.array_equal(state.values, _non_separable(grid_x, grid_y, 0.3))
    evolved = frame_resample_evolver_2d(_non_separable)(state, 0.3, 0.1)
    assert np.array_equal(evolved.values, _non_separable(grid_x, grid_y, 0.4))
    # an oracle error on the full refined grid with the outer weight grid
    fx, fy = state.frame_x, state.frame_y
    grid_x, grid_y = np.meshgrid(
        state.x_left + fx.refined_nodes, state.y_left + fy.refined_nodes, indexing="ij"
    )
    approx = fx._psi_refined.T @ state.coefficients() @ fy._psi_refined
    weights = np.multiply.outer(fx.refined_weights, fy.refined_weights)
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
        frame_resample_evolver_2d(wrong)(state, 0.0, 0.1)
    with pytest.raises(ValueError, match=r"\(3, 3\).*grid shape \(18, 14\)"):
        state.error(wrong, 0.0)


def _alpha_one_tails(frame: Frame, values: np.ndarray, offsets) -> list:
    """The exterior ratios with the derivative taken in the alpha = 1 family."""
    coeffs = frame.tomodal @ values
    dbasis = laguerre_basis(frame.order - 1, frame.beta, alpha=1.0)

    def tail(shift: float) -> float:
        points = frame.nodes + shift
        dv = (-frame.beta * coeffs[1:]) @ eval_weighted_all(dbasis, points) - 0.5 * frame.beta * (
            coeffs @ eval_weighted_all(_basis(frame), points)
        )
        return float(np.sum(frame.weights * dv * dv))

    whole = tail(0.0)
    return [math.exp(-0.5 * frame.beta * s) * math.sqrt(tail(s) / whole) for s in offsets]


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
    for values in profiles:
        for offset, expected in zip(offsets, _alpha_one_tails(frame, values, offsets)):
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


def test_frame_operators_finite_at_order_256():
    frame = Frame(256, 1.0)
    assert np.all(np.isfinite(frame.mod_weights))
    assert np.all(np.isfinite(frame.tomodal))


def test_frame_state_at_order_256_is_accurate():
    state = frame_state_from(diffusive_front, 256, 2.5)
    assert state.error(diffusive_front, 0.0) <= 1e-8
    assert math.isfinite(state.frequency())
    assert math.isfinite(state.exterior(state.split_point()))


def test_frame_order_ceiling():
    # exp(-y/2) at the largest node leaves the normal float64 range at 364
    frame = Frame(363, 1.0)
    assert np.all(np.isfinite(frame.tomodal))
    assert np.all(np.any(frame.tomodal != 0.0, axis=0))
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
    frame = Frame(363, 1.0, HERMITE)
    for operator in (frame.tomodal, frame._psi_refined):
        assert np.all(np.isfinite(operator))
        assert np.all(np.any(operator != 0.0, axis=0))
    state = frame_state_from(widening_gauss, 363, 1.0, family=HERMITE)
    assert state.error(widening_gauss, 0.0) <= 1e-8
    assert state.rescaled(0.95).error(widening_gauss, 0.0) <= 1e-8
    before = (dict(Frame._cache), adapt._unit_frame.cache_info().currsize)
    with pytest.raises(ValueError, match="order 729 exceeds the ceiling of 727"):
        Frame(364, 1.0, HERMITE)
    assert (dict(Frame._cache), adapt._unit_frame.cache_info().currsize) == before


def _direct_frame(order: int, beta: float) -> SimpleNamespace:
    """A from-scratch (order, beta) frame in the x variable, sharing nothing."""
    basis = laguerre_basis(order, beta)
    rule = quadrature(basis)
    mod_weights = modified_weights(rule)
    gamma = gamma_norms(basis)
    return SimpleNamespace(
        order=order,
        beta=beta,
        basis=basis,
        nodes=rule.nodes,
        weights=rule.weights,
        mod_weights=mod_weights,
        gamma=gamma,
        tomodal=eval_weighted_all(basis, rule.nodes) * mod_weights / gamma[:, None],
        psi_refined=eval_weighted_all(basis, quadrature(laguerre_basis(2 * order + 1, beta)).nodes),
    )


@pytest.mark.parametrize("order", [32, 128, 300])
@pytest.mark.parametrize("beta", [0.2, 2.5, 2.5 * 0.95**7])
def test_unit_frame_matches_direct_build(order, beta):
    frame = Frame(order, beta)
    direct = _direct_frame(order, beta)
    for name in ("nodes", "weights", "mod_weights", "gamma"):
        actual, expected = getattr(frame, name), getattr(direct, name)
        assert np.all(np.abs(actual - expected) <= 1e-14 * np.abs(expected)), name
    _assert_close(frame.tomodal, direct.tomodal, 1e-13)
    _assert_close(frame._psi_refined, direct.psi_refined, 1e-13)
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


def test_frames_of_one_order_share_one_unit_frame():
    before = adapt._unit_frame.cache_info().currsize
    frames = [Frame(41, 0.3 + 0.01 * k) for k in range(300)]
    assert adapt._unit_frame.cache_info().currsize <= before + 1
    unit = adapt._unit_frame(41, LAGUERRE)
    assert all(frame._unit is unit and frame.tomodal is unit.tomodal for frame in frames)


def test_resampling_memos_are_bounded():
    state = frame_state_from(moving_front, 128, 2.5, t=0.3)
    unit = state.frame._unit
    split = state.split_point()
    for k in range(200):
        state.exterior(split + 0.001 * k)
        state.rescaled(2.5 * (0.5 + 0.002 * k))
        state.moved(0.001 * (k + 1))
    for memo in (unit.psi_at, unit.psi_on, unit.dpsi_at):
        assert 0 < len(memo) <= adapt._MEMO_SIZE
        assert all(psi.shape == (129, 129) for psi in memo.values())
    # the most recent entries are the ones kept
    assert round(2.5 * (split + 0.199), 12) in unit.dpsi_at
    assert round(1.0 / (0.5 + 0.002 * 199), 12) in unit.psi_on
    assert round(2.5 * 0.2, 12) in unit.psi_at


def test_derivative_memo_drops_the_least_recently_used_entry(monkeypatch):
    frame = Frame(23, 1.0)  # an order no other test uses
    unit = frame._unit
    assert list(unit.dpsi_at) == [0.0]
    shifts = [0.01 * k for k in range(1, adapt._MEMO_SIZE)]
    first = [frame.dpsi_at(s) for s in shifts]
    assert len(unit.dpsi_at) == adapt._MEMO_SIZE
    calls = _count_basis_evaluations(monkeypatch)
    frame.dpsi_at(0.0)  # a hit makes the zero entry the most recent
    frame.dpsi_at(0.64)
    assert len(calls) == 1 and len(unit.dpsi_at) == adapt._MEMO_SIZE
    assert round(shifts[0], 12) not in unit.dpsi_at
    assert 0.0 in unit.dpsi_at and round(shifts[1], 12) in unit.dpsi_at
    # a dropped entry is evaluated again, to the same bits
    assert np.array_equal(frame.dpsi_at(shifts[0]), first[0])
    assert len(calls) == 2 and round(shifts[1], 12) not in unit.dpsi_at


def test_derivative_memo_zero_shift_shares_the_build_evaluation(monkeypatch):
    calls = _count_basis_evaluations(monkeypatch)
    unit = adapt._UnitFrame(17, LAGUERRE)
    assert len(calls) == 2  # the nodes and the refined nodes, as without the memo
    psi = unit.psi_at[0.0]
    expected = np.sqrt(unit.weights)[:, None] * (np.cumsum(psi, axis=0) - 0.5 * psi).T
    assert list(unit.dpsi_at) == [0.0] and not psi.flags.writeable
    np.testing.assert_allclose(unit.dpsi_at[0.0], expected, rtol=1e-12, atol=0)
    assert not unit.dpsi_at[0.0].flags.writeable


def test_hermite_frame_has_no_derivative_memo():
    state = frame_state_from(widening_gauss, 20, 1.0, family=HERMITE)
    unit = state.frame._unit
    assert state.split_point() is None and state.exterior(state.split_point()) is None
    records, _ = run_frames(
        frame_resample_evolver(widening_gauss), state, AdaptConfig(), 0.1, 1.0, MODE_SCALE
    )
    assert all(r.ext is None for r in records)
    assert unit.dpsi_at == {}
    with pytest.raises(ValueError, match="Laguerre"):
        state.frame.dpsi_at(0.1)
    with pytest.raises(ValueError, match="Laguerre"):
        state.exterior(1.0)
    assert unit.dpsi_at == {}


@pytest.mark.parametrize("order", [16, 128, 363])
def test_derivative_memo_matches_a_scratch_build(order):
    frame = Frame(order, 2.0)
    basis = laguerre_basis(order, 1.0)
    rule = quadrature(basis)
    split = frame.split_rel
    for shift in (0.0, split, split + 0.004, 0.7, 25.0):
        psi = eval_weighted_all(basis, rule.nodes + round(2.0 * shift, 12))
        expected = np.sqrt(rule.weights)[:, None] * (np.cumsum(psi, axis=0) - 0.5 * psi).T
        np.testing.assert_allclose(frame.dpsi_at(shift), expected, rtol=1e-12, atol=0)


def test_frame_state_error_rejects_a_misshaped_reference():
    def f(x, t):
        return np.exp(-x)

    state = frame_state_from(f, 16, 1.0)
    assert state.error(f, 0.0) < 1e-8
    for wrong, shape in (
        (lambda x, t: f(x, t)[:, None], r"\(34, 1\)"),
        (lambda x, t: f(x, t)[:5], r"\(5,\)"),
    ):
        with pytest.raises(ValueError, match=shape + r".*refined-node shape \(34,\)"):
            state.error(wrong, 0.0)
    # a scalar reference broadcasts
    full = lambda x, t: np.full(np.shape(x), 2.0)
    assert state.error(lambda x, t: 2.0, 0.0) == state.error(full, 0.0) > 0.1


def test_frame_rejects_bad_input_and_caches_nothing():
    before = (dict(Frame._cache), adapt._unit_frame.cache_info().currsize)
    for beta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            Frame(32, beta)
    with pytest.raises(ValueError, match="364"):
        Frame(364, 1.0)
    with pytest.raises(ValueError, match="unknown basis family"):
        Frame(32, 1.0, "chebyshev")
    assert (dict(Frame._cache), adapt._unit_frame.cache_info().currsize) == before


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


# ---------------------------------------------------------------------------
# two-dimensional driver


def product_front(x, y, t):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return expit(-(x - 2.0 - t) / (2.0 + 0.3 * t)) * expit(-(y - 2.0 - t) / (2.0 + 0.4 * t))


def test_run_2d_records_and_extras():
    state = frame_state_2d_from(product_front, 12, 2.0, 14, 2.5)
    records, final = run_2d(
        frame_resample_evolver_2d(product_front),
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
    state = frame_state_2d_from(product_front, 16, 2.0, 16, 2.0)
    # the y-marginal at the x-nodes equals integrating the interpolant over y
    marginal = state.marginal_x_values()
    y_rule = quadrature(laguerre_basis(16, 2.0))
    weights = y_rule.weights * np.exp(2.0 * y_rule.nodes)
    direct = state.values @ weights
    assert np.allclose(marginal, direct, rtol=0, atol=1e-12)


def test_2d_x_move_leaves_y_untouched():
    state = frame_state_2d_from(product_front, 12, 2.0, 12, 2.0)
    moved = state.moved_x(0.25)
    assert moved.x_left == 0.25 and moved.y_left == 0.0
    assert moved.frame_y is state.frame_y
    # the represented function is unchanged where both frames resolve it
    xs = np.linspace(1.0, 6.0, 7)
    before = np.array(
        [_eval_at(FrameState(state.frame_x, state.values[:, j]), xs) for j in range(13)]
    )
    after = np.array(
        [_eval_at(FrameState(moved.frame_x, moved.values[:, j], 0.25), xs) for j in range(13)]
    )
    assert np.max(np.abs(after - before)) < 1e-8


def test_run_2d_moves_from_one_state_and_never_reanchors(monkeypatch):
    evolved, moves, ladders = [], [], []
    evolve = frame_resample_evolver_2d(product_front)
    moving_distance, scaling_ladder = adapt._moving_distance, adapt._scaling_ladder

    def recorded_evolve(state, t, dt):
        evolved.append(evolve(state, t, dt))
        return evolved[-1]

    def recorded_move(view, e, e0, cfg):
        moves.append((len(evolved), view.axis, view.state, e0))
        return moving_distance(view, e, e0, cfg)

    def recorded_ladder(view, f, f0, cfg):
        result = scaling_ladder(view, f, f0, cfg)
        ladders.append((len(evolved), view.axis, view.state, result[0].state, result[2]))
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
    e0 = (state.exterior_x(state.split_x()), state.exterior_y(state.split_y()))
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
        frame_resample_evolver_2d(front_2d), frame_state_2d_from(front_2d, 48, 2.0, 48, 2.0),
        cfg, 0.005, t_final, mode,
    )
    for x_left in (final.x_left, final_2d.x_left, final_2d.y_left):
        if name == "widen-only":
            assert x_left == 0.0  # the mover never fires
        else:
            assert centre(t_final) - 3.0 * width(t_final) <= x_left <= centre(t_final)
