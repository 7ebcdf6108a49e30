"""Unit and property tests for the adaptive controllers."""

from __future__ import annotations

import math
import warnings

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
    move_scale_step,
    moving_step,
    normalize_mode,
    resample_evolver,
    run,
    run_2d,
    run_frames,
    scaling_step,
    suggest_initial_beta,
)
from specadapt.approx import Expansion, interpolate, relative_error, rescale
from specadapt.basis import eval_weighted_all, hermite_basis, laguerre_basis, quadrature
from specadapt.indicators import IndicatorConfig


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
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
        run_frames(evolve, state, AdaptConfig(), 0.0, 1.0)
    with pytest.raises(ValueError):
        run_frames(evolve, state, AdaptConfig(), 0.1, -1.0)


def test_scaling_guard_leaves_state_untouched():
    # a frozen-in-time profile never raises its frequency indicator
    state = initial_state(
        interpolate(
            diffusive_front(quadrature(laguerre_basis(20, 2.5)).nodes, 0.0),
            laguerre_basis(20, 2.5),
        ),
        AdaptConfig(),
    )
    before = state.expansion
    after = scaling_step(state, AdaptConfig())
    assert after.expansion is before
    assert after.rescalings == 0


def test_moving_guard_leaves_state_untouched():
    state = initial_state(
        interpolate(
            moving_front(quadrature(laguerre_basis(20, 2.5)).nodes, 0.0),
            laguerre_basis(20, 2.5),
        ),
        AdaptConfig(),
    )
    after = moving_step(state, AdaptConfig())
    assert after.moves == 0
    assert after.expansion.basis.x_left == 0.0


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


def test_evolver_failure_carries_timestamp():
    def bomb(state, t, dt):
        if t >= 0.3:
            raise RuntimeError("solver blew up")
        return frame_resample_evolver(diffusive_front)(state, t, dt)

    state = frame_state_from(diffusive_front, 16, 2.5)
    with pytest.raises(RuntimeError, match=r"failed at t = 0.3.*solver blew up"):
        run_frames(bomb, state, AdaptConfig(), 0.1, 1.0, MODE_NONE)


def test_expansion_evolver_must_keep_basis():
    basis = laguerre_basis(16, 2.5)
    initial = interpolate(diffusive_front(quadrature(basis).nodes, 0.0), basis)

    def rescaler(expansion, t, dt):
        return rescale(expansion, 0.5 * expansion.basis.beta)

    with pytest.raises(ValueError, match="same basis|basis it was given"):
        run(rescaler, initial, AdaptConfig(), 0.1, 1.0, MODE_NONE)


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


def test_accepted_rescale_never_raises_frequency():
    state = frame_state_from(diffusive_front, 24, 2.5)
    records, _ = run_frames(
        frame_resample_evolver(diffusive_front), state, AdaptConfig(), 0.05, 4.0, MODE_SCALE
    )
    freq_by_beta = {}
    for rec in records:
        freq_by_beta.setdefault(rec.beta, []).append(rec.freq)
    # each new beta appears because its acceptance check held at that moment;
    # sanity-check the recorded indicators stay finite and in [0, 1]
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
    assert all(b <= a for a, b in zip(lefts[1:], lefts[1:]))  # placeholder ordering
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
    # fresh interpolants of a pure spreading profile keep both counters at
    # zero: the mover must not mistake diffusion for translation, and the
    # polynomial-coefficient tail of a widening profile shrinks, so the
    # ladder has nothing to do either (evolved PDE states, not fresh
    # interpolants, are what raise it -- see the Hermite test below for the
    # accepting-ladder path at this API level)
    cfg = AdaptConfig()
    state = initial_state(
        interpolate(
            diffusive_front(quadrature(laguerre_basis(40, 2.5)).nodes, 0.0),
            laguerre_basis(40, 2.5),
        ),
        cfg,
    )
    evolve = resample_evolver(diffusive_front)
    for n in range(100):
        state.expansion = evolve(state.expansion, n * 0.01, 0.01)
        state = move_scale_step(state, cfg)
    assert state.moves == 0
    assert state.rescalings == 0
    assert state.expansion.basis.x_left == 0.0


# ---------------------------------------------------------------------------
# step functions vs the loop


def test_expansion_run_matches_manual_step_loop():
    cfg = AdaptConfig()
    basis = laguerre_basis(24, 2.5)
    initial = interpolate(diffusive_front(quadrature(basis).nodes, 0.0), basis)
    records = run(resample_evolver(diffusive_front), initial, cfg, 0.05, 2.0, MODE_SCALE)

    state = initial_state(initial, cfg)
    evolve = resample_evolver(diffusive_front)
    betas = [state.expansion.basis.beta]
    for n in range(40):
        state.expansion = evolve(state.expansion, n * 0.05, 0.05)
        state = scaling_step(state, cfg)
        betas.append(state.expansion.basis.beta)
    assert [r.beta for r in records] == betas
    assert records[-1].x_left == state.expansion.basis.x_left == 0.0


def test_record_count_is_steps_plus_initial():
    state = frame_state_from(diffusive_front, 16, 2.5)
    records, _ = run_frames(
        frame_resample_evolver(diffusive_front), state, AdaptConfig(), 0.1, 1.0, MODE_NONE
    )
    assert len(records) == 11
    assert records[0].t == 0.0
    assert records[-1].t == pytest.approx(1.0)


def test_hermite_run_scales_without_sentinel():
    def widening_gauss(x, t):
        x = np.asarray(x, dtype=float)
        return np.exp(-((x / (1.0 + t)) ** 2))

    basis = hermite_basis(24, 1.0)
    initial = interpolate(widening_gauss(quadrature(basis).nodes, 0.0), basis)
    records = run(
        resample_evolver(widening_gauss), initial, AdaptConfig(), 0.1, 3.0, MODE_SCALE,
        reference=widening_gauss,
    )
    assert records[-1].beta < 1.0  # the ladder fired
    assert all(r.ext is None for r in records)  # no exterior sentinel for this family
    assert records[-1].error < 1e-8


# ---------------------------------------------------------------------------
# helpers


def test_suggest_initial_beta_prefers_matched_scale():
    def wide(x):
        return expit(-(np.asarray(x, dtype=float) - 5.0) / 12.0)

    basis = laguerre_basis(40, 2.5)
    suggestion = suggest_initial_beta(wide, basis)
    assert suggestion < 2.5
    # a profile matched to the basis scale keeps the starting factor:
    # exp(-beta*x/2) is the frame's own ground mode
    def matched(x):
        return np.exp(-1.25 * np.asarray(x, dtype=float))

    assert suggest_initial_beta(matched, laguerre_basis(20, 2.5)) == 2.5


def test_frame_state_rescale_preserves_function():
    state = frame_state_from(diffusive_front, 40, 2.5)
    rescaled = state.rescaled(2.0)
    points = np.linspace(0.5, 8.0, 23)
    original = state.frame.eval_at(state.values, points - state.x_left)
    after = rescaled.frame.eval_at(rescaled.values, points - rescaled.x_left)
    assert np.max(np.abs(after - original)) < 1e-9


def test_frame_state_move_shifts_origin():
    state = frame_state_from(moving_front, 40, 2.5, t=1.0)
    moved = state.moved(0.5)
    assert moved.x_left == 0.5
    points = np.linspace(1.0, 9.0, 17)
    before = state.frame.eval_at(state.values, points)
    after = moved.frame.eval_at(moved.values, points - 0.5)
    assert np.max(np.abs(after - before)) < 1e-8


def _count_basis_evaluations(monkeypatch) -> list:
    """Record every eval_weighted_all call the frame engine makes."""
    calls = []

    def counted(basis, x):
        calls.append(basis)
        return eval_weighted_all(basis, x)

    monkeypatch.setattr(adapt, "eval_weighted_all", counted)
    return calls


def test_frame_resampling_is_exact_and_memoized(monkeypatch):
    # an order and scale no other test uses, so the first calls are cold
    state = frame_state_from(moving_front, 37, 1.7, t=0.5)
    frame = state.frame
    coeffs = frame.tomodal @ state.values
    target = Frame(37, 1.7 * 0.95)
    moved_direct = coeffs @ eval_weighted_all(frame.basis, frame.nodes + 0.012)
    rescaled_direct = coeffs @ eval_weighted_all(frame.basis, target.nodes)
    calls = _count_basis_evaluations(monkeypatch)
    first = [state.moved(0.012).values, state.rescaled(target.beta).values]
    assert len(calls) == 2
    calls.clear()
    again = [state.moved(0.012).values, state.rescaled(target.beta).values]
    assert calls == []
    for values in (first, again):
        assert np.array_equal(values[0], moved_direct)
        assert np.array_equal(values[1], rescaled_direct)


def test_2d_frame_resampling_is_exact_and_memoized(monkeypatch):
    state = frame_state_2d_from(product_front, 11, 1.7, 13, 2.3, t=0.5)
    fx, fy = state.frame_x, state.frame_y
    tx, ty = Frame(11, 1.7 * 0.95), Frame(13, 2.3 * 0.95)
    direct = {
        "moved_x": eval_weighted_all(fx.basis, fx.nodes + 0.01).T @ (fx.tomodal @ state.values),
        "moved_y": (fy.tomodal @ state.values.T).T @ eval_weighted_all(fy.basis, fy.nodes + 0.01),
        "rescaled_x": eval_weighted_all(fx.basis, tx.nodes).T @ (fx.tomodal @ state.values),
        "rescaled_y": (fy.tomodal @ state.values.T).T @ eval_weighted_all(fy.basis, ty.nodes),
    }
    args = {"moved_x": 0.01, "moved_y": 0.01, "rescaled_x": tx.beta, "rescaled_y": ty.beta}
    calls = _count_basis_evaluations(monkeypatch)
    for repeat in range(2):
        for name, expected in direct.items():
            assert np.array_equal(getattr(state, name)(args[name]).values, expected)
        assert len(calls) == (4 if repeat == 0 else 0)
        calls.clear()


def _scratch_indicators(frame: Frame, values: np.ndarray, offsets) -> tuple:
    """Frequency and exterior ratios from nodal values, with no memo."""
    coeffs = frame.tomodal @ values
    squares = frame.gamma * coeffs * coeffs
    m = frame.order // 3
    frequency = min(1.0, float(math.sqrt(squares[frame.order + 1 - m :].sum() / float(squares.sum()))))
    above = np.zeros_like(coeffs)
    above[:-1] = np.cumsum(coeffs[:0:-1])[::-1]
    dcoeffs = -frame.beta * (above + 0.5 * coeffs)

    def tail(shift: float) -> float:
        dv = dcoeffs @ eval_weighted_all(frame.basis, frame.nodes + shift)
        return float(np.sum(frame.weights * dv * dv))

    whole = tail(0.0)
    exterior = [
        math.exp(-0.5 * frame.beta * float(s)) * math.sqrt(max(0.0, tail(float(s)) / whole))
        for s in offsets
    ]
    return frequency, exterior


def _count_derivative_setups(monkeypatch) -> list:
    """Record the frame of every exterior-indicator set-up."""
    calls = []
    original = Frame.derivative

    def counted(frame, coeffs):
        calls.append(frame)
        return original(frame, coeffs)

    monkeypatch.setattr(Frame, "derivative", counted)
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
    frequency, exterior = _scratch_indicators(state.frame, state.values, offsets)
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
    # a derived state sets up its own indicators from its own values
    for derived in (state.moved(2 * cfg.delta), state.rescaled(0.95 * state.beta)):
        calls.clear()
        offsets = _search_offsets(derived, cfg)
        frequency, exterior = _scratch_indicators(derived.frame, derived.values, offsets)
        assert derived.frequency() == frequency
        assert derived.exterior(derived.split_point()) == exterior[0]
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
        frequency, exterior = _scratch_indicators(frame, marginals[axis], offsets)
        e = control.exterior(control.split_point())
        assert e == exterior[0]
        assert adapt._moving_distance(control, e, 1e-300, cfg) == cfg.d_max
        split = control.split_point()
        for n, expected in enumerate(exterior):
            assert control.exterior(split + n * cfg.delta) == expected
        assert control.frequency() == expected_frequency[axis]
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


def test_frame_engine_rejects_custom_indicator_config():
    cfg = AdaptConfig(indicators=IndicatorConfig(high_mode_rule=lambda n: n))
    state = frame_state_from(moving_front, 12, 2.0)
    with pytest.raises(ValueError, match="IndicatorConfig"):
        run_frames(frame_resample_evolver(moving_front), state, cfg, 0.1, 0.2, MODE_MOVE_SCALE)
    state_2d = frame_state_2d_from(product_front, 6, 2.0, 6, 2.0)
    with pytest.raises(ValueError, match="IndicatorConfig"):
        run_2d(frame_resample_evolver_2d(product_front), state_2d, cfg, 0.1, 0.2, MODE_MOVE_SCALE)


def _alpha_one_tails(frame: Frame, values: np.ndarray, offsets) -> list:
    """The exterior ratios with the derivative taken in the alpha = 1 family."""
    coeffs = frame.tomodal @ values
    dbasis = laguerre_basis(frame.order - 1, frame.beta, alpha=1.0)

    def tail(shift: float) -> float:
        points = frame.nodes + shift
        dv = (-frame.beta * coeffs[1:]) @ eval_weighted_all(dbasis, points) - 0.5 * frame.beta * (
            coeffs @ eval_weighted_all(frame.basis, points)
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
        [state.frame_x.eval_at(state.values[:, j], xs) for j in range(13)]
    )
    after = np.array(
        [moved.frame_x.eval_at(moved.values[:, j], xs - 0.25) for j in range(13)]
    )
    assert np.max(np.abs(after - before)) < 1e-8
