"""Unit and property tests for expansions: transforms, rescaling, moving.

Rescaling and moving are frame operations (``FrameState.rescaled`` and
``moved``); the coefficient layer keeps the transform and the error.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import specadapt.basis as basis_module
from specadapt.adapt import Frame, FrameState, FrameState2D, frame_state_2d_from, frame_state_from
from specadapt.approx import Expansion, evaluate, interpolate, relative_error
from specadapt.basis import (
    HERMITE,
    eval_basis_all,
    gamma_norms,
    hermite_basis,
    laguerre_basis,
    modified_weights,
    quadrature,
)

from oracles import marginal_state, separable


def fermi_dirac(x):
    return 1.0 / (1.0 + np.exp((x - 5.0) / 2.0))


def bump_2d(x, y, t=0.0):
    return (
        np.cos(x * y / 400.0)
        / (1.0 + np.exp((x - 2.0) / 2.0))
        / (1.0 + np.exp((y - 2.0) / 2.0))
    )


def test_interpolate_constant_gives_unit_first_coefficient():
    basis = laguerre_basis(12, 1.3)
    exp = interpolate(np.ones(13), basis)
    assert exp.coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(exp.coeffs[1:])) < 1e-12


def test_interpolate_reproduces_a_single_basis_function():
    basis = laguerre_basis(10, 1.0)
    rule = quadrature(basis)
    vals = eval_basis_all(basis, rule.nodes)[3]
    exp = interpolate(vals, basis)
    expect = np.zeros(11)
    expect[3] = 1.0
    assert np.max(np.abs(exp.coeffs - expect)) < 1e-12


def test_interpolate_exponential_matches_closed_form_coefficients():
    # the expansion of e^{-x} against weight e^{-x} has coefficients exactly
    # 2^{-(l+1)} (generating-function identity); interpolation reproduces the
    # low modes to near machine precision, and the truncation tail sets an
    # error scale of 2^{-(N+1)} ~ 5e-7 which the pointwise check must respect
    basis = laguerre_basis(20, 1.0)
    rule = quadrature(basis)
    exp = interpolate(np.exp(-rule.nodes), basis)
    closed = 0.5 ** (np.arange(21) + 1.0)
    assert np.max(np.abs(exp.coeffs[:10] - closed[:10])) < 1e-10
    x = np.linspace(0.1, 12.0, 10)
    assert np.max(np.abs(evaluate(exp, x) - np.exp(-x))) < 1e-4
    assert relative_error(exp, lambda s: np.exp(-s)) < 1e-6


def test_interpolate_exponential_at_matched_scale_is_below_1e8():
    # at beta=2 the same function's coefficients decay like 3^{-l}, so the
    # N=20 weighted relative error drops below 1e-8
    basis = laguerre_basis(20, 2.0)
    rule = quadrature(basis)
    exp = interpolate(np.exp(-rule.nodes), basis)
    assert relative_error(exp, lambda s: np.exp(-s)) < 1e-8


def test_evaluate_trivial_cases_and_node_round_trip():
    # a basis at 0 evaluated at x - 1 is the basis on (1, inf)
    basis = laguerre_basis(9, 0.9)
    zero = Expansion(basis, np.zeros(10))
    assert evaluate(zero, 3.0 - 1.0) == 0.0
    const = Expansion(basis, np.eye(10)[0])
    assert evaluate(const, 7.7 - 1.0) == pytest.approx(1.0, rel=1e-14)
    rng = np.random.default_rng(3)
    # node-value round trip for a decaying profile (far-node values of rough
    # data are reconstructed through cancellation of huge polynomial values,
    # so the identity holds in coefficient space, tested separately below)
    rule = quadrature(basis)
    v = fermi_dirac(rule.nodes)
    back = evaluate(interpolate(v, basis), rule.nodes)
    np.testing.assert_allclose(back, v, rtol=1e-10, atol=1e-10)
    # coefficient-space projector identity with random coefficients
    for order in (9, 32, 64):
        big = laguerre_basis(order, 1.0)
        coeffs = rng.standard_normal(order + 1)
        r = quadrature(big)
        again = interpolate(evaluate(Expansion(big, coeffs), r.nodes), big, r)
        np.testing.assert_allclose(again.coeffs, coeffs, rtol=1e-10, atol=1e-10)


def _frame_fermi_dirac(order: int, beta: float) -> FrameState:
    return frame_state_from(lambda x, t: fermi_dirac(x), order, beta)


def _fermi_dirac_error(state: FrameState) -> float:
    return state.error(lambda x, t: fermi_dirac(x), 0.0)


def test_rescale_identity_and_polynomial_reproduction():
    state = _frame_fermi_dirac(15, 2.0)
    same = state.rescaled(2.0)
    np.testing.assert_allclose(same.values, state.values, rtol=1e-11, atol=1e-11)
    # anything the frame represents, exp(-beta*x/2) times a polynomial of
    # degree <= N, is resampled exactly at the new nodes
    def damped_poly(x):
        return np.exp(-x) * (x**3 - 2.0 * x + 1.0)

    poly = FrameState(Frame(15, 2.0), damped_poly(Frame(15, 2.0).nodes))
    scaled = poly.rescaled(0.7)
    np.testing.assert_allclose(scaled.values, damped_poly(scaled.frame.nodes), rtol=1e-9, atol=1e-12)


def test_rescale_fermi_dirac_one_ladder_step_keeps_error_small():
    # a controller-sized rescale (one 0.95 step) extrapolates only slightly
    # beyond the old node range, so the error stays small and changes little
    state = _frame_fermi_dirac(40, 2.5)
    before = _fermi_dirac_error(state)
    after = _fermi_dirac_error(state.rescaled(2.5 * 0.95))
    assert before < 1e-8 and after < 1e-8
    assert after < 10.0 * before


def test_rescale_far_downscale_stays_bounded_in_damped_frames():
    # halving beta doubles the node range.  A plain-coefficient expansion's
    # polynomial tail explodes there (relative error above 1); the damped
    # functions are bounded by 1, so the frame's extrapolation stays small
    state = _frame_fermi_dirac(40, 2.5)
    assert _fermi_dirac_error(state.rescaled(1.25)) < 1e-6


def test_move_identity_exponential_and_composition():
    def decay(x, t=0.0):
        return np.exp(-np.asarray(x, dtype=float))

    state = frame_state_from(decay, 30, 1.0)
    same = state.moved(0.0)
    np.testing.assert_allclose(same.values, state.values, rtol=1e-11, atol=1e-11)
    shifted = state.moved(0.5)
    assert shifted.x_left == 0.5
    assert shifted.error(decay, 0.0) < 1e-8
    np.testing.assert_allclose(shifted.values, decay(shifted.nodes()), rtol=0, atol=1e-8)
    two_steps = state.moved(0.25).moved(0.25)
    assert two_steps.x_left == 0.5
    np.testing.assert_allclose(two_steps.values, shifted.values, rtol=1e-7, atol=1e-7)


def test_weighted_norm_trivial_and_quadrature_oracle():
    # the frame energy sum(c^2), the frequency indicator's denominator, is
    # the squared L2 norm of the interpolant in the unit variable y = beta*x,
    # that is beta times its squared norm in x
    frame = Frame(14, 1.0)
    tomodal = FrameState(frame, np.zeros(15)).units[0].tomodal  # one for every beta
    assert float(np.sum((tomodal @ np.zeros(15)) ** 2)) == 0.0
    ground = np.exp(-0.5 * frame.nodes)  # psi_0, with norm 1 in y
    assert float(np.sum((tomodal @ ground) ** 2)) == pytest.approx(1.0, rel=1e-14)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(15)
    energy = float(np.sum((tomodal @ values) ** 2))
    mod_weights = modified_weights(quadrature(laguerre_basis(14, 0.8)))
    assert energy == pytest.approx(0.8 * float(np.sum(mod_weights * values**2)), rel=1e-11)


def test_relative_error_self_reference_is_zero():
    basis = laguerre_basis(10, 1.0)
    rng = np.random.default_rng(8)
    exp = Expansion(basis, rng.standard_normal(11))
    assert relative_error(exp, lambda x: evaluate(exp, x)) < 1e-12


def test_relative_error_front_profile_below_1e10():
    basis = laguerre_basis(40, 2.5)
    exp = interpolate(fermi_dirac(quadrature(basis).nodes), basis)
    assert relative_error(exp, fermi_dirac) < 1e-10


def test_relative_error_of_truncation_equals_parseval_tail_ratio():
    basis = laguerre_basis(24, 1.1)
    rng = np.random.default_rng(17)
    coeffs = rng.standard_normal(25) * np.exp(-0.5 * np.arange(25))
    full = Expansion(basis, coeffs)
    cut = Expansion(basis, np.where(np.arange(25) <= 24 - 5, coeffs, 0.0))
    g = gamma_norms(basis)
    tail = math.sqrt(float(np.sum(g[20:] * coeffs[20:] ** 2) / np.sum(g * coeffs**2)))
    measured = relative_error(cut, lambda x: evaluate(full, x))
    assert measured == pytest.approx(tail, abs=1e-10)


def test_hermite_expansion_round_trip_and_error():
    basis = hermite_basis(32, 1.0)
    rule = quadrature(basis)
    f = lambda x: np.exp(-0.5 * x**2) * np.cos(x)
    exp = interpolate(f(rule.nodes), basis)
    assert relative_error(exp, f) < 1e-10


# ---------------------------------------------------------------------------
# 2D: tensor-product states are adapt.FrameState2D, in the damped basis


def test_separable_2d_coefficients_are_outer_product():
    g = lambda x: np.exp(-x)
    h = lambda y: 1.0 / (1.0 + np.exp(y - 3.0))
    state = frame_state_2d_from(separable(g, h), 12, 1.0, 9, 1.5)
    fx, fy = state.frame_x, state.frame_y
    cx = state.units[0].tomodal @ g(fx.nodes)
    cy = state.units[1].tomodal @ h(fy.nodes)
    np.testing.assert_allclose(state._coeffs, np.outer(cx, cy), rtol=1e-11, atol=1e-11)


def test_rescale_2d_identity_and_commutation():
    state = frame_state_2d_from(bump_2d, 10, 2.0, 10, 1.0)
    same = state.rescaled(2.0, 0)
    np.testing.assert_allclose(same.values, state.values, rtol=1e-11, atol=1e-11)
    a = state.rescaled(1.4, 0).rescaled(0.8, 1)
    b = state.rescaled(0.8, 1).rescaled(1.4, 0)
    assert (a.frame_x.beta, a.frame_y.beta) == (b.frame_x.beta, b.frame_y.beta) == (1.4, 0.8)
    np.testing.assert_allclose(a.values, b.values, rtol=1e-10, atol=1e-10)


def test_2d_bump_relative_error_below_1e9():
    state = frame_state_2d_from(bump_2d, 40, 2.5, 40, 2.5)
    assert state.error(bump_2d, 0.0) < 1e-9


def test_move_2d_translates_left_endpoints():
    f = separable(lambda x: np.exp(-x), lambda y: np.exp(-0.5 * y))
    state = frame_state_2d_from(f, 24, 1.0, 24, 1.0)
    moved = state.moved(0.5, 0).moved(0.25, 1)
    assert moved.x_left == 0.5 and moved.y_left == 0.25
    grid = np.meshgrid(moved.nodes(0), moved.nodes(1), indexing="ij")
    np.testing.assert_allclose(moved.values, f(*grid), rtol=1e-7, atol=1e-7)


def test_marginal_x_separable_oracle():
    # the damped basis keeps the marginal exact to roundoff at high order,
    # in the oracle and in the library: the integral of e^{-0.4 y} over
    # (0, inf) is 2.5
    f = separable(lambda x: np.exp(-0.3 * x), lambda y: np.exp(-0.4 * y))
    state = frame_state_2d_from(f, 150, 1.0, 150, 1.0)
    for marginal in (marginal_state(state, 0).values, state._marginal_values(0)):
        np.testing.assert_allclose(marginal / state.frame_y.beta, 2.5 * np.exp(-0.3 * state.nodes(0)), rtol=1e-12, atol=0)
    # a zero state marginalizes to zero
    zero = FrameState2D(Frame(16, 1.0), Frame(8, 1.0), np.zeros((17, 9)))
    assert np.max(np.abs(marginal_state(zero, 0).values)) == np.max(np.abs(zero._marginal_values(0))) == 0.0


def test_marginal_y_proportionality_constant_is_the_x_integral():
    h = lambda y: 1.0 / (1.0 + np.exp(y - 3.0))
    # the integral of e^{-2x} over (0, inf) is 1/2
    state = frame_state_2d_from(separable(lambda x: np.exp(-2.0 * x), h), 9, 1.0, 14, 1.3)
    for marginal in (marginal_state(state, 1).values, state._marginal_values(1)):
        np.testing.assert_allclose(marginal / state.frame_x.beta, 0.5 * h(state.nodes(1)), rtol=1e-8, atol=1e-8)


# ---------------------------------------------------------------------------
# validation


def test_validation_errors():
    basis = laguerre_basis(4, 1.0)
    with pytest.raises(ValueError):
        Expansion(basis, np.zeros(4))
    with pytest.raises(ValueError):
        Expansion(basis, np.array([1.0, np.nan, 0, 0, 0]))
    with pytest.raises(ValueError):
        interpolate(np.zeros(6), basis)
    with pytest.raises(ValueError, match="different basis"):
        interpolate(np.zeros(5), basis, quadrature(laguerre_basis(4, 2.0)))
    with pytest.raises(ValueError, match="vanishes"):
        relative_error(Expansion(basis, np.ones(5)), lambda x: np.zeros_like(x))
    # moves: only a Laguerre origin moves, rightward by a finite distance,
    # and a rejected move leaves the operator store as it was
    state = FrameState(Frame(4, 1.0), np.ones(5))
    state_2d = FrameState2D(Frame(4, 1.0), Frame(5, 1.0), np.ones((5, 6)))
    memo = list(basis_module._store)
    for distance in (-0.5, -0.001, math.nan, math.inf):
        for move in (state.moved, state_2d.moved, lambda d: state_2d.moved(d, 1)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                move(distance)
    assert list(basis_module._store) == memo
    hermite = FrameState(Frame(4, 1.0, HERMITE), np.ones(5))
    hermite_2d = FrameState2D(Frame(4, 1.0, HERMITE), Frame(5, 1.0), np.ones((5, 6)))
    for move in (hermite.moved, hermite_2d.moved):
        for distance in (0.0, 1.0):
            with pytest.raises(ValueError, match="Laguerre"):
                move(distance)
    assert hermite_2d.moved(0.5, 1).y_left == 0.5
