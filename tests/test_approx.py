"""Unit and property tests for expansions: transforms, rescaling, moving."""

from __future__ import annotations

import math

import numpy as np
import pytest

from specadapt.adapt import Frame, FrameState2D, frame_state_2d_from
from specadapt.approx import (
    Expansion,
    evaluate,
    from_text,
    interpolate,
    move,
    relative_error,
    rescale,
    to_text,
    truncate,
    weighted_norm,
)
from specadapt.basis import eval_basis_all, gamma_norms, hermite_basis, laguerre_basis, quadrature


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
    basis = laguerre_basis(9, 0.9, x_left=1.0)
    zero = Expansion(basis, np.zeros(10))
    assert evaluate(zero, 3.0) == 0.0
    const = Expansion(basis, np.eye(10)[0])
    assert evaluate(const, 7.7) == pytest.approx(1.0, rel=1e-14)
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


def test_rescale_identity_and_polynomial_reproduction():
    basis = laguerre_basis(15, 2.0)
    rule = quadrature(basis)
    exp = interpolate(fermi_dirac(rule.nodes), basis)
    same = rescale(exp, 2.0)
    np.testing.assert_allclose(same.coeffs, exp.coeffs, rtol=1e-11, atol=1e-11)
    # a degree-<=N polynomial must survive any rescale exactly
    poly = interpolate(rule.nodes**3 - 2.0 * rule.nodes + 1.0, basis)
    scaled = rescale(poly, 0.7)
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 20.0, 20)
    np.testing.assert_allclose(
        evaluate(scaled, x), x**3 - 2.0 * x + 1.0, rtol=1e-9, atol=1e-9
    )


def test_rescale_fermi_dirac_one_ladder_step_keeps_error_small():
    # a controller-sized rescale (one 0.95 step) extrapolates only slightly
    # beyond the old node range, so the error stays small and changes little
    basis = laguerre_basis(40, 2.5)
    exp = interpolate(fermi_dirac(quadrature(basis).nodes), basis)
    before = relative_error(exp, fermi_dirac)
    stepped = rescale(exp, 2.5 * 0.95)
    after = relative_error(stepped, fermi_dirac)
    assert before < 1e-8 and after < 1e-8
    assert after < 10.0 * before


def test_rescale_far_downscale_extrapolation_is_hazardous():
    # halving beta doubles the node range; the old expansion's polynomial
    # tail explodes there, which is why the adaptive controller only takes
    # small steps and rejects scalings that raise the frequency indicator
    basis = laguerre_basis(40, 2.5)
    exp = interpolate(fermi_dirac(quadrature(basis).nodes), basis)
    halved = rescale(exp, 1.25)
    assert relative_error(halved, fermi_dirac) > 1.0


def test_move_identity_exponential_and_composition():
    basis = laguerre_basis(30, 1.0)
    rule = quadrature(basis)
    exp = interpolate(np.exp(-rule.nodes), basis)
    same = move(exp, 0.0)
    np.testing.assert_allclose(same.coeffs, exp.coeffs, rtol=1e-11, atol=1e-11)
    shifted = move(exp, 0.5)
    assert shifted.basis.x_left == 0.5
    # error is measured in the weighted norm: pointwise values at the far
    # nodes sit under an exponentially large polynomial factor
    assert relative_error(shifted, lambda s: np.exp(-s)) < 1e-8
    x = np.linspace(0.6, 10.0, 25)
    assert np.max(np.abs(evaluate(shifted, x) - np.exp(-x))) < 1e-8
    two_steps = move(move(exp, 0.25), 0.25)
    np.testing.assert_allclose(
        evaluate(two_steps, x), evaluate(shifted, x), rtol=1e-7, atol=1e-7
    )


def test_weighted_norm_trivial_and_quadrature_oracle():
    basis = laguerre_basis(14, 1.0)
    assert weighted_norm(Expansion(basis, np.zeros(15))) == 0.0
    assert weighted_norm(Expansion(basis, np.eye(15)[0])) == pytest.approx(1.0, rel=1e-14)
    rng = np.random.default_rng(5)
    basis = laguerre_basis(14, 0.8, alpha=1.5, x_left=2.0)
    exp = Expansion(basis, rng.standard_normal(15))
    rule = quadrature(basis)
    vals = evaluate(exp, rule.nodes)
    direct = math.sqrt(float(np.sum(rule.weights * vals**2)))
    assert weighted_norm(exp) == pytest.approx(direct, rel=1e-11)


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
    cut = truncate(full, 24 - 5)
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


def separable(g, h):
    return lambda x, y, t=0.0: g(np.asarray(x, dtype=float)) * h(np.asarray(y, dtype=float))


def test_separable_2d_coefficients_are_outer_product():
    g = lambda x: np.exp(-x)
    h = lambda y: 1.0 / (1.0 + np.exp(y - 3.0))
    state = frame_state_2d_from(separable(g, h), 12, 1.0, 9, 1.5)
    fx, fy = state.frame_x, state.frame_y
    cx = fx.tomodal @ g(fx.nodes)
    cy = fy.tomodal @ h(fy.nodes)
    np.testing.assert_allclose(state.coefficients(), np.outer(cx, cy), rtol=1e-11, atol=1e-11)


def test_rescale_2d_identity_and_commutation():
    state = frame_state_2d_from(bump_2d, 10, 2.0, 10, 1.0)
    same = state.rescaled_x(2.0)
    np.testing.assert_allclose(same.values, state.values, rtol=1e-11, atol=1e-11)
    a = state.rescaled_x(1.4).rescaled_y(0.8)
    b = state.rescaled_y(0.8).rescaled_x(1.4)
    assert (a.frame_x.beta, a.frame_y.beta) == (b.frame_x.beta, b.frame_y.beta) == (1.4, 0.8)
    np.testing.assert_allclose(a.values, b.values, rtol=1e-10, atol=1e-10)


def test_2d_bump_relative_error_below_1e9():
    state = frame_state_2d_from(bump_2d, 40, 2.5, 40, 2.5)
    assert state.error(bump_2d, 0.0) < 1e-9


def test_move_2d_translates_left_endpoints():
    f = separable(lambda x: np.exp(-x), lambda y: np.exp(-0.5 * y))
    state = frame_state_2d_from(f, 24, 1.0, 24, 1.0)
    moved = state.moved_x(0.5).moved_y(0.25)
    assert moved.x_left == 0.5 and moved.y_left == 0.25
    grid = np.meshgrid(moved.nodes_x(), moved.nodes_y(), indexing="ij")
    np.testing.assert_allclose(moved.values, f(*grid), rtol=1e-7, atol=1e-7)


def test_marginal_x_separable_oracle():
    # the damped basis keeps the marginal exact to roundoff at high order:
    # the integral of e^{-0.4 y} over (0, inf) is 2.5
    f = separable(lambda x: np.exp(-0.3 * x), lambda y: np.exp(-0.4 * y))
    state = frame_state_2d_from(f, 150, 1.0, 150, 1.0)
    np.testing.assert_allclose(
        state.marginal_x_values(), 2.5 * np.exp(-0.3 * state.nodes_x()), rtol=1e-12, atol=0
    )
    # a zero state marginalizes to zero
    zero = FrameState2D(Frame(16, 1.0), Frame(8, 1.0), np.zeros((17, 9)))
    assert np.max(np.abs(zero.marginal_x_values())) == 0.0


def test_marginal_y_proportionality_constant_is_the_x_integral():
    h = lambda y: 1.0 / (1.0 + np.exp(y - 3.0))
    # the integral of e^{-2x} over (0, inf) is 1/2
    state = frame_state_2d_from(separable(lambda x: np.exp(-2.0 * x), h), 9, 1.0, 14, 1.3)
    np.testing.assert_allclose(state.marginal_y_values(), 0.5 * h(state.nodes_y()), rtol=1e-8, atol=1e-8)


# ---------------------------------------------------------------------------
# serialization


def test_text_round_trip():
    basis = laguerre_basis(6, 0.7, alpha=1.5, x_left=2.25)
    rng = np.random.default_rng(31)
    exp = Expansion(basis, rng.standard_normal(7))
    back = from_text(to_text(exp))
    assert back.basis == basis
    np.testing.assert_array_equal(back.coeffs, exp.coeffs)

    hermite = Expansion(hermite_basis(4, 0.9), rng.standard_normal(5))
    back = from_text(to_text(hermite))
    assert back.basis == hermite.basis
    np.testing.assert_array_equal(back.coeffs, hermite.coeffs)


def test_validation_errors():
    basis = laguerre_basis(4, 1.0)
    with pytest.raises(ValueError):
        Expansion(basis, np.zeros(4))
    with pytest.raises(ValueError):
        Expansion(basis, np.array([1.0, np.nan, 0, 0, 0]))
    with pytest.raises(ValueError):
        interpolate(np.zeros(6), basis)
    with pytest.raises(ValueError):
        move(Expansion(hermite_basis(4, 1.0), np.zeros(5)), 1.0)
    with pytest.raises(ValueError):
        move(Expansion(basis, np.zeros(5)), -0.5)
    with pytest.raises(ValueError):
        truncate(Expansion(basis, np.ones(5)), 9)
    with pytest.raises(ValueError):
        from_text("")
