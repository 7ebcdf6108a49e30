"""Unit and property tests for the adaptivity indicators."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.polynomial.laguerre import lagder, lagval
from scipy.integrate import quad
from scipy.special import expit

from specadapt.adapt import Frame, FrameState, FrameState2D, frame_state_2d_from
from specadapt.approx import (
    Expansion,
    evaluate,
    interpolate,
    relative_error,
)
from specadapt.basis import hermite_basis, laguerre_basis, quadrature
from specadapt.indicators import (
    _derivative_tail_norms,
    default_high_mode_count,
    default_split_point,
    exterior_error_indicator,
    frequency_indicator,
)

from oracles import alpha_one_tails, separable


def front(x, center=5.0, width=2.0):
    return expit(-(np.asarray(x, dtype=float) - center) / width)


def squared_derivative(exp: Expansion):
    """x -> (dU/dx)^2 exp(-beta*x) for a Laguerre expansion U, from numpy's lagder."""
    beta, dc = exp.basis.beta, lagder(exp.coeffs)
    return lambda x: float((beta * lagval(beta * x, dc)) ** 2 * math.exp(-beta * x))


# ---------------------------------------------------------------------------
# frequency indicator


def test_frequency_zero_when_only_low_modes_populated():
    basis = laguerre_basis(12, 1.0)
    coeffs = np.zeros(13)
    coeffs[: 12 - 4 + 1] = 1.0  # default high-mode count for N=12 is 4
    assert frequency_indicator(Expansion(basis, coeffs)) == 0.0


def test_frequency_one_when_only_high_modes_populated():
    basis = laguerre_basis(12, 1.0)
    coeffs = np.zeros(13)
    coeffs[12 - 4 + 1 :] = 2.0
    assert frequency_indicator(Expansion(basis, coeffs)) == pytest.approx(1.0, abs=1e-15)


def test_frequency_undefined_for_zero_expansion():
    basis = laguerre_basis(8, 1.0)
    assert frequency_indicator(Expansion(basis, np.zeros(9))) is None


def test_frequency_equals_truncation_error_ratio():
    # the indicator is identically the relative weighted error of dropping
    # the top modes; the right side is measured through the independent
    # quadrature-based error path
    basis = laguerre_basis(12, 1.4)
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(13) * np.exp(-0.4 * np.arange(13))
    exp = Expansion(basis, coeffs)
    kept = np.arange(13) <= 12 - default_high_mode_count(12)
    cut = Expansion(basis, np.where(kept, coeffs, 0.0))
    measured = relative_error(cut, lambda x: evaluate(exp, x))
    assert frequency_indicator(exp) == pytest.approx(measured, abs=1e-12)


def test_frequency_detects_scale_mismatch():
    # a width-2 front is resolved at beta=2.5 but far under-resolved when the
    # same order is stretched over a 25x larger domain
    for beta, bound in ((2.5, 1e-9), (0.1, 1e-3)):
        basis = laguerre_basis(40, beta)
        f = frequency_indicator(interpolate(front(quadrature(basis).nodes), basis))
        if beta == 2.5:
            assert f < bound
        else:
            assert f > bound


def test_frequency_scale_invariance_and_hermite():
    basis = hermite_basis(15, 1.2)
    rng = np.random.default_rng(13)
    coeffs = rng.standard_normal(16)
    f1 = frequency_indicator(Expansion(basis, coeffs))
    f2 = frequency_indicator(Expansion(basis, 7.3 * coeffs))
    assert f1 == pytest.approx(f2, rel=1e-14)
    assert 0.0 <= f1 <= 1.0


# ---------------------------------------------------------------------------
# exterior-error indicator


def test_exterior_approaches_one_near_the_left_endpoint():
    basis = laguerre_basis(20, 1.0)
    exp = interpolate(np.exp(-quadrature(basis).nodes), basis)
    assert exterior_error_indicator(exp, 1e-6) > 0.999


def test_exterior_undefined_for_constant():
    basis = laguerre_basis(10, 1.0)
    exp = Expansion(basis, np.eye(11)[0])
    assert exterior_error_indicator(exp, 2.0) is None
    # nor is a derivative whose squares underflow to zero
    assert exterior_error_indicator(Expansion(basis, 1e-200 * np.eye(11)[1]), 2.0) is None


def test_exterior_exponential_matches_adaptive_integration():
    # the squared indicator equals the ratio of the exact weighted tail
    # integrals of the squared derivative; cross-check by brute force
    basis = laguerre_basis(30, 1.0)
    exp = interpolate(np.exp(-quadrature(basis).nodes), basis)
    value = exterior_error_indicator(exp, 5.0)
    g = squared_derivative(exp)
    num = quad(g, 5.0, 40.0, limit=200)[0]
    den = quad(g, 0.0, 40.0, limit=200)[0]
    assert value**2 == pytest.approx(num / den, abs=1e-8)


def test_exterior_monotone_nonincreasing_in_split_point():
    basis = laguerre_basis(24, 1.0)
    rule = quadrature(basis)
    exp = interpolate(front(rule.nodes), basis)
    splits = np.linspace(0.5, rule.nodes[-1] * 0.95, 20)
    values = [exterior_error_indicator(exp, s) for s in splits]
    assert all(v is not None and 0.0 <= v <= 1.0 for v in values)
    assert all(values[i + 1] <= values[i] + 1e-14 for i in range(19))


def test_exterior_scale_invariance():
    basis = laguerre_basis(14, 0.9)
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(15)
    e1 = exterior_error_indicator(Expansion(basis, coeffs), 3.0)
    e2 = exterior_error_indicator(Expansion(basis, -3.7 * coeffs), 3.0)
    assert e1 == pytest.approx(e2, rel=1e-13)


def test_exterior_shifted_numerator_exact_for_plain_weight():
    # the substitution-based tail rule must agree with adaptive integration
    # to quadrature exactness on random low-order expansions
    rng = np.random.default_rng(42)
    for _ in range(5):
        basis = laguerre_basis(6, 1.3)
        exp = Expansion(basis, rng.standard_normal(7))
        rule = quadrature(basis)
        x_right = 0.5 * (rule.nodes[2] + rule.nodes[3])
        num, _den = _derivative_tail_norms(exp, x_right)
        ref = quad(squared_derivative(exp), x_right, 60.0 / 1.3, limit=400)[0]
        assert num == pytest.approx(ref, rel=1e-10)


def test_exterior_matches_lagder_integrand_on_random_expansions():
    # the whole ratio, numerator and denominator, against adaptive
    # integration of numpy's derivative of the same coefficients
    rng = np.random.default_rng(7)
    basis = laguerre_basis(12, 0.8)
    exp = Expansion(basis, rng.standard_normal(13))
    g = squared_derivative(exp)
    den = quad(g, 0.0, 250.0, limit=400)[0]
    for split in (0.5, 1.0, 2.5, 6.0):
        num = quad(g, split, 250.0, limit=400)[0]
        assert exterior_error_indicator(exp, split) == pytest.approx(math.sqrt(num / den), rel=1e-9)


def test_exterior_of_a_linear_function_is_the_weight_tail():
    # L_0 - L_1 = beta*x has the constant derivative beta, so the ratio is
    # sqrt(int_s^inf exp(-beta*x) dx / int_0^inf exp(-beta*x) dx) = exp(-beta*s/2)
    basis = laguerre_basis(6, 1.3)
    coeffs = np.zeros(7)
    coeffs[0], coeffs[1] = 1.0, -1.0
    for split in (0.3, 1.0, 4.0):
        value = exterior_error_indicator(Expansion(basis, coeffs), split)
        assert value == pytest.approx(math.exp(-0.65 * split), rel=1e-12)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.5])
def test_exterior_derivative_agrees_with_the_alpha_one_family(beta):
    # the library takes the derivative's coefficients d_j = -beta*sum_{m>j} c_m
    # in the basis of order N-1.  On random coefficients both sums agree
    # with the alpha = 1 form to 1e-7 wherever they are finite.  Past order
    # ~175 the plain polynomials overflow at the far nodes, and on random
    # coefficients and on an interpolated front both forms raise at the
    # same orders.  The front's readings at the default split fall to
    # round-off at high orders (1.7e-15 at N = 177, beta = 1),
    # where the two forms' rounding differs by up to 1e-6 relative, so only
    # whether they raise is compared there
    rng = np.random.default_rng(3)
    # every third order below 170, then every order through the overflow
    for order in list(range(4, 170, 3)) + list(range(170, 221)):
        basis = laguerre_basis(order, beta)
        rule = quadrature(basis)
        split = default_split_point(order, rule.nodes)
        cases = ((rng.standard_normal(order + 1), True), (interpolate(front(rule.nodes), basis, rule).coeffs, False))
        for coeffs, compared in cases:
            exp = Expansion(basis, coeffs)
            # the same sums with the same rule and substitution, the
            # derivative taken in the alpha = 1 family
            denom, num = alpha_one_tails(coeffs, beta, [0.0, split])
            num *= math.exp(-beta * split)
            if not (math.isfinite(num) and math.isfinite(denom)):
                with pytest.raises(ValueError, match="overflow"):
                    _derivative_tail_norms(exp, split)
                continue
            made = _derivative_tail_norms(exp, split)
            if compared:
                assert made == pytest.approx((num, denom), rel=1e-7, abs=0), order


def test_exterior_split_validation():
    basis = laguerre_basis(10, 1.0)
    exp = Expansion(basis, np.ones(11))
    with pytest.raises(ValueError):
        exterior_error_indicator(exp, 0.0)
    with pytest.raises(ValueError):
        exterior_error_indicator(exp, 1e9)
    with pytest.raises(ValueError):
        exterior_error_indicator(Expansion(hermite_basis(5, 1.0), np.ones(6)), 1.0)


def test_default_split_point_is_an_interior_node():
    basis = laguerre_basis(40, 2.5)
    nodes = quadrature(basis).nodes
    split = default_split_point(40, nodes)
    assert split == nodes[14]
    assert nodes[0] < split < nodes[-1]


# ---------------------------------------------------------------------------
# tensor-product states: the per-axis indicators of adapt.FrameState2D


def test_frequency_2d_separable_factorization():
    g = lambda x: front(x, center=3.0, width=1.0)
    h = lambda y: np.exp(-0.3 * y) * np.cos(y)
    state = frame_state_2d_from(separable(g, h), 12, 1.0, 10, 1.5)
    fx, fy = state.frame_x, state.frame_y
    assert state.frequency(0) == pytest.approx(FrameState(fx, g(fx.nodes)).frequency(), abs=1e-12)
    assert state.frequency(1) == pytest.approx(FrameState(fy, h(fy.nodes)).frequency(), abs=1e-12)


def test_frequency_2d_zero_tail_and_undefined():
    fx = fy = Frame(9, 1.0)
    zero = FrameState2D(fx, fy, np.zeros((10, 10)))
    assert zero.frequency(0) is None and zero.frequency(1) is None
    assert zero.exterior(zero.split_point(0), 0) is None
    assert zero.exterior(zero.split_point(0) + 0.1, 0) is None  # off the split too
    coeffs = np.zeros((10, 10))
    coeffs[:7, :] = 1.0  # x-high-mode count for N=9 is 3: rows 7..9 empty
    psi = zero.units[0].psi
    state = FrameState2D(fx, fy, psi.T @ coeffs @ psi)
    assert state.frequency(0) == pytest.approx(0.0, abs=1e-12)
    assert state.frequency(1) > 0.1


def test_exterior_2d_separable_oracle():
    g = lambda x: front(x, center=4.0, width=1.0)
    state = frame_state_2d_from(separable(g, lambda y: np.exp(-y)), 16, 1.0, 8, 1.0)
    direct = FrameState(state.frame_x, g(state.frame_x.nodes))
    split = state.split_point(0)
    assert split == direct.split_point()
    assert state.exterior(split, 0) == pytest.approx(direct.exterior(split), abs=1e-8)


def test_exterior_2d_detects_outward_drift():
    # with the window fixed, moving the y-front outward must raise the
    # y-direction signal by a large factor
    values = []
    for center in (2.0, 8.0):
        f = separable(lambda x: np.exp(-x), lambda y, c=center: front(y, c, 0.8))
        state = frame_state_2d_from(f, 16, 1.0, 16, 1.0)
        values.append(state.exterior(state.split_point(1), 1))
    assert values[1] > 10.0 * values[0]
