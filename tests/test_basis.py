"""Unit and property tests for the scaled basis module."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_genlaguerre, roots_genlaguerre

from specadapt.basis import (
    ScaledBasis,
    _laguerre_christoffel_log_sum,
    eval_basis_all,
    eval_weighted_all,
    gamma_norms,
    hermite_basis,
    laguerre_basis,
    modified_weights,
    quadrature,
)

SQRT2 = math.sqrt(2.0)


def test_laguerre_values_match_reference_implementation():
    basis = laguerre_basis(10, 1.0)
    x = np.array([0.0, 0.3, 1.7, 9.2])
    mine = eval_basis_all(basis, x)
    for l in range(11):
        np.testing.assert_allclose(mine[l], eval_genlaguerre(l, 0.0, x), rtol=1e-13, atol=1e-13)


def test_laguerre_scaled_translated_values():
    # L_l(beta*(x-a)): a basis at 0 evaluated at x - a, against scipy at mapped points
    basis = laguerre_basis(8, 0.7)
    x = np.array([4.0, 5.1, 12.0])
    mine = eval_basis_all(basis, x - 4.0)
    for l in range(9):
        np.testing.assert_allclose(
            mine[l], eval_genlaguerre(l, 0.0, 0.7 * (x - 4.0)), rtol=1e-13, atol=1e-13
        )


def test_laguerre_rejects_points_left_of_endpoint():
    basis = laguerre_basis(4, 2.0)
    eval_basis_all(basis, 0.0)
    with pytest.raises(ValueError):
        eval_basis_all(basis, -0.001)


def test_hermite_values_match_direct_normalized_polynomials():
    # direct: h_l(y) = H_l(y) exp(-y^2/2) / sqrt(sqrt(pi) 2^l l!), scaled by sqrt(beta)
    for beta in (1.0, 0.6):
        basis = hermite_basis(10, beta)
        x = 1.3
        mine = eval_basis_all(basis, x)
        y = beta * x
        for l in range(11):
            herm = np.polynomial.hermite.hermval(y, np.eye(11)[l])
            direct = math.sqrt(beta) * herm * math.exp(-0.5 * y * y) / math.sqrt(
                math.sqrt(math.pi) * 2.0**l * math.factorial(l)
            )
            assert mine[l] == pytest.approx(direct, rel=1e-13)


def test_hermite_functions_bounded_everywhere_up_to_order_256():
    basis = hermite_basis(256, 1.0)
    x = np.concatenate([np.linspace(-60, 60, 641), [-1e6, 1e6]])
    vals = eval_basis_all(basis, x)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 1.0


def test_laguerre_recurrence_finite_at_large_order():
    # Finite through the node range at order 256; through twice the range at 128
    # (the doubled range at 256 exceeds float64: |L_256(2*x_max)| ~ e^776).
    for order, factor in ((256, 1.0), (128, 2.0)):
        basis = laguerre_basis(order, 1.0)
        x_max = quadrature(basis).nodes[-1]
        vals = eval_basis_all(basis, np.linspace(0.0, factor * x_max, 200))
        assert np.all(np.isfinite(vals))


def test_gamma_norms_closed_form():
    # Gamma(l+1)/(l! * beta) = 1/beta for every l, exactly
    assert np.all(gamma_norms(laguerre_basis(5, 2.0)) == 0.5)
    assert np.all(gamma_norms(laguerre_basis(12, 0.7)) == 1.0 / 0.7)
    assert np.all(gamma_norms(hermite_basis(9, 3.0)) == 1.0)


def test_gauss_laguerre_two_point_closed_form():
    rule = quadrature(laguerre_basis(1, 1.0))
    np.testing.assert_allclose(rule.nodes, [2.0 - SQRT2, 2.0 + SQRT2], rtol=1e-14)
    np.testing.assert_allclose(rule.weights, [(2.0 + SQRT2) / 4.0, (2.0 - SQRT2) / 4.0], rtol=1e-14)


@pytest.mark.parametrize("beta", [1.0, 2.5])
def test_gauss_moment_exactness_through_degree_2n_plus_1(beta):
    n = 9
    rule = quadrature(laguerre_basis(n, beta))
    # moments of x^k: integral = k!/beta^(k+1)
    for k in range(2 * n + 2):
        exact = math.gamma(k + 1.0) / beta ** (k + 1.0)
        assert np.sum(rule.weights * rule.nodes**k) == pytest.approx(exact, rel=1e-10)


def test_discrete_orthogonality_laguerre():
    basis = laguerre_basis(32, 0.7)
    rule = quadrature(basis)
    vals = eval_basis_all(basis, rule.nodes)
    gram = (vals * rule.weights) @ vals.T
    g = gamma_norms(basis)
    err = np.abs(gram - np.diag(g)) / np.max(g)
    assert np.max(err) < 1e-11


def test_discrete_orthonormality_hermite_functions():
    basis = hermite_basis(32, 1.7)
    rule = quadrature(basis)
    vals = eval_basis_all(basis, rule.nodes)
    gram = (vals * rule.weights) @ vals.T
    assert np.max(np.abs(gram - np.eye(33))) < 1e-11


def test_hermite_rule_maps_by_one_over_beta():
    unit = quadrature(hermite_basis(11, 1.0))
    scaled = quadrature(hermite_basis(11, 2.0))
    np.testing.assert_allclose(scaled.nodes, unit.nodes / 2.0, rtol=1e-15)
    np.testing.assert_allclose(scaled.weights, unit.weights / 2.0, rtol=1e-15)
    assert np.array_equal(modified_weights(scaled), scaled.weights)


def test_halving_beta_doubles_nodes_and_scales_weights():
    # nodes(beta/2) = 2*nodes(beta); weights and norms double
    coarse = laguerre_basis(14, 2.5)
    fine = laguerre_basis(14, 1.25)
    rc, rf = quadrature(coarse), quadrature(fine)
    np.testing.assert_allclose(rf.nodes, 2.0 * rc.nodes, rtol=1e-15)
    np.testing.assert_allclose(rf.weights, 2.0 * rc.weights, rtol=1e-15)
    np.testing.assert_allclose(gamma_norms(fine), 2.0 * gamma_norms(coarse), rtol=1e-15)


def test_quadrature_against_scipy_eigensolver_large_order():
    # the quadrature nodes agree with scipy's tridiagonal eigensolver on the
    # Jacobi matrix
    n = 129
    k = np.arange(n, dtype=float)
    ours = quadrature(laguerre_basis(n - 1, 1.0)).nodes
    ref = eigh_tridiagonal(2.0 * k + 1.0, k[1:], eigvals_only=True)
    assert np.max(np.abs(ours - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-12
    ours = quadrature(hermite_basis(n - 1, 1.0)).nodes
    ref = eigh_tridiagonal(np.zeros(n), np.sqrt(k[1:] / 2.0), eigvals_only=True)
    assert np.max(np.abs(ours - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-12


def test_quadrature_succeeds_at_order_256():
    for basis in (laguerre_basis(256, 1.0), hermite_basis(256, 1.0)):
        rule = quadrature(basis)
        assert np.all(np.isfinite(rule.nodes))
        assert np.all(rule.weights >= 0.0)
    # strict positivity holds where float64 can represent the tail weights
    assert np.all(quadrature(laguerre_basis(100, 1.0)).weights > 0.0)
    assert np.all(quadrature(hermite_basis(100, 1.0)).weights > 0.0)


def test_laguerre_rule_matches_scipy_up_to_order_320():
    # scipy's plain weights underflow in the far tail; compare where they
    # are representable
    for order in (64, 128, 191, 256, 320):
        rule = quadrature(laguerre_basis(order, 1.0))
        nodes, weights = roots_genlaguerre(order + 1, 0.0)
        np.testing.assert_allclose(rule.nodes, nodes, rtol=1e-11)
        kept = weights > 1e-300
        np.testing.assert_allclose(rule.weights[kept], weights[kept], rtol=1e-11)


def _christoffel_log_sum_checked_every_step(order: int, x: np.ndarray) -> np.ndarray:
    """The Christoffel log-sum with the rescale test after every step."""
    big = 2.0**332
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    total = p * p
    log_scale = np.zeros_like(x)
    b = 0.0
    for l in range(order):
        b_next = l + 1.0
        p_prev, p = p, ((x - (2.0 * l + 1.0)) * p - b * p_prev) / b_next
        b = b_next
        total += p * p
        over = np.abs(p) > big
        if over.any():
            p[over] /= big
            p_prev[over] /= big
            total[over] /= big * big
            log_scale[over] += math.log(big)
    return np.log(total) + 2.0 * log_scale


@pytest.mark.parametrize("order", [1, 7, 8, 9, 16, 17, 180, 363, 513, 727, 1000])
def test_christoffel_log_sum_checked_per_block_has_the_per_step_bits(order):
    # orders at the edges of the 8-step blocks, and far nodes up to 3950
    k = np.arange(order + 1, dtype=float)
    nodes = eigh_tridiagonal(2.0 * k + 1.0, k[1:], eigvals_only=True)
    # points, found on a grid of step 0.02, where a column is scaled once too
    # few by a test of |p| at block ends alone (|p| passes 2^332 inside a
    # block and is back below it at the block's end, at order 363 or 1000)
    # or by no test after the last, partial block (at order 513 or 727)
    tipping = np.array([465.16, 465.24, 925.94, 926.28, 1386.46, 1846.82, 2307.34, 3227.94, 2400.32, 3334.44])
    x = np.concatenate((nodes, tipping))
    assert np.array_equal(_laguerre_christoffel_log_sum(order, x), _christoffel_log_sum_checked_every_step(order, x))


def test_hermite_rule_order_ceiling():
    # exp(-y^2/2) at the largest node, where the function recurrence
    # starts, leaves the normal float64 range from order 728 on; the rule
    # raises there, before any evaluation (order 765 used to divide by 0)
    log_tiny = -math.log(np.finfo(float).tiny)
    rule = quadrature(hermite_basis(727, 1.0))
    assert 0.5 * rule.nodes[-1] ** 2 <= log_tiny
    assert np.all(np.isfinite(rule.weights)) and np.all(rule.weights > 0.0)
    k = np.arange(1, 729, dtype=float)
    largest = eigh_tridiagonal(np.zeros(729), np.sqrt(k / 2.0), eigvals_only=True)[-1]
    assert 0.5 * largest**2 > log_tiny
    for order in (728, 765):
        with pytest.raises(ValueError, match=f"order {order} exceeds the ceiling of 727"):
            quadrature(hermite_basis(order, 1.0))


def test_weighted_eval_agrees_with_plain_values_times_half_weight():
    basis = laguerre_basis(12, 0.8)
    x = np.array([2.0, 2.4, 5.0, 11.0]) - 2.0
    plain = eval_basis_all(basis, x)
    weighted = eval_weighted_all(basis, x)
    y = 0.8 * x
    np.testing.assert_allclose(weighted, plain * np.exp(-0.5 * y), rtol=1e-13, atol=1e-300)


def test_weighted_eval_bounded_where_plain_overflows_noise():
    # at the largest node of a 40-term rule the plain polynomial is ~1e30 while
    # the half-weighted function stays O(1); it must be computed stably, not by
    # multiplying the huge value by a tiny exponential
    basis = laguerre_basis(40, 1.0)
    x_max = quadrature(basis).nodes[-1]
    weighted = eval_weighted_all(basis, np.array([x_max, 2.0 * x_max]))
    assert np.all(np.isfinite(weighted))
    assert np.max(np.abs(weighted)) < 10.0
    plain = eval_basis_all(basis, x_max)
    assert np.max(np.abs(plain)) > 1e25  # confirms the plain path really overflows in scale


def test_weighted_eval_hermite_matches_plain():
    basis = hermite_basis(9, 1.3)
    x = np.array([-2.0, 0.0, 1.7])
    np.testing.assert_allclose(eval_weighted_all(basis, x), eval_basis_all(basis, x), rtol=1e-15)


def test_weighted_eval_scalar_and_rejects_left_of_endpoint():
    basis = laguerre_basis(4, 2.0)
    v = eval_weighted_all(basis, 0.5)
    assert v.shape == (5,)
    with pytest.raises(ValueError):
        eval_weighted_all(basis, -0.001)


def test_modified_weights_integrate_unweighted_integrands():
    # int_0^inf exp(-s x) dx = 1/s computed with exp-reweighted Gauss weights
    basis = laguerre_basis(30, 1.0)
    rule = quadrature(basis)
    what = modified_weights(rule)
    for s in (1.2, 2.0):
        val = np.sum(what * np.exp(-s * rule.nodes))
        assert val == pytest.approx(1.0 / s, rel=1e-10)


def test_modified_weights_orthonormalize_weighted_functions():
    # (psi_k, psi_l) with plain-dx weights reproduces the gamma norms
    basis = laguerre_basis(20, 1.4)
    rule = quadrature(basis)
    what = modified_weights(rule)
    psi = eval_weighted_all(basis, rule.nodes)
    gram = (psi * what) @ psi.T
    g = gamma_norms(basis)
    assert np.max(np.abs(gram - np.diag(g)) / np.max(g)) < 1e-11


def test_modified_weights_finite_and_exact_at_order_256():
    # the plain tail weights underflow to 0 here while exp(beta*x) overflows;
    # the modified weights must come out finite and still integrate dx
    rule = quadrature(laguerre_basis(256, 0.8))
    assert np.any(rule.weights == 0.0)
    what = modified_weights(rule)
    assert np.all(np.isfinite(what)) and np.all(what > 0.0)
    # int_0^inf exp(-1.5 x) dx = 1/1.5
    assert np.sum(what * np.exp(-1.5 * rule.nodes)) == pytest.approx(1.0 / 1.5, rel=1e-10)


def test_invalid_bases_rejected():
    with pytest.raises(ValueError):
        ScaledBasis("laguerre", 0.0, 4)
    with pytest.raises(ValueError):
        ScaledBasis("laguerre", 1.0, -1)
    with pytest.raises(ValueError):
        ScaledBasis("chebyshev", 1.0, 4)
    assert [f.name for f in dataclasses.fields(ScaledBasis)] == ["family", "beta", "order"]
    # int() used to truncate: laguerre_basis(10.7, 1.0) built order 10
    for order in (10.7, 12.0, True, np.float64(4.0), "8"):
        for make in (laguerre_basis, hermite_basis):
            with pytest.raises(ValueError, match="order must be an integer"):
                make(order, 1.0)
    basis = laguerre_basis(np.int64(6), 1.0)
    assert basis.order == 6 and type(basis.order) is int
