"""Unit and property tests for the scaled basis module."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_genlaguerre, roots_genlaguerre

import specadapt.basis as basis_module
from specadapt.basis import (
    HERMITE,
    LAGUERRE,
    ScaledBasis,
    _basis_pass,
    _damped_start,
    _dense_jacobi_eigenvalues,
    _jacobi_eigenvalues,
    _unit_nodes,
    _unit_pass,
    _unit_rule,
    eval_basis_all,
    eval_weighted_all,
    gamma_norms,
    hermite_basis,
    laguerre_basis,
    modified_weights,
    quadrature,
)

from oracles import damped_laguerre_all, hermite_fn_all, laguerre_all

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


# every n up to 59, then the order-N rules (n = N+1) and refined rules
# (n = 2N+2) around the orders the library runs, and n = 1000
JACOBI_SIZES = list(range(1, 60)) + [65, 66, 129, 130, 257, 258, 363, 364, 513, 514, 727, 728, 1000]


def _jacobi_diagonals(family: str, n: int):
    k = np.arange(n, dtype=float)
    if family == LAGUERRE:
        return 2.0 * k + 1.0, k[1:]
    return np.zeros(n), np.sqrt(k[1:] / 2.0)


def _clear_rules():
    """Empty the operator store and the dsterf lookup."""
    basis_module._store.clear()
    basis_module._store_bytes = 0
    basis_module._dsterf.cache_clear()


@pytest.fixture
def fresh_rules(monkeypatch):
    """An empty operator store and dsterf lookup for the test; the session's store is put back after it."""
    monkeypatch.setattr(basis_module, "_store", {})
    monkeypatch.setattr(basis_module, "_store_bytes", 0)
    basis_module._dsterf.cache_clear()
    yield
    basis_module._dsterf.cache_clear()


def _fail_to_load(name):
    raise OSError(f"cannot open {name}")


class _LapackWithoutDsterf:
    """A loaded library that exports no dsterf symbol."""

    def __init__(self, name):
        pass

    def __getattr__(self, symbol):
        raise AttributeError(symbol)


def _skip_without_dsterf():
    if basis_module._dsterf() is None:
        pytest.skip("numpy's LAPACK exports no ILP64 dsterf; only the dense path runs")


@pytest.mark.parametrize("family", [LAGUERRE, HERMITE])
def test_dsterf_eigenvalues_have_the_dense_bits(family):
    _skip_without_dsterf()
    for n in JACOBI_SIZES:
        diag, off = _jacobi_diagonals(family, n)
        fast = _jacobi_eigenvalues(diag, off)
        assert np.array_equal(fast, _dense_jacobi_eigenvalues(diag, off)), n
        # dsterf works on copies: the caller's diagonals are left as they were
        for given, made in zip((diag, off), _jacobi_diagonals(family, n)):
            assert np.array_equal(given, made), n


def test_unit_rules_on_the_dense_fallback_have_the_dsterf_bits(monkeypatch, fresh_rules):
    _skip_without_dsterf()
    cases = [(family, order) for family in (LAGUERRE, HERMITE) for order in (8, 48, 128, 363)]
    fast = {case: _unit_rule(*case) for case in cases}
    _clear_rules()
    monkeypatch.setattr(basis_module.ctypes, "CDLL", _fail_to_load)
    assert basis_module._dsterf() is None
    for case in cases:
        dense = _unit_rule(*case)
        for fast_part, dense_part in zip(fast[case], dense):
            assert np.array_equal(fast_part, dense_part), case


@pytest.mark.parametrize("library", [_fail_to_load, _LapackWithoutDsterf], ids=["no-library", "no-symbol"])
def test_failed_dsterf_lookup_falls_back_to_the_dense_path(monkeypatch, fresh_rules, library):
    monkeypatch.setattr(basis_module.ctypes, "CDLL", library)
    diag, off = _jacobi_diagonals(LAGUERRE, 65)
    assert np.array_equal(_jacobi_eigenvalues(diag, off), _dense_jacobi_eigenvalues(diag, off))
    assert basis_module._dsterf() is None
    rule = quadrature(hermite_basis(48, 1.0))
    assert np.all(np.diff(rule.nodes) > 0.0)


def test_scipy_openblas_numpy_takes_the_dsterf_path():
    # guards against losing the fast path silently: numpy's wheels built on
    # scipy-openblas export scipy_dsterf_64_
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        pytest.skip("np.show_config(mode='dicts') needs numpy 1.26 or later")
    lapack = config.get("Build Dependencies", {}).get("lapack", {}).get("name")
    if lapack != "scipy-openblas":
        pytest.skip(f"numpy's LAPACK is {lapack!r}, not scipy-openblas")
    assert basis_module._dsterf() is not None


def test_dsterf_failure_raises_like_eigvalsh():
    _skip_without_dsterf()
    diag, off = np.array([1.0, np.nan, 2.0]), np.array([1.0, 1.0])
    for eigenvalues in (_jacobi_eigenvalues, _dense_jacobi_eigenvalues):
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            eigenvalues(diag, off)


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


def _laguerre_nodes(order: int) -> np.ndarray:
    k = np.arange(order + 1, dtype=float)
    return eigh_tridiagonal(2.0 * k + 1.0, k[1:], eigvals_only=True)


# points, found on a grid of step 0.02, where a column is scaled once too
# few by a test of |p| at block ends alone (|p| passes 2^332 inside a block
# and is back below it at the block's end, at order 363 or 1000) or by no
# test after the last, partial block (at order 513 or 727)
TIPPING = np.array([465.16, 465.24, 925.94, 926.28, 1386.46, 1846.82, 2307.34, 3227.94, 2400.32, 3334.44])


@pytest.mark.parametrize("order", [1, 7, 8, 9, 16, 17, 180, 363, 513, 727, 1000])
def test_christoffel_log_sum_checked_per_block_has_the_per_step_bits(order):
    # orders at the edges of the 8-step blocks, and far nodes up to 3950
    x = np.concatenate((_laguerre_nodes(order), TIPPING))
    total, log_scale = _basis_pass(LAGUERRE, x, np.ones_like(x), x.size, [(order, x.size)])
    assert np.array_equal(np.log(total) + 2.0 * log_scale, _christoffel_log_sum_checked_every_step(order, x))


@pytest.mark.parametrize("order", list(range(1, 61)) + [128, 256, 363])
def test_one_pass_has_the_bits_of_the_per_order_sums_and_evaluations(order):
    # a frame build's layout: the refined rule's Christoffel columns, the
    # order's, then the evaluation columns, which include far points whose
    # damped start is subnormal; both rules' columns carry the tipping points
    refined_order = 2 * order + 1
    long = np.concatenate((_laguerre_nodes(refined_order), TIPPING))
    short = np.concatenate((_laguerre_nodes(order), TIPPING))
    points = np.concatenate((_laguerre_nodes(order), _laguerre_nodes(refined_order), [1500.0, 1594.0]))
    start, far = _damped_start(points)
    x = np.concatenate((long, short, points))
    first = np.concatenate((np.ones(long.size + short.size), start))
    psi = np.empty((order + 1, points.size))
    rows = [(slice(long.size + short.size, x.size), psi)]
    stops = [(order, x.size), (refined_order, long.size)]
    total, log_scale = _basis_pass(LAGUERRE, x, first, long.size + short.size, stops, rows)
    log_sums = np.log(total) + 2.0 * log_scale
    assert np.array_equal(log_sums[: long.size], _christoffel_log_sum_checked_every_step(refined_order, long))
    assert np.array_equal(log_sums[long.size :], _christoffel_log_sum_checked_every_step(order, short))
    psi[:, far] *= 2.0**-128
    assert np.array_equal(psi, damped_laguerre_all(order, points))


def _three_call_build(family: str, order: int, shift: float | None):
    """A unit build's rules and evaluations, each from its own recurrence.

    The rules' weights are the Christoffel sums of each rule on its own (per
    step, for Laguerre), and the evaluations come from one per-step
    recurrence over all points (:mod:`oracles`).
    """
    rules = []
    for rule_order in (order, 2 * order + 1):
        k = np.arange(rule_order + 1, dtype=float)
        if family == LAGUERRE:
            nodes = _jacobi_eigenvalues(2.0 * k + 1.0, k[1:])
            log_sum = _christoffel_log_sum_checked_every_step(rule_order, nodes)
            rules.append((nodes, np.exp(-log_sum), np.exp(nodes - log_sum)))
        else:
            nodes = _jacobi_eigenvalues(np.zeros(rule_order + 1), np.sqrt(k[1:] / 2.0))
            h = hermite_fn_all(rule_order, nodes)
            weights = 1.0 / np.sum(h * h, axis=0)
            rules.append((nodes, weights, weights))
    parts = [rules[0][0], rules[1][0]] + ([] if shift is None else [rules[0][0] + shift])
    points = np.concatenate(parts)
    every = damped_laguerre_all(order, points) if family == LAGUERRE else hermite_fn_all(order, points)
    evaluations = np.split(every, np.cumsum([part.size for part in parts])[:-1], axis=1)
    return rules, evaluations + [None] * (3 - len(evaluations))


@pytest.mark.parametrize("family", [LAGUERRE, HERMITE])
@pytest.mark.parametrize("order", list(range(1, 61)) + [128, 256, 363])
def test_unit_pass_has_the_bits_of_the_three_call_build(fresh_rules, family, order):
    nodes = _unit_nodes(family, order)
    shift = round(float(nodes[(order + 2) // 3]), 12) if family == LAGUERRE else None
    rules, evaluations = _three_call_build(family, order, shift)
    for cached in ((), (order,), (2 * order + 1,)):
        # a rule already stored is kept; either way it has the same bits
        _clear_rules()
        for rule_order in cached:
            _unit_rule(family, rule_order)
        psi = _unit_pass(family, order, _unit_nodes(family, order), shift)
        for made, expected in zip(psi, evaluations):
            assert (made is None) == (expected is None)
            if made is not None:
                assert np.array_equal(made, expected), cached
        for rule_order, expected in zip((order, 2 * order + 1), rules):
            for made_part, expected_part in zip(basis_module._store["rule", family, rule_order][0], expected):
                assert np.array_equal(made_part, expected_part), (cached, rule_order)
                assert not made_part.flags.writeable


def test_unit_pass_fills_the_rule_cache_that_quadrature_reads(monkeypatch, fresh_rules):
    _unit_pass(LAGUERRE, 24, _unit_nodes(LAGUERRE, 24), 3.5)
    kept = {key: value for key, (value, _) in basis_module._store.items()}
    assert set(kept) == {("rule", LAGUERRE, 24), ("rule", LAGUERRE, 49)}
    passes = []
    monkeypatch.setattr(basis_module, "_basis_pass", lambda *args: passes.append(args))
    for order in (24, 49):
        rule = quadrature(laguerre_basis(order, 2.0))
        assert _unit_rule(LAGUERRE, order) is kept["rule", LAGUERRE, order]
        assert np.array_equal(rule.nodes, kept["rule", LAGUERRE, order][0] / 2.0)
    assert passes == []


def test_rule_cache_keeps_the_128_most_recently_used(monkeypatch, fresh_rules):
    # a Laguerre rule of order k holds three arrays of k+1 floats, so this
    # budget holds the rules of orders 2..129, the 128 most recent
    monkeypatch.setattr(basis_module, "_STORE_BYTES", sum(24 * (k + 1) for k in range(2, 130)))
    for order in range(130):
        _unit_rule(LAGUERRE, order)
        assert basis_module._store_bytes <= basis_module._STORE_BYTES
    rules = basis_module._store
    assert len(rules) == 128
    assert ("rule", LAGUERRE, 0) not in rules and ("rule", LAGUERRE, 1) not in rules
    # a hit makes a rule the most recently used, so the next miss evicts order 3
    oldest = rules["rule", LAGUERRE, 2][0]
    assert _unit_rule(LAGUERRE, 2) is oldest
    # a Hermite rule's weights are its damped weights, one array counted
    # once: order 5 holds two arrays of 6 floats, the bytes of Laguerre order 3
    _unit_rule(HERMITE, 5)
    assert rules["rule", HERMITE, 5][1] == 2 * 6 * 8
    assert len(rules) == 128 and basis_module._store_bytes == basis_module._STORE_BYTES
    assert ("rule", LAGUERRE, 2) in rules and ("rule", LAGUERRE, 3) not in rules
    assert list(rules)[-2:] == [("rule", LAGUERRE, 2), ("rule", HERMITE, 5)]


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


# every order up to 39 and the orders the library runs, Hermite's ceiling included
EVALUATION_ORDERS = list(range(40)) + [64, 128, 256, 363, 727]


@pytest.mark.parametrize("family", [LAGUERRE, HERMITE])
@pytest.mark.parametrize("beta", [0.3, 1.0, 2.5])
def test_evaluations_have_the_bits_of_the_per_step_recurrence(family, beta):
    # both evaluations run the recurrence kernel; the oracles run it one
    # written-out step at a time.  The points are the unit nodes, a
    # stretched copy and extra columns, each over beta: for Laguerre the
    # endpoint and far columns whose damped start is subnormal (y = 1500,
    # 1594) or whose plain values overflow, for Hermite far columns on both
    # sides; then an empty array, a scalar and a 0-d array
    extra = [0.0, 1500.0, 1594.0, 3000.0] if family == LAGUERRE else [-40.0, 40.0, 1e6]
    for order in EVALUATION_ORDERS:
        basis = ScaledBasis(family, beta, order)
        nodes = _unit_nodes(family, order)
        for x in (np.concatenate((nodes, 1.05 * nodes, extra)) / beta, np.array([]), 0.7, np.array(3.0)):
            y = beta * np.asarray(x, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                if family == LAGUERRE:
                    weighted, plain = damped_laguerre_all(order, y), laguerre_all(order, 0.0, y, 1.0)
                else:
                    weighted = plain = math.sqrt(beta) * hermite_fn_all(order, y)
                for made, expected in ((eval_weighted_all(basis, x), weighted), (eval_basis_all(basis, x), plain)):
                    assert made.shape == expected.shape == (order + 1,) + np.shape(x)
                    assert np.array_equal(made, expected, equal_nan=True), (order, np.shape(x))


@pytest.mark.parametrize("family", [LAGUERRE, HERMITE])
@pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
def test_evaluations_reject_a_non_finite_point(family, point):
    # a NaN point used to give a NaN column, and an infinite one a
    # RuntimeWarning and then NaN; a Laguerre basis at -inf raised as left
    # of its endpoint
    basis = ScaledBasis(family, 1.5, 12)
    for evaluate in (eval_weighted_all, eval_basis_all):
        for x in (point, np.array([0.5, point, 2.0]), np.array([[0.5], [point]])):
            with pytest.raises(ValueError, match="non-finite point"):
                evaluate(basis, x)


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
