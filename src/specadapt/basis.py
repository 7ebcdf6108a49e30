"""Scaled orthogonal bases on unbounded domains.

Two families are provided:

* Laguerre polynomials ``L_l(beta*x)`` on ``(0, inf)``, orthogonal under
  the weight ``exp(-beta*x)``, with squared norms ``1/beta``;
* normalized Hermite functions ``sqrt(beta)*h_l(beta*x)`` on the real line,
  orthonormal under the plain Lebesgue measure (the Gaussian weight is folded
  into the functions, so every norm equals one).

The scaling factor ``beta`` controls how fast the basis decays.  Adapting it,
and for Laguerre the frame origin ``x_left`` that :mod:`specadapt.adapt`
adds to every point, is what the rest of the package is about; a basis
itself always starts at 0.  Gauss rules are computed once per (family,
order) at unit scale and then mapped to the requested scale, so repeated
calls during time stepping are cheap.  The nodes are the LAPACK eigenvalues
of the symmetric tridiagonal Jacobi matrix (Golub & Welsch, 1969); the
weights come from the Christoffel identity, in log form for Laguerre, so
that the exponentially reweighted weights of :func:`modified_weights` stay
finite where the plain tail weights underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ScaledBasis",
    "QuadratureRule",
    "laguerre_basis",
    "hermite_basis",
    "eval_basis_all",
    "eval_weighted_all",
    "gamma_norms",
    "quadrature",
    "modified_weights",
]

LAGUERRE = "laguerre"
HERMITE = "hermite"

# exp(-s) leaves float64's normal range for s above this
_LOG_TINY = -math.log(np.finfo(float).tiny)


def _checked_order(order) -> int:
    """``order`` as a Python int; ValueError for a bool or a non-integer such as 12.5."""
    if isinstance(order, (int, np.integer)) and not isinstance(order, bool):
        return int(order)
    raise ValueError(f"order must be an integer, got {order!r}")


@dataclass(frozen=True)
class ScaledBasis:
    """A truncated basis: family, scale, order.

    ``order`` is the highest retained index N; the basis spans N+1 functions.
    """

    family: str
    beta: float
    order: int

    def __post_init__(self) -> None:
        if self.family not in (LAGUERRE, HERMITE):
            raise ValueError(f"unknown basis family {self.family!r}")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"scaling factor must be positive, got {self.beta}")
        order = _checked_order(self.order)
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        object.__setattr__(self, "order", order)


def laguerre_basis(order: int, beta: float) -> ScaledBasis:
    """Scaled Laguerre basis on (0, inf)."""
    return ScaledBasis(LAGUERRE, float(beta), order)


def hermite_basis(order: int, beta: float) -> ScaledBasis:
    """Scaled normalized Hermite-function basis on the real line."""
    return ScaledBasis(HERMITE, float(beta), order)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss nodes and weights matched to a basis, exact through degree 2N+1.

    For the Hermite family the weights integrate ``f(x) dx`` exactly
    whenever ``f`` is a polynomial of degree <= 2N+1 times the squared
    Gaussian envelope, i.e. the Hermite functions are discretely
    orthonormal under the rule.
    """

    basis: ScaledBasis
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != (self.basis.order + 1,) or weights.shape != nodes.shape:
            raise ValueError("rule size must match basis order + 1")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        # Weights are mathematically positive; in float64 the extreme tail
        # weights underflow to 0.0 once the order reaches ~180, so only
        # negative values are rejected here.  modified_weights does not
        # read them: it scales separately cached damped weights.
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and nonnegative")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def _laguerre_arg(basis: ScaledBasis, x: np.ndarray) -> np.ndarray:
    y = basis.beta * x
    if np.any(y < 0.0):
        raise ValueError("Laguerre basis evaluated left of its endpoint")
    return y


def eval_basis_all(basis: ScaledBasis, x) -> np.ndarray:
    """Evaluate all N+1 basis functions at x.

    Returns shape (N+1,) for scalar input and (N+1, len(x)) for 1-d input.
    Laguerre evaluation requires ``x >= 0``.
    """
    scalar = np.ndim(x) == 0
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if basis.family == LAGUERRE:
        out = _laguerre_all(basis.order, 0.0, _laguerre_arg(basis, xa), 1.0)
    else:
        out = math.sqrt(basis.beta) * _hermite_fn_all(basis.order, basis.beta * xa)
    return out[:, 0] if scalar else out


def eval_weighted_all(basis: ScaledBasis, x) -> np.ndarray:
    """Evaluate the half-weighted basis functions sqrt(weight)*phi_l at x.

    For Laguerre this is exp(-y/2)*L_l(y) with y = beta*x.  Unlike the bare
    polynomials, which reach ~1e30 near the largest N=40 node, these stay
    O(1) over the whole node range, so nodal<->modal transforms built from
    them are float64-safe.  Past y = 1416.8 the recurrence's start
    exp(-y/2) is subnormal and too coarse (an error of 3.7e-3 at order
    363), so there it starts at 2^128*exp(-y/2), normal up to y = 1594.2,
    and those columns are scaled back by 2^-128 at the end; below, the
    arithmetic is the plain one.  Hermite functions already carry their
    Gaussian envelope, so the plain evaluation is returned unchanged.
    """
    scalar = np.ndim(x) == 0
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if basis.family == HERMITE:
        out = math.sqrt(basis.beta) * _hermite_fn_all(basis.order, basis.beta * xa)
    else:
        y = _laguerre_arg(basis, xa)
        far = 0.5 * y > _LOG_TINY
        out = _laguerre_all(basis.order, 0.0, y, np.exp(np.where(far, 128 * math.log(2.0), 0.0) - 0.5 * y))
        out[:, far] *= 2.0**-128
    return out[:, 0] if scalar else out


def modified_weights(rule: QuadratureRule) -> np.ndarray:
    """Weights that integrate plain dx (Laguerre) instead of the weighted measure.

    Mathematically these are the Gauss weights times exp(+beta*x_j):
    sum w~_j f(x_j) approximates the unweighted integral of f over
    (0, inf), exactly whenever f equals the weight times a polynomial of
    degree 2N+1.  That product is never formed: past order ~180 the tail
    weights underflow to 0 while the exponential overflows.  The cached
    damped unit weights exp(x_j)*w_j are scaled instead, and stay O(1) at
    every order.  Hermite weights already integrate dx, so for a Hermite
    rule these equal its weights.
    """
    basis = rule.basis
    return _unit_rule(basis.family, basis.order)[2] * basis.beta ** -1.0


def _laguerre_all(n: int, alpha: float, y: np.ndarray, first) -> np.ndarray:
    """first * L_l^(alpha)(y) for l = 0..n, by the three-term recurrence.

    The library's bases have alpha = 0; alpha = 1 is the family of their
    derivative (see :mod:`specadapt.indicators`).
    """
    out = np.empty((n + 1,) + y.shape)
    out[0] = first
    if n >= 1:
        out[1] = (alpha + 1.0 - y) * out[0]
    for k in range(1, n):
        out[k + 1] = ((2.0 * k + alpha + 1.0 - y) * out[k] - (k + alpha) * out[k - 1]) / (k + 1.0)
    return out


def _hermite_fn_all(n: int, y: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions h_l(y); bounded for all real y."""
    out = np.empty((n + 1,) + y.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * y * y)
    if n >= 1:
        out[1] = math.sqrt(2.0) * y * out[0]
    for k in range(1, n):
        out[k + 1] = math.sqrt(2.0 / (k + 1.0)) * y * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def gamma_norms(basis: ScaledBasis) -> np.ndarray:
    """Squared weighted norms of the basis functions, indices 0..N.

    Laguerre: 1/beta for every index.  Hermite functions are orthonormal:
    all ones.
    """
    n = basis.order
    if basis.family == HERMITE:
        return np.ones(n + 1)
    return np.full(n + 1, 1.0 / basis.beta)


def quadrature(basis: ScaledBasis) -> QuadratureRule:
    """N+1-node Gauss rule for the basis's weighted measure.

    Unit-scale nodes/weights come from the Golub-Welsch eigenproblem and are
    cached; the returned rule is the mapped copy x -> x/beta,
    w -> w * beta**-1.  Hermite rules stop at order 727: past it
    exp(-y^2/2) at the largest node leaves the normal float64 range, and
    the rule raises ValueError before any function evaluation.
    """
    unit_nodes, unit_weights, _ = _unit_rule(basis.family, basis.order)
    return QuadratureRule(basis, unit_nodes / basis.beta, unit_weights * basis.beta ** -1.0)


@lru_cache(maxsize=128)
def _unit_rule(family: str, order: int):
    """Unit-scale (nodes, weights, damped weights) of an N+1-node Gauss rule.

    Nodes are the eigenvalues of the Jacobi matrix.  Laguerre weights come
    from the Christoffel identity w_j = 1/sum_l p_l(x_j)^2 over the
    orthonormal polynomials, carried in log form so that both the plain
    weights exp(-log_sum), which underflow in the far tail, and the damped
    ones exp(x_j - log_sum), which stay O(1), are accurate.  For Hermite
    functions the weights already integrate dx, so both entries coincide.
    """
    n = order + 1
    k = np.arange(n, dtype=float)
    if family == LAGUERRE:
        nodes = _jacobi_eigenvalues(2.0 * k + 1.0, k[1:])
        log_sum = _laguerre_christoffel_log_sum(order, nodes)
        weights = np.exp(-log_sum)
        damped = np.exp(nodes - log_sum)
    else:
        nodes = _jacobi_eigenvalues(np.zeros(n), np.sqrt(k[1:] / 2.0))
        # h_0 = exp(-y^2/2) at the largest node starts the recurrence; once
        # it is subnormal the weights lose precision, and from order 765
        # they are infinite
        if 0.5 * nodes[-1] ** 2 > _LOG_TINY:
            raise ValueError(f"Hermite rule order {order} exceeds the ceiling of 727")
        # Function-space weights via the Christoffel identity
        # w_j = 1 / sum_l h_l(x_j)^2; the textbook polynomial weights times
        # exp(x_j^2) would overflow at large order.
        h = _hermite_fn_all(order, nodes)
        weights = damped = 1.0 / np.sum(h * h, axis=0)
    for array in (nodes, weights, damped):
        array.setflags(write=False)
    return nodes, weights, damped


def _jacobi_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal (diag, off) matrix."""
    n = diag.size
    jacobi = np.zeros((n, n))
    jacobi.flat[:: n + 1] = diag
    jacobi.flat[1 :: n + 1] = off
    jacobi.flat[n :: n + 1] = off
    return np.linalg.eigvalsh(jacobi)


# |p_l| past which the Christoffel recurrence rescales a node's column; a
# power of two, so the rescaling is exact.
_BIG = 2.0**332


def _laguerre_christoffel_log_sum(order: int, x: np.ndarray) -> np.ndarray:
    """log sum_{l<=order} p_l(x)^2 for the orthonormal Laguerre polynomials.

    Uses x p_l = b_{l+1} p_{l+1} + a_l p_l + b_l p_{l-1} with a_l = 2l+1,
    b_l = l and p_0 = 1.  The sum grows like exp(x), so a node's column is
    scaled down by _BIG once |p| has passed _BIG, and the removed factor is
    carried as a logarithm.  The test runs every 8 steps and after the
    last, on the largest p^2 since the test before (fl(p^2) > _BIG^2
    exactly when |p| > _BIG), and gives a per-step test's bits: scaling by
    a power of two is exact, so a column scaled at a block's end equals one
    scaled inside it.  No column passes _BIG twice in a block or overflows:
    a step multiplies max(|p_l|, |p_{l-1}|) by at most
    (x + 3l + 1)/(l + 1) <= max(x + 1, 3), so 8 steps by less than 2^96 for
    x < 4095 (order 1000's largest node is about 3950), and |p| stays
    below 2^428.
    """
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    total = np.ones_like(x)
    log_scale = np.zeros_like(x)
    step, square, peak = np.empty_like(x), np.empty_like(x), np.zeros_like(x)
    for l in range(order):
        # p_{l+1} = ((x - a_l) p_l - b_l p_{l-1}) / b_{l+1}, in place
        np.subtract(x, 2.0 * l + 1.0, out=step)
        step *= p
        p_prev *= l
        step -= p_prev
        step /= l + 1.0
        p_prev, p, step = p, step, p_prev
        np.multiply(p, p, out=square)
        total += square
        np.maximum(peak, square, out=peak)
        if l % 8 == 7 or l == order - 1:
            big = peak > _BIG * _BIG
            if big.any():
                p[big] /= _BIG
                p_prev[big] /= _BIG
                total[big] /= _BIG * _BIG
                log_scale[big] += math.log(_BIG)
            peak.fill(0.0)
    return np.log(total) + 2.0 * log_scale
