"""Scaled orthogonal bases on unbounded domains.

Two families are provided:

* generalized Laguerre polynomials ``L_l(beta*(x - x_left))`` on
  ``(x_left, inf)``, orthogonal under the weight
  ``(x - x_left)**alpha * exp(-beta*(x - x_left))``;
* normalized Hermite functions ``sqrt(beta)*h_l(beta*x)`` on the real line,
  orthonormal under the plain Lebesgue measure (the Gaussian weight is folded
  into the functions, so every norm equals one).

The scaling factor ``beta`` controls how fast the basis decays; adapting it
(and, for Laguerre, the left endpoint ``x_left``) is what the rest of the
package is about.  Quadrature rules are computed once per (family, alpha,
order, kind) at unit scale and then mapped to the requested scale, so
repeated calls during time stepping are cheap.  The nodes are the LAPACK
eigenvalues of the symmetric tridiagonal Jacobi matrix (Golub & Welsch,
1969); the weights come from the Christoffel identity, in log form for
Laguerre, so that the exponentially reweighted weights of
:func:`modified_weights` stay finite where the plain tail weights underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    "derivative_coeffs",
]

LAGUERRE = "laguerre"
HERMITE = "hermite"

# exp(-s) leaves float64's normal range for s above this
_LOG_TINY = -math.log(np.finfo(float).tiny)

@dataclass(frozen=True)
class ScaledBasis:
    """A truncated basis: family, weight exponent, scale, left endpoint, order.

    ``order`` is the highest retained index N; the basis spans N+1 functions.
    For the Hermite family ``alpha`` and ``x_left`` must both be zero.
    """

    family: str
    alpha: float
    beta: float
    x_left: float
    order: int

    def __post_init__(self) -> None:
        if self.family not in (LAGUERRE, HERMITE):
            raise ValueError(f"unknown basis family {self.family!r}")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"scaling factor must be positive, got {self.beta}")
        if self.order < 0:
            raise ValueError(f"order must be nonnegative, got {self.order}")
        if self.family == LAGUERRE:
            if not (math.isfinite(self.alpha) and self.alpha > -1.0):
                raise ValueError(f"weight exponent must exceed -1, got {self.alpha}")
            if not math.isfinite(self.x_left):
                raise ValueError("left endpoint must be finite")
        else:
            if self.alpha != 0.0 or self.x_left != 0.0:
                raise ValueError("Hermite bases have alpha = 0 and x_left = 0")


def laguerre_basis(order: int, beta: float, alpha: float = 0.0, x_left: float = 0.0) -> ScaledBasis:
    """Scaled generalized Laguerre basis on (x_left, inf)."""
    return ScaledBasis(LAGUERRE, float(alpha), float(beta), float(x_left), int(order))


def hermite_basis(order: int, beta: float) -> ScaledBasis:
    """Scaled normalized Hermite-function basis on the real line."""
    return ScaledBasis(HERMITE, 0.0, float(beta), 0.0, int(order))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights matched to a basis.

    ``kind`` is ``"gauss"`` (exact through degree 2N+1) or ``"radau"``
    (first node pinned at ``x_left``, exact through degree 2N).  For the
    Hermite family the weights integrate ``f(x) dx`` exactly whenever ``f``
    is a polynomial of degree <= 2N+1 times the squared Gaussian envelope,
    i.e. the Hermite functions are discretely orthonormal under the rule.
    """

    basis: ScaledBasis
    kind: str
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


def eval_basis_all(basis: ScaledBasis, x) -> np.ndarray:
    """Evaluate all N+1 basis functions at x.

    Returns shape (N+1,) for scalar input and (N+1, len(x)) for 1-d input.
    Laguerre evaluation requires ``x >= x_left``.
    """
    scalar = np.ndim(x) == 0
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if basis.family == LAGUERRE:
        y = basis.beta * (xa - basis.x_left)
        if np.any(y < 0.0):
            raise ValueError("Laguerre basis evaluated left of its endpoint")
        out = _laguerre_all(basis.order, basis.alpha, y)
    else:
        out = math.sqrt(basis.beta) * _hermite_fn_all(basis.order, basis.beta * xa)
    return out[:, 0] if scalar else out


def eval_weighted_all(basis: ScaledBasis, x) -> np.ndarray:
    """Evaluate the half-weighted basis functions sqrt(weight)*phi_l at x.

    For Laguerre this is exp(-y/2)*L_l(y) with y = beta*(x - x_left) (alpha
    contributes to the weight only through the quadrature, not the envelope).
    Unlike the bare polynomials, which reach ~1e30 near the largest N=40
    node, these stay O(1) over the whole node range, so nodal<->modal
    transforms built from them are float64-safe as long as the starting
    envelope exp(-y/2) is a normal float, i.e. y < 1416.8 (order 363 at
    the largest Gauss node; see ``adapt.Frame``).
    Hermite functions already carry their Gaussian envelope, so the plain
    evaluation is returned unchanged.
    """
    scalar = np.ndim(x) == 0
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if basis.family == HERMITE:
        out = math.sqrt(basis.beta) * _hermite_fn_all(basis.order, basis.beta * xa)
        return out[:, 0] if scalar else out
    y = basis.beta * (xa - basis.x_left)
    if np.any(y < 0.0):
        raise ValueError("Laguerre basis evaluated left of its endpoint")
    out = np.empty((basis.order + 1,) + y.shape)
    out[0] = np.exp(-0.5 * y)
    if basis.order >= 1:
        out[1] = (basis.alpha + 1.0 - y) * out[0]
    for k in range(1, basis.order):
        out[k + 1] = ((2.0 * k + basis.alpha + 1.0 - y) * out[k] - (k + basis.alpha) * out[k - 1]) / (k + 1.0)
    return out[:, 0] if scalar else out


def modified_weights(rule: QuadratureRule) -> np.ndarray:
    """Weights that integrate plain dx (Laguerre) instead of the weighted measure.

    Mathematically these are the Gauss(-Radau) weights times
    exp(+beta*(x_j - x_left)): sum w~_j f(x_j) approximates the unweighted
    integral of f over (x_left, inf), exactly whenever f equals the weight
    times a polynomial of rule degree.  That product is never formed: past
    order ~180 the tail weights underflow to 0 while the exponential
    overflows.  The cached damped unit weights exp(x_j)*w_j are scaled
    instead, and stay O(1) at every order.  For Hermite rules the weights
    already integrate dx.
    """
    basis = rule.basis
    if basis.family == HERMITE:
        return rule.weights.copy()
    if basis.alpha != 0.0 and rule.kind == "radau":
        raise ValueError("modified weights are singular at a pinned endpoint for alpha != 0")
    damped = _unit_rule(basis.family, basis.alpha, basis.order, rule.kind)[2]
    out = damped * basis.beta ** -(basis.alpha + 1.0)
    if basis.alpha != 0.0:
        out = out / (rule.nodes - basis.x_left) ** basis.alpha
    return out


def _laguerre_all(n: int, alpha: float, y: np.ndarray) -> np.ndarray:
    out = np.empty((n + 1,) + y.shape)
    out[0] = 1.0
    if n >= 1:
        out[1] = alpha + 1.0 - y
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

    Laguerre: Gamma(l+alpha+1) / (l! * beta**(alpha+1)), computed by the
    ratio recurrence g_l = g_{l-1} * (l+alpha)/l so no large-argument Gamma
    evaluations occur.  Hermite functions are orthonormal: all ones.
    """
    n = basis.order
    if basis.family == HERMITE:
        return np.ones(n + 1)
    g = np.empty(n + 1)
    g[0] = math.gamma(basis.alpha + 1.0) / basis.beta ** (basis.alpha + 1.0)
    for l in range(1, n + 1):
        g[l] = g[l - 1] * (l + basis.alpha) / l
    return g


def quadrature(basis: ScaledBasis, kind: str = "gauss") -> QuadratureRule:
    """N+1-node Gauss or Gauss-Radau rule for the basis's weighted measure.

    Unit-scale nodes/weights come from the Golub-Welsch eigenproblem and are
    cached; the returned rule is the mapped copy
    (Laguerre: x -> x/beta + x_left, w -> w * beta**-(alpha+1);
    Hermite: x -> x/beta, w -> w/beta).  Hermite rules stop at order 727:
    past it exp(-y^2/2) at the largest node leaves the normal float64
    range, and the rule raises ValueError before any function evaluation.
    """
    if kind not in ("gauss", "radau"):
        raise ValueError(f"unknown rule kind {kind!r}")
    if basis.family == HERMITE and kind == "radau":
        raise ValueError("Radau rules are only defined for the Laguerre family")
    unit_nodes, unit_weights, _ = _unit_rule(basis.family, basis.alpha, basis.order, kind)
    if basis.family == LAGUERRE:
        nodes = basis.x_left + unit_nodes / basis.beta
        if kind == "radau":
            nodes[0] = basis.x_left
        weights = unit_weights * basis.beta ** -(basis.alpha + 1.0)
    else:
        nodes = unit_nodes / basis.beta
        weights = unit_weights / basis.beta
    return QuadratureRule(basis, kind, nodes, weights)


@lru_cache(maxsize=128)
def _unit_rule(family: str, alpha: float, order: int, kind: str):
    """Unit-scale (nodes, weights, damped weights) of an N+1-node rule.

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
        diag = 2.0 * k + alpha + 1.0
        off = np.sqrt(k[1:] * (k[1:] + alpha))
        if kind == "radau":
            # Pinning a node at the endpoint 0 replaces the last diagonal
            # entry by order (independent of alpha for this weight).  Rows
            # 0..n-2 are unchanged, so the Christoffel identity still holds.
            diag[-1] = float(order)
        nodes = _jacobi_eigenvalues(diag, off)
        if kind == "radau":
            nodes[0] = 0.0
        log_sum = _laguerre_christoffel_log_sum(order, alpha, nodes)
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


def _laguerre_christoffel_log_sum(order: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """log sum_{l<=order} p_l(x)^2 for the orthonormal Laguerre polynomials.

    Uses x p_l = b_{l+1} p_{l+1} + a_l p_l + b_l p_{l-1} with a_l = 2l+alpha+1,
    b_l = sqrt(l(l+alpha)) and p_0 = Gamma(alpha+1)**-1/2.  The sum grows
    like exp(x), so each node's column is scaled down by _BIG whenever it
    exceeds _BIG, and the removed factor is carried as a logarithm.
    """
    p_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / math.sqrt(math.gamma(alpha + 1.0)))
    total = p * p
    log_scale = np.zeros_like(x)
    b = 0.0
    for l in range(order):
        b_next = math.sqrt((l + 1.0) * (l + 1.0 + alpha))
        p_prev, p = p, ((x - (2.0 * l + alpha + 1.0)) * p - b * p_prev) / b_next
        b = b_next
        total += p * p
        big = np.abs(p) > _BIG
        if big.any():
            p[big] /= _BIG
            p_prev[big] /= _BIG
            total[big] /= _BIG * _BIG
            log_scale[big] += math.log(_BIG)
    return np.log(total) + 2.0 * log_scale


def derivative_coeffs(coeffs: np.ndarray, basis: ScaledBasis) -> tuple[np.ndarray, ScaledBasis]:
    """Coefficients and basis of the exact derivative of an expansion.

    Laguerre: d/dx L_l(beta*(x-x_left)) = -beta * M_{l-1} with M from the
    alpha+1 family, so the result has order N-1 in (alpha+1, beta, x_left).
    Hermite: d/dx H_l = beta*(sqrt(l/2) H_{l-1} - sqrt((l+1)/2) H_{l+1}),
    so the result has order N+1 in the same basis family.
    """
    c = np.asarray(coeffs, dtype=float)
    n = basis.order
    if c.shape != (n + 1,):
        raise ValueError("coefficient vector must match basis order + 1")
    if basis.family == LAGUERRE:
        if n < 1:
            raise ValueError("Laguerre derivative needs order >= 1")
        out = -basis.beta * c[1:]
        return out, replace(basis, alpha=basis.alpha + 1.0, order=n - 1)
    # mode m receives sqrt((m+1)/2)*u_{m+1} - sqrt(m/2)*u_{m-1}, times beta
    m = np.arange(n + 2, dtype=float)
    upper = np.zeros(n + 2)
    upper[:n] = c[1:]
    lower = np.zeros(n + 2)
    lower[1:] = c
    out = basis.beta * (np.sqrt((m + 1.0) / 2.0) * upper - np.sqrt(m / 2.0) * lower)
    return out, replace(basis, order=n + 1)
