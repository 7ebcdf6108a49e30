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
calls during time stepping are cheap.  The nodes are the eigenvalues of
the symmetric tridiagonal Jacobi matrix (Golub & Welsch, 1969), from
LAPACK's dsterf on its two diagonals (:func:`_jacobi_eigenvalues`).  The
weights come from the Christoffel identity, in log form for Laguerre, so
that the exponentially reweighted weights of :func:`modified_weights` stay
finite where the plain tail weights underflow.  One kernel,
:func:`_basis_pass`, is the only place that runs a family's three-term
recurrence, once over many columns: it gives a rule's Christoffel sums,
every evaluation (:func:`eval_weighted_all`, :func:`eval_basis_all`), and
for a frame of order N (:func:`_unit_pass`) both Gauss rules' sums and the
basis at the nodes, the refined nodes and the split-shifted nodes in the
same loop.  Every operator the library caches, these rules and the
frames' operators of :mod:`specadapt.adapt` alike, is kept in one
least-recently-used store under one byte budget (:func:`_stored`).
"""

from __future__ import annotations

import ctypes
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


def eval_basis_all(basis: ScaledBasis, x) -> np.ndarray:
    """Evaluate all N+1 basis functions at x.

    Returns shape (N+1,) for scalar input and (N+1, len(x)) for 1-d input.
    Every point must be finite, and a Laguerre one ``>= 0``.  Only the coefficient layer
    (:mod:`specadapt.approx`, :mod:`specadapt.indicators`) reads these
    plain polynomials; the frames read :func:`eval_weighted_all`.
    """
    return _evaluate(basis, x, damped=False)


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
    return _evaluate(basis, x, damped=True)


def _evaluate(basis: ScaledBasis, x, damped: bool) -> np.ndarray:
    """The basis at x (Laguerre: ``damped`` or plain) by one :func:`_basis_pass` that sums no column.

    Laguerre columns start at :func:`_damped_start`, whose far columns are
    scaled back by 2^-128 at the end, or at 1; Hermite columns start at
    h_0, and the result is scaled by sqrt(beta).  A point x whose beta*x
    is not finite raises ValueError.
    """
    scalar = np.ndim(x) == 0
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    y = basis.beta * xa.ravel()
    if not np.isfinite(y).all():
        raise ValueError("basis evaluated at a non-finite point")
    if basis.family == HERMITE:
        first = _hermite_start(y)
    elif np.any(y < 0.0):
        raise ValueError("Laguerre basis evaluated left of its endpoint")
    else:
        first, far = _damped_start(y) if damped else (np.ones_like(y), None)
    out = np.empty((basis.order + 1, y.size))
    _basis_pass(basis.family, y, first, 0, [(basis.order, y.size)], [(slice(None), out)])
    if basis.family == HERMITE:
        out *= math.sqrt(basis.beta)
    elif damped:
        out[:, far] *= 2.0**-128
    return out[:, 0] if scalar else out.reshape((basis.order + 1,) + xa.shape)


def _damped_start(y: np.ndarray):
    """(exp(-y/2), or 2^128*exp(-y/2) where that is subnormal; the mask of the latter)."""
    far = 0.5 * y > _LOG_TINY
    return np.exp(np.where(far, 128 * math.log(2.0), 0.0) - 0.5 * y), far


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


def _hermite_start(y: np.ndarray) -> np.ndarray:
    """h_0(y) = pi^(-1/4)*exp(-y^2/2)."""
    return math.pi ** -0.25 * np.exp(-0.5 * y * y)


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

    Unit-scale nodes/weights come from the Golub-Welsch eigenproblem and
    are kept in the library's one store (:func:`_stored`), which a frame
    build also fills (:func:`_unit_pass`): the nodes from
    :func:`_jacobi_eigenvalues`, the weights from one recurrence pass
    (:func:`_basis_pass`).  The returned rule is the mapped copy
    x -> x/beta, w -> w * beta**-1.  Hermite rules stop at order 727: past it
    exp(-y^2/2) at the largest node leaves the normal float64 range, and
    the rule raises ValueError before any function evaluation.
    """
    unit_nodes, unit_weights, _ = _unit_rule(basis.family, basis.order)
    return QuadratureRule(basis, unit_nodes / basis.beta, unit_weights * basis.beta ** -1.0)


# The bytes of the arrays that the store may hold.
_STORE_BYTES = 256 * 2**20

# Every cached operator: key -> (value, bytes of its arrays), least
# recently used first.  A key is (kind, family, order), plus a memo key
# where one order keeps many entries of a kind.
_store: dict = {}
_store_bytes = 0


def _stored(key, build, *args):
    """The value stored under ``key``, or ``build(*args)``, stored as the most recently used.

    A hit moves the entry to the end; a miss makes the new value's arrays
    read-only and then drops the least recently used entries, the new one
    last, until the stored arrays take at most ``_STORE_BYTES``.  A failed
    build stores nothing.  Every build is deterministic, so an evicted
    entry is rebuilt with the same bits, and a caller that still holds
    its value keeps it alive.
    """
    global _store_bytes
    entry = _store.pop(key, None)
    if entry is not None:
        _store[key] = entry
        return entry[0]
    value = build(*args)
    parts = (value,) if isinstance(value, np.ndarray) else value if isinstance(value, tuple) else vars(value).values()
    arrays = {id(part): part for part in parts if isinstance(part, np.ndarray)}.values()
    for array in arrays:
        array.setflags(write=False)
    size = sum(array.nbytes for array in arrays)
    _store[key] = value, size
    _store_bytes += size
    while _store_bytes > _STORE_BYTES:
        _store_bytes -= _store.pop(next(iter(_store)))[1]
    return value


def _unit_rule(family: str, order: int):
    """Unit-scale (nodes, weights, damped weights) of an N+1-node Gauss rule, stored.

    Nodes are the eigenvalues of the Jacobi matrix (:func:`_unit_nodes`).
    The weights come from the Christoffel identity w_j = 1/sum_l p_l(x_j)^2
    over the orthonormal functions, one pass of their recurrence at the
    nodes (:func:`_basis_pass`).  For Laguerre the sum is carried in log
    form, so that both the plain weights exp(-log_sum), which underflow in
    the far tail, and the damped ones exp(x_j - log_sum), which stay O(1),
    are accurate.  For Hermite functions the weights already integrate dx,
    so both entries coincide.  The arrays are read-only.
    """
    return _stored(("rule", family, order), _fresh_rule, family, order)


def _fresh_rule(family: str, order: int):
    """:func:`_unit_rule`'s value, computed."""
    nodes = _unit_nodes(family, order)
    first = np.ones_like(nodes) if family == LAGUERRE else _hermite_start(nodes)
    return _rule_from_sums(family, nodes, *_basis_pass(family, nodes, first, nodes.size, [(order, nodes.size)]))


def _unit_nodes(family: str, order: int) -> np.ndarray:
    """The unit nodes of the N+1-node Gauss rule: the stored rule's, or fresh ones, not stored.

    A Hermite rule past order 727 raises ValueError here, before any
    evaluation: h_0 = exp(-y^2/2) at its largest node, where the
    recurrence starts, is subnormal, so the weights lose precision, and
    from order 765 they are infinite.
    """
    entry = _store.get(("rule", family, order))
    if entry is not None:
        return entry[0][0]
    k = np.arange(order + 1, dtype=float)
    if family == LAGUERRE:
        return _jacobi_eigenvalues(2.0 * k + 1.0, k[1:])
    nodes = _jacobi_eigenvalues(np.zeros(order + 1), np.sqrt(k[1:] / 2.0))
    if 0.5 * nodes[-1] ** 2 > _LOG_TINY:
        raise ValueError(f"Hermite rule order {order} exceeds the ceiling of 727")
    return nodes


def _rule_from_sums(family: str, nodes: np.ndarray, total: np.ndarray, log_scale: np.ndarray):
    """(nodes, weights, damped weights) from a rule's Christoffel sums (see :func:`_basis_pass`)."""
    if family == LAGUERRE:
        log_sum = np.log(total) + 2.0 * log_scale
        weights, damped = np.exp(-log_sum), np.exp(nodes - log_sum)
    else:
        weights = damped = 1.0 / total
    return nodes, weights, damped


def _unit_pass(family: str, order: int, nodes: np.ndarray, shift: float | None):
    """The unit basis of ``order`` at its nodes, its refined nodes and (Laguerre) nodes + ``shift``.

    ``nodes`` are the order's unit nodes (:func:`_unit_nodes`); the refined
    rule has order 2N+1.  One recurrence pass (:func:`_basis_pass`) gives
    the three (N+1, k) evaluations, each with the bits of
    :func:`eval_weighted_all` there, and the Christoffel sums of both
    rules, which it stores with the bits of :func:`_unit_rule` (a rule
    already stored is kept).  The refined rule's columns come first, so
    that they alone run on past l = N.  A Laguerre pass puts the
    evaluation's columns after the rules'; a Hermite pass sums h_l^2 over
    the evaluation's own columns.  Returns
    (psi, psi_refined, psi_split); psi_split is None without a shift.
    """
    refined_order = 2 * order + 1
    refined_nodes = _unit_nodes(family, refined_order)
    n = refined_nodes.size
    summed = n + nodes.size
    if family == LAGUERRE:
        at = (nodes, refined_nodes) + (() if shift is None else (nodes + shift,))
        starts = [_damped_start(points) for points in at]
        x = np.concatenate((refined_nodes, nodes) + at)
        first = np.concatenate([np.ones(summed)] + [start for start, _ in starts])
    else:
        at = (refined_nodes, nodes)
        x = np.concatenate(at)
        first = _hermite_start(x)
    rows, column = [], x.size - sum(points.size for points in at)
    for points in at:
        rows.append((slice(column, column + points.size), np.empty((order + 1, points.size))))
        column += points.size
    stops = [(order, x.size), (refined_order, n)]
    total, log_scale = _basis_pass(family, x, first, summed, stops, rows)
    _stored(("rule", family, refined_order), _rule_from_sums, family, refined_nodes, total[:n], log_scale[:n])
    _stored(("rule", family, order), _rule_from_sums, family, nodes, total[n:], log_scale[n:])
    psi = [out for _, out in rows]
    if family == HERMITE:
        return psi[1], psi[0], None
    for out, (_, far) in zip(psi, starts):
        out[:, far] *= 2.0**-128
    return psi[0], psi[1], psi[2] if shift is not None else None


def _jacobi_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal (diag, off) matrix.

    Calls LAPACK's dsterf, the root-free QL/QR iteration of Pal, Walker
    and Kahan, on the two diagonals in O(n^2), through numpy's own LAPACK
    (see :func:`_dsterf`).  The bits equal those of
    :func:`_dense_jacobi_eigenvalues`.  There numpy's ``eigvalsh`` runs
    dsyevd, which does not rescale a matrix whose largest entry lies
    between 1e-146 and 1e146, and whose O(n^3) reduction dsytrd leaves an
    already tridiagonal matrix unchanged (every Householder tau is 0);
    dsyevd then calls the same dsterf.  Where numpy's LAPACK exports no
    dsterf, the dense path runs instead.  A nonzero INFO raises
    ``np.linalg.LinAlgError``, as ``eigvalsh`` does.
    """
    routine = _dsterf()
    if routine is None:
        return _dense_jacobi_eigenvalues(diag, off)
    # fresh float64 copies of the sizes dsterf reads, which it overwrites;
    # E has at least one element
    d = np.array(diag, dtype=np.float64)
    e = np.zeros(max(d.size - 1, 1))
    e[: d.size - 1] = off
    info = ctypes.c_int64(0)
    routine(ctypes.byref(ctypes.c_int64(d.size)), d.ctypes.data, e.ctypes.data, ctypes.byref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError(f"Eigenvalues did not converge (dsterf info {info.value})")
    return d


def _dense_jacobi_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """:func:`_jacobi_eigenvalues` by ``eigvalsh`` on the dense (n, n) matrix, in O(n^3)."""
    n = diag.size
    jacobi = np.zeros((n, n))
    jacobi.flat[:: n + 1] = diag
    jacobi.flat[1 :: n + 1] = off
    jacobi.flat[n :: n + 1] = off
    return np.linalg.eigvalsh(jacobi)


# numpy's LAPACK symbols for dsterf with 64-bit integers, scipy-openblas's first
_DSTERF_SYMBOLS = ("scipy_dsterf_64_", "dsterf_64_")


@lru_cache(maxsize=None)
def _dsterf():
    """LAPACK's dsterf(N, D, E, INFO) from numpy's LAPACK, or None if not found.

    Looked up once, on first use, in numpy's ``_umath_linalg`` extension,
    whose LAPACK is loaded with it.  Only the ILP64 symbols (suffix
    ``64_``) are accepted, so N and INFO are 64-bit integers.  D and E
    are passed as plain addresses: the caller owns fresh C-contiguous
    float64 arrays, and an ndpointer check would cost a small rule more
    than the dense path.
    """
    int64_ref = ctypes.POINTER(ctypes.c_int64)
    try:
        lapack = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (OSError, AttributeError):
        return None
    for name in _DSTERF_SYMBOLS:
        try:
            routine = getattr(lapack, name)
        except AttributeError:
            continue
        routine.argtypes = [int64_ref, ctypes.c_void_p, ctypes.c_void_p, int64_ref]
        routine.restype = None
        return routine
    return None


# |p_l| past which the Christoffel recurrence rescales a node's column; a
# power of two, so the rescaling is exact.
_BIG = 2.0**332


def _basis_pass(family: str, x: np.ndarray, first: np.ndarray, summed: int, stops, rows=()):
    """One run of the family's three-term recurrence over the columns ``x``, from row 0 ``first``.

    The library's only recurrence loop: rules, frame builds and
    evaluations (one stop, one output, no summed column) all run it.

    Laguerre columns take q_{l+1} = ((2l+1-x) q_l - l q_{l-1})/(l+1), the
    recurrence of exp(-x/2) L_l(x) and of q_l = (-1)^l p_l for the
    orthonormal p_l (a_l = 2l+1, b_l = l); Hermite columns take that of the
    orthonormal h_l.  ``stops`` lists (end, width) pairs, ends increasing
    and widths not: columns [0, width) take the steps l < end, each phase
    going on from the last, so a prefix of the columns runs on alone.
    Rows 0..end of the first phase are written into ``rows``, (column
    slice, (end+1, k) array) pairs.

    The first ``summed`` columns also sum the squares of their values: it
    returns (total, log_scale), with the sum total*exp(2*log_scale).  A
    Laguerre sum grows like exp(x), so a column is scaled down by _BIG
    once |q| has passed _BIG, and the removed factor is carried as a
    logarithm.  The test runs every 8 steps and after each phase, on the
    largest q^2 since the test before (fl(q^2) > _BIG^2 exactly when
    |q| > _BIG), and gives a per-step test's bits: scaling by a power of
    two is exact, so a column scaled at a block's end equals one scaled
    inside it, and so does the sign convention, since negation is exact.
    No column passes _BIG twice in a block or overflows: a step multiplies
    max(|q_l|, |q_{l-1}|) by at most (x + 3l + 1)/(l + 1) <= max(x + 1, 3),
    so 8 steps by less than 2^96 for x < 4095 (order 1000's largest node is
    about 3950), and |q| stays below 2^428.  The evaluation columns, past
    ``summed``, are never scaled.  Hermite values are bounded and are not
    scaled; the running sum adds the rows in order, with the bits of
    ``np.sum(h * h, axis=0)``.
    """
    laguerre = family == LAGUERRE
    buffers = [first.copy(), np.zeros_like(x), np.empty_like(x)]
    total = first[:summed] * first[:summed]
    log_scale, square, peak = np.zeros(summed), np.empty(summed), np.zeros(summed)
    for columns, out in rows:
        out[0] = first[columns]
    begin = 0
    for end, width in stops:
        s = min(width, summed)
        points, outs = x[:width], [out for _, out in rows]
        t, sq, pk, ls = total[:s], square[:s], peak[:s], log_scale[:s]
        # q_l, q_{l-1} and the next row: each buffer, its active and its
        # summed columns, and its views of the written rows
        q, prev, step = ((b, b[:width], b[:s], [b[columns] for columns, _ in rows]) for b in buffers)
        for l in range(begin, end):
            v, p = step[1], prev[1]
            if laguerre:
                np.subtract(2.0 * l + 1.0, points, out=v)
                v *= q[1]
                p *= l
                v -= p
                v /= l + 1.0
            else:
                np.multiply(points, math.sqrt(2.0 / (l + 1.0)), out=v)
                v *= q[1]
                p *= math.sqrt(l / (l + 1.0))
                v -= p
            prev, q, step = q, step, prev
            for view, out in zip(q[3], outs):
                out[l + 1] = view
            if s:
                np.multiply(q[2], q[2], out=sq)
                t += sq
                if laguerre:
                    np.maximum(pk, sq, out=pk)
                    if l % 8 == 7 or l == end - 1:
                        big = pk > _BIG * _BIG
                        if big.any():
                            q[2][big] /= _BIG
                            prev[2][big] /= _BIG
                            t[big] /= _BIG * _BIG
                            ls[big] += math.log(_BIG)
                        pk.fill(0.0)
        buffers, rows, begin = [q[0], prev[0], step[0]], (), end
    return total, log_scale
