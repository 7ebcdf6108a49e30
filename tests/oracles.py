"""Independent oracles that tests hold the library to, and two shared helpers.

* :func:`laguerre_all`, :func:`damped_laguerre_all` and
  :func:`hermite_fn_all`, per-step three-term recurrences.  Each step is
  written out on its own, in the arithmetic of the textbook recurrences
  (DLMF §18.9 for Laguerre, the orthonormal Hermite-function recurrence),
  with no blocking, no shared buffers and no summed columns, so that a
  test can hold ``specadapt.basis._basis_pass`` and every evaluation made
  through it to these bits.  :func:`damped_laguerre_all` is also the
  basis that frame tests evaluate, so that no oracle of a frame runs the
  library's own evaluation.
* :func:`derivative_g`, the damped-derivative operator G of a basis
  array, in one written-out expression.
* :func:`alpha_one_tails`, the weighted tail sums of an expansion's
  derivative, taken in the Laguerre family of weight exponent 1 rather
  than through G or the derivative's coefficients.
* :func:`transform`, a state's nodal-to-modal transform along one axis or
  all, one product per axis and no memo, and :func:`frequencies`, each
  axis's frequency reading from those coefficients.
* :func:`marginal_state`, the one-axis state whose readings a two-axis
  state reads along an axis.
* :func:`frequency_floor`, an order's round-off floor of the frequency
  reading, from the recurrences' basis functions.
* :func:`public_run`, a plain driver in the documented order of
  :func:`specadapt.adapt.run_frames` that reads a state only through its
  public readings, so that a test can hold the library's driver, which
  reads the states' stored readings directly, to its history.
* :func:`separable`, the two-axis reference g(x)*h(y), and
  :func:`record_bits`, every field of a history by its exact bits; these
  two are helpers, not oracles.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from specadapt.adapt import MODE_MOVE, MODE_MOVE_SCALE, MODE_SCALE, ExperimentRecord, Frame, FrameState
from specadapt.basis import LAGUERRE, laguerre_basis, modified_weights, quadrature
from specadapt.indicators import default_high_mode_count

# exp(-s) leaves float64's normal range for s above this
LOG_TINY = -math.log(np.finfo(float).tiny)


def laguerre_all(order: int, alpha: float, y, first) -> np.ndarray:
    """first * L_l^(alpha)(y) for l = 0..order."""
    y = np.asarray(y, dtype=float)
    out = np.empty((order + 1,) + y.shape)
    out[0] = first
    if order >= 1:
        out[1] = (alpha + 1.0 - y) * out[0]
    for k in range(1, order):
        out[k + 1] = ((2.0 * k + alpha + 1.0 - y) * out[k] - (k + alpha) * out[k - 1]) / (k + 1.0)
    return out


def damped_laguerre_all(order: int, y) -> np.ndarray:
    """exp(-y/2) L_l(y) for l = 0..order.

    Where exp(-y/2) is subnormal the recurrence starts at 2^128*exp(-y/2)
    instead, and those columns are scaled back by 2^-128 at the end.
    """
    y = np.asarray(y, dtype=float)
    far = 0.5 * y > LOG_TINY
    out = laguerre_all(order, 0.0, y, np.exp(np.where(far, 128 * math.log(2.0), 0.0) - 0.5 * y))
    return out * np.where(far, 2.0**-128, 1.0)


def hermite_fn_all(order: int, y) -> np.ndarray:
    """The orthonormal Hermite functions h_l(y) for l = 0..order."""
    y = np.asarray(y, dtype=float)
    out = np.empty((order + 1,) + y.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * y * y)
    if order >= 1:
        out[1] = math.sqrt(2.0) * y * out[0]
    for k in range(1, order):
        out[k + 1] = math.sqrt(2.0 / (k + 1.0)) * y * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def derivative_g(weights: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """G[k, l] = sqrt(w_k)*(sum_{j<l} psi_j + psi_l/2) from the damped functions psi[l, k] at y_k.

    With d/dy L_l = -sum_{j<l} L_j, the derivative of sum_l c_l psi_l at
    y_k is -(G c)_k/sqrt(w_k).
    """
    return np.sqrt(weights)[:, None] * (np.cumsum(psi, axis=0) - 0.5 * psi).T


def alpha_one_tails(coeffs: np.ndarray, beta: float, shifts, damped: bool = False) -> list:
    """sum_k w_k D(x_k + s)^2 for each s in ``shifts``, over the Gauss-Laguerre rule (x_k, w_k) of the order at ``beta``.

    D is the x-derivative of sum_l c_l L_l(beta*x), or with ``damped`` of
    sum_l c_l exp(-beta*x/2) L_l(beta*x), taken in the Laguerre family of
    weight exponent 1, d/dx L_l(beta*x) = -beta*L^(1)_{l-1}(beta*x)
    (DLMF 18.9.14), by the per-step recurrence.  The damped recurrences
    start at exp(-y/2), so they stay finite, and they are accurate wherever
    a weight is nonzero; where the plain squares overflow, the sum is left
    infinite or NaN.
    """
    order = len(coeffs) - 1
    rule = quadrature(laguerre_basis(order, beta))
    sums = []
    for s in shifts:
        y = beta * (rule.nodes + s)
        with np.errstate(over="ignore", invalid="ignore"):
            d = -beta * (coeffs[1:] @ laguerre_all(order - 1, 1.0, y, np.exp(-0.5 * y) if damped else 1.0))
            if damped:
                d -= 0.5 * beta * (coeffs @ damped_laguerre_all(order, y))
            sums.append(float(np.sum(rule.weights * d**2)))
    return sums


def transform(state: FrameState, axis: int | None = None) -> np.ndarray:
    """A state's values transformed to coefficients along ``axis``, or along every axis, x first, for None.

    One product per axis with the axis's unit ``tomodal``, with no memo.
    """
    coeffs = state.values
    for a in range(len(state.units)) if axis is None else (axis,):
        tomodal = state.units[a].tomodal
        coeffs = tomodal @ coeffs if a == 0 else coeffs @ tomodal.T
    return coeffs


def frequencies(coeffs: np.ndarray) -> list:
    """Each axis's frequency reading: the share of the energy c^2 in the axis's top max(1, N//3) modes."""
    energy = coeffs * coeffs
    total = float(energy.sum())
    readings = []
    for axis, size in enumerate(coeffs.shape):
        tail = energy[(slice(None),) * axis + (slice(size - max(1, (size - 1) // 3), None),)]
        readings.append(min(1.0, math.sqrt(tail.sum() / total)))
    return readings


def marginal_state(state: FrameState, axis: int) -> FrameState:
    """The one-axis state of a two-axis Laguerre ``state``'s values integrated over the other axis.

    The integral is the product with the other axis's damped weights of
    the unit-scale Gauss rule, built here from ``quadrature`` rather than
    read from the state, so they lack that axis's factor 1/beta.  The state
    is built with the public constructor on ``axis``'s frame and origin.
    """
    weights = modified_weights(quadrature(laguerre_basis(state.frames[1 - axis].order, 1.0)))
    values = state.values @ weights if axis == 0 else weights @ state.values
    return FrameState(state.frames[axis], values, state.lefts[axis])


def separable(g, h):
    """The two-axis reference g(x)*h(y)."""
    return lambda x, y, t=0.0: g(np.asarray(x, dtype=float)) * h(np.asarray(y, dtype=float))


def record_bits(records) -> list:
    """Every field of every record, each float by its exact bits, so that 0.0 and -0.0 differ and a NaN equals itself."""
    def bits(value):
        return None if value is None else float(value).hex()

    return [([bits(getattr(r, name)) for name in ("t", "beta", "x_left", "error", "freq", "ext")],
             {name: bits(value) for name, value in r.extras.items()}) for r in records]


@functools.cache
def frequency_floor(order: int, family: str) -> float:
    """The largest frequency reading of a basis function psi_l, l below the high modes, at the nodes.

    Each exact reading is 0, so this is the order's round-off floor.  Each
    psi_l comes from the recurrences above, at the unit frame's nodes, and is
    read through the public ``frequency`` of a one-axis state.
    """
    unit = Frame(order, 1.0, family)
    psi = damped_laguerre_all(order, unit.nodes) if family == LAGUERRE else hermite_fn_all(order, unit.nodes)
    return max(FrameState(unit, psi[l]).frequency() for l in range(order + 1 - default_high_mode_count(order)))


def _exterior(state: FrameState, axis: int):
    return state.exterior(state.split_point(axis), axis)


def _distance(state: FrameState, axis: int, e0, cfg) -> float:
    """The mover's distance along ``axis``: the first n*delta whose reading falls below mu*e0, else d_max."""
    e = _exterior(state, axis)
    if e is None or e0 is None or not e > cfg.mu * e0:
        return 0.0
    split = state.split_point(axis)
    for n in range(1, int(math.floor(cfg.d_max / cfg.delta + 1e-12)) + 1):
        shifted = state.exterior(split + n * cfg.delta, axis)
        if shifted is not None and shifted < cfg.mu * e0:
            return n * cfg.delta
    return cfg.d_max


def _ladder(state: FrameState, axis: int, f0, cfg) -> tuple:
    """The scaling ladder along ``axis``: (state, f0) after its accepted rungs."""
    f = state.frequency(axis)
    frame = state.frames[axis]
    if f is None or f0 is None or not f > cfg.nu * f0 or not f > cfg.nu * frequency_floor(frame.order, frame.family):
        return state, f0
    while cfg.q * state.frames[axis].beta >= cfg.beta_min:
        candidate = state.rescaled(cfg.q * state.frames[axis].beta, axis)
        f_candidate = candidate.frequency(axis)
        if f_candidate is None or f_candidate > f:
            break
        state, f, f0 = candidate, f_candidate, f_candidate
    return state, f0


def public_run(evolver, initial: FrameState, cfg, dt: float, t_final: float, mode: str, reference=None) -> tuple:
    """(records, final state) of a run stepped in the order :func:`~specadapt.adapt.run_frames` documents.

    Each step evolves, takes every mover distance from the evolved state,
    then applies the moves, then runs the scaling ladder of each axis, x
    first, and records.  A state is read only through its public
    ``frequency``, ``exterior(split_point)`` and ``error``, and changed only
    through ``moved`` and ``rescaled``.  ``mode`` is a canonical mode name.
    """
    moving, scaling = mode in (MODE_MOVE, MODE_MOVE_SCALE), mode in (MODE_SCALE, MODE_MOVE_SCALE)
    axes = range(len(initial.frames))

    def record(state, t):
        readings = [(state.frames[axis].beta, state.frequency(axis), _exterior(state, axis), state.lefts[axis])
                    for axis in axes]
        (beta, freq, ext, x_left), extras = readings[0], {}
        if len(readings) == 2:
            extras = dict(zip(("beta_y", "freq_y", "ext_y", "yL"), readings[1]))
        error = None if reference is None else state.error(reference, t)
        return ExperimentRecord(t, beta, x_left, error, freq, ext, extras)

    state = initial
    f0 = [state.frequency(axis) for axis in axes]
    e0 = [_exterior(state, axis) for axis in axes]
    records = [record(state, 0.0)]
    for n in range(int(math.floor(t_final / dt + 1e-9))):
        state = evolver(state, n * dt, dt)
        if moving:
            distances = [_distance(state, axis, e0[axis], cfg) for axis in axes]
            for axis, distance in enumerate(distances):
                if distance > 0.0:
                    state = state.moved(distance, axis)
        if scaling:
            for axis in axes:
                state, f0[axis] = _ladder(state, axis, f0[axis], cfg)
        records.append(record(state, (n + 1) * dt))
    return records, state
