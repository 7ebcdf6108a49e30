"""Independent oracles that tests hold the library to.

* Per-step three-term recurrences, the oracles of the library's recurrence
  kernel.  Each step is written out on its own, in the arithmetic of the
  textbook recurrences (DLMF §18.9 for Laguerre, the orthonormal
  Hermite-function recurrence), with no blocking, no shared buffers and no
  summed columns, so that a test can hold ``specadapt.basis._basis_pass``
  and every evaluation made through it to these bits.
* :func:`marginal_state`, the one-axis state whose readings a two-axis
  state reads along an axis.
"""

from __future__ import annotations

import math

import numpy as np

from specadapt.adapt import FrameState
from specadapt.basis import laguerre_basis, modified_weights, quadrature

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
