"""Adaptivity signals for scaled expansions.

Two scalar diagnostics drive the adaptive controllers:

* the **frequency indicator** — the fraction of the weighted norm carried by
  the highest modes; large values mean the current scale no longer resolves
  the function and the scaling controller should act;
* the **exterior-error indicator** — the fraction of the derivative's
  weighted norm living beyond a split point ``x_right``; values that drift
  from their starting level mean the left endpoint should move.

Both return ``None`` when mathematically undefined (all-zero expansion or
identically zero derivative) so callers can branch explicitly instead of
comparing against NaN.  Both are invariant under scaling the coefficients by
a nonzero constant.

The frame states of :mod:`specadapt.adapt` read both signals in their own
unit variable, with :func:`default_high_mode_count` and
:func:`default_split_point`.  The coefficient-space forms here, for
one-dimensional :class:`~specadapt.approx.Expansion` objects on a Laguerre
or (frequency only) Hermite basis, are kept only for
:func:`specadapt.adapt.initial_state` and the benchmark's cold set-up
workload (``cold-orders``).  The exterior
form differentiates the expansion itself: since ``d/dy L_l = -sum_{j<l}
L_j``, the derivative of ``sum c_l L_l(beta*x)`` is ``sum d_j L_j(beta*x)``
over j < N with ``d_j = -beta * sum_{m>j} c_m``, the same identity that
the frames' derivative operator uses, and it is evaluated in the basis of
order N-1 and integrated with the basis's own Gauss rule.
"""

from __future__ import annotations

import math

import numpy as np

from .approx import Expansion
from .basis import LAGUERRE, eval_basis_all, gamma_norms, laguerre_basis, quadrature

__all__ = [
    "default_high_mode_count",
    "default_split_point",
    "frequency_indicator",
    "exterior_error_indicator",
]


def default_high_mode_count(order: int) -> int:
    """How many top modes count as high-frequency: the 2/3-rule, order // 3."""
    return max(1, order // 3)


def default_split_point(order: int, nodes: np.ndarray) -> float:
    """Default split between near and far exterior: node index (order+2)//3."""
    return float(nodes[(order + 2) // 3])


def _tail_fraction(weighted_squares: np.ndarray, tail: np.ndarray) -> float | None:
    total = float(np.sum(weighted_squares))
    if total == 0.0:
        return None
    return math.sqrt(min(1.0, float(np.sum(tail)) / total))


def frequency_indicator(exp: Expansion) -> float | None:
    """Fraction of the weighted norm in the top modes, in [0, 1].

    Equals ``sqrt(sum over the top M of gamma_l u_l^2 / sum over all)``,
    M from :func:`default_high_mode_count`, which is identically the
    relative weighted-norm error committed by truncating those modes.
    Returns ``None`` for the all-zero expansion (no scaling signal).
    """
    m = default_high_mode_count(exp.basis.order)
    g = gamma_norms(exp.basis)
    squares = g * exp.coeffs**2
    return _tail_fraction(squares, squares[exp.basis.order - m + 1 :])


def _derivative_tail_norms(exp: Expansion, x_right: float) -> tuple[float, float] | None:
    """(numerator, denominator) of the exterior-error ratio, or None."""
    basis = exp.basis
    if basis.family != LAGUERRE:
        raise ValueError("the exterior-error indicator needs a half-line basis")
    rule = quadrature(basis)
    if not 0.0 < x_right < rule.nodes[-1]:
        raise ValueError("x_right must lie strictly between 0 and the largest node")
    # the derivative's coefficients at order N-1, d_j = -beta * sum_{m>j} c_m
    dc = -basis.beta * np.cumsum(exp.coeffs[::-1])[::-1][1:]
    if not np.any(dc):
        return None
    lower = laguerre_basis(basis.order - 1, basis.beta)
    # past order ~190 the plain polynomials overflow at the far nodes; the
    # non-finite sums are reported below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # denominator: the basis's own rule integrates (dU)^2 (degree 2N-2)
        # exactly; numerator: substituting x = x_right + y turns the tail
        # integral into exp(-beta*x_right) times one against exp(-beta*y),
        # which the same rule in y integrates exactly
        dvals = dc @ eval_basis_all(lower, rule.nodes)
        denom = float(np.sum(rule.weights * dvals**2))
        shifted = dc @ eval_basis_all(lower, x_right + rule.nodes)
        num = math.exp(-basis.beta * x_right) * float(np.sum(rule.weights * shifted**2))
    # a ratio of infinities must not read as a valid indicator
    if not (math.isfinite(num) and math.isfinite(denom)):
        raise ValueError(f"derivative tail norms overflow float64 at order {basis.order}")
    if denom == 0.0:
        return None
    return num, denom


def exterior_error_indicator(exp: Expansion, x_right: float) -> float | None:
    """Derivative norm fraction beyond ``x_right``, in [0, 1].

    The ratio ``||dU restricted to (x_right, inf)|| / ||dU||`` in the
    expansion's weighted norm.  Returns ``None`` when the derivative is
    identically zero (no moving signal).
    """
    norms = _derivative_tail_norms(exp, x_right)
    if norms is None:
        return None
    num, denom = norms
    return math.sqrt(min(1.0, num / denom))
