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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .approx import Expansion, Expansion2D, marginal_x, marginal_y
from .basis import (
    LAGUERRE,
    derivative_coeffs,
    eval_basis_all,
    gamma_norms,
    laguerre_basis,
    quadrature,
)

__all__ = [
    "IndicatorConfig",
    "default_high_mode_count",
    "default_split_point",
    "frequency_indicator",
    "exterior_error_indicator",
    "frequency_indicator_x",
    "frequency_indicator_y",
    "exterior_error_indicator_x",
    "exterior_error_indicator_y",
]


def default_high_mode_count(order: int) -> int:
    """How many top modes count as high-frequency: the 2/3-rule, order // 3."""
    return max(1, order // 3)


def default_split_point(order: int, nodes: np.ndarray) -> float:
    """Default split between near and far exterior: node index (order+2)//3."""
    return float(nodes[(order + 2) // 3])


@dataclass(frozen=True)
class IndicatorConfig:
    """Rules deriving the indicator parameters from the expansion order.

    ``high_mode_rule`` maps the order N to the number M of top modes summed
    by the frequency indicator (1 <= M <= N).  ``split_rule`` maps (N, Gauss
    nodes) to the split point x_right used by the exterior-error indicator;
    it must fall strictly between the smallest and largest node.
    """

    high_mode_rule: Callable[[int], int] = field(default=default_high_mode_count)
    split_rule: Callable[[int, np.ndarray], float] = field(default=default_split_point)


def _tail_fraction(weighted_squares: np.ndarray, tail: np.ndarray) -> float | None:
    total = float(np.sum(weighted_squares))
    if total == 0.0:
        return None
    return math.sqrt(min(1.0, float(np.sum(tail)) / total))


def _high_mode_count(config: IndicatorConfig | None, order: int) -> int:
    cfg = config if config is not None else IndicatorConfig()
    m = int(cfg.high_mode_rule(order))
    if not 1 <= m <= order:
        raise ValueError(f"high-mode count {m} outside [1, {order}]")
    return m


def frequency_indicator(exp: Expansion, config: IndicatorConfig | None = None) -> float | None:
    """Fraction of the weighted norm in the top modes, in [0, 1].

    Equals ``sqrt(sum over the top M of gamma_l u_l^2 / sum over all)``,
    which is identically the relative weighted-norm error committed by
    truncating those modes.  Returns ``None`` for the all-zero expansion
    (no scaling signal).
    """
    m = _high_mode_count(config, exp.basis.order)
    g = gamma_norms(exp.basis)
    squares = g * exp.coeffs**2
    return _tail_fraction(squares, squares[exp.basis.order - m + 1 :])


def _derivative_tail_norms(exp: Expansion, x_right: float) -> tuple[float, float] | None:
    """(numerator, denominator) of the exterior-error ratio, or None."""
    basis = exp.basis
    if basis.family != LAGUERRE:
        raise ValueError("the exterior-error indicator needs a half-line basis")
    rule = quadrature(basis)
    if not basis.x_left < x_right < rule.nodes[-1]:
        raise ValueError("x_right must lie strictly between the smallest and largest node")
    dc, dbasis = derivative_coeffs(exp.coeffs, basis)
    if not np.any(dc):
        return None
    # numerator: substitute x = x_right + y, so the tail integral becomes
    # exp(-beta*(x_right-x_left)) times an integral against exp(-beta*y);
    # for alpha = 0 an (N+1)-node rule in y is again exact, otherwise the
    # extra (x_right - x_left + y)^alpha factor is not polynomial and a
    # 4(N+1)-node rule is used (not exact for non-integer alpha)
    if basis.alpha == 0.0:
        y_rule = quadrature(laguerre_basis(basis.order, basis.beta))
        factor = 1.0
    else:
        y_rule = quadrature(laguerre_basis(4 * (basis.order + 1) - 1, basis.beta))
        factor = (x_right - basis.x_left + y_rule.nodes) ** basis.alpha
    # past order ~190 the plain derivative polynomials overflow at the far
    # nodes; the non-finite sums are reported below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # denominator: the basis's own rule integrates (dU)^2 (degree 2N-2) exactly
        dvals = dc @ eval_basis_all(dbasis, rule.nodes)
        denom = float(np.sum(rule.weights * dvals**2))
        shifted = dc @ eval_basis_all(dbasis, x_right + y_rule.nodes)
        num = math.exp(-basis.beta * (x_right - basis.x_left)) * float(
            np.sum(y_rule.weights * factor * shifted**2)
        )
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


# ---------------------------------------------------------------------------
# tensor-product variants


def _frequency_indicator_2d(exp2d: Expansion2D, config: IndicatorConfig | None, axis: int) -> float | None:
    basis = exp2d.basis_x if axis == 0 else exp2d.basis_y
    m = _high_mode_count(config, basis.order)
    g2 = np.outer(gamma_norms(exp2d.basis_x), gamma_norms(exp2d.basis_y))
    squares = g2 * exp2d.coeffs**2
    take = (
        squares[basis.order - m + 1 :, :] if axis == 0 else squares[:, basis.order - m + 1 :]
    )
    return _tail_fraction(squares, take)


def frequency_indicator_x(exp2d: Expansion2D, config: IndicatorConfig | None = None) -> float | None:
    """Directional frequency indicator: top x-modes over the double sum."""
    return _frequency_indicator_2d(exp2d, config, 0)


def frequency_indicator_y(exp2d: Expansion2D, config: IndicatorConfig | None = None) -> float | None:
    """Directional frequency indicator: top y-modes over the double sum."""
    return _frequency_indicator_2d(exp2d, config, 1)


def exterior_error_indicator_x(exp2d: Expansion2D, x_right: float) -> float | None:
    """1D exterior-error indicator of the y-integrated marginal in x."""
    return exterior_error_indicator(marginal_x(exp2d), x_right)


def exterior_error_indicator_y(exp2d: Expansion2D, y_right: float) -> float | None:
    """1D exterior-error indicator of the x-integrated marginal in y."""
    return exterior_error_indicator(marginal_y(exp2d), y_right)
