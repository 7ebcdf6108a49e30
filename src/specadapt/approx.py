"""Coefficient expansions on scaled bases: transform, evaluation, error.

An :class:`Expansion` is an immutable coefficient vector against a
:class:`~specadapt.basis.ScaledBasis`.  The discrete transform uses the
basis's own Gauss rule, so interpolating nodal values and evaluating back
at the nodes round-trips exactly for anything the truncated basis can
represent.

The adaptive controllers do not use this layer: they run on the damped
frames of :mod:`specadapt.adapt`, which stay accurate at orders where plain
polynomial coefficients do not.  It is kept for
:func:`specadapt.adapt.initial_state` and the coefficient-space half of
the benchmark's cold set-up workload (``cold-orders``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import (
    QuadratureRule,
    ScaledBasis,
    eval_basis_all,
    gamma_norms,
    quadrature,
)

__all__ = [
    "Expansion",
    "interpolate",
    "evaluate",
    "relative_error",
]


@dataclass(frozen=True)
class Expansion:
    """Immutable coefficients of a truncated expansion."""

    basis: ScaledBasis
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (self.basis.order + 1,):
            raise ValueError("coefficient vector must have length order + 1")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)


def interpolate(values, basis: ScaledBasis, rule: QuadratureRule | None = None) -> Expansion:
    """Discrete transform of nodal values into an Expansion.

    ``values`` are samples at the nodes of ``rule``, the basis's Gauss rule
    (computed when not given).
    """
    if rule is None:
        rule = quadrature(basis)
    elif rule.basis != basis:
        raise ValueError("rule belongs to a different basis")
    v = np.asarray(values, dtype=float)
    if v.shape != rule.nodes.shape:
        raise ValueError("values must be given at the rule's nodes")
    phi = eval_basis_all(basis, rule.nodes)
    coeffs = phi @ (v * rule.weights) / gamma_norms(basis)
    return Expansion(basis, coeffs)


def evaluate(expansion: Expansion, x):
    """Evaluate the expansion at scalar or 1-d ``x``."""
    return expansion.coeffs @ eval_basis_all(expansion.basis, x)


def relative_error(expansion: Expansion, func) -> float:
    """Weighted relative L2 distance between the expansion and ``func``.

    Measured with a dedicated 2(N+1)-node Gauss rule of the expansion's own
    basis; ``func`` must accept a vector of points.  Each sum is accumulated
    as sum((sqrt(w)*f)^2) so large basis values at the far nodes cannot
    overflow before the tiny weights tame them.  By order 256 the
    polynomials overflow at the far nodes of the doubled rule anyway; a
    non-finite sum raises ValueError instead of returning NaN.
    """
    basis = expansion.basis
    rule = quadrature(replace(basis, order=2 * basis.order + 1))
    exact = np.asarray(func(rule.nodes), dtype=float)
    root_w = np.sqrt(rule.weights)
    with np.errstate(over="ignore", invalid="ignore"):
        approx = evaluate(expansion, rule.nodes)
        denom = float(np.sum((root_w * exact) ** 2))
        num = float(np.sum((root_w * (approx - exact)) ** 2))
    if not (math.isfinite(num) and math.isfinite(denom)):
        raise ValueError(
            f"relative error sums overflow at order {basis.order} (or the reference is not finite)"
        )
    if denom == 0.0:
        raise ValueError("reference vanishes on the quadrature rule; relative error undefined")
    return math.sqrt(num / denom)
