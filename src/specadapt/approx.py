"""Expansions on scaled bases: transforms, evaluation, rescaling, translation.

An :class:`Expansion` is an immutable coefficient vector against a
:class:`~specadapt.basis.ScaledBasis`.  The discrete transform uses the
basis's own Gauss rule (or a caller-supplied Radau rule), so interpolating
nodal values and evaluating back at the nodes round-trips exactly for
anything the truncated basis can represent.  Tensor-product (2-d) states
live in :class:`specadapt.adapt.FrameState2D`, which works in the damped
basis and so stays accurate at orders where plain coefficients do not.

Changing the scale (``rescale``) or the left endpoint (``move``) never uses
connection formulas: the expansion is evaluated at the new basis's nodes and
re-interpolated, which is exact for the Laguerre family (same polynomial
space) and spectrally accurate for Hermite functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import (
    LAGUERRE,
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
    "rescale",
    "move",
    "truncate",
    "weighted_norm",
    "relative_error",
    "to_text",
    "from_text",
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

    ``values`` are samples at the nodes of ``rule`` (the basis's Gauss rule
    by default; a Radau rule of the same basis is also exact through the
    retained degrees).
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


def rescale(expansion: Expansion, beta_new: float) -> Expansion:
    """Re-expand on the same family with a new scaling factor."""
    new_basis = replace(expansion.basis, beta=float(beta_new))
    rule = quadrature(new_basis)
    return interpolate(evaluate(expansion, rule.nodes), new_basis, rule)


def move(expansion: Expansion, shift: float) -> Expansion:
    """Translate a Laguerre expansion's left endpoint rightward by ``shift``."""
    if expansion.basis.family != LAGUERRE:
        raise ValueError("only Laguerre bases have a movable left endpoint")
    if not (math.isfinite(shift) and shift >= 0.0):
        raise ValueError("shift must be nonnegative")
    new_basis = replace(expansion.basis, x_left=expansion.basis.x_left + float(shift))
    rule = quadrature(new_basis)
    return interpolate(evaluate(expansion, rule.nodes), new_basis, rule)


def truncate(expansion: Expansion, order: int) -> Expansion:
    """Drop all modes above ``order`` (basis keeps its original size)."""
    if not 0 <= order <= expansion.basis.order:
        raise ValueError("truncation order out of range")
    coeffs = np.zeros_like(expansion.coeffs)
    coeffs[: order + 1] = expansion.coeffs[: order + 1]
    return Expansion(expansion.basis, coeffs)


def weighted_norm(expansion: Expansion) -> float:
    """Weighted L2 norm: sqrt(sum of gamma_l * u_l^2)."""
    g = gamma_norms(expansion.basis)
    return math.sqrt(float(np.sum(g * expansion.coeffs**2)))


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


# ---------------------------------------------------------------------------
# plain-text serialization


def _format(x: float) -> str:
    return format(x, ".17g")


def _basis_header(basis: ScaledBasis) -> str:
    return " ".join(
        [basis.family, _format(basis.alpha), _format(basis.beta), _format(basis.x_left), str(basis.order)]
    )


def _parse_header(line: str) -> ScaledBasis:
    parts = line.split()
    if len(parts) != 5:
        raise ValueError(f"malformed basis header: {line!r}")
    family, alpha, beta, x_left, order = parts
    return ScaledBasis(family, float(alpha), float(beta), float(x_left), int(order))


def to_text(expansion: Expansion) -> str:
    """Serialize an expansion: a basis header line, then one coefficient per line."""
    lines = [_basis_header(expansion.basis)]
    lines.extend(_format(c) for c in expansion.coeffs)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Expansion:
    """Inverse of :func:`to_text`."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty expansion file")
    basis = _parse_header(lines[0])
    coeffs = np.array([float(v) for v in lines[1:]])
    return Expansion(basis, coeffs)
