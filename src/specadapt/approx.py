"""Expansions on scaled bases: transforms, evaluation, rescaling, translation.

An :class:`Expansion` is an immutable coefficient vector against a
:class:`~specadapt.basis.ScaledBasis`; :class:`Expansion2D` is the tensor
product of two Laguerre/Hermite bases.  The discrete transform uses the
basis's own Gauss rule (or a caller-supplied Radau rule), so interpolating
nodal values and evaluating back at the nodes round-trips exactly for
anything the truncated basis can represent.

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
    "Expansion2D",
    "interpolate",
    "evaluate",
    "rescale",
    "move",
    "truncate",
    "weighted_norm",
    "relative_error",
    "interpolate_2d",
    "evaluate_2d",
    "rescale_x",
    "rescale_y",
    "move_x",
    "move_y",
    "weighted_norm_2d",
    "relative_error_2d",
    "marginal_x",
    "marginal_y",
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


@dataclass(frozen=True)
class Expansion2D:
    """Immutable coefficients of a tensor-product expansion, shape (Nx+1, Ny+1)."""

    basis_x: ScaledBasis
    basis_y: ScaledBasis
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (self.basis_x.order + 1, self.basis_y.order + 1):
            raise ValueError("coefficient matrix must be (Nx+1, Ny+1)")
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
    approx = evaluate(expansion, rule.nodes)
    exact = np.asarray(func(rule.nodes), dtype=float)
    root_w = np.sqrt(rule.weights)
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
# tensor-product expansions


def interpolate_2d(
    values,
    basis_x: ScaledBasis,
    basis_y: ScaledBasis,
    rules: tuple[QuadratureRule, QuadratureRule] | None = None,
) -> Expansion2D:
    """Discrete transform of values on the tensor node grid, shape (Nx+1, Ny+1)."""
    if rules is None:
        rules = (quadrature(basis_x), quadrature(basis_y))
    rule_x, rule_y = rules
    if rule_x.basis != basis_x or rule_y.basis != basis_y:
        raise ValueError("rules belong to different bases")
    v = np.asarray(values, dtype=float)
    if v.shape != (rule_x.nodes.size, rule_y.nodes.size):
        raise ValueError("values must be given on the tensor node grid")
    phi_x = eval_basis_all(basis_x, rule_x.nodes)
    phi_y = eval_basis_all(basis_y, rule_y.nodes)
    weighted = v * rule_x.weights[:, None] * rule_y.weights[None, :]
    coeffs = phi_x @ weighted @ phi_y.T
    coeffs /= np.outer(gamma_norms(basis_x), gamma_norms(basis_y))
    return Expansion2D(basis_x, basis_y, coeffs)


def evaluate_2d(expansion: Expansion2D, x, y) -> np.ndarray:
    """Evaluate on the tensor grid of points ``x`` (per row) and ``y`` (per column)."""
    phi_x = eval_basis_all(expansion.basis_x, np.atleast_1d(x))
    phi_y = eval_basis_all(expansion.basis_y, np.atleast_1d(y))
    return phi_x.T @ expansion.coeffs @ phi_y


def _retransform(expansion: Expansion2D, basis_x: ScaledBasis, basis_y: ScaledBasis) -> Expansion2D:
    rule_x, rule_y = quadrature(basis_x), quadrature(basis_y)
    vals = evaluate_2d(expansion, rule_x.nodes, rule_y.nodes)
    return interpolate_2d(vals, basis_x, basis_y, (rule_x, rule_y))


def rescale_x(expansion: Expansion2D, beta_new: float) -> Expansion2D:
    return _retransform(expansion, replace(expansion.basis_x, beta=float(beta_new)), expansion.basis_y)


def rescale_y(expansion: Expansion2D, beta_new: float) -> Expansion2D:
    return _retransform(expansion, expansion.basis_x, replace(expansion.basis_y, beta=float(beta_new)))


def _moved(basis: ScaledBasis, shift: float) -> ScaledBasis:
    if basis.family != LAGUERRE:
        raise ValueError("only Laguerre bases have a movable left endpoint")
    if not (math.isfinite(shift) and shift >= 0.0):
        raise ValueError("shift must be nonnegative")
    return replace(basis, x_left=basis.x_left + float(shift))


def move_x(expansion: Expansion2D, shift: float) -> Expansion2D:
    return _retransform(expansion, _moved(expansion.basis_x, shift), expansion.basis_y)


def move_y(expansion: Expansion2D, shift: float) -> Expansion2D:
    return _retransform(expansion, expansion.basis_x, _moved(expansion.basis_y, shift))


def weighted_norm_2d(expansion: Expansion2D) -> float:
    g = np.outer(gamma_norms(expansion.basis_x), gamma_norms(expansion.basis_y))
    return math.sqrt(float(np.sum(g * expansion.coeffs**2)))


def relative_error_2d(expansion: Expansion2D, func) -> float:
    """Weighted relative L2 distance on the tensor 2(N+1)-node Gauss rule.

    ``func(x, y)`` must broadcast over a meshgrid pair of shapes (m, 1) and
    (1, k).
    """
    bx, by = expansion.basis_x, expansion.basis_y
    rule_x = quadrature(replace(bx, order=2 * bx.order + 1))
    rule_y = quadrature(replace(by, order=2 * by.order + 1))
    approx = evaluate_2d(expansion, rule_x.nodes, rule_y.nodes)
    exact = np.asarray(func(rule_x.nodes[:, None], rule_y.nodes[None, :]), dtype=float)
    root_w = np.sqrt(np.outer(rule_x.weights, rule_y.weights))
    denom = float(np.sum((root_w * exact) ** 2))
    if denom == 0.0:
        raise ValueError("reference vanishes on the quadrature rule; relative error undefined")
    num = float(np.sum((root_w * (approx - exact)) ** 2))
    return math.sqrt(num / denom)


def _reweighted(rule: QuadratureRule) -> np.ndarray:
    """Weights for plain (unweighted) integration over the Laguerre half-line."""
    basis = rule.basis
    if basis.family != LAGUERRE:
        raise ValueError("exponential reweighting applies to Laguerre rules")
    if basis.alpha != 0.0:
        raise ValueError("exponential reweighting requires alpha = 0")
    return rule.weights * np.exp(basis.beta * (rule.nodes - basis.x_left))


def marginal_x(expansion: Expansion2D) -> Expansion:
    """Integrate out y: the x-expansion of x -> integral of U(x, .) dy."""
    bx, by = expansion.basis_x, expansion.basis_y
    rule_x, rule_y = quadrature(bx), quadrature(by)
    vals = evaluate_2d(expansion, rule_x.nodes, rule_y.nodes)
    marg = vals @ _reweighted(rule_y)
    return interpolate(marg, bx, rule_x)


def marginal_y(expansion: Expansion2D) -> Expansion:
    """Integrate out x: the y-expansion of y -> integral of U(., y) dx."""
    bx, by = expansion.basis_x, expansion.basis_y
    rule_x, rule_y = quadrature(bx), quadrature(by)
    vals = evaluate_2d(expansion, rule_x.nodes, rule_y.nodes)
    marg = _reweighted(rule_x) @ vals
    return interpolate(marg, by, rule_y)


# ---------------------------------------------------------------------------
# plain-text serialization (used by the CLI for checkpointing)


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


def to_text(expansion: Expansion | Expansion2D) -> str:
    """Serialize an expansion: header line(s) then one coefficient per line."""
    if isinstance(expansion, Expansion):
        lines = [_basis_header(expansion.basis)]
        lines.extend(_format(c) for c in expansion.coeffs)
    else:
        lines = ["2d", _basis_header(expansion.basis_x), _basis_header(expansion.basis_y)]
        lines.extend(_format(c) for c in expansion.coeffs.ravel())
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Expansion | Expansion2D:
    """Inverse of :func:`to_text`."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty expansion file")
    if lines[0] == "2d":
        basis_x = _parse_header(lines[1])
        basis_y = _parse_header(lines[2])
        coeffs = np.array([float(v) for v in lines[3:]])
        return Expansion2D(basis_x, basis_y, coeffs.reshape(basis_x.order + 1, basis_y.order + 1))
    basis = _parse_header(lines[0])
    coeffs = np.array([float(v) for v in lines[1:]])
    return Expansion(basis, coeffs)
