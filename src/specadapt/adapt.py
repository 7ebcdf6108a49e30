"""Adaptive controllers for scaled spectral expansions.

Three control loops over a pluggable evolution step:

* frequency-dependent SCALING: when the high-mode energy fraction rises past
  ``nu * f0``, contract the scale factor by powers of ``q`` as long as each
  contraction does not increase the frequency indicator (and the factor stays
  above ``beta_min``);
* exterior-error-dependent MOVING: when the derivative-norm fraction beyond
  the sentinel point ``x_R`` rises past ``mu * e0``, translate the basis
  origin rightward by the smallest multiple of ``delta`` (capped at
  ``d_max``) that restores the indicator below the threshold;
* the combination: move first, then scale, with ``x_R`` re-derived from the
  current node set at every iteration (moving owns ``x_L``, scaling owns
  ``x_R``).

The decision logic is written once, over a tiny state protocol, and driven
through two interchangeable state representations:

* :class:`AdaptState` + the ``*_step`` functions and :func:`run` operate on
  coefficient-space :class:`~.approx.Expansion` objects using the formulas
  of :mod:`~.indicators`;
* :class:`Frame` / :class:`FrameState` (and the 2-d :class:`FrameState2D`
  with :func:`run_2d`) carry nodal values and evaluate everything through
  the exponentially damped basis functions: reconstructing values (or 2-d
  marginals) from raw polynomial coefficients amplifies roundoff like
  exp(y_max/2), while the damped forms stay O(1) at any order used here.
  The two layers agree on the exterior indicator (same function, same
  quadrature); the frame frequency indicator measures the damped-frame
  coefficients, which is what makes evolving-solution spectra visible to
  the controller at large orders.

The frame engine memoizes at two lifetimes.  A :class:`Frame` keeps its
basis evaluations (at shifted nodes and at other frames' nodes) for as long
as the frame lives, which is the whole process.  A frame state keeps what
it derives from its own values (the damped coefficients, the derivative
coefficients and whole-domain norm of the exterior indicator, and in 2-d
the energy matrix) for as long as the state lives; a moved or rescaled
state starts with none of them.  State values are a read-only copy, so no
memo can go stale.

Reference values for the recorded error are optional: without one, a run is
blind, exactly like a real solver.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from .approx import Expansion, interpolate, move, relative_error, rescale
from .basis import (
    LAGUERRE,
    ScaledBasis,
    eval_weighted_all,
    gamma_norms,
    laguerre_basis,
    modified_weights,
    quadrature,
)
from .indicators import (
    IndicatorConfig,
    default_high_mode_count,
    default_split_point,
    exterior_error_indicator,
    frequency_indicator,
)

__all__ = [
    "AdaptConfig",
    "AdaptState",
    "ExperimentRecord",
    "Frame",
    "FrameState",
    "FrameState2D",
    "MODE_MOVE",
    "MODE_MOVE_SCALE",
    "MODE_NONE",
    "MODE_SCALE",
    "frame_resample_evolver",
    "frame_resample_evolver_2d",
    "history_to_csv",
    "initial_state",
    "move_scale_step",
    "moving_step",
    "normalize_mode",
    "resample_evolver",
    "run",
    "run_2d",
    "run_frames",
    "scaling_step",
    "suggest_initial_beta",
]


# --------------------------------------------------------------------------
# configuration and records
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptConfig:
    """Thresholds and step sizes shared by the scaling and moving loops.

    ``nu`` defaults to ``1/q``.  The moving parameters default to the values
    of the first moving experiment; runs that never move ignore them.
    """

    q: float = 0.95
    nu: float | None = None
    beta_min: float = 0.05
    mu: float = 1.005
    delta: float = 0.004
    d_max: float = 0.04
    indicators: IndicatorConfig = field(default_factory=IndicatorConfig)

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        if self.nu is None:
            object.__setattr__(self, "nu", 1.0 / self.q)
        if not self.nu > 1.0:
            raise ValueError(f"nu must exceed 1, got {self.nu}")
        if not self.beta_min > 0.0:
            raise ValueError(f"beta_min must be positive, got {self.beta_min}")
        if not self.mu > 1.0:
            raise ValueError(f"mu must exceed 1, got {self.mu}")
        if not 0.0 < self.delta <= self.d_max:
            raise ValueError(
                f"need 0 < delta <= d_max, got delta={self.delta}, d_max={self.d_max}"
            )


@dataclass(frozen=True)
class ExperimentRecord:
    """One history row: time, solution quality, and controller readings.

    ``error`` is filled only when a run has a reference solution; ``freq``
    and ``ext`` are None whenever the indicator is undefined (zero
    expansion, or no sentinel point for the basis family).  ``extras``
    carries solver-specific columns and is excluded from the standard CSV
    schema unless explicitly requested.
    """

    t: float
    beta: float
    x_left: float
    error: float | None = None
    freq: float | None = None
    ext: float | None = None
    extras: Mapping[str, float] = field(default_factory=dict)


CSV_HEADER = ("t", "error", "beta", "freq", "ext", "xL")


def _format_field(value: float | None) -> str:
    return "" if value is None else format(float(value), ".17g")


def _atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the target directory plus rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def history_to_csv(
    records: Sequence[ExperimentRecord],
    path=None,
    extra_columns: Sequence[str] = (),
) -> str:
    """Render history rows as CSV (and atomically write them when given a path).

    The fixed schema is ``t,error,beta,freq,ext,xL`` with 17-significant-digit
    decimals and empty fields for absent optionals; ``extra_columns`` names
    are appended in order and read from each record's ``extras``.
    """
    names = list(CSV_HEADER) + list(extra_columns)
    lines = [",".join(names)]
    previous_t = -math.inf
    for record in records:
        if record.t < previous_t:
            raise ValueError("history times must be nondecreasing")
        previous_t = record.t
        row = [
            _format_field(record.t),
            _format_field(record.error),
            _format_field(record.beta),
            _format_field(record.freq),
            _format_field(record.ext),
            _format_field(record.x_left),
        ]
        row.extend(_format_field(record.extras.get(name)) for name in extra_columns)
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if path is not None:
        _atomic_write_text(path, text)
    return text


MODE_NONE = "none"
MODE_SCALE = "scale"
MODE_MOVE = "move"
MODE_MOVE_SCALE = "move-scale"

_MODE_ALIASES = {
    "none": MODE_NONE,
    "scale": MODE_SCALE,
    "scaleonly": MODE_SCALE,
    "move": MODE_MOVE,
    "moveonly": MODE_MOVE,
    "movescale": MODE_MOVE_SCALE,
}


def normalize_mode(mode) -> str:
    """Map mode spellings (ScaleOnly, move_scale, None, ...) to canonical names."""
    if mode is None:
        return MODE_NONE
    key = str(mode).strip().lower().replace("_", "").replace("-", "").replace(" ", "")
    canonical = _MODE_ALIASES.get(key)
    if canonical is None:
        raise ValueError(f"unknown mode {mode!r}; expected one of none/scale/move/move-scale")
    return canonical


# --------------------------------------------------------------------------
# the decision engine, written once over a state protocol
# --------------------------------------------------------------------------


class ControlState(Protocol):
    """What the controllers need from a solution state."""

    @property
    def beta(self) -> float: ...

    @property
    def x_left(self) -> float: ...

    def frequency(self) -> float | None: ...

    def exterior(self, split: float | None) -> float | None: ...

    def split_point(self) -> float | None: ...

    def rescaled(self, beta: float) -> "ControlState": ...

    def moved(self, distance: float) -> "ControlState": ...


def _scaling_ladder(state, f, f0, cfg: AdaptConfig):
    """One scaling decision on an evolved state.

    Returns ``(state, f0, accepted)``.  When the trigger ``f > nu*f0`` fires,
    candidate factors ``q*beta, q^2*beta, ...`` are accepted while each keeps
    the frequency indicator from rising and stays at or above ``beta_min``;
    ``f0`` is refreshed only on acceptance, so a fruitless trigger leaves the
    reference intact and re-fires on the next step.
    """
    if f is None or f0 is None or not f > cfg.nu * f0:
        return state, f0, 0
    accepted = 0
    while True:
        beta_next = cfg.q * state.beta
        if beta_next < cfg.beta_min:
            break
        candidate = state.rescaled(beta_next)
        f_candidate = candidate.frequency()
        if f_candidate is None or f_candidate > f:
            break
        assert f_candidate <= f, "accepted rescale must not raise the frequency indicator"
        state, f, f0 = candidate, f_candidate, f_candidate
        accepted += 1
    return state, f0, accepted


def _moving_distance(state, e, e0, cfg: AdaptConfig) -> float:
    """One moving decision: the displacement to apply, 0.0 for none.

    When ``e > mu*e0``, searches for the smallest n >= 1 whose shifted
    sentinel ``x_R + n*delta`` brings the exterior indicator below
    ``mu*e0``; if no multiple up to floor(d_max/delta) succeeds the cap
    ``d_max`` itself is the displacement (defined behavior, not an error).
    """
    if e is None or e0 is None or not e > cfg.mu * e0:
        return 0.0
    split = state.split_point()
    n_max = int(math.floor(cfg.d_max / cfg.delta + 1e-12))
    for n in range(1, n_max + 1):
        shifted = state.exterior(split + n * cfg.delta)
        if shifted is not None and shifted < cfg.mu * e0:
            return n * cfg.delta
    return cfg.d_max


def _step_count(t_final: float, dt: float) -> int:
    if dt <= 0.0 or t_final <= 0.0:
        raise ValueError("dt and t_final must be positive")
    return int(math.floor(t_final / dt + 1e-9))


def _control_loop(state, stepper, cfg, dt, t_final, mode, measure):
    """Shared driver: evolve, optionally move, optionally scale, record.

    ``f0``/``e0`` start from the initial state.  ``f0`` is refreshed only on
    ladder acceptances.  ``e0`` is never refreshed by a move (re-anchoring it
    there ratchets the threshold up by a factor ``mu`` per move and stalls
    the tracking of a steadily translating profile), but once the mover has
    fired at least once, an accepted rescale re-anchors ``e0`` at the new
    sentinel: a rescale stretches the node set, so the old baseline belongs
    to a sentinel that no longer exists, and keeping it leaves the mover
    lagging by a fixed exterior-error level instead of tracking the front.
    A run in which the mover never participates keeps its baseline frozen,
    so a scaling-only profile is never nudged into moving by rescales alone.
    Emits the initial record plus one record per step.
    """
    mode = normalize_mode(mode)
    f0 = state.frequency()
    e0 = state.exterior(state.split_point())
    mover_active = False
    records = [measure(state, 0.0)]
    for n in range(_step_count(t_final, dt)):
        t_prev = n * dt
        t_now = (n + 1) * dt
        try:
            state = stepper(state, t_prev, dt)
        except Exception as exc:
            note = f"evolution step failed at t = {_format_field(t_prev)}"
            exc.args = (f"{note}: {exc.args[0]}" if exc.args else note,) + exc.args[1:]
            raise
        if mode in (MODE_MOVE, MODE_MOVE_SCALE):
            e = state.exterior(state.split_point())
            d0 = _moving_distance(state, e, e0, cfg)
            if d0 > 0.0:
                state = state.moved(d0)
                mover_active = True
        if mode in (MODE_SCALE, MODE_MOVE_SCALE):
            state, f0, accepted = _scaling_ladder(state, state.frequency(), f0, cfg)
            if accepted and mover_active:
                e0 = state.exterior(state.split_point())
        records.append(measure(state, t_now))
    return records, state


# --------------------------------------------------------------------------
# public coefficient-space layer
# --------------------------------------------------------------------------


class _ExpansionControl:
    """Control-protocol adapter around a coefficient-space Expansion."""

    __slots__ = ("expansion", "icfg")

    def __init__(self, expansion: Expansion, icfg: IndicatorConfig | None):
        self.expansion = expansion
        self.icfg = icfg if icfg is not None else IndicatorConfig()

    @property
    def beta(self) -> float:
        return self.expansion.basis.beta

    @property
    def x_left(self) -> float:
        return self.expansion.basis.x_left

    def frequency(self) -> float | None:
        return frequency_indicator(self.expansion, self.icfg)

    def split_point(self) -> float | None:
        basis = self.expansion.basis
        if basis.family != LAGUERRE:
            return None
        return self.icfg.split_rule(basis.order, quadrature(basis).nodes)

    def exterior(self, split: float | None) -> float | None:
        if split is None:
            return None
        return exterior_error_indicator(self.expansion, split)

    def rescaled(self, beta: float) -> "_ExpansionControl":
        return _ExpansionControl(rescale(self.expansion, beta), self.icfg)

    def moved(self, distance: float) -> "_ExpansionControl":
        return _ExpansionControl(move(self.expansion, distance), self.icfg)


@dataclass
class AdaptState:
    """Mutable loop state for the step-level API.

    ``f0``/``e0`` are the fixed reference indicator values; ``x_right`` is
    re-derived from the current node set whenever the basis changes, so it
    always equals the configured split point of the current expansion.
    """

    expansion: Expansion
    f0: float | None
    e0: float | None
    x_right: float | None
    t: float = 0.0
    history: list[ExperimentRecord] = field(default_factory=list)
    moves: int = 0
    rescalings: int = 0


def initial_state(expansion: Expansion, cfg: AdaptConfig) -> AdaptState:
    """Compute the reference indicator values from the starting expansion."""
    control = _ExpansionControl(expansion, cfg.indicators)
    x_right = control.split_point()
    return AdaptState(
        expansion=expansion,
        f0=control.frequency(),
        e0=control.exterior(x_right),
        x_right=x_right,
    )


def scaling_step(state: AdaptState, cfg: AdaptConfig) -> AdaptState:
    """Apply one frequency-dependent scaling decision to an evolved state.

    An accepted rescale moves the sentinel, so when the mover has already
    participated in this run (``state.moves > 0``) the exterior baseline
    ``e0`` is re-anchored at the new sentinel; with the mover idle the
    baseline stays frozen and rescales alone never provoke a move.
    """
    control = _ExpansionControl(state.expansion, cfg.indicators)
    control, f0, accepted = _scaling_ladder(control, control.frequency(), state.f0, cfg)
    if accepted:
        state.expansion = control.expansion
        state.f0 = f0
        state.x_right = control.split_point()
        state.rescalings += accepted
        if state.moves:
            state.e0 = control.exterior(state.x_right)
    return state


def moving_step(state: AdaptState, cfg: AdaptConfig) -> AdaptState:
    """Apply one exterior-error moving decision to an evolved state.

    The sentinel is refreshed from the current nodes before the decision;
    ``e0`` is deliberately left at its initial value (see _control_loop).
    """
    control = _ExpansionControl(state.expansion, cfg.indicators)
    state.x_right = control.split_point()
    e = control.exterior(state.x_right)
    d0 = _moving_distance(control, e, state.e0, cfg)
    if d0 > 0.0:
        control = control.moved(d0)
        state.expansion = control.expansion
        state.x_right = control.split_point()
        state.moves += 1
    return state


def move_scale_step(state: AdaptState, cfg: AdaptConfig) -> AdaptState:
    """Moving first, then scaling, on an evolved state."""
    return scaling_step(moving_step(state, cfg), cfg)


def resample_evolver(reference) -> Callable:
    """Tracking evolver: re-interpolate ``reference(x, t+dt)`` on the same basis."""

    def evolve(expansion: Expansion, t: float, dt: float) -> Expansion:
        rule = quadrature(expansion.basis)
        values = np.asarray(reference(rule.nodes, t + dt), dtype=float)
        return interpolate(values, expansion.basis, rule)

    return evolve


def run(
    evolver,
    initial: Expansion,
    cfg: AdaptConfig,
    dt: float,
    t_final: float,
    mode=MODE_NONE,
    reference=None,
) -> list[ExperimentRecord]:
    """Drive an expansion through the adaptive loop and return its history.

    ``evolver(expansion, t, dt)`` must return an expansion on the basis it
    was given (adaptation is the controller's job); failures propagate with
    the failure time attached.  ``reference(x, t)``, when given, fills the
    error column with the weighted relative error.  ``t_final < dt`` yields
    exactly the initial record.
    """
    icfg = cfg.indicators

    def stepper(control, t, dt_):
        evolved = evolver(control.expansion, t, dt_)
        if evolved.basis != control.expansion.basis:
            raise ValueError("evolver must return an expansion on the basis it was given")
        return _ExpansionControl(evolved, icfg)

    def measure(control, t):
        error = None
        if reference is not None:
            error = relative_error(control.expansion, lambda x: reference(x, t))
        return ExperimentRecord(
            t=t,
            beta=control.beta,
            x_left=control.x_left,
            error=error,
            freq=control.frequency(),
            ext=control.exterior(control.split_point()),
        )

    records, _ = _control_loop(
        _ExpansionControl(initial, icfg), stepper, cfg, dt, t_final, mode, measure
    )
    return records


def suggest_initial_beta(sample, basis: ScaledBasis, cfg: AdaptConfig | None = None, scan_steps: int = 25) -> float:
    """Scan ``beta, q*beta, q^2*beta, ...`` and return the factor whose
    interpolant of ``sample(x)`` has the smallest frequency indicator.

    Offered as a starting-point helper; nothing forces its use.  Ties keep
    the largest factor (finest node clustering).
    """
    cfg = cfg if cfg is not None else AdaptConfig()
    best_beta = basis.beta
    best_f = None
    for k in range(scan_steps):
        beta_k = basis.beta * cfg.q**k
        candidate = replace(basis, beta=beta_k)
        rule = quadrature(candidate)
        expansion = interpolate(np.asarray(sample(rule.nodes), dtype=float), candidate, rule)
        f = frequency_indicator(expansion, cfg.indicators)
        if f is not None and (best_f is None or f < best_f):
            best_f = f
            best_beta = beta_k
    return best_beta


# --------------------------------------------------------------------------
# nodal-value engine (damped-frame)
# --------------------------------------------------------------------------


# exp(-y/2) underflows (leaves the normal range) for y/2 above this
_LOG_TINY = -math.log(np.finfo(float).tiny)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class Frame:
    """Cached nodal operators of one (order, beta) damped Laguerre frame.

    Holds the Gauss nodes as offsets from the basis origin, the plain and
    exponentially reweighted quadrature weights, and the nodal-to-modal
    transform of the damped functions psi_l = exp(-y/2) L_l.  All entries
    are O(1)-safe in float64 because the damping is built into every
    evaluation.  Instances are shared per (order, beta).

    Two evaluations of the damped functions are memoized on the instance
    and live as long as it does: at the shifted nodes (:meth:`psi_at`,
    used by moves and the exterior indicator) and at another frame's nodes
    (:meth:`psi_on`, used by rescales).  The controllers only ever ask for
    a few fixed shifts n*delta and targets q*beta.  Everything derived from
    a state's values is memoized on the state, not here: the methods taking
    coefficients are stateless per call.  So once a state has its
    derivative coefficients, each candidate of the mover's search costs one
    memo lookup, one (N+1)^2 matrix-vector product and a weighted sum.

    The damping factor exp(-y/2) must stay a normal float64 at the frame's
    own nodes: past y = 1416.8 it underflows, and the columns of the
    transform at the largest nodes first lose precision and then vanish.
    Orders up to 363 fit; higher orders raise ValueError.
    """

    _cache: dict = {}

    def __new__(cls, order: int, beta: float):
        key = (int(order), float(beta))
        frame = cls._cache.get(key)
        if frame is None:
            frame = super().__new__(cls)
            frame._build(int(order), float(beta))
            cls._cache[key] = frame
        return frame

    def _build(self, order: int, beta: float) -> None:
        if order < 1:
            raise ValueError("frame order must be at least 1")
        basis = laguerre_basis(order, beta)
        rule = quadrature(basis)
        if 0.5 * beta * rule.nodes[-1] > _LOG_TINY:
            raise ValueError(f"frame order {order} exceeds the damped basis ceiling of 363")
        self.order = order
        self.beta = beta
        self.basis = basis
        self.nodes = rule.nodes
        self.weights = rule.weights
        self.mod_weights = modified_weights(rule)
        self.gamma = gamma_norms(basis)
        psi = _read_only(eval_weighted_all(basis, rule.nodes))
        self.tomodal = (psi * self.mod_weights) / self.gamma[:, None]
        self.split_rel = default_split_point(order, rule.nodes)
        refined_rule = quadrature(laguerre_basis(2 * order + 1, beta))
        self.refined_nodes = refined_rule.nodes
        self.refined_weights = refined_rule.weights
        self._psi_refined = eval_weighted_all(basis, refined_rule.nodes)
        self._psi_at: dict = {0.0: psi}
        self._psi_on: dict = {}

    def psi_at(self, shift: float) -> np.ndarray:
        """The damped functions at the nodes shifted by ``shift``, (N+1, N+1).

        Memoized under ``round(shift, 12)``, so offsets that differ only by
        the rounding of origin arithmetic share one evaluation.
        """
        key = round(float(shift), 12)
        psi = self._psi_at.get(key)
        if psi is None:
            psi = _read_only(eval_weighted_all(self.basis, self.nodes + shift))
            self._psi_at[key] = psi
        return psi

    def psi_on(self, frame: "Frame") -> np.ndarray:
        """The damped functions at ``frame``'s nodes (same origin), memoized."""
        key = (frame.order, frame.beta)
        psi = self._psi_on.get(key)
        if psi is None:
            psi = _read_only(eval_weighted_all(self.basis, frame.nodes))
            self._psi_on[key] = psi
        return psi

    def eval_at(self, values: np.ndarray, offsets) -> np.ndarray:
        """Evaluate the frame interpolant at offsets from the basis origin."""
        coeffs = self.tomodal @ values
        return coeffs @ eval_weighted_all(self.basis, np.asarray(offsets, dtype=float))

    def frequency(self, coeffs: np.ndarray) -> float | None:
        """High-mode energy fraction of damped-frame coefficients."""
        squares = self.gamma * coeffs * coeffs
        total = float(squares.sum())
        if total <= 0.0:
            return None
        m = default_high_mode_count(self.order)
        return min(1.0, float(math.sqrt(squares[self.order + 1 - m :].sum() / total)))

    def derivative(self, coeffs: np.ndarray) -> tuple[np.ndarray, float]:
        """The set-up of the exterior indicator for damped-frame coefficients.

        Returns the derivative's coefficients (read-only) and its
        whole-domain weighted squared norm, the indicator's denominator.
        The derivative stays in the damped basis: with y = beta*(x - x_left)
        and d/dy L_l = -sum_{j<l} L_j, the derivative of sum_l c_l psi_l is
        sum_j d_j psi_j with d_j = -beta*(sum_{l>j} c_l + c_j/2).
        """
        above = np.zeros_like(coeffs)
        above[:-1] = np.cumsum(coeffs[:0:-1])[::-1]
        dcoeffs = _read_only(-self.beta * (above + 0.5 * coeffs))
        return dcoeffs, self._tail(dcoeffs, 0.0)

    def _tail(self, dcoeffs: np.ndarray, shift: float) -> float:
        dv = dcoeffs @ self.psi_at(shift)
        return float(np.sum(self.weights * dv * dv))

    def tails(self, dcoeffs: np.ndarray, denominator: float, offset: float) -> float | None:
        """Exterior derivative-tail ratio beyond ``offset`` from the origin.

        ``dcoeffs`` and ``denominator`` come from :meth:`derivative`.  The
        numerator integrates the squared derivative of the interpolant over
        (offset, inf) against the weight anchored at the basis origin; the
        denominator is the whole-domain value.  Returns None for a
        derivative-free state.
        """
        if denominator <= 0.0:
            return None
        numerator = self._tail(dcoeffs, float(offset))
        anchored = math.sqrt(max(0.0, numerator / denominator))
        return math.exp(-0.5 * self.beta * float(offset)) * anchored

    def interpolant_error(self, coeffs: np.ndarray, exact_refined: np.ndarray) -> float:
        """Weighted relative error of the interpolant over a doubled-order rule.

        Sees between the frame's own nodes (where nodal comparison is blind
        for freshly resampled states); ``coeffs`` are the damped-frame
        coefficients and ``exact_refined`` holds the reference at
        ``refined_nodes`` offsets plus the basis origin.
        """
        approx = coeffs @ self._psi_refined
        exact_refined = np.asarray(exact_refined, dtype=float)
        w = self.refined_weights
        denominator = float(np.sum(w * exact_refined * exact_refined))
        numerator = float(np.sum(w * (approx - exact_refined) ** 2))
        if denominator <= 0.0:
            return math.sqrt(numerator)
        return math.sqrt(numerator / denominator)


@dataclass(frozen=True)
class FrameState:
    """Nodal values in a damped frame plus the basis origin.

    ``values`` is stored as a read-only float copy; the caller's array is
    left as it was.  The damped coefficients and the exterior indicator's
    derivative set-up (:meth:`Frame.derivative`) are computed at most once,
    on first use, and kept for the state's lifetime.  So the mover's search
    over n*delta pays for them once, and each candidate only for its own
    shifted numerator.  A moved or rescaled state is a new state with an
    empty memo.
    """

    frame: Frame
    values: np.ndarray
    x_left: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _read_only(np.array(self.values, dtype=float)))

    @cached_property
    def _coeffs(self) -> np.ndarray:
        return _read_only(self.frame.tomodal @ self.values)

    @cached_property
    def _derivative(self) -> tuple[np.ndarray, float]:
        return self.frame.derivative(self._coeffs)

    @property
    def beta(self) -> float:
        return self.frame.beta

    @property
    def order(self) -> int:
        return self.frame.order

    def nodes(self) -> np.ndarray:
        """Physical node locations."""
        return self.x_left + self.frame.nodes

    def frequency(self) -> float | None:
        return self.frame.frequency(self._coeffs)

    def split_point(self) -> float:
        return self.x_left + self.frame.split_rel

    def exterior(self, split: float | None) -> float | None:
        if split is None:
            return None
        return self.frame.tails(*self._derivative, split - self.x_left)

    def rescaled(self, beta: float) -> "FrameState":
        new_frame = Frame(self.frame.order, beta)
        values = self._coeffs @ self.frame.psi_on(new_frame)
        return FrameState(new_frame, values, self.x_left)

    def moved(self, distance: float) -> "FrameState":
        values = self._coeffs @ self.frame.psi_at(distance)
        return FrameState(self.frame, values, self.x_left + distance)

    def error(self, reference, t: float) -> float:
        return self.frame.interpolant_error(
            self._coeffs, reference(self.x_left + self.frame.refined_nodes, t)
        )


def _require_default_indicators(cfg: AdaptConfig) -> None:
    if cfg.indicators != IndicatorConfig():
        raise ValueError(
            "the frame engine uses the default indicator rules; "
            "cfg.indicators must be IndicatorConfig()"
        )


def frame_state_from(reference, order: int, beta: float, x_left: float = 0.0, t: float = 0.0) -> FrameState:
    """Sample ``reference(x, t)`` at the frame nodes."""
    frame = Frame(order, beta)
    values = np.asarray(reference(x_left + frame.nodes, t), dtype=float)
    return FrameState(frame, values, x_left)


def frame_resample_evolver(reference) -> Callable:
    """Tracking evolver for frame states: resample the reference at the nodes."""

    def evolve(state: FrameState, t: float, dt: float) -> FrameState:
        values = np.asarray(reference(state.x_left + state.frame.nodes, t + dt), dtype=float)
        return FrameState(state.frame, values, state.x_left)

    return evolve


def run_frames(
    evolver,
    initial: FrameState,
    cfg: AdaptConfig,
    dt: float,
    t_final: float,
    mode=MODE_NONE,
    reference=None,
) -> tuple[list[ExperimentRecord], FrameState]:
    """:func:`run` on the nodal-value engine; returns (history, final state).

    ``evolver(state, t, dt)`` returns a :class:`FrameState` on the same
    frame; the recorded error is the interpolant's weighted relative error
    against ``reference(x, t)`` over a doubled-order rule.  The frame
    engine derives its indicator parameters from the default rules, so a
    ``cfg.indicators`` other than ``IndicatorConfig()`` raises ValueError.
    """
    _require_default_indicators(cfg)

    def measure(state: FrameState, t: float) -> ExperimentRecord:
        error = state.error(reference, t) if reference is not None else None
        return ExperimentRecord(
            t=t,
            beta=state.beta,
            x_left=state.x_left,
            error=error,
            freq=state.frequency(),
            ext=state.exterior(state.split_point()),
        )

    return _control_loop(initial, evolver, cfg, dt, t_final, mode, measure)


# --------------------------------------------------------------------------
# two-dimensional engine
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FrameState2D:
    """Tensor-product nodal values with per-dimension frames and origins.

    ``values`` is stored as a read-only float copy.  What the indicators
    and the error derive from it is computed at most once, on first use,
    and kept for the state's lifetime: the tensor transform
    (:meth:`coefficients`, read-only), the energy matrix
    gamma_x*gamma_y*c^2 that both frequency indicators read, and per axis
    the exterior indicator's derivative set-up of the marginal.  A moved
    or rescaled state is a new state with an empty memo.
    """

    frame_x: Frame
    frame_y: Frame
    values: np.ndarray
    x_left: float = 0.0
    y_left: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _read_only(np.array(self.values, dtype=float)))
        expected = (self.frame_x.order + 1, self.frame_y.order + 1)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")

    @cached_property
    def _coeffs(self) -> np.ndarray:
        return _read_only(self.frame_x.tomodal @ self.values @ self.frame_y.tomodal.T)

    @cached_property
    def _energy(self) -> np.ndarray:
        return _read_only(np.multiply.outer(self.frame_x.gamma, self.frame_y.gamma) * self._coeffs**2)

    @cached_property
    def _derivative_x(self) -> tuple[np.ndarray, float]:
        return self.frame_x.derivative(self.frame_x.tomodal @ self.marginal_x_values())

    @cached_property
    def _derivative_y(self) -> tuple[np.ndarray, float]:
        return self.frame_y.derivative(self.frame_y.tomodal @ self.marginal_y_values())

    def nodes_x(self) -> np.ndarray:
        return self.x_left + self.frame_x.nodes

    def nodes_y(self) -> np.ndarray:
        return self.y_left + self.frame_y.nodes

    def coefficients(self) -> np.ndarray:
        return self._coeffs

    def _frequency_axis(self, axis: int) -> float | None:
        frame = self.frame_x if axis == 0 else self.frame_y
        weights = self._energy
        total = float(weights.sum())
        if total <= 0.0:
            return None
        m = default_high_mode_count(frame.order)
        tail = weights[frame.order + 1 - m :, :] if axis == 0 else weights[:, frame.order + 1 - m :]
        return min(1.0, float(math.sqrt(tail.sum() / total)))

    def frequency_x(self) -> float | None:
        return self._frequency_axis(0)

    def frequency_y(self) -> float | None:
        return self._frequency_axis(1)

    def marginal_x_values(self) -> np.ndarray:
        """Nodal values of the y-integrated solution (reweighted quadrature)."""
        return self.values @ self.frame_y.mod_weights

    def marginal_y_values(self) -> np.ndarray:
        return self.frame_x.mod_weights @ self.values

    def split_x(self) -> float:
        return self.x_left + self.frame_x.split_rel

    def split_y(self) -> float:
        return self.y_left + self.frame_y.split_rel

    def exterior_x(self, split: float | None) -> float | None:
        if split is None:
            return None
        return self.frame_x.tails(*self._derivative_x, split - self.x_left)

    def exterior_y(self, split: float | None) -> float | None:
        if split is None:
            return None
        return self.frame_y.tails(*self._derivative_y, split - self.y_left)

    def moved_x(self, distance: float) -> "FrameState2D":
        values = self.frame_x.psi_at(distance).T @ (self.frame_x.tomodal @ self.values)
        return FrameState2D(self.frame_x, self.frame_y, values, self.x_left + distance, self.y_left)

    def moved_y(self, distance: float) -> "FrameState2D":
        values = (self.frame_y.tomodal @ self.values.T).T @ self.frame_y.psi_at(distance)
        return FrameState2D(self.frame_x, self.frame_y, values, self.x_left, self.y_left + distance)

    def rescaled_x(self, beta: float) -> "FrameState2D":
        new_frame = Frame(self.frame_x.order, beta)
        values = self.frame_x.psi_on(new_frame).T @ (self.frame_x.tomodal @ self.values)
        return FrameState2D(new_frame, self.frame_y, values, self.x_left, self.y_left)

    def rescaled_y(self, beta: float) -> "FrameState2D":
        new_frame = Frame(self.frame_y.order, beta)
        values = (self.frame_y.tomodal @ self.values.T).T @ self.frame_y.psi_on(new_frame)
        return FrameState2D(self.frame_x, new_frame, values, self.x_left, self.y_left)

    def error(self, reference, t: float) -> float:
        approx = self.frame_x._psi_refined.T @ self._coeffs @ self.frame_y._psi_refined
        grid_x, grid_y = np.meshgrid(
            self.x_left + self.frame_x.refined_nodes,
            self.y_left + self.frame_y.refined_nodes,
            indexing="ij",
        )
        exact = np.asarray(reference(grid_x, grid_y, t), dtype=float)
        weights = np.multiply.outer(
            self.frame_x.refined_weights, self.frame_y.refined_weights
        )
        denominator = float(np.sum(weights * exact * exact))
        numerator = float(np.sum(weights * (approx - exact) ** 2))
        if denominator <= 0.0:
            return math.sqrt(numerator)
        return math.sqrt(numerator / denominator)


class _AxisControl:
    """Control-protocol view of one dimension of a 2-d frame state."""

    __slots__ = ("state", "axis")

    def __init__(self, state: FrameState2D, axis: int):
        self.state = state
        self.axis = axis

    @property
    def beta(self) -> float:
        return (self.state.frame_x if self.axis == 0 else self.state.frame_y).beta

    @property
    def x_left(self) -> float:
        return self.state.x_left if self.axis == 0 else self.state.y_left

    def frequency(self) -> float | None:
        return self.state.frequency_x() if self.axis == 0 else self.state.frequency_y()

    def split_point(self) -> float:
        return self.state.split_x() if self.axis == 0 else self.state.split_y()

    def exterior(self, split: float | None) -> float | None:
        if self.axis == 0:
            return self.state.exterior_x(split)
        return self.state.exterior_y(split)

    def rescaled(self, beta: float) -> "_AxisControl":
        new_state = self.state.rescaled_x(beta) if self.axis == 0 else self.state.rescaled_y(beta)
        return _AxisControl(new_state, self.axis)

    def moved(self, distance: float) -> "_AxisControl":
        new_state = self.state.moved_x(distance) if self.axis == 0 else self.state.moved_y(distance)
        return _AxisControl(new_state, self.axis)


def frame_state_2d_from(
    reference, order_x: int, beta_x: float, order_y: int, beta_y: float,
    x_left: float = 0.0, y_left: float = 0.0, t: float = 0.0,
) -> FrameState2D:
    """Sample ``reference(x, y, t)`` on the tensor node grid."""
    frame_x = Frame(order_x, beta_x)
    frame_y = Frame(order_y, beta_y)
    grid_x, grid_y = np.meshgrid(x_left + frame_x.nodes, y_left + frame_y.nodes, indexing="ij")
    values = np.asarray(reference(grid_x, grid_y, t), dtype=float)
    return FrameState2D(frame_x, frame_y, values, x_left, y_left)


def frame_resample_evolver_2d(reference) -> Callable:
    def evolve(state: FrameState2D, t: float, dt: float) -> FrameState2D:
        grid_x, grid_y = np.meshgrid(state.nodes_x(), state.nodes_y(), indexing="ij")
        values = np.asarray(reference(grid_x, grid_y, t + dt), dtype=float)
        return FrameState2D(state.frame_x, state.frame_y, values, state.x_left, state.y_left)

    return evolve


def run_2d(
    evolver,
    initial: FrameState2D,
    cfg: AdaptConfig,
    dt: float,
    t_final: float,
    mode=MODE_NONE,
    reference=None,
) -> tuple[list[ExperimentRecord], FrameState2D]:
    """Dimension-by-dimension adaptive driver for tensor-product states.

    Both moving decisions are taken from the same pre-move state and then
    applied; the scaling ladders run per dimension with the other
    dimension's factor held fixed (x first).  Exterior baselines follow the
    same policy as the one-dimensional loop, per dimension: frozen until
    that dimension's mover first fires, then re-anchored after each accepted
    rescale of that dimension.  Standard record columns carry the
    x-dimension; the y-dimension is exported through the extras
    ``beta_y, freq_y, ext_y, yL``.  Returns (history, final state).  As in
    :func:`run_frames`, only the default ``cfg.indicators`` is supported.
    """
    _require_default_indicators(cfg)
    mode = normalize_mode(mode)
    state = initial
    f0x, f0y = state.frequency_x(), state.frequency_y()
    e0x = state.exterior_x(state.split_x())
    e0y = state.exterior_y(state.split_y())
    active_x = active_y = False

    def measure(state: FrameState2D, t: float) -> ExperimentRecord:
        error = state.error(reference, t) if reference is not None else None
        return ExperimentRecord(
            t=t,
            beta=state.frame_x.beta,
            x_left=state.x_left,
            error=error,
            freq=state.frequency_x(),
            ext=state.exterior_x(state.split_x()),
            extras={
                "beta_y": state.frame_y.beta,
                "freq_y": state.frequency_y(),
                "ext_y": state.exterior_y(state.split_y()),
                "yL": state.y_left,
            },
        )

    records = [measure(state, 0.0)]
    for n in range(_step_count(t_final, dt)):
        t_prev = n * dt
        t_now = (n + 1) * dt
        try:
            state = evolver(state, t_prev, dt)
        except Exception as exc:
            note = f"evolution step failed at t = {_format_field(t_prev)}"
            exc.args = (f"{note}: {exc.args[0]}" if exc.args else note,) + exc.args[1:]
            raise
        if mode in (MODE_MOVE, MODE_MOVE_SCALE):
            ex = state.exterior_x(state.split_x())
            ey = state.exterior_y(state.split_y())
            d0x = _moving_distance(_AxisControl(state, 0), ex, e0x, cfg)
            d0y = _moving_distance(_AxisControl(state, 1), ey, e0y, cfg)
            if d0x > 0.0:
                state = state.moved_x(d0x)
                active_x = True
            if d0y > 0.0:
                state = state.moved_y(d0y)
                active_y = True
        if mode in (MODE_SCALE, MODE_MOVE_SCALE):
            view, f0x, nx = _scaling_ladder(
                _AxisControl(state, 0), state.frequency_x(), f0x, cfg
            )
            state = view.state
            view, f0y, ny = _scaling_ladder(
                _AxisControl(state, 1), state.frequency_y(), f0y, cfg
            )
            state = view.state
            if nx and active_x:
                e0x = state.exterior_x(state.split_x())
            if ny and active_y:
                e0y = state.exterior_y(state.split_y())
        records.append(measure(state, t_now))
    return records, state
