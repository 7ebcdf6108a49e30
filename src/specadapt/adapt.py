"""Adaptive controllers for scaled spectral expansions.

One control loop, :func:`_control_loop`, drives a pluggable evolution step
and applies the two controllers of the paper to every dimension of the
state:

* frequency-dependent SCALING: when the high-mode energy fraction rises past
  ``nu * max(f0, floor)``, with ``floor`` the order's round-off level, contract
  the scale factor by powers of ``q`` as long as each contraction does not
  increase the frequency indicator (and the factor stays above ``beta_min``);
* exterior-error-dependent MOVING: when the derivative-norm fraction beyond
  the sentinel point ``x_R`` rises past ``mu * e0``, translate the basis
  origin rightward by the smallest multiple of ``delta`` (capped at
  ``d_max``) that restores the indicator below the threshold;
* the combination: move first, then scale, with ``x_R`` re-derived from the
  current node set at every iteration (moving owns ``x_L``, scaling owns
  ``x_R``).

There is one engine: nodal values in a :class:`Frame`.  The loop sees a
state through its control views, one per dimension: a :class:`FrameState`
behind :func:`run_frames` is its own single view, and a
:class:`FrameState2D` behind :func:`run_2d` has one view per axis.  As in
the paper, beta only places the nodes, and the indicators are defined by
the numerical solution alone.  A frame holds its order's operators, built
once in the unit variable y = beta*(x - x_left), plus the three things
beta changes: the node positions, the refined-node positions and the
split point.  A state computes every reading from its own coefficients
and the unit operators, so the same unit-variable values read alike at
every beta.  The basis functions carry their own decay: the damped
Laguerre functions exp(-y/2) L_l(y) on the half-line, or the Hermite
functions h_l(y) on the line.  Reconstructing values (or 2-d marginals)
from raw polynomial coefficients amplifies roundoff like exp(y_max/2),
while these forms stay O(1) at any order used here.  A Hermite frame has
no sentinel point: its exterior indicator is None, the mover never fires,
and only the scaling controller acts (the time-dependent Hermite scaling
of Ma, Sun & Tang, SINUM 43, 2005).

The frame engine memoizes at two lifetimes.  Each order builds its
operators once, from one recurrence pass of its basis at its nodes, its
refined nodes and (Laguerre only) its nodes shifted by its split point,
which also gives the weights of its two Gauss rules, and every
:class:`Frame` of that order and family shares them.  A
Laguerre order also builds from it, on its first exterior reading, one
stacked operator holding its weighted basis derivative at shift 0 and at
its split point, so a state's whole exterior set-up is one matrix-vector
product.  The order keeps, in three least-recently-used memos of fixed
size, its basis at shifted and at rescaled nodes and (Laguerre only) its
weighted basis derivative at the mover's shifted sentinels.  A miss at
rescaled nodes evaluates the basis.  A miss at shifted nodes evaluates
nothing: the Laguerre addition theorem shifts a basis the order stores,
at its nodes or at its split point, by one product with a Toeplitz matrix
(:func:`_shift`).  Such misses follow each accepted rung, which changes
the unit shifts of the next move and of its search.  A state keeps what
it derives from its own values (the coefficients, the exterior
indicator's whole-domain derivative norm, in 2-d the marginals and the
energy matrix) and its readings (the frequency indicator and the exterior
indicator at its own split point, per axis in 2-d) for as long as it
lives, so the ladder, the mover and the per-step record read each once;
a moved or rescaled state starts with none of them.  The exterior
indicator at any other split is evaluated on every call.  State values
are a read-only copy, so no memo can go stale.  The state memos are plain
instance attributes written on first read (:class:`_memoized`), so a read
takes no lock.

Reference values for the recorded error are optional: without one, a run is
blind, exactly like a real solver.  A 2-d reference is called on open grids
(see :func:`run_2d`).

The coefficient-space :class:`~.approx.Expansion` is not part of the
engine; :func:`initial_state` reads the controllers' baselines of one.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .approx import Expansion
from .basis import (
    _LOG_TINY,
    LAGUERRE,
    ScaledBasis,
    _checked_order,
    _unit_nodes,
    _unit_pass,
    eval_weighted_all,
    modified_weights,
    quadrature,
)
from .indicators import (
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
    "frame_state_2d_from",
    "frame_state_from",
    "history_to_csv",
    "initial_state",
    "normalize_mode",
    "run_2d",
    "run_frames",
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

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        if self.nu is None:
            object.__setattr__(self, "nu", 1.0 / self.q)
        for name in ("nu", "beta_min", "mu", "delta", "d_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
    are appended in order and read from each record's ``extras``.  Times
    must be finite and nondecreasing, or ValueError is raised.
    """
    names = list(CSV_HEADER) + list(extra_columns)
    lines = [",".join(names)]
    previous_t = -math.inf
    for record in records:
        if not math.isfinite(record.t):
            raise ValueError(f"history times must be finite, got {record.t}")
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
# Moving alone is unsupported on fronts that widen: a move cannot undo a
# rise of the exterior ratio that comes from spreading, so the origin runs
# past the front (a logistic front of centre and width 2+t, mu = 1.003,
# d_max = 0.1: x_left 54.6 at t = 5, centre 7).  Use MODE_MOVE_SCALE there.
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


def _scaling_ladder(state, f, f0, cfg: AdaptConfig):
    """One scaling decision on an evolved state.

    Returns ``(state, f0, accepted)``.  When ``f > nu*max(f0, floor)`` (the
    frame's ``frequency_floor``, read only once ``f > nu*f0``), candidate factors
    ``q*beta, q^2*beta, ...`` are accepted while each keeps the frequency
    indicator from rising and stays at or above ``beta_min``; ``f0`` is refreshed
    only on acceptance, so a fruitless trigger re-fires on the next step.
    """
    if f is None or f0 is None or not f > cfg.nu * f0 or not f > cfg.nu * state.frame.frequency_floor:
        return state, f0, 0
    accepted = 0
    while True:
        beta_next = cfg.q * state.frame.beta
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
    for name, value in (("dt", dt), ("t_final", t_final)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    steps = t_final / dt + 1e-9
    if not math.isfinite(steps):
        raise ValueError(f"t_final / dt overflows: t_final={t_final}, dt={dt}")
    return int(math.floor(steps))


def _control_loop(state, views, stepper, cfg, dt, t_final, mode, reference):
    """The one driver: evolve, optionally move, optionally scale, record.

    ``views(state)`` returns one control view per dimension: ``frame``,
    ``x_left``, ``frequency()``, ``split_point()``, ``exterior(split)``,
    and ``moved(d)``/``rescaled(beta)``, which return a view whose
    ``.state`` is the whole new state.  Every moving distance is taken from
    the same evolved state, then the moves are applied; the scaling ladders
    run one dimension after another (x first), each with the other
    dimensions held fixed.  Each record is read from the views
    (:func:`_record`): the standard columns from the first, with the
    state's error against ``reference`` when one is given, and the extras
    ``beta_y, freq_y, ext_y, yL`` from a second.

    Per dimension, ``f0``/``e0`` start from the initial state and ``f0`` is
    refreshed only on ladder acceptances.  ``e0`` is never refreshed.
    Re-anchoring it after a move ratchets the threshold up by a factor
    ``mu`` per move and stalls the tracking of a translating front.
    Re-anchoring it after an accepted rescale lowers the baseline with every
    rung, so a front that widens while it moves keeps firing the mover, and
    the frame runs past the front by several widths.
    A step must keep every view's frame (its order, beta and family) and
    origin (adapting them is the controllers' job), or ValueError is raised.  A failing step or reading
    names its time.  Emits the initial record plus one record per step.
    """
    mode = normalize_mode(mode)
    try:
        f0 = [view.frequency() for view in views(state)]
        e0 = [view.exterior(view.split_point()) for view in views(state)]
        records = [_record(views(state), reference, 0.0)]
    except ValueError as exc:
        _name_time(exc, "controller reading", 0.0)
        raise
    for n in range(_step_count(t_final, dt)):
        t_prev, t = n * dt, (n + 1) * dt
        frames = [(view.frame, view.x_left) for view in views(state)]
        try:
            state = stepper(state, t_prev, dt)
        except Exception as exc:
            _name_time(exc, "evolution step", t_prev)
            raise
        if [(view.frame, view.x_left) for view in views(state)] != frames:
            raise ValueError(
                f"the evolution step at t = {_format_field(t_prev)} changed a frame or an "
                "origin; the evolver must keep the frames it was given"
            )
        try:
            if mode in (MODE_MOVE, MODE_MOVE_SCALE):
                distances = [
                    _moving_distance(view, view.exterior(view.split_point()), e0[axis], cfg)
                    for axis, view in enumerate(views(state))
                ]
                for axis, d0 in enumerate(distances):
                    if d0 > 0.0:
                        state = views(state)[axis].moved(d0).state
            if mode in (MODE_SCALE, MODE_MOVE_SCALE):
                for axis in range(len(f0)):
                    view = views(state)[axis]
                    view, f0[axis], _ = _scaling_ladder(view, view.frequency(), f0[axis], cfg)
                    state = view.state
            records.append(_record(views(state), reference, t))
        except ValueError as exc:
            _name_time(exc, "controller reading", t)
            raise
    return records, state


def _record(views, reference, t: float) -> ExperimentRecord:
    """The record at ``t``: the standard columns from the first view, the extras from a second."""
    view = views[0]
    error = None if reference is None else view.state.error(reference, t)
    freq, ext = view.frequency(), view.exterior(view.split_point())
    extras = {}
    if len(views) > 1:
        other = views[1]
        extras = {
            "beta_y": other.frame.beta,
            "freq_y": other.frequency(),
            "ext_y": other.exterior(other.split_point()),
            "yL": other.x_left,
        }
    return ExperimentRecord(t, view.frame.beta, view.x_left, error, freq, ext, extras)


def _name_time(exc: Exception, what: str, t: float) -> None:
    """Prefix the message of ``exc`` with "``what`` failed at t = ``t``"."""
    note = f"{what} failed at t = {_format_field(t)}"
    exc.args = (f"{note}: {exc.args[0]}" if exc.args else note,) + exc.args[1:]


# --------------------------------------------------------------------------
# baselines of a coefficient expansion
# --------------------------------------------------------------------------


@dataclass
class AdaptState:
    """Reference indicator values of a starting expansion.

    ``f0``/``e0`` are the frequency and exterior-error baselines the
    controllers compare against; ``e0`` is read at the default split point
    of the expansion's node set (None for a basis without one).
    """

    expansion: Expansion
    f0: float | None
    e0: float | None


def initial_state(expansion: Expansion, cfg: AdaptConfig) -> AdaptState:
    """Compute the reference indicator values of a coefficient expansion.

    The indicators use the default rules of :mod:`~specadapt.indicators`,
    as the frame engine does; ``cfg`` is accepted but not read.
    """
    basis = expansion.basis
    e0 = None
    if basis.family == LAGUERRE:
        x_right = default_split_point(basis.order, quadrature(basis).nodes)
        e0 = exterior_error_indicator(expansion, x_right)
    return AdaptState(expansion=expansion, f0=frequency_indicator(expansion), e0=e0)


# --------------------------------------------------------------------------
# nodal-value engine (damped-frame)
# --------------------------------------------------------------------------


# Entries per memo of one order.  A 2-d step with one order on both axes
# reads up to 40 derivative shifts (per axis a 20-candidate search; 0 and
# the split are in the order's stacked pair, not in the memo), 3 basis
# shifts (0, per axis a move) and per axis its ladder's ratios.  A miss of
# a shifted memo is one Toeplitz product on a stored basis (:func:`_shift`),
# a miss of the rescaled memo one basis evaluation.
_MEMO_SIZE = 64


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _memoized:
    """A read-once attribute: the first read stores the value in the instance ``__dict__``.

    Like :func:`functools.cached_property` without its lock (Python <= 3.11
    takes an ``RLock`` on every first read).  It defines no ``__set__``, so
    the stored value shadows it, and it writes past a frozen dataclass's
    ``__setattr__``, which still refuses plain assignment.
    """

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


def _memo(cache: dict, key: float, evaluate) -> np.ndarray:
    """``cache[key]``, or ``evaluate(key)`` on a miss; least recently used out first."""
    psi = cache.pop(key, None)
    if psi is None:
        psi = _read_only(evaluate(key))
    cache[key] = psi
    if len(cache) > _MEMO_SIZE:
        del cache[next(iter(cache))]
    return psi


# The longest unit shift that :func:`_shift` applies in one product.
_PIECE = 16.0


def _shift(psi: np.ndarray, s: float) -> np.ndarray:
    """The damped Laguerre functions at y + s from their values ``psi[l, k]`` at y_k.

    By the addition theorem L_l(y+s) = sum_{j<=l} L^(-1)_{l-j}(s) L_j(y)
    (DLMF §18.18), psi_l(y+s) = exp(-s/2)*sum_{j<=l} t_{l-j} psi_j(y) with
    t_m = L^(-1)_m(s), from t_0 = 1, t_1 = -s and
    (m+1) t_{m+1} = (2m-s) t_m - (m-1) t_{m-1}.  So the shift is one
    product with a lower-triangular Toeplitz matrix, with no evaluation of
    the basis; a shift of 0 gives the identity, and back the bits of ``psi``.

    Against an evaluation started at exp(64 - y/2), which stays a normal
    float past y = 1416.8, one product at order 363 is accurate to 1.8e-14
    over 16 unit lengths, 1.1e-14 over 24, 1.2e-14 over 64 and 1.3e-14 over
    400.  The t_m grow like s^m/m! while exp(-s/2) shrinks, and at order
    363 they leave the float64 range past s = 1410, so a shift longer than
    ``_PIECE`` = 16 is applied as equal pieces of at most 16.  A negative
    or non-finite shift raises.
    """
    if not 0.0 <= s < math.inf:
        raise ValueError(f"Laguerre basis evaluated left of its endpoint or at infinity: unit shift {s}")
    pieces = max(1, math.ceil(s / _PIECE))
    s /= pieces
    n = psi.shape[0]
    t = [1.0, -s]
    for m in range(1, n - 1):
        t.append(((2 * m - s) * t[m] - (m - 1) * t[m - 1]) / (m + 1))
    padded = np.zeros(2 * n - 1)
    padded[n - 1 :] = t[:n]
    padded *= math.exp(-0.5 * s)
    # toeplitz[l, j] = padded[n-1 + l - j]: exp(-s/2)*t_{l-j}, and 0 above the diagonal
    toeplitz = np.ndarray((n, n), buffer=padded, offset=(n - 1) * padded.itemsize,
                          strides=(padded.itemsize, -padded.itemsize))
    for _ in range(pieces):
        psi = toeplitz @ psi
    return psi


class _UnitFrame:
    """The beta-free operators of one order, in the unit variable y = beta*x.

    A frame at beta has nodes y/beta and psi_l(beta*x) = psi_l(y), so its
    transform, its refined psi and beta*split are those of this object;
    every psi_l has norm 1 in y.  It owns the memos.  The build runs one
    recurrence pass (:func:`~.basis._unit_pass`): it evaluates the basis at
    the nodes (``psi``), the refined nodes (``psi_refined``) and, Laguerre
    only, the nodes shifted by s* = round(split, 12) (``psi_split``, the
    base of the pair's G(s*) and of :meth:`dpsi_shifted` from s* on), and
    puts the order's Gauss rule and the refined one, where not cached yet,
    into the rule cache that :func:`~.basis.quadrature` reads.  A Laguerre
    order builds :attr:`pair` on its first exterior reading; a Hermite
    order has no split, no ``psi_split``, no pair and no derivative memo.
    """

    def __init__(self, order: int, family: str):
        self.basis = basis = ScaledBasis(family, 1.0, order)
        nodes = _unit_nodes(family, order)
        if family == LAGUERRE and 0.5 * nodes[-1] > _LOG_TINY:
            raise ValueError(f"frame order {order} exceeds the damped basis ceiling of 363")
        self.split = default_split_point(order, nodes) if family == LAGUERRE else None
        # one pass: the evaluations, and both rules into the rule cache
        shift = None if self.split is None else round(self.split, 12)
        psi, psi_refined, psi_split = _unit_pass(family, order, nodes, shift)
        rule, refined = quadrature(basis), quadrature(replace(basis, order=2 * order + 1))
        self.nodes, self.weights = rule.nodes, rule.weights
        self.mod_weights = modified_weights(rule)
        self.refined_nodes, self.refined_weights = refined.nodes, refined.weights
        self.psi = psi = _read_only(psi)
        self.psi_refined = _read_only(psi_refined)
        self.psi_split = None if psi_split is None else _read_only(psi_split)
        self.tomodal = _read_only(psi * self.mod_weights)
        self.psi_at: dict = {0.0: psi}  # keyed by beta*shift
        self.psi_on: dict = {}  # keyed by beta/beta'
        self.dpsi_at: dict = {}  # keyed by beta*shift, Laguerre only

    @_memoized
    def pair(self) -> np.ndarray:
        """G at shift 0 stacked on G at s* = round(split, 12), (2(N+1), N+1), read-only.

        Both halves come from the build's one pass, so building the
        pair evaluates nothing.  Each half is written in place, with no
        stacking copy; column-major, so each write is a contiguous row of
        G's transpose.  A Hermite order raises.
        """
        if self.split is None:
            raise ValueError("only a Laguerre frame has an exterior indicator")
        n = self.nodes.size
        pair = np.empty((2 * n, n), order="F")
        self.dpsi(self.psi.copy(), out=pair[:n])
        self.dpsi(self.psi_split.copy(), out=pair[n:])
        return _read_only(pair)

    @_memoized
    def frequency_floor(self) -> float:
        """The largest frequency reading of a psi_l (l <= N-m) at the nodes, whose exact tail is zero."""
        n, m = self.nodes.size, default_high_mode_count(self.nodes.size - 1)
        squares = (self.tomodal @ self.psi[: n - m].T) ** 2
        return float(np.sqrt(squares[n - m :].sum(axis=0) / squares.sum(axis=0)).max())

    def dpsi_shifted(self, s: float) -> np.ndarray:
        """G at the nodes shifted by ``s``, from the nearest stored base at or left of s.

        That base is :attr:`psi_split` from s* on, so the mover's candidates
        s* + beta*n*delta each take one short :func:`_shift`, and
        :attr:`psi` before it.  No basis evaluation.
        """
        split = round(self.split, 12)
        psi = _shift(self.psi_split, s - split) if s >= split else _shift(self.psi, s)
        return self.dpsi(psi)

    def dpsi(self, psi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """G[k, l] = sqrt(w_k)*(sum_{j<l} psi_j + psi_l/2) from psi[l, k], overwriting psi.

        G is written to ``out`` when given, an (N+1, N+1) array.
        """
        g = np.cumsum(psi, axis=0, out=None if out is None else out.T)
        psi *= 0.5
        g -= psi
        g *= np.sqrt(self.weights)
        return g.T


@lru_cache(maxsize=None)
def _unit_frame(order: int, family: str) -> _UnitFrame:
    """The one unit frame of ``order`` and ``family``; orders past the ceiling raise, uncached."""
    return _UnitFrame(order, family)


class Frame:
    """The nodes of one (order, beta, family) frame over its order's unit operators.

    beta only places the nodes: a frame holds its Gauss nodes as offsets
    from the basis origin, the nodes of the doubled-order rule its error is
    read on, and its split point (``split_rel``; None for Hermite).  All
    else is the order's, built once in the unit variable y = beta*x and
    shared by every beta: the weights, the nodal-to-modal transform
    ``tomodal`` and the refined psi, from one recurrence pass per order
    (:class:`_UnitFrame`), and the memos.  The functions are the
    damped Laguerre psi_l = exp(-y/2) L_l(y) (``family`` LAGUERRE, the
    default) or the Hermite h_l(y) (HERMITE, ``hermite_basis`` without its
    factor sqrt(beta)), O(1)-safe in float64.  States read in y (see
    :class:`FrameState`).  Instances are shared per (order, beta, family)
    and cost O(N).

    Three evaluations are memoized per order, each in a least-recently-used
    memo of ``_MEMO_SIZE`` (N+1)^2 matrices: the damped functions at
    shifted nodes (:meth:`psi_at`, used by moves) and at another frame's
    nodes (:meth:`psi_on`, used by rescales), and their weighted derivative
    at shifted nodes (:meth:`dpsi_at`, used by the mover's search).  All
    are keyed in the unit variable, so every ladder rung shares the entry
    of the ratio 1/q.  A :meth:`psi_on` miss evaluates the basis; a miss
    at shifted nodes (Laguerre only) shifts a basis the order stores by the
    addition theorem, one (N+1)^3 product and no evaluation.  The
    derivative at shift 0 and at the split, which every state reads, is
    one stacked operator of the order instead, built on first use from the
    order's one build pass and shared by every frame of the order.

    The damping factor exp(-y/2) must stay a normal float64 at the frame's
    own nodes, y < 1416.8, so orders past 363 raise ValueError (shifted,
    rescaled and refined nodes may lie further out; see
    :func:`~.basis.eval_weighted_all`).  A Hermite frame stops at 363 too,
    where its refined rule reaches order 727 (see :func:`~.basis.quadrature`).
    """

    _cache: dict = {}

    def __new__(cls, order: int, beta: float, family: str = LAGUERRE):
        order, beta = _checked_order(order), float(beta)
        key = (order, beta, family)
        frame = cls._cache.get(key)
        if frame is None:
            frame = super().__new__(cls)
            frame._build(order, beta, family)
            cls._cache[key] = frame
        return frame

    def _build(self, order: int, beta: float, family: str) -> None:
        if order < 1:
            raise ValueError("frame order must be at least 1")
        if not (math.isfinite(beta) and beta > 0.0):
            raise ValueError(f"scaling factor must be positive, got {beta}")
        self._unit = unit = _unit_frame(order, family)
        self.family = family
        self.order = order
        self.beta = beta
        self.nodes = _read_only(unit.nodes / beta)
        self.tomodal = unit.tomodal
        self.split_rel = None if unit.split is None else unit.split / beta
        self.refined_nodes = _read_only(unit.refined_nodes / beta)

    @property
    def frequency_floor(self) -> float:
        """The order's round-off floor of the frequency indicator, one for every beta, built on first read."""
        return self._unit.frequency_floor

    def psi_at(self, shift: float) -> np.ndarray:
        """The damped functions at the nodes shifted by ``shift``, (N+1, N+1).

        That is psi at y + beta*shift.  It is memoized per order under
        ``round(beta*shift, 12)``, and a miss shifts the order's psi at the
        nodes by that key (:func:`_shift`), with no basis evaluation.  So
        offsets that differ only by the rounding of origin arithmetic share
        one entry, whose value does not depend on which came first.  A
        Hermite frame and a negative key raise.
        """
        unit = self._unit
        if unit.split is None:
            raise ValueError("only a Laguerre frame has a shifted basis")
        key = round(self.beta * float(shift), 12)
        return _memo(unit.psi_at, key, lambda s: _shift(unit.psi, s))

    def psi_on(self, frame: "Frame") -> np.ndarray:
        """The damped functions at the nodes of ``frame`` (same order and origin).

        That is psi at y*beta/beta'.  It is memoized per order under
        ``round(beta/beta', 12)`` and evaluated at that key.  A frame of
        another order or family raises.
        """
        unit = self._unit
        if frame._unit is not unit:
            raise ValueError(
                f"psi_on needs a frame of the same order and family: got {frame.family} order "
                f"{frame.order} for {self.family} order {self.order}"
            )
        key = round(self.beta / frame.beta, 12)
        return _memo(unit.psi_on, key, lambda r: eval_weighted_all(unit.basis, unit.nodes * r))

    def dpsi_at(self, shift: float) -> np.ndarray:
        """G[k, l] = sqrt(w_k)*(sum_{j<l} psi_j + psi_l/2) at y_k + beta*shift, (N+1, N+1).

        With w the unit weights and d/dy L_l = -sum_{j<l} L_j, the
        derivative of sum_l c_l psi_l there is -beta*(G c)_k/sqrt(w_k).
        Memoized and keyed as :meth:`psi_at`.  A miss shifts the order's
        psi at the split s* when the key is at least s*, and its psi at the
        nodes otherwise (:meth:`_UnitFrame.dpsi_shifted`).  A Hermite frame
        and a negative key raise.
        """
        unit = self._unit
        if unit.split is None:
            raise ValueError("only a Laguerre frame has a derivative memo")
        key = round(self.beta * float(shift), 12)
        return _memo(unit.dpsi_at, key, unit.dpsi_shifted)


def _high_mode_fraction(energy: np.ndarray, order: int, axis: int = 0) -> float | None:
    """The frequency indicator along ``axis`` (of order ``order``) of squared coefficients.

    None for zero energy; ValueError if the energy is not finite.
    """
    total = float(energy.sum())
    if not math.isfinite(total):
        raise ValueError(f"state energy is {total}: the values are not all finite")
    if total <= 0.0:
        return None
    k = order + 1 - default_high_mode_count(order)
    tail = energy[k:] if axis == 0 else energy[:, k:]
    return min(1.0, float(math.sqrt(tail.sum() / total)))


def _split_at(left: float, frame: Frame) -> float | None:
    """The sentinel point of ``frame`` with its origin at ``left``; None for Hermite."""
    return None if frame.split_rel is None else left + frame.split_rel


def _check_move(frame: Frame, distance: float) -> None:
    """Only a Laguerre origin moves, and only rightward by a finite distance."""
    if frame.family != LAGUERRE:
        raise ValueError("only a Laguerre frame has a movable origin")
    if not (math.isfinite(distance) and distance >= 0.0):
        raise ValueError(f"move distance must be finite and nonnegative, got {distance}")


@dataclass(frozen=True)
class FrameState:
    """Nodal values in a frame plus the basis origin.

    ``values`` is stored as a read-only float copy of shape (order+1,); the
    caller's array is left as it was.  Every reading comes from the state's
    coefficients and its order's unit operators, so the same unit-variable
    values read alike at every beta; beta only places the points that a
    reference or an off-split exterior reading needs.  The coefficients
    (read-only), the frequency indicator and the exterior set-up are
    computed at most once, on first use, and kept for the state's lifetime.
    The set-up is one product with the order's stacked pair, which gives
    both the exterior indicator's denominator and its reading at
    :meth:`split_point`.  So the mover's search over n*delta pays for the
    denominator once, and each candidate only for its own shifted
    numerator; the per-step record re-reads the controllers' readings for
    free.  A moved or rescaled state is a new state with an empty memo.
    """

    frame: Frame
    values: np.ndarray
    x_left: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _read_only(np.array(self.values, dtype=float)))
        expected = (self.frame.order + 1,)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")

    @_memoized
    def _coeffs(self) -> np.ndarray:
        return _read_only(self.frame.tomodal @ self.values)

    @_memoized
    def _split_reading(self) -> tuple[float, float | None]:
        """(|G(0) c|, exp(-s*/2)*|G(s*) c|/|G(0) c|), s* = round(unit split, 12); a Hermite frame raises."""
        unit = self.frame._unit
        g = unit.pair @ self._coeffs
        whole, tail = g[: self.frame.order + 1], g[self.frame.order + 1 :]
        denominator = math.sqrt(whole.dot(whole))
        if denominator <= 0.0:
            return denominator, None
        return denominator, math.exp(-0.5 * round(unit.split, 12)) * (math.sqrt(tail.dot(tail)) / denominator)

    @_memoized
    def _frequency(self) -> float | None:
        return _high_mode_fraction(self._coeffs * self._coeffs, self.frame.order)

    @property
    def state(self) -> "FrameState":
        """A one-dimensional state is its own control view."""
        return self

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
        return self._frequency

    def split_point(self) -> float | None:
        return _split_at(self.x_left, self.frame)

    def exterior(self, split: float | None) -> float | None:
        return self._exterior(split)

    def _exterior(self, split: float | None) -> float | None:
        # also a 2-d state's per-axis reading, which the benchmark times as one call.
        # Off the own split the derivative's tail ratio is exp(-beta*offset/2)*|G c|/|G(0) c|
        # with G = dpsi_at(offset), in which the derivative's factors beta cancel.
        if split is None:
            return None
        if split == self.split_point():
            return self._split_reading[1]
        denominator = self._split_reading[0]
        if denominator <= 0.0:
            return None
        offset = split - self.x_left
        g = self.frame.dpsi_at(offset) @ self._coeffs
        return math.exp(-0.5 * self.frame.beta * float(offset)) * (math.sqrt(g.dot(g)) / denominator)

    def rescaled(self, beta: float) -> "FrameState":
        new_frame = Frame(self.frame.order, beta, self.frame.family)
        values = self._coeffs @ self.frame.psi_on(new_frame)
        return FrameState(new_frame, values, self.x_left)

    def moved(self, distance: float) -> "FrameState":
        """The state on the frame whose origin is ``distance`` to the right.

        ValueError for a negative or non-finite distance, and for any move
        of a Hermite state.
        """
        _check_move(self.frame, distance)
        values = self._coeffs @ self.frame.psi_at(distance)
        return FrameState(self.frame, values, self.x_left + distance)

    def error(self, reference, t: float) -> float:
        """Weighted relative error against ``reference(x, t)``, broadcast to the refined nodes.

        The unit weights' missing factor 1/beta cancels in the ratio; a zero
        reference gives the absolute norm, in x.
        """
        unit = self.frame._unit
        nodes = self.x_left + self.frame.refined_nodes
        exact = _broadcast(reference(nodes, t), nodes.shape, "refined-node")
        diff = self._coeffs @ unit.psi_refined
        diff -= exact
        w = unit.refined_weights
        denominator = float((w * exact) @ exact)
        numerator = float((w * diff) @ diff)
        return _error_ratio(numerator, denominator, self.frame.beta)


def _error_ratio(numerator: float, denominator: float, beta: float) -> float:
    """sqrt(numerator/denominator), or sqrt(numerator/beta) for a zero reference; ValueError if a sum is not finite."""
    if not (math.isfinite(numerator) and math.isfinite(denominator)):
        raise ValueError(
            f"error sums are not finite (numerator {numerator}, denominator {denominator}): "
            "the reference or the state is not finite at a refined node"
        )
    return math.sqrt(numerator / (denominator if denominator > 0.0 else beta))


def frame_state_from(
    reference, order: int, beta: float, x_left: float = 0.0, t: float = 0.0, family: str = LAGUERRE
) -> FrameState:
    """Sample ``reference(x, t)`` at the nodes of the ``family`` frame."""
    frame = Frame(order, beta, family)
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
    """Drive a frame state through the adaptive loop; returns (history, final state).

    ``evolver(state, t, dt)`` returns a :class:`FrameState` on the frame it
    was given: a step that changes the frame (its order, beta or family)
    or the origin raises ValueError, and a failing step propagates with the
    failure time attached.  The recorded error is the interpolant's
    weighted relative error against ``reference(x, t)`` over a
    doubled-order rule.  ``t_final < dt`` yields exactly the initial
    record.  The indicators use the default rules
    (:func:`~.indicators.default_high_mode_count` and
    :func:`~.indicators.default_split_point`).

    A Hermite state (``frame_state_from(..., family=HERMITE)``) is scaled
    only: it has no sentinel point, so ``ext`` is None on every record and
    the mover never fires.  ``MODE_MOVE`` alone is unsupported on fronts
    that widen: the origin runs past the front (see ``MODE_MOVE``); use
    ``MODE_MOVE_SCALE`` there.
    """

    # a one-dimensional state is its own single control view
    return _control_loop(initial, lambda state: (state,), evolver, cfg, dt, t_final, mode, reference)


# --------------------------------------------------------------------------
# two-dimensional engine
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FrameState2D:
    """Tensor-product nodal values with per-dimension frames and origins.

    ``values`` is stored as a read-only float copy.  As in
    :class:`FrameState`, every reading is in the unit variables, so it does
    not depend on either beta.  What the indicators and the error derive
    from the values is computed at most once, on first use, and kept for
    the state's lifetime: the tensor transform (:meth:`coefficients`,
    read-only), the energy matrix c^2 that both frequency indicators read,
    and per axis the marginal (the values integrated over the other axis
    with its unit weights) as a :class:`FrameState`, which keeps that
    axis's exterior set-up and split reading.  The frequency readings are
    kept the same way, per axis.  A moved or rescaled state is a new state
    with an empty memo.
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

    @_memoized
    def _coeffs(self) -> np.ndarray:
        return _read_only(self.frame_x.tomodal @ self.values @ self.frame_y.tomodal.T)

    @_memoized
    def _energy(self) -> np.ndarray:
        return _read_only(self._coeffs * self._coeffs)

    @_memoized
    def _marginal_x(self) -> FrameState:
        return FrameState(self.frame_x, self.values @ self.frame_y._unit.mod_weights, self.x_left)

    @_memoized
    def _marginal_y(self) -> FrameState:
        return FrameState(self.frame_y, self.frame_x._unit.mod_weights @ self.values, self.y_left)

    @_memoized
    def _frequency_x(self) -> float | None:
        return _high_mode_fraction(self._energy, self.frame_x.order, 0)

    @_memoized
    def _frequency_y(self) -> float | None:
        return _high_mode_fraction(self._energy, self.frame_y.order, 1)

    def nodes_x(self) -> np.ndarray:
        return self.x_left + self.frame_x.nodes

    def nodes_y(self) -> np.ndarray:
        return self.y_left + self.frame_y.nodes

    def coefficients(self) -> np.ndarray:
        return self._coeffs

    def frequency_x(self) -> float | None:
        return self._frequency_x

    def frequency_y(self) -> float | None:
        return self._frequency_y

    def marginal_x_values(self) -> np.ndarray:
        """Nodal values of the y-integrated solution (reweighted quadrature)."""
        return self._marginal_x.values / self.frame_y.beta

    def marginal_y_values(self) -> np.ndarray:
        return self._marginal_y.values / self.frame_x.beta

    def split_x(self) -> float | None:
        return _split_at(self.x_left, self.frame_x)

    def split_y(self) -> float | None:
        return _split_at(self.y_left, self.frame_y)

    def exterior_x(self, split: float | None) -> float | None:
        """:meth:`FrameState.exterior` of the x marginal, memoized the same way."""
        return self._marginal_x._exterior(split)

    def exterior_y(self, split: float | None) -> float | None:
        return self._marginal_y._exterior(split)

    def moved_x(self, distance: float) -> "FrameState2D":
        """:meth:`FrameState.moved` along x, with its guards."""
        _check_move(self.frame_x, distance)
        values = self.frame_x.psi_at(distance).T @ (self.frame_x.tomodal @ self.values)
        return FrameState2D(self.frame_x, self.frame_y, values, self.x_left + distance, self.y_left)

    def moved_y(self, distance: float) -> "FrameState2D":
        _check_move(self.frame_y, distance)
        values = (self.frame_y.tomodal @ self.values.T).T @ self.frame_y.psi_at(distance)
        return FrameState2D(self.frame_x, self.frame_y, values, self.x_left, self.y_left + distance)

    def rescaled_x(self, beta: float) -> "FrameState2D":
        new_frame = Frame(self.frame_x.order, beta, self.frame_x.family)
        values = self.frame_x.psi_on(new_frame).T @ (self.frame_x.tomodal @ self.values)
        return FrameState2D(new_frame, self.frame_y, values, self.x_left, self.y_left)

    def rescaled_y(self, beta: float) -> "FrameState2D":
        new_frame = Frame(self.frame_y.order, beta, self.frame_y.family)
        values = (self.frame_y.tomodal @ self.values.T).T @ self.frame_y.psi_on(new_frame)
        return FrameState2D(self.frame_x, new_frame, values, self.x_left, self.y_left)

    def error(self, reference, t: float) -> float:
        """Weighted relative error against ``reference(x, y, t)`` on the doubled-order grid.

        ``reference`` is called once, on open grids (see :func:`run_2d`),
        at the refined nodes of both frames.  The weights are as in 1-d.
        """
        fx, fy = self.frame_x, self.frame_y
        ux, uy = fx._unit, fy._unit
        exact = _on_grid(reference, self.x_left + fx.refined_nodes, self.y_left + fy.refined_nodes, t)
        wx, wy = ux.refined_weights, uy.refined_weights
        # one buffer: the difference, its square, then exact's square
        diff = ux.psi_refined.T @ self._coeffs @ uy.psi_refined
        diff -= exact
        diff *= diff
        numerator = float(wx @ diff @ wy)
        np.multiply(exact, exact, out=diff)
        denominator = float(wx @ diff @ wy)
        return _error_ratio(numerator, denominator, fx.beta * fy.beta)


class _AxisControl:
    """Control-protocol view of one dimension of a 2-d frame state."""

    __slots__ = ("state", "axis")

    def __init__(self, state: FrameState2D, axis: int):
        self.state = state
        self.axis = axis

    @property
    def frame(self) -> Frame:
        return self.state.frame_x if self.axis == 0 else self.state.frame_y

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


def _broadcast(values, shape: tuple, name: str) -> np.ndarray:
    """A reference's result broadcast to ``shape``, or ValueError naming both."""
    values = np.asarray(values, dtype=float)
    if values.shape == shape:
        return values
    try:
        return np.broadcast_to(values, shape)
    except ValueError:
        raise ValueError(
            f"reference returned shape {values.shape}, which does not broadcast "
            f"to the {name} shape {shape}"
        ) from None


def _on_grid(reference, xs: np.ndarray, ys: np.ndarray, t: float) -> np.ndarray:
    """``reference`` on the tensor grid xs x ys, called on open grids.

    The call gets an (len(xs), 1) column and a (1, len(ys)) row, and its
    result is broadcast to the grid shape.
    """
    return _broadcast(reference(xs[:, None], ys[None, :], t), (xs.size, ys.size), "grid")


def frame_state_2d_from(
    reference, order_x: int, beta_x: float, order_y: int, beta_y: float,
    x_left: float = 0.0, y_left: float = 0.0, t: float = 0.0,
) -> FrameState2D:
    """Sample ``reference(x, y, t)`` on the tensor node grid.

    ``reference`` is called on open grids (see :func:`run_2d`): an
    (order_x+1, 1) column of x nodes and a (1, order_y+1) row of y nodes.
    """
    frame_x = Frame(order_x, beta_x)
    frame_y = Frame(order_y, beta_y)
    values = _on_grid(reference, x_left + frame_x.nodes, y_left + frame_y.nodes, t)
    return FrameState2D(frame_x, frame_y, values, x_left, y_left)


def frame_resample_evolver_2d(reference) -> Callable:
    """Tracking evolver for 2-d frame states: resample the reference on the node grid.

    ``reference`` is called on open grids (see :func:`run_2d`).
    """

    def evolve(state: FrameState2D, t: float, dt: float) -> FrameState2D:
        values = _on_grid(reference, state.nodes_x(), state.nodes_y(), t + dt)
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
    """:func:`run_frames` for tensor-product states, one control view per axis.

    The shared loop takes both moving decisions from the same evolved state
    and then applies them; the scaling ladders run per dimension with the
    other dimension's factor held fixed (x first).  Each dimension keeps
    the exterior baseline of the initial state.  Standard record columns carry
    the x-dimension; the y-dimension is exported through the extras
    ``beta_y, freq_y, ext_y, yL``.  Returns (history, final state).  As in
    :func:`run_frames`, the evolver must keep both frames and origins, and
    ``MODE_MOVE`` alone is unsupported on fronts that widen (see
    ``MODE_MOVE``).

    The library calls every 2-d ``reference(x, y, t)`` on open grids, as
    ``np.meshgrid(xs, ys, indexing="ij", sparse=True)`` gives them: ``x``
    is a (len(xs), 1) column and ``y`` a (1, len(ys)) row, over the node
    grid (Nx+1, Ny+1) when sampling and over the doubled-order grid when
    recording the error.  The result must broadcast to the grid shape, or
    ValueError names that shape.  Any elementwise numpy expression
    qualifies, and a separable one costs len(xs) + len(ys) evaluations
    instead of len(xs)*len(ys).
    """
    def views(state: FrameState2D) -> tuple[_AxisControl, _AxisControl]:
        return _AxisControl(state, 0), _AxisControl(state, 1)

    return _control_loop(initial, views, evolver, cfg, dt, t_final, mode, reference)
