"""Adaptive controllers for scaled spectral expansions.

One driver, :func:`run_frames` (also :func:`run_2d`), steps a pluggable
evolver and applies the paper's two controllers to each axis of the state:

* frequency-dependent SCALING: when the high-mode energy fraction rises past
  ``nu * max(f0, floor)``, with ``floor`` the order's round-off level, contract
  the scale factor by powers of ``q`` as long as each contraction does not
  increase the frequency indicator (and the factor stays above ``beta_min``);
* exterior-error-dependent MOVING: when the derivative-norm fraction beyond
  the sentinel point ``x_R`` rises past ``mu * e0``, translate the basis
  origin rightward by the smallest multiple of ``delta`` (capped at
  ``d_max``) that restores the indicator below the threshold;
* the combination: move first, then scale, with ``x_R`` re-derived from the
  current node set at every iteration.

A :class:`FrameState` holds nodal values on one :class:`Frame` per axis,
one or two axes.  A frame holds only what beta changes: its nodes, its
refined nodes and its split point.  The rest belongs to its order, built
once in the unit variable y = beta*(x - x_left) (:class:`_UnitFrame`) and
kept in the library's one store (:func:`~.basis._stored`), so every
reading comes from the solution alone and reads alike at every beta.  The
functions carry their own decay, the damped Laguerre exp(-y/2) L_l(y) on
the half-line or the Hermite h_l(y) on the line, so they stay O(1) at
every order used here, where raw polynomial coefficients would amplify
round-off like exp(y_max/2).  A Hermite axis has no sentinel point, so
only its scaling controller acts (Ma, Sun & Tang, SINUM 43, 2005).  A
reference for the recorded error is optional: without one a run is
blind, like a real solver.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .approx import Expansion
from .basis import (
    _LOG_TINY,
    LAGUERRE,
    ScaledBasis,
    _checked_order,
    _stored,
    _unit_nodes,
    _unit_pass,
    _unit_rule,
    eval_weighted_all,
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
    "frame_state_2d_from",
    "frame_state_from",
    "history_to_csv",
    "initial_state",
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
        # the mover's search length, floor(d_max/delta): not a field, so derived anew by ``replace``
        object.__setattr__(self, "_candidates", int(math.floor(self.d_max / self.delta + 1e-12)))


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
    """Write via a temp file in the target directory plus rename.

    The temp file is created as ``open(path, "w")`` creates a file, with
    mode 0o666 less the umask, and takes the mode of the target it
    replaces, so the written file has the mode a plain write gives it.  A
    failed write leaves the target as it was and no temp file.
    """
    path = os.fspath(path)
    # named from the directory alone, so any name the target may have fits
    tmp = os.path.join(os.path.dirname(path) or ".", f".{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:  # a new file keeps the mode it was created with
            pass
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
_MODES = (MODE_NONE, MODE_SCALE, MODE_MOVE, MODE_MOVE_SCALE)


# --------------------------------------------------------------------------
# the decision engine, written once over a state protocol
# --------------------------------------------------------------------------


def _scaling_ladder(state, axis: int, f, f0, cfg: AdaptConfig):
    """One scaling decision along ``axis`` of an evolved state.

    Returns ``(state, f0, accepted)``.  When ``f > nu*max(f0, floor)`` (the
    order's ``frequency_floor``, read only once ``f > nu*f0``), candidate factors
    ``q*beta, q^2*beta, ...`` are accepted while each keeps the frequency
    indicator from rising and stays at or above ``beta_min``; ``f0`` is refreshed
    only on acceptance, so a fruitless trigger re-fires on the next step.
    """
    if f is None or f0 is None or not f > cfg.nu * f0 or not f > cfg.nu * state.units[axis].frequency_floor:
        return state, f0, 0
    accepted = 0
    while True:
        beta_next = cfg.q * state.frames[axis].beta
        if beta_next < cfg.beta_min:
            break
        candidate = state.rescaled(beta_next, axis)
        f_candidate = candidate.frequency(axis)
        if f_candidate is None or f_candidate > f:
            break
        assert f_candidate <= f, "accepted rescale must not raise the frequency indicator"
        state, f, f0 = candidate, f_candidate, f_candidate
        accepted += 1
    return state, f0, accepted


def _moving_distance(state, axis: int, e, e0, cfg: AdaptConfig) -> float:
    """One moving decision along ``axis``: the displacement to apply, 0.0 for none.

    When ``e > mu*e0``, searches for the smallest n >= 1 whose shifted
    sentinel ``x_R + n*delta`` brings the exterior indicator below
    ``mu*e0``; if no multiple up to floor(d_max/delta) succeeds the cap
    ``d_max`` itself is the displacement (defined behavior, not an error).
    """
    if e is None or e0 is None or not e > (bound := cfg.mu * e0):
        return 0.0
    split, delta = state.split_point(axis), cfg.delta
    for n in range(1, cfg._candidates + 1):
        shifted = state.exterior(split + n * delta, axis)
        if shifted is not None and shifted < bound:
            return n * delta
    return cfg.d_max


def _step_count(t_final: float, dt: float) -> int:
    for name, value in (("dt", dt), ("t_final", t_final)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    steps = t_final / dt + 1e-9
    if not math.isfinite(steps):
        raise ValueError(f"t_final / dt overflows: t_final={t_final}, dt={dt}")
    return int(math.floor(steps))


def run_frames(evolver, initial: FrameState, cfg: AdaptConfig, dt: float, t_final: float, mode=MODE_NONE,
               reference=None) -> tuple[list[ExperimentRecord], FrameState]:
    """The one driver: evolve, optionally move, optionally scale, record; returns (history, final state).

    ``mode`` is one of ``MODE_NONE``, ``MODE_SCALE``, ``MODE_MOVE`` and
    ``MODE_MOVE_SCALE``; any other value raises ValueError before the first
    step.  ``initial`` is a :class:`FrameState` of one or two axes, and the
    controllers act on one axis at a time.  Every moving distance is taken
    from the same evolved state, so no move changes another axis's
    distance; the scaling ladders run one axis after another (x first),
    each with the other axes held fixed.  Each record is read from the
    state (:func:`_record`): the standard columns carry axis 0, and a
    two-axis run exports axis 1 through the extras ``beta_y, freq_y,
    ext_y, yL``.  ``t_final < dt`` yields exactly the initial record.

    Per axis, ``f0``/``e0`` start from the initial state and ``f0`` is
    refreshed only on ladder acceptances.  ``e0`` is never refreshed.
    Re-anchoring it after a move ratchets the threshold up by a factor
    ``mu`` per move and stalls the tracking of a translating front.
    Re-anchoring it after an accepted rescale lowers the baseline with every
    rung, so a front that widens while it moves keeps firing the mover, and
    the frame runs past the front by several widths.  The indicators use
    the default rules (:func:`~.indicators.default_high_mode_count` and
    :func:`~.indicators.default_split_point`).

    ``evolver(state, t, dt)`` returns a :class:`FrameState` on the frames
    it was given: a step that changes a frame (its order, beta or family),
    an origin or the number of axes raises ValueError.  A failing step or
    reading propagates with its time attached.

    The recorded error is the interpolant's relative L2(dx) error against
    ``reference(*x, t)`` over a doubled-order rule (:meth:`FrameState.error`).
    The library calls every reference on open grids, as
    ``np.meshgrid(xs, ys, indexing="ij", sparse=True)`` gives them: on one
    axis the points themselves, on two ``x`` as a (len(xs), 1) column and
    ``y`` as a (1, len(ys)) row, over the node grid (Nx+1, Ny+1) when
    sampling and over the doubled-order grid when recording the error.  The result must broadcast to the grid
    shape, or ValueError names that shape.  Any elementwise numpy
    expression qualifies, and a separable one costs len(xs) + len(ys)
    evaluations instead of len(xs)*len(ys).

    A Hermite axis (``frame_state_from(..., family=HERMITE)``) is scaled
    only: it has no sentinel point, so its exterior reading is None on
    every record and its mover never fires.  ``MODE_MOVE`` alone is
    unsupported on fronts that widen: the origin runs past the front (see
    ``MODE_MOVE``); use ``MODE_MOVE_SCALE`` there.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {', '.join(_MODES)}")
    moving, scaling = mode in (MODE_MOVE, MODE_MOVE_SCALE), mode in (MODE_SCALE, MODE_MOVE_SCALE)
    state = initial
    axes = range(len(state.frames))
    try:
        f0 = list(state._frequencies)
        e0 = [state._reading(axis) for axis in axes]
        records = [_record(state, reference, 0.0)]
    except ValueError as exc:
        _name_time(exc, "controller reading", 0.0)
        raise
    for n in range(_step_count(t_final, dt)):
        t_prev, t = n * dt, (n + 1) * dt
        frames, lefts = state.frames, state.lefts
        try:
            state = evolver(state, t_prev, dt)
        except Exception as exc:
            _name_time(exc, "evolution step", t_prev)
            raise
        if state.frames != frames or state.lefts != lefts:
            raise ValueError(
                f"the evolution step at t = {_format_field(t_prev)} changed a frame or an "
                "origin; the evolver must keep the frames it was given"
            )
        try:
            if moving:
                evolved = state
                for axis in axes:
                    distance = _moving_distance(evolved, axis, evolved._reading(axis), e0[axis], cfg)
                    if distance > 0.0:
                        state = state.moved(distance, axis)
            if scaling:
                for axis in axes:
                    state, f0[axis], _ = _scaling_ladder(state, axis, state._frequencies[axis], f0[axis], cfg)
            records.append(_record(state, reference, t))
        except ValueError as exc:
            _name_time(exc, "controller reading", t)
            raise
    return records, state


run_2d = run_frames


def _record(state, reference, t: float) -> ExperimentRecord:
    """The record at ``t``: the standard columns read on axis 0, the extras ``beta_y, freq_y, ext_y, yL`` on axis 1."""
    error = None if reference is None else state.error(reference, t)
    beta, freq, ext, x_left = _readings(state, 0)
    extras = dict(zip(("beta_y", "freq_y", "ext_y", "yL"), _readings(state, 1))) if len(state.frames) > 1 else {}
    return ExperimentRecord(t, beta, x_left, error, freq, ext, extras)


def _readings(state, axis: int) -> tuple:
    """(beta, frequency, exterior at the split, origin) of ``axis``."""
    return state.frames[axis].beta, state._frequencies[axis], state._reading(axis), state.lefts[axis]


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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _memoized:
    """A read-once attribute: the first read stores the value in the instance ``__dict__``.

    Like :func:`functools.cached_property` without its lock (Python <= 3.11
    takes an ``RLock`` on every first read).  It defines no ``__set__``, so
    the stored value shadows it, and it writes past a frozen class's
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


# The longest unit shift that :func:`_shift` applies in one product.
_PIECE = 16.0

# The rows of the block in which :meth:`_UnitFrame.dpsi` halves its input.
_ROWS = 32


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
    every psi_l has norm 1 in y.  The build runs one recurrence pass
    (:func:`~.basis._unit_pass`), which gives the basis at the nodes
    (``psi``), the refined nodes (``psi_refined``) and, Laguerre only, the
    nodes shifted by s* = round(split, 12) (``psi_split``), and stores the
    order's Gauss rule and the refined one, whose arrays this object then
    reads from the store (:func:`~.basis._unit_rule`).  A Laguerre order
    also holds ``pair``, G at shift 0 stacked on G at s*, (2(N+1), N+1),
    from that pass.  A Hermite order has no split, no ``psi_split``, no
    pair (None) and no shifted entries.  It also holds the constants every
    reading of its states uses: ``size`` (N+1), ``high_start`` (N+1-M, the
    first of the M = :func:`~.indicators.default_high_mode_count` high
    modes), ``split_shift`` (s*) and ``split_decay`` (exp(-s*/2)), the last
    two None on a Hermite order.

    The shifted and rescaled entries (:meth:`psi_at`, :meth:`dpsi_at`,
    :meth:`psi_on`) take a unit key, rounded to 12 decimals by the caller,
    and are stored under it beside the order, so offsets that differ only
    by the rounding of origin arithmetic share one entry, and every ladder
    rung shares the entry of the ratio 1/q.
    """

    def __init__(self, order: int, family: str):
        self.basis = ScaledBasis(family, 1.0, order)
        nodes = _unit_nodes(family, order)
        if family == LAGUERRE and 0.5 * nodes[-1] > _LOG_TINY:
            raise ValueError(f"frame order {order} exceeds the damped basis ceiling of 363")
        self.split = default_split_point(order, nodes) if family == LAGUERRE else None
        self.size = order + 1
        self.high_start = order + 1 - default_high_mode_count(order)
        self.split_shift = shift = None if self.split is None else round(self.split, 12)
        self.split_decay = None if shift is None else math.exp(-0.5 * shift)
        self.psi, self.psi_refined, self.psi_split = _unit_pass(family, order, nodes, shift)
        self.nodes, self.weights, self.mod_weights = _unit_rule(family, order)
        # the refined rule's weights for plain dy, so that the error is an L2(dx) norm on both families
        self.refined_nodes, _, self.refined_weights = _unit_rule(family, 2 * order + 1)
        self.tomodal = self.psi * self.mod_weights
        # written in place, column-major, so each write is a contiguous row of G's transpose
        self.pair = None
        if shift is not None:
            self.pair = pair = np.empty((2 * order + 2, order + 1), order="F")
            self.dpsi(self.psi, out=pair[: order + 1])
            self.dpsi(self.psi_split, out=pair[order + 1 :])

    @_memoized
    def frequency_floor(self) -> float:
        """The largest frequency reading of a psi_l (l <= N-m) at the nodes, whose exact tail is zero."""
        k = self.high_start
        squares = (self.tomodal @ self.psi[:k].T) ** 2
        return float(np.sqrt(squares[k:].sum(axis=0) / squares.sum(axis=0)).max())

    def psi_at(self, s: float) -> np.ndarray:
        """The damped functions at the unit nodes shifted by the unit key ``s``, (N+1, N+1).

        A move by d at beta reads ``s = round(beta*d, 12)``.  A miss shifts
        ``psi`` by ``s`` (:func:`_shift`), with no basis evaluation.  A
        Hermite order and a negative ``s`` raise ValueError.
        """
        if self.split is None:
            raise ValueError("only a Laguerre frame has a shifted basis")
        return _stored(("psi_at", LAGUERRE, self.basis.order, s), _shift, self.psi, s)

    def psi_on(self, ratio: float) -> np.ndarray:
        """The damped functions at the unit nodes times the unit key ``ratio``, (N+1, N+1).

        A rescale from beta to beta' at one origin reads ``ratio =
        round(beta/beta', 12)``.  A miss evaluates the basis there.
        """
        return _stored(("psi_on", self.basis.family, self.basis.order, ratio), _UnitFrame.psi_rescaled, self, ratio)

    def psi_rescaled(self, ratio: float) -> np.ndarray:
        """The damped functions at the nodes times ``ratio``, evaluated."""
        return eval_weighted_all(self.basis, self.nodes * ratio)

    def dpsi_at(self, s: float) -> np.ndarray:
        """G[k, l] = sqrt(w_k)*(sum_{j<l} psi_j + psi_l/2) at y_k + ``s``, for the unit key ``s``, (N+1, N+1).

        With w the unit weights and d/dy L_l = -sum_{j<l} L_j, the
        derivative of sum_l c_l psi_l there is -beta*(G c)_k/sqrt(w_k).  A
        miss is :meth:`dpsi_shifted`.  A Hermite order and a negative ``s``
        raise ValueError.
        """
        if self.split is None:
            raise ValueError("only a Laguerre frame has a derivative memo")
        return _stored(("dpsi_at", LAGUERRE, self.basis.order, s), _UnitFrame.dpsi_shifted, self, s)

    def dpsi_shifted(self, s: float) -> np.ndarray:
        """G at the nodes shifted by ``s``, from the nearest stored base at or left of s.

        That base is ``psi_split`` from s* on, so the mover's candidates
        s* + beta*n*delta each take one short :func:`_shift`, and
        ``psi`` before it.  No basis evaluation.
        """
        split = self.split_shift
        psi = _shift(self.psi_split, s - split) if s >= split else _shift(self.psi, s)
        return self.dpsi(psi)

    def dpsi(self, psi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """G[k, l] = sqrt(w_k)*(sum_{j<l} psi_j + psi_l/2) from psi[l, k], which is left as it was.

        G is written to ``out`` when given, an (N+1, N+1) array.  The halves
        psi_l/2 are subtracted ``_ROWS`` rows at a time, so the only
        temporary is one block of rows.
        """
        g = np.cumsum(psi, axis=0, out=None if out is None else out.T)
        for row in range(0, psi.shape[0], _ROWS):
            g[row : row + _ROWS] -= 0.5 * psi[row : row + _ROWS]
        g *= np.sqrt(self.weights)
        return g.T


def _unit_frame(order: int, family: str) -> _UnitFrame:
    """The unit frame of ``order`` and ``family`` from the store; orders past the ceiling raise and store nothing."""
    return _stored(("unit", family, order), _UnitFrame, order, family)


class Frame:
    """The nodes of one (order, beta, family) frame.

    beta only places the nodes: a frame holds its Gauss nodes as offsets
    from the basis origin, the nodes of the doubled-order rule its error is
    read on, and its split point (``split_rel``; None for Hermite), O(N)
    in all.  All else is its order's, built once in the unit variable
    y = beta*x and shared by every beta (:class:`_UnitFrame`), and a state
    carries it (see :class:`FrameState`).  The functions are the damped
    Laguerre psi_l = exp(-y/2) L_l(y) (``family`` LAGUERRE, the default)
    or the Hermite h_l(y) (HERMITE, ``hermite_basis`` without its factor
    sqrt(beta)), O(1)-safe in float64.  Instances are shared per (order,
    beta, family).

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
        unit = _unit_frame(order, family)
        self.family = family
        self.order = order
        self.beta = beta
        self.nodes = _read_only(unit.nodes / beta)
        self.split_rel = None if unit.split is None else unit.split / beta
        self.refined_nodes = _read_only(unit.refined_nodes / beta)


def _high_mode_fraction(energy: np.ndarray, total: float, start: int, axis: int) -> float:
    """The frequency indicator along ``axis`` of squared coefficients of positive sum ``total``.

    ``start`` is the axis's first high mode (:attr:`_UnitFrame.high_start`).
    """
    tail = energy[start:] if axis == 0 else energy[:, start:]
    return min(1.0, math.sqrt(np.add.reduce(tail, None) / total))


def _apply(matrix: np.ndarray, array: np.ndarray, axis: int) -> np.ndarray:
    """``matrix`` applied along ``axis`` (0 or 1) of ``array``: the sum over j of matrix[k, j] array[.., j, ..].

    That is ``matrix @ array`` along axis 0 and ``array @ matrix.T`` along
    axis 1; a vector ``matrix`` (weights) removes the axis.  Like every
    product of a state, it is written in method form, ``matrix.dot(array)``:
    that runs the same BLAS routine on the same operands as ``@`` and
    :func:`numpy.dot`, bit for bit, but skips the Python-level
    array-function dispatch that numpy 2 runs on every call of the
    function :func:`numpy.dot` (about 0.2 us), and ``@``'s ufunc set-up.
    """
    return matrix.dot(array) if axis == 0 else array.dot(matrix.T)


def _on_grid(reference, points: Sequence[np.ndarray], shape: tuple, t: float, name: str) -> np.ndarray:
    """``reference`` on the tensor grid of ``points`` (one array per axis), broadcast to ``shape``.

    It is called once, on open grids: with one axis on the points, with two
    on an (n0, 1) column and a (1, n1) row.  A result that does not
    broadcast raises ValueError naming the ``name`` shape.
    """
    if len(points) == 2:
        points = (points[0][:, None], points[1][None, :])
    values = np.asarray(reference(*points, t), dtype=float)
    if values.shape == shape:
        return values
    try:
        return np.broadcast_to(values, shape)
    except ValueError:
        raise ValueError(
            f"reference returned shape {values.shape}, which does not broadcast "
            f"to the {name} shape {shape}"
        ) from None


class FrameState:
    """Nodal values on the tensor grid of one frame and one origin per axis.

    ``frames`` and ``lefts`` are tuples with one entry per axis (one or
    two); ``frame`` and ``x_left`` are axis 0's.  ``FrameState(frame,
    values, x_left)`` builds a one-axis state, and ``FrameState(frames,
    values, lefts)`` one of either size.  ``values`` is stored as a
    read-only float copy of shape (order+1, ...) over the axes; the
    caller's array is left as it was.  A non-finite origin raises
    ValueError, naming its axis.

    Every reading and operation is written once and takes the ``axis`` it
    applies to (axis 0 by default): :meth:`frequency`, :meth:`split_point`,
    :meth:`exterior`, :meth:`moved` and :meth:`rescaled`.
    Every reading comes from the state's coefficients and its orders' unit
    operators, so the same unit-variable values read alike at every beta;
    beta only places the points that a reference or an off-split exterior
    reading needs.  The state carries those operators, ``units``, one
    :class:`_UnitFrame` per axis: the constructor looks them up in the
    store, and a moved, rescaled or resampled state
    (:func:`frame_resample_evolver`) takes them over, so a run looks them up
    only when it builds a frame and an evicted order lives on in its states.

    The exterior indicator of an axis is that of its marginal values, the
    values integrated over every other axis with its unit weights (on one
    axis, the values themselves): the readings of a one-axis state on those
    values, though no such state is built.

    What the readings derive from the values is computed at most once, on
    first use, and kept for the state's lifetime: the coefficients (the
    tensor transform, read-only), the frequency readings of every axis
    (from one energy matrix c^2) and, per axis, the exterior set-up
    (:meth:`_set_up`).  The set-up is the coefficients c of the axis's
    marginal values (on one axis the state's own) and one product with the
    order's stacked pair, which gives both the exterior indicator's
    denominator and its reading at :meth:`split_point`.  So the mover's
    search over n*delta pays for the denominator once, and each candidate
    only for its own shifted numerator; the per-step record re-reads the
    controllers' readings for free.  A moved or rescaled state is a new
    state with an empty memo.
    """

    def __init__(self, frames, values, lefts=0.0):
        if isinstance(frames, Frame):
            frames, lefts = (frames,), (lefts,)
        else:
            frames, lefts = tuple(frames), tuple(lefts)
            if not 1 <= len(frames) == len(lefts) <= 2:
                raise ValueError(
                    f"a frame state has one or two axes, each with an origin: got {len(frames)} "
                    f"frames and {len(lefts)} origins"
                )
        values = np.array(values, dtype=float)
        units, shape = (), ()
        for frame in frames:
            unit = _unit_frame(frame.order, frame.family)
            units, shape = units + (unit,), shape + (unit.size,)
        if values.shape != shape:
            raise ValueError(f"values shape {values.shape} != {shape}")
        if not all(map(math.isfinite, lefts)):
            axis = [math.isfinite(left) for left in lefts].index(False)
            raise ValueError(f"the origin of axis {axis} must be finite, got {lefts[axis]}")
        self._set(frames, values, lefts, units)

    def _set(self, frames: tuple, values: np.ndarray, lefts: tuple, units: tuple) -> None:
        """Store checked fields; ``values`` is an array the state owns, made read-only here."""
        values.setflags(write=False)
        attributes = self.__dict__
        attributes["frames"], attributes["lefts"], attributes["units"] = frames, lefts, units
        attributes["values"], attributes["frame"], attributes["x_left"] = values, frames[0], lefts[0]
        attributes["_exteriors"] = [None] * len(frames)  # per axis, its exterior set-up once read

    @classmethod
    def _of(cls, frames: tuple, values: np.ndarray, lefts: tuple, units: tuple) -> "FrameState":
        """A state on a fresh array of the library's own (a move, a rescale, a resampling): no check, no copy."""
        state = object.__new__(cls)
        state._set(frames, values, lefts, units)
        return state

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @_memoized
    def _coeffs(self) -> np.ndarray:
        coeffs = self.units[0].tomodal.dot(self.values)
        for unit in self.units[1:]:
            coeffs = _apply(unit.tomodal, coeffs, 1)
        coeffs.setflags(write=False)
        return coeffs

    @_memoized
    def _frequencies(self) -> list:
        """The frequency reading of every axis, from one energy matrix and its one total; None for zero energy."""
        coeffs = self._coeffs
        energy = coeffs * coeffs
        # the sums are ``x.sum()``, called as the reduction that method wraps in Python
        total = float(np.add.reduce(energy, None))
        if not math.isfinite(total):
            raise ValueError(f"state energy is {total}: the values are not all finite")
        if total <= 0.0:
            return [None] * len(self.units)
        readings = []
        for axis, unit in enumerate(self.units):
            readings.append(_high_mode_fraction(energy, total, unit.high_start, axis))
        return readings

    def _set_up(self, axis: int) -> tuple:
        """The exterior set-up of ``axis``, stored as its entry of ``_exteriors``; a Hermite axis raises.

        It is (c, |G(0) c|, exp(-s*/2)*|G(s*) c|/|G(0) c|), s* = round(unit
        split, 12), with c the coefficients the axis's readings use: the
        state's own on one axis, those of :meth:`_marginal_values` on two.
        """
        unit = self.units[axis]
        if unit.pair is None:
            raise ValueError("only a Laguerre frame has an exterior indicator")
        coeffs = self._coeffs if len(self.frames) == 1 else _read_only(unit.tomodal.dot(self._marginal_values(axis)))
        g = unit.pair.dot(coeffs)
        whole, tail = g[: unit.size], g[unit.size :]
        denominator = math.sqrt(whole.dot(whole))
        reading = None if denominator <= 0.0 else unit.split_decay * (math.sqrt(tail.dot(tail)) / denominator)
        setup = self._exteriors[axis] = coeffs, denominator, reading
        return setup

    @property
    def beta(self) -> float:
        return self.frame.beta

    def nodes(self, axis: int = 0) -> np.ndarray:
        """Physical node locations along ``axis``."""
        return self.lefts[axis] + self.frames[axis].nodes

    def frequency(self, axis: int = 0) -> float | None:
        return self._frequencies[axis]

    def split_point(self, axis: int = 0) -> float | None:
        """The sentinel point of ``axis``; None for a Hermite axis."""
        split = self.frames[axis].split_rel
        return None if split is None else self.lefts[axis] + split

    def _reading(self, axis: int) -> float | None:
        """``exterior(split_point(axis), axis)``, the reading the axis's set-up holds, without the dispatch."""
        if self.frames[axis].split_rel is None:
            return None
        return (self._exteriors[axis] or self._set_up(axis))[2]

    def _marginal_values(self, axis: int) -> np.ndarray:
        """The values of a two-axis state integrated over the other axis with its unit weights."""
        other = 1 - axis
        return _apply(self.units[other].mod_weights, self.values, other)

    def exterior(self, split: float | None, axis: int = 0) -> float | None:
        """The exterior indicator of ``axis`` at ``split``, from the axis's set-up; None for Hermite.

        A Hermite axis has no split point, and any other split raises
        ValueError.  Off the axis's own split the derivative's tail ratio is
        exp(-beta*offset/2)*|G c|/|G(0) c| with G = dpsi_at(offset), in which
        the derivative's factors beta cancel.
        """
        if split is None:
            return None
        coeffs, denominator, reading = self._exteriors[axis] or self._set_up(axis)
        frame, left = self.frames[axis], self.lefts[axis]
        if split == left + frame.split_rel:  # split_point(axis)'s own form: the readings' bits depend on it
            return reading
        if denominator <= 0.0:
            return None
        offset = float(split - left)
        g = self.units[axis].dpsi_at(round(frame.beta * offset, 12)).dot(coeffs)
        return math.exp(-0.5 * frame.beta * offset) * (math.sqrt(g.dot(g)) / denominator)

    def moved(self, distance: float, axis: int = 0) -> "FrameState":
        """The state on the frame whose origin along ``axis`` is ``distance`` to the right.

        ValueError for a negative or non-finite distance, and for any move
        along a Hermite axis.
        """
        frame = self.frames[axis]
        if frame.family != LAGUERRE:
            raise ValueError("only a Laguerre frame has a movable origin")
        if not (math.isfinite(distance) and distance >= 0.0):
            raise ValueError(f"move distance must be finite and nonnegative, got {distance}")
        psi = self.units[axis].psi_at(round(frame.beta * float(distance), 12))
        return self._resampled(axis, frame, psi, self.lefts[axis] + distance)

    def rescaled(self, beta: float, axis: int = 0) -> "FrameState":
        """The state on the frame of ``axis`` with scaling factor ``beta``."""
        frame = self.frames[axis]
        new_frame = Frame(frame.order, beta, frame.family)
        psi = self.units[axis].psi_on(round(frame.beta / new_frame.beta, 12))
        return self._resampled(axis, new_frame, psi, self.lefts[axis])

    def _resampled(self, axis: int, frame: Frame, psi: np.ndarray, left: float) -> "FrameState":
        """The state with ``frame`` at ``left`` on ``axis``: that axis's coefficients against ``psi``."""
        if len(self.frames) == 1:  # the partial transform is the whole one, which the state keeps
            return self._of((frame,), self._coeffs.dot(psi), (left,), self.units)
        partial = _apply(self.units[axis].tomodal, self.values, axis)
        frames, lefts = list(self.frames), list(self.lefts)
        frames[axis], lefts[axis] = frame, left
        return self._of(tuple(frames), _apply(psi.T, partial, axis), tuple(lefts), self.units)

    def error(self, reference, t: float) -> float:
        """Relative L2(dx) error against ``reference(*x, t)`` on the doubled-order grid.

        The interpolant and the reference meet at the refined nodes of
        every axis, weighted by the refined rule's weights for plain dx
        (:func:`~.basis.modified_weights`), on a Laguerre axis as on a
        Hermite one.  ``reference`` is called once, on open grids (see
        :func:`run_frames`), and its result is broadcast to the grid shape.
        The unit weights' missing factors 1/beta cancel in the ratio; a zero
        reference gives the absolute L2 norm in x.  ValueError if a sum is
        not finite.
        """
        diff, points = self._coeffs, []
        for axis, unit in enumerate(self.units):
            diff = _apply(unit.psi_refined.T, diff, axis)
            points.append(self.lefts[axis] + self.frames[axis].refined_nodes)
        exact = _on_grid(reference, points, diff.shape, t, "refined-node grid")
        diff -= exact
        numerator, denominator = diff * diff, exact * exact
        for unit in self.units:
            weights = unit.refined_weights
            numerator, denominator = weights.dot(numerator), weights.dot(denominator)
        numerator, denominator = float(numerator), float(denominator)
        if not (math.isfinite(numerator) and math.isfinite(denominator)):
            raise ValueError(
                f"error sums are not finite (numerator {numerator}, denominator {denominator}): "
                "the reference or the state is not finite at a refined node"
            )
        if denominator <= 0.0:
            denominator = math.prod([frame.beta for frame in self.frames])
        return math.sqrt(numerator / denominator)


class FrameState2D(FrameState):
    """A two-axis :class:`FrameState` under the per-axis names the benchmark reads.

    It adds the five-argument constructor, ``frame_x``/``frame_y``,
    ``y_left``, :meth:`nodes_x`/:meth:`nodes_y` and one-line aliases of the
    generic readings and operations (``error`` is the generic method
    itself).  It overrides none of the generic methods, so a wrapper on one
    of them also sees every 2-d call, and it runs through the same
    :func:`run_frames` and :func:`frame_resample_evolver` as any state.  The
    aliases and this class go once the benchmark reads the generic names.
    """

    def __init__(self, frame_x: Frame, frame_y: Frame, values, x_left: float = 0.0, y_left: float = 0.0):
        super().__init__((frame_x, frame_y), values, (x_left, y_left))

    frame_x = property(lambda self: self.frames[0])
    frame_y = property(lambda self: self.frames[1])
    y_left = property(lambda self: self.lefts[1])
    error = FrameState.error

    def nodes_x(self) -> np.ndarray: return self.nodes(0)
    def nodes_y(self) -> np.ndarray: return self.nodes(1)
    def frequency_x(self) -> float | None: return self.frequency(0)
    def frequency_y(self) -> float | None: return self.frequency(1)
    def exterior_x(self, split: float | None) -> float | None: return self.exterior(split, 0)
    def exterior_y(self, split: float | None) -> float | None: return self.exterior(split, 1)
    def moved_x(self, distance: float) -> "FrameState2D": return self.moved(distance, 0)
    def moved_y(self, distance: float) -> "FrameState2D": return self.moved(distance, 1)
    def rescaled_x(self, beta: float) -> "FrameState2D": return self.rescaled(beta, 0)
    def rescaled_y(self, beta: float) -> "FrameState2D": return self.rescaled(beta, 1)


def frame_state_from(
    reference, order: int, beta: float, x_left: float = 0.0, t: float = 0.0, family: str = LAGUERRE
) -> FrameState:
    """Sample ``reference(x, t)`` at the nodes of the ``family`` frame.

    The result is broadcast to the node grid's shape, (order+1,), or
    ValueError names that shape (see :func:`run_frames`).
    """
    frame = Frame(order, beta, family)
    values = _on_grid(reference, (x_left + frame.nodes,), (frame.order + 1,), t, "grid")
    return FrameState(frame, values, x_left)


def frame_resample_evolver(reference) -> Callable:
    """Tracking evolver for frame states of one or two axes: resample the reference on the node grid.

    ``reference`` is called on open grids (see :func:`run_frames`).  The
    next state is of the input's class, on its frames, origins and unit
    operators, and holds a read-only copy of the samples.
    """

    def evolve(state: FrameState, t: float, dt: float) -> FrameState:
        points = [state.nodes(axis) for axis in range(len(state.frames))]
        values = _on_grid(reference, points, state.values.shape, t + dt, "grid")
        return state._of(state.frames, np.array(values, dtype=float), state.lefts, state.units)

    return evolve


def frame_state_2d_from(
    reference, order_x: int, beta_x: float, order_y: int, beta_y: float,
    x_left: float = 0.0, y_left: float = 0.0, t: float = 0.0,
    family_x: str = LAGUERRE, family_y: str = LAGUERRE,
) -> FrameState2D:
    """Sample ``reference(x, y, t)`` on the tensor node grid of a ``family_x`` by ``family_y`` frame pair.

    ``reference`` is called on open grids (see :func:`run_frames`): an
    (order_x+1, 1) column of x nodes and a (1, order_y+1) row of y nodes.
    """
    frame_x = Frame(order_x, beta_x, family_x)
    frame_y = Frame(order_y, beta_y, family_y)
    values = _on_grid(reference, (x_left + frame_x.nodes, y_left + frame_y.nodes), (order_x + 1, order_y + 1), t, "grid")
    return FrameState2D(frame_x, frame_y, values, x_left, y_left)
