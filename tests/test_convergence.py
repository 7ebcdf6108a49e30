"""Spectral convergence in N as a tested contract.

The paper's methods "demonstrate recovery of spectral convergence": with
the controllers on, the recorded error falls geometrically with the order
N until it reaches round-off, where a fixed frame converges slowly.  Every
run here uses the library's resampling evolver, the default
:class:`AdaptConfig` and the profile itself as reference, and each figure
is the largest recorded error over the run.  Measured (one BLAS thread,
numpy 2.4):

============================================  =======  =======  =======  =======  =======  =======
profile; mode, beta0, dt, T                   N=16     24       32       48       64       96
============================================  =======  =======  =======  =======  =======  =======
logistic, centre 5, width 2+t; scale, 2.5,    2.4e-6   5.4e-8   1.3e-9   1.8e-12  7.5e-14  6.9e-14
0.04, 12 (``none``: 3.0e-3 at N=32)
Hermite, exp(-x^2/(4(t+1/4))); scale, 1.0,    3.2e-5   3.7e-7   4.9e-9   2.8e-12  1.2e-12  6.1e-13
0.04, 8 (``none``: 7.1e-2 at N=32)
logistic, centre 5+5t, width 2+t/2;           2.4e-6   4.5e-8   1.4e-9   4.1e-12  7.5e-14  8.9e-14
move-scale, 2.5, 0.004, 4 (``none``: 7.2e-5)
the last times the first, in y; ``run_2d``    3.4e-6   6.0e-8   1.7e-9   4.4e-12  1.1e-13
move-scale, 2.5, 0.004, 4 (``none``: 8.0e-5)
============================================  =======  =======  =======  =======  =======  =======

Above round-off each step of the orders divides the error by 33 to 1729,
and at N=32 the adapted error is 4.8e4 to 1.5e7 times smaller than that of
``none``.  The bounds below keep a margin of 4 or more on each figure.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import expit

from specadapt.adapt import (
    MODE_MOVE_SCALE,
    MODE_NONE,
    MODE_SCALE,
    AdaptConfig,
    frame_resample_evolver,
    frame_resample_evolver_2d,
    frame_state_2d_from,
    frame_state_from,
    run_2d,
    run_frames,
)
from specadapt.basis import HERMITE, LAGUERRE

ORDERS = (16, 24, 32, 48, 64, 96)
ORDERS_2D = ORDERS[:-1]
# the least factor by which each step of the orders divides an error above FLOOR
FACTOR = 8.0
# round-off: every error from N=64 on lies below it
FLOOR = 1e-11
# at N=32, the adapted error is at least RATIO times smaller than that of MODE_NONE
RATIO = 1e3


def spreading(x, t):
    return expit(-(np.asarray(x, dtype=float) - 5.0) / (2.0 + t))


def widening_gauss(x, t):
    x = np.asarray(x, dtype=float)
    return np.exp(-x * x / (4.0 * (t + 0.25)))


def travelling(x, t):
    return expit(-(np.asarray(x, dtype=float) - 5.0 - 5.0 * t) / (2.0 + 0.5 * t))


def product(x, y, t):
    return travelling(x, t) * spreading(y, t)


# name -> (profile, adapted mode, family, beta0, dt, T)
ROWS = {
    "spreading-scale": (spreading, MODE_SCALE, LAGUERRE, 2.5, 0.04, 12.0),
    "hermite-scale": (widening_gauss, MODE_SCALE, HERMITE, 1.0, 0.04, 8.0),
    "travelling-move-scale": (travelling, MODE_MOVE_SCALE, LAGUERRE, 2.5, 0.004, 4.0),
}


def _max_error(name: str, order: int, mode: str) -> float:
    profile, _, family, beta, dt, t_final = ROWS[name]
    initial = frame_state_from(profile, order, beta, family=family)
    records, _ = run_frames(frame_resample_evolver(profile), initial, AdaptConfig(), dt, t_final, mode, reference=profile)
    return max(record.error for record in records)


def _max_error_2d(order: int, mode: str) -> float:
    initial = frame_state_2d_from(product, order, 2.5, order, 2.5)
    records, _ = run_2d(frame_resample_evolver_2d(product), initial, AdaptConfig(), 0.004, 4.0, mode, reference=product)
    return max(record.error for record in records)


def _assert_spectral(orders, errors) -> None:
    """Each step of ``orders`` divides the error by FACTOR, or lands below FLOOR; from N=64 on it is below FLOOR."""
    for (n0, e0), (n1, e1) in zip(zip(orders, errors), zip(orders[1:], errors[1:])):
        assert e1 <= max(e0 / FACTOR, FLOOR), f"N={n0} -> {n1}: {e0:.3g} -> {e1:.3g}"
    assert all(e <= FLOOR for n, e in zip(orders, errors) if n >= 64), errors


@pytest.mark.parametrize("name", list(ROWS))
def test_adapted_error_converges_spectrally_in_the_order(name):
    mode = ROWS[name][1]
    _assert_spectral(ORDERS, [_max_error(name, order, mode) for order in ORDERS])


@pytest.mark.parametrize("name", list(ROWS))
def test_adapted_error_beats_a_fixed_frame_at_order_32(name):
    adapted, fixed = (_max_error(name, 32, mode) for mode in (ROWS[name][1], MODE_NONE))
    assert adapted * RATIO <= fixed, (adapted, fixed)


def test_2d_product_converges_spectrally_and_beats_a_fixed_frame():
    errors = [_max_error_2d(order, MODE_MOVE_SCALE) for order in ORDERS_2D]
    _assert_spectral(ORDERS_2D, errors)
    assert errors[ORDERS_2D.index(32)] * RATIO <= _max_error_2d(32, MODE_NONE)
