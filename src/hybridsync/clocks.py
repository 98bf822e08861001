"""Hardware timestamp quantization.

A hardware clock is affine in true time: ``C(t) = t * (1 + rho) + t_o`` with
``rho`` the fractional frequency error and ``t_o`` the time offset.
Hardware timestamping units latch the counter on a fixed sampling grid, so a
timestamp carries a rounding error bounded by half the sampling period.
"""

from __future__ import annotations

import numpy as np

__all__ = ["quantize_value"]


def quantize_value(clock_time_ns, sample_period_ns, phase=0.0):
    """Snap a clock reading to the nearest grid point ``T_s * (n + phase)``.

    The resulting error lies in ``[-T_s/2, +T_s/2)``; exact midpoints take
    the lower grid point, so the error's lower bound is attainable and its
    upper bound is not.  Accepts scalars or numpy arrays.
    """
    x = clock_time_ns / sample_period_ns - phase
    n = np.ceil(x - 0.5)
    return sample_period_ns * (n + phase)
