"""Clock domain crossing (CDC) between two digital clock domains.

A counter kept in a source domain with period ``T_src`` is sampled by a
destination domain with period ``T_dst``.  The destination can only latch the
most recent completed source tick, which makes the raw reading late by up to
one source period.  Adding half a source period recentres the error so the
translated reading deviates from the instantaneous counter by at most
``T_src / 2`` in either direction.  A synchronizer ratio of at least four
destination ticks per source tick keeps the latch metastability-safe.

Seen in continuous time, the error of a reading at true time ``t`` depends
only on where the destination's sampling train sits within the source
period: ``T_src/2 - (u mod T_src)``, with ``u = t * rate + phase`` the
reading instant mapped through the relative drift and initial phase of the
two oscillators.  A relative drift lets that phase slide slowly, as it does
between asynchronous oscillators.  ``cdc_read_error`` states this law; the
simulator evaluates it once per hop over every stamp of every exchange.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import POSITIVE, refuse_bad_fields

__all__ = [
    "CdcConfig",
    "CdcFeasibilityError",
    "cdc_read_error",
    "translate_time",
]

MIN_PERIOD_RATIO = 4.0


class CdcFeasibilityError(ValueError):
    """Raised when the source/destination period ratio is too small."""


@dataclass(frozen=True)
class CdcConfig:
    """Static parameters of one domain crossing.

    ``rho_dst_ppm`` is the fractional frequency error of the destination
    domain relative to the source domain; ``dst_phase`` places the
    destination sampling grid within one destination period.
    """

    t_src_ns: float = 32.0
    t_dst_ns: float = 6.25
    rho_dst_ppm: float = 0.0
    dst_phase: float = 0.0

    def __post_init__(self):
        refuse_bad_fields(self, t_src_ns=(POSITIVE, None), t_dst_ns=(POSITIVE, None),
                          dst_phase=(0.0, 1 - 2 ** -53))  # the float below 1
        if self.t_src_ns < MIN_PERIOD_RATIO * self.t_dst_ns:
            raise CdcFeasibilityError(
                f"t_src_ns must be at least {MIN_PERIOD_RATIO:g} x t_dst_ns "
                f"(got {self.t_src_ns} vs {self.t_dst_ns})"
            )


def translate_time(cdc: CdcConfig, src_time_ns, dst_sample_index):
    """Translate the source counter into the destination domain.

    ``dst_sample_index`` selects the destination sampling instant; the
    corresponding instant on the source timeline is
    ``src_time_ns + (n + dst_phase) * t_dst * (1 + rho_dst * 1e-6)``.
    Returns ``(dst_read_ns, delta_phc_ns)`` where ``delta_phc_ns`` is the
    translation error, bounded by ``t_src_ns / 2`` in magnitude.  Accepts a
    scalar or numpy array sample index.
    """
    n = np.asarray(dst_sample_index, dtype=float)
    instant = src_time_ns + (n + cdc.dst_phase) * cdc.t_dst_ns * (1.0 + cdc.rho_dst_ppm * 1e-6)
    latched = np.floor(instant / cdc.t_src_ns) * cdc.t_src_ns
    read = latched + 0.5 * cdc.t_src_ns
    delta = read - instant
    if np.isscalar(dst_sample_index):
        return float(read), float(delta)
    return read, delta


def cdc_read_error(t, t_src, rate, phase):
    """Error of a PHC read across a clock domain crossing at true time ``t``.

    ``T_src/2 - ((t * rate + phase) mod T_src)`` in ns, for a crossing from a
    ``t_src`` domain whose sampling train runs at relative ``rate`` and starts
    ``phase`` ns into the source period.  Works elementwise on arrays: numpy's
    ``%`` follows Python's sign rule, so each element is bitwise the scalar
    value.
    """
    return 0.5 * t_src - ((t * rate + phase) % t_src)
