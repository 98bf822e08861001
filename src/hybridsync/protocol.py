"""Synchronization messaging configs and offset/delay estimators.

Three schemes are modeled.  A two-way exchange collects the classic four
timestamps (t1 sent, t2 received, t3 reply sent, t4 reply received) and
estimates path delay as ``(t2 - t1 + t4 - t3) / 2`` and the slave offset as
``t2 - t1`` minus that delay.  An FTM-style burst repeats the exchange
back to back and averages over its positions.  A one-way beacon carries only
t1/t2 and subtracts a pre-calibrated path delay, so any uncalibrated
propagation shows up fully as offset bias.

Ethernet ports quantize both egress and ingress timestamps onto their
sampling grid; wireless ports quantize only ingress (receive) timestamps,
since transmissions launch on the modem's own grid.  Ports that read their
PHC across a clock domain boundary add the translation error of that stage.
The simulator's exchange kernel stamps and estimates inline; the estimators
here state the same arithmetic on one ``SyncSample``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

__all__ = [
    "ProtocolConfig",
    "PROTOCOL_PRESETS",
    "SCHEME_FTM_BURST",
    "SCHEME_ONE_WAY",
    "SCHEME_TWO_WAY",
    "SyncSample",
    "UnsupportedSchemeError",
    "estimate_offset",
    "estimate_path_delay",
]

SCHEME_TWO_WAY = "two_way"
SCHEME_ONE_WAY = "one_way"
SCHEME_FTM_BURST = "ftm_burst"
_SCHEMES = (SCHEME_TWO_WAY, SCHEME_ONE_WAY, SCHEME_FTM_BURST)


class UnsupportedSchemeError(ValueError):
    """Raised when an estimator is asked for something its scheme lacks."""


def refuse_non_reals(config) -> None:
    """Refuse a float field holding a string, a bool, or a None it does not allow."""
    for f in fields(config):
        value = getattr(config, f.name)
        if (f.type == "float" or f.type == "float | None" and value is not None) and (
                not isinstance(value, Real) or isinstance(value, bool)):
            raise ValueError(f"{f.name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class SyncSample:
    """Timestamps gathered by one exchange; reply fields are None one-way."""

    t1_ns: float
    t2_ns: float
    t3_ns: float | None
    t4_ns: float | None
    scheme: str = SCHEME_TWO_WAY


@dataclass(frozen=True)
class ProtocolConfig:
    """Messaging scheme, cadence and servo gains for one sync hop.

    Gains outside the PI loop's stable region ``0 < kp < 2``, ``ki > 0``,
    ``2*kp + ki < 4`` (Jury's test) are refused, except ``ki = 0``: its pole at
    z = 1 is marginal, not divergent, and the loop corrects no frequency error.
    """

    scheme: str = SCHEME_TWO_WAY
    sync_period_s: float = 1.0
    burst_length: int = 1
    calibrated_delay_ns: float = 0.0
    kp: float = 0.7
    ki: float = 0.3

    def __post_init__(self):
        refuse_non_reals(self)
        if self.scheme not in _SCHEMES:
            raise UnsupportedSchemeError(f"unknown scheme {self.scheme!r}")
        if not (math.isfinite(self.sync_period_s) and self.sync_period_s >= 1e-12):
            raise ValueError(f"sync_period_s must be finite and at least 1 ps, "
                             f"got {self.sync_period_s!r}")
        if not math.isfinite(self.calibrated_delay_ns):
            raise ValueError(f"calibrated_delay_ns must be finite, "
                             f"got {self.calibrated_delay_ns!r}")
        if (not isinstance(self.burst_length, Integral) or isinstance(self.burst_length, bool)
                or self.burst_length < 1):
            raise ValueError(f"burst_length must be an integer >= 1, got {self.burst_length!r}")
        for rule, holds in (("0 < kp < 2", 0 < self.kp < 2), ("ki >= 0", self.ki >= 0),
                            ("2*kp + ki < 4", 2 * self.kp + self.ki < 4)):
            if not holds:
                raise ValueError(f"servo gains kp={self.kp!r}, ki={self.ki!r} are outside "
                                 f"the stable region: need {rule}")


PROTOCOL_PRESETS = {
    "wired-ptp": ProtocolConfig(SCHEME_TWO_WAY, sync_period_s=1.0, kp=0.7, ki=0.3),
    "80211-ptp": ProtocolConfig(SCHEME_TWO_WAY, sync_period_s=0.125, kp=0.7, ki=0.3),
    "wsharp-beacon": ProtocolConfig(SCHEME_ONE_WAY, sync_period_s=500e-6, kp=0.1, ki=0.01),
}


def _check_sample(sample: SyncSample, need_reply: bool) -> None:
    values = [sample.t1_ns, sample.t2_ns]
    if need_reply:
        if sample.t3_ns is None or sample.t4_ns is None:
            raise UnsupportedSchemeError("scheme carries no reply timestamps")
        values += [sample.t3_ns, sample.t4_ns]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("timestamps must be finite")


def estimate_path_delay(sample: SyncSample) -> float:
    """Round-trip symmetric path delay estimate; needs reply timestamps."""
    _check_sample(sample, need_reply=True)
    return (sample.t2_ns - sample.t1_ns + sample.t4_ns - sample.t3_ns) / 2.0


def estimate_offset(sample: SyncSample, config: ProtocolConfig) -> float:
    """Slave-minus-master clock offset estimate for the sample's scheme."""
    if sample.scheme in (SCHEME_TWO_WAY, SCHEME_FTM_BURST):
        return sample.t2_ns - sample.t1_ns - estimate_path_delay(sample)
    if sample.scheme == SCHEME_ONE_WAY:
        _check_sample(sample, need_reply=False)
        return sample.t2_ns - sample.t1_ns - config.calibrated_delay_ns
    raise UnsupportedSchemeError(f"unknown scheme {sample.scheme!r}")
