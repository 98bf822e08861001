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

Every config of the package checks its fields with ``refuse_bad_fields``: one
rule, stated in ``refuse``, over each field's annotated kind and a per-class
table of ranges.  Checks across fields stay with their configs.
"""

from __future__ import annotations

import math
import sys
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


# The longest time a config may hold, just under 2**62 ps (4.61e6 s).  The
# simulator counts time in int64 picoseconds, and its widest sums add two such
# times: ``sim._before`` adds a period to an instant of the run, and
# ``sim._stamps`` and ``sim._runs`` add whole periods to a hop's first instant,
# up to the run's end plus one period.  Two bounded times sum below 2**63.
MAX_TIME_S = 4.6e6
POSITIVE = math.ulp(0.0)  # the least positive float: as a low bound, "> 0"
_KINDS = {"float": float, "int": int, "bool": bool}


def refuse(name: str, value, kind: type, low=None, high=None, error=ValueError) -> None:
    """Raise ``error`` unless ``value`` is a ``kind`` with ``low <= value <= high``
    (a bound of None is open).  A float is a finite real, an int an ``Integral``
    compared as an int, a bool a bool, and neither number kind takes a bool."""
    at_least = "" if low is None else f" >= {low!r}"
    if kind is bool:
        need, bad = "true or false", not isinstance(value, bool)
    elif kind is int:
        need = "an integer" + at_least
        bad = (isinstance(value, bool) or not isinstance(value, Integral)
               or low is not None and value < low)
    elif isinstance(value, bool) or not isinstance(value, Real):
        need, bad = "a real number", True
    else:  # compared, never converted: an int too large for a float is no finite float
        need = "finite" + (at_least and " and" + at_least)
        bad = not abs(value) <= sys.float_info.max or low is not None and value < low
    if not bad and high is not None and value > high:
        need, bad = f"in {low!r}..{high!r}", True
    if bad:
        raise error(f"{name} must be {need}, got {value!r}")


def refuse_bad_fields(config, error=ValueError, **ranges) -> None:
    """``refuse`` each float, int and bool field of a dataclass, of the kind its
    annotation names, in the ``(low, high)`` range given under its name.  A
    field annotated ``| None`` may also hold None."""
    for f in fields(config):
        kind, _, rest = f.type.partition(" | ")
        value = getattr(config, f.name)
        if kind in _KINDS and (value is not None or rest != "None"):
            refuse(f.name, value, _KINDS[kind], *ranges.get(f.name, (None, None)), error)


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
        refuse_bad_fields(self, sync_period_s=(1e-12, MAX_TIME_S), burst_length=(1, None))
        if self.scheme not in _SCHEMES:
            raise UnsupportedSchemeError(f"unknown scheme {self.scheme!r}")
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
