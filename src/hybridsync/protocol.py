"""Synchronization messaging schemes and offset estimators.

Three schemes are modeled.  A two-way exchange collects the classic four
timestamps (t1 sent, t2 received, t3 reply sent, t4 reply received) and
estimates path delay as ``(t2 - t1 + t4 - t3) / 2`` and the slave offset as
``t2 - t1`` minus that delay.  An FTM-style burst averages the per-position
timestamps of several back-to-back exchanges before estimating.  A one-way
beacon carries only t1/t2 and subtracts a pre-calibrated path delay, so any
uncalibrated propagation shows up fully as offset bias.

Ethernet ports quantize both egress and ingress timestamps onto their
sampling grid; wireless ports quantize only ingress (receive) timestamps,
since transmissions launch on the modem's own grid.  Ports that read their
PHC across a clock domain boundary add the translation error of that stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cdc import CdcStage
from .channel import (
    ChannelRealization,
    LinkGeometry,
    PowerDelayProfile,
    detect_arrival,
    propagation_delay_ns,
)
from .clocks import PhcState, quantize_value

__all__ = [
    "ETHERNET",
    "WIRELESS",
    "LinkPath",
    "PortModel",
    "ProtocolConfig",
    "PROTOCOL_PRESETS",
    "SCHEME_FTM_BURST",
    "SCHEME_ONE_WAY",
    "SCHEME_TWO_WAY",
    "SyncSample",
    "UnsupportedSchemeError",
    "estimate_offset",
    "estimate_path_delay",
    "ftm_burst",
    "one_way_beacon",
    "two_way_exchange",
]

ETHERNET = "ethernet"
WIRELESS = "wireless"

SCHEME_TWO_WAY = "two_way"
SCHEME_ONE_WAY = "one_way"
SCHEME_FTM_BURST = "ftm_burst"
_SCHEMES = (SCHEME_TWO_WAY, SCHEME_ONE_WAY, SCHEME_FTM_BURST)


class UnsupportedSchemeError(ValueError):
    """Raised when an estimator is asked for something its scheme lacks."""


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
    """Messaging scheme, cadence and servo gains for one sync hop."""

    scheme: str = SCHEME_TWO_WAY
    sync_period_s: float = 1.0
    burst_length: int = 1
    calibrated_delay_ns: float = 0.0
    kp: float = 0.7
    ki: float = 0.3

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise UnsupportedSchemeError(f"unknown scheme {self.scheme!r}")
        if self.sync_period_s <= 0:
            raise ValueError("sync_period_s must be positive")
        if self.burst_length < 1:
            raise ValueError("burst_length must be >= 1")


PROTOCOL_PRESETS = {
    "wired-ptp": ProtocolConfig(SCHEME_TWO_WAY, sync_period_s=1.0, kp=0.7, ki=0.3),
    "80211-ptp": ProtocolConfig(SCHEME_TWO_WAY, sync_period_s=0.125, kp=0.7, ki=0.3),
    "wsharp-beacon": ProtocolConfig(SCHEME_ONE_WAY, sync_period_s=500e-6, kp=0.1, ki=0.01),
}


@dataclass
class PortModel:
    """Timestamping behavior of one interface."""

    medium: str = ETHERNET
    sample_period_ns: float = 8.0
    phase: float = 0.0
    cdc: CdcStage | None = None


@dataclass
class LinkPath:
    """One propagation direction: geometry, frozen tap gains and the two ports."""

    geometry: LinkGeometry = field(default_factory=LinkGeometry)
    egress_port: PortModel = field(default_factory=PortModel)
    ingress_port: PortModel = field(default_factory=PortModel)
    pdp: PowerDelayProfile | None = None
    realization: ChannelRealization | None = None
    detector_policy: str = "strongest_tap"
    detector_threshold_db: float = 6.0

    def excess_delay_ns(self, emit_true_ns: float) -> float:
        if self.pdp is None or self.pdp.n_taps == 1 or self.realization is None:
            return 0.0
        return detect_arrival(
            self.realization, self.pdp, self.detector_policy, self.detector_threshold_db
        )

    def total_delay_ns(self, emit_true_ns: float) -> float:
        return propagation_delay_ns(self.geometry) + self.excess_delay_ns(emit_true_ns)


def _read_port(phc: PhcState, port: PortModel, true_time_ns: float) -> float:
    value = phc.time_at(true_time_ns)
    if port.cdc is not None:
        value += port.cdc.read_error_ns(true_time_ns)
    return value


def _egress_stamp(phc: PhcState, port: PortModel, true_time_ns: float) -> float:
    value = _read_port(phc, port, true_time_ns)
    if port.medium == ETHERNET:
        return float(quantize_value(value, port.sample_period_ns, port.phase))
    return value


def _ingress_stamp(phc: PhcState, port: PortModel, true_time_ns: float) -> float:
    value = _read_port(phc, port, true_time_ns)
    return float(quantize_value(value, port.sample_period_ns, port.phase))


def two_way_exchange(
    master_phc: PhcState,
    slave_phc: PhcState,
    fwd_link: LinkPath,
    rev_link: LinkPath,
    true_time_ns: float,
    reply_delay_ns: float = 1e6,
) -> SyncSample:
    """One request/response exchange launched at the given true time.

    The reply leaves a fixed turnaround after the request arrives, so both
    frames sample their direction's fading at their own emission instants.
    """
    t1 = _egress_stamp(master_phc, fwd_link.egress_port, true_time_ns)
    arrival = true_time_ns + fwd_link.total_delay_ns(true_time_ns)
    t2 = _ingress_stamp(slave_phc, fwd_link.ingress_port, arrival)
    reply_emit = arrival + reply_delay_ns
    t3 = _egress_stamp(slave_phc, rev_link.egress_port, reply_emit)
    reply_arrival = reply_emit + rev_link.total_delay_ns(reply_emit)
    t4 = _ingress_stamp(master_phc, rev_link.ingress_port, reply_arrival)
    return SyncSample(t1, t2, t3, t4, SCHEME_TWO_WAY)


def one_way_beacon(
    master_phc: PhcState,
    slave_phc: PhcState,
    fwd_link: LinkPath,
    true_time_ns: float,
) -> SyncSample:
    """One broadcast beacon: only the departure and arrival timestamps."""
    t1 = _egress_stamp(master_phc, fwd_link.egress_port, true_time_ns)
    arrival = true_time_ns + fwd_link.total_delay_ns(true_time_ns)
    t2 = _ingress_stamp(slave_phc, fwd_link.ingress_port, arrival)
    return SyncSample(t1, t2, None, None, SCHEME_ONE_WAY)


def ftm_burst(
    master_phc: PhcState,
    slave_phc: PhcState,
    fwd_link: LinkPath,
    rev_link: LinkPath,
    burst_length: int,
    true_time_ns: float,
    intra_burst_spacing_ns: float = 1e6,
    reply_delay_ns: float = 1e6,
) -> SyncSample:
    """Burst of back-to-back exchanges averaged position by position."""
    if burst_length < 1:
        raise ValueError("burst_length must be >= 1")
    acc = [0.0, 0.0, 0.0, 0.0]
    for k in range(burst_length):
        s = two_way_exchange(
            master_phc, slave_phc, fwd_link, rev_link,
            true_time_ns + k * intra_burst_spacing_ns, reply_delay_ns,
        )
        acc[0] += s.t1_ns
        acc[1] += s.t2_ns
        acc[2] += s.t3_ns
        acc[3] += s.t4_ns
    mean = [v / burst_length for v in acc]
    return SyncSample(mean[0], mean[1], mean[2], mean[3], SCHEME_FTM_BURST)


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
