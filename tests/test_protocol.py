"""Exchange mechanics and offset/delay estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsync.cdc import CdcStage
from hybridsync.channel import FadingConfig, LinkGeometry, build_pdp, realize_channel
from hybridsync.clocks import ClockModel, PhcState
from hybridsync.protocol import (
    PROTOCOL_PRESETS,
    SCHEME_FTM_BURST,
    SCHEME_ONE_WAY,
    SCHEME_TWO_WAY,
    LinkPath,
    PortModel,
    ProtocolConfig,
    SyncSample,
    UnsupportedSchemeError,
    estimate_offset,
    estimate_path_delay,
    ftm_burst,
    one_way_beacon,
    two_way_exchange,
)

FINE = 1e-6  # effectively quantization-free timestamping grid


def make_phc(offset_ns=0.0, drift_ppm=0.0):
    return PhcState(base_clock=ClockModel(offset_ns=offset_ns, drift_ppm=drift_ppm))


def fine_link(geometry=None):
    port = PortModel(medium="wireless", sample_period_ns=FINE)
    return LinkPath(geometry=geometry or LinkGeometry(),
                    egress_port=port, ingress_port=port)


class TestEstimatorIdentities:
    def test_two_way_recovers_offset_and_delay(self):
        offset, delay, turnaround = -321.5, 1500.25, 1e6
        t1 = 1e9
        sample = SyncSample(
            t1_ns=t1,
            t2_ns=t1 + delay + offset,
            t3_ns=t1 + delay + turnaround + offset,
            t4_ns=t1 + 2 * delay + turnaround,
        )
        assert estimate_path_delay(sample) == pytest.approx(delay, rel=1e-12)
        config = ProtocolConfig(scheme=SCHEME_TWO_WAY)
        assert estimate_offset(sample, config) == pytest.approx(offset, rel=1e-12)

    def test_one_way_subtracts_calibrated_delay(self):
        sample = SyncSample(t1_ns=1e9, t2_ns=1e9 + 1135.0 + 42.0, t3_ns=None,
                            t4_ns=None, scheme=SCHEME_ONE_WAY)
        config = ProtocolConfig(scheme=SCHEME_ONE_WAY, calibrated_delay_ns=1135.0)
        assert estimate_offset(sample, config) == pytest.approx(42.0)

    def test_one_way_sample_has_no_path_delay(self):
        sample = SyncSample(1e9, 1e9 + 5.0, None, None, SCHEME_ONE_WAY)
        with pytest.raises(UnsupportedSchemeError):
            estimate_path_delay(sample)

    def test_non_finite_timestamps_rejected(self):
        sample = SyncSample(1e9, math.inf, 1e9, 1e9)
        with pytest.raises(ValueError):
            estimate_path_delay(sample)

    def test_unknown_scheme_rejected(self):
        sample = SyncSample(1.0, 2.0, 3.0, 4.0, scheme="bogus")
        with pytest.raises(UnsupportedSchemeError):
            estimate_offset(sample, ProtocolConfig())

    @given(
        offset=st.floats(-1e6, 1e6),
        delay=st.floats(0.0, 1e5),
        shift=st.floats(-1e9, 1e9),
    )
    @settings(max_examples=200)
    def test_shift_invariance(self, offset, delay, shift):
        base = SyncSample(0.0, delay + offset, delay + offset + 1e6,
                          2 * delay + 1e6)
        moved = SyncSample(base.t1_ns + shift, base.t2_ns + shift,
                           base.t3_ns + shift, base.t4_ns + shift)
        config = ProtocolConfig()
        assert estimate_offset(moved, config) == pytest.approx(
            estimate_offset(base, config), abs=1e-6)


class TestExchanges:
    def test_two_way_recovers_slave_offset(self):
        master, slave = make_phc(0.0), make_phc(40.0)
        link = fine_link(LinkGeometry(distance_m=25.0))
        sample = two_way_exchange(master, slave, link, link, 1e9)
        est = estimate_offset(sample, ProtocolConfig())
        assert est == pytest.approx(40.0, abs=1e-5)
        assert estimate_path_delay(sample) == pytest.approx(
            25.0 / 0.2998, abs=1e-5)

    def test_one_way_with_exact_calibration(self):
        master, slave = make_phc(0.0), make_phc(-17.5)
        geom = LinkGeometry(distance_m=0.0, base_delay_ns=1135.0)
        sample = one_way_beacon(master, slave, fine_link(geom), 1e9)
        config = ProtocolConfig(scheme=SCHEME_ONE_WAY, calibrated_delay_ns=1135.0)
        assert estimate_offset(sample, config) == pytest.approx(-17.5, abs=1e-5)

    def test_one_way_miscalibration_appears_as_bias(self):
        master, slave = make_phc(0.0), make_phc(0.0)
        geom = LinkGeometry(distance_m=30.0, base_delay_ns=1135.0)
        sample = one_way_beacon(master, slave, fine_link(geom), 1e9)
        config = ProtocolConfig(scheme=SCHEME_ONE_WAY, calibrated_delay_ns=1135.0)
        assert estimate_offset(sample, config) == pytest.approx(
            30.0 / 0.2998, abs=1e-5)

    def test_ethernet_ports_quantize_all_four_timestamps(self):
        port = PortModel(medium="ethernet", sample_period_ns=8.0)
        link = LinkPath(egress_port=port, ingress_port=port)
        sample = two_way_exchange(make_phc(0.3), make_phc(0.0), link, link, 1e9 + 0.4)
        for value in (sample.t1_ns, sample.t2_ns, sample.t3_ns, sample.t4_ns):
            assert value % 8.0 == 0.0

    def test_wireless_egress_is_not_quantized(self):
        port = PortModel(medium="wireless", sample_period_ns=50.0)
        link = LinkPath(egress_port=port, ingress_port=port)
        sample = one_way_beacon(make_phc(0.0), make_phc(0.0), link, 1e9 + 3.7)
        assert sample.t1_ns == pytest.approx(1e9 + 3.7)
        assert sample.t2_ns % 50.0 == 0.0

    def test_cdc_error_enters_timestamp(self):
        stage = CdcStage(t_src_ns=32.0, rel_drift_ppm=0.0, phase0=0.25)
        port = PortModel(medium="wireless", sample_period_ns=FINE, cdc=stage)
        clean = PortModel(medium="wireless", sample_period_ns=FINE)
        link = LinkPath(egress_port=port, ingress_port=clean)
        sample = one_way_beacon(make_phc(0.0), make_phc(0.0), link, 0.0)
        # at t=0 the stage reads 16 - (0.25 * 32 % 32) = +8 ns early
        assert sample.t1_ns == pytest.approx(8.0, abs=1e-5)

    def test_estimates_bounded_by_quantization(self):
        port = PortModel(medium="wireless", sample_period_ns=50.0, phase=0.63)
        link = LinkPath(egress_port=port, ingress_port=port)
        config = ProtocolConfig()
        for k in range(200):
            sample = two_way_exchange(make_phc(11.1), make_phc(11.1), link, link,
                                      k * 1.25e8 + 17.0)
            err = estimate_offset(sample, config)
            assert abs(err) <= 25.0 + 1e-9

    def test_multipath_excess_delays_arrival(self):
        pdp = build_pdp("IWLAN_B")
        realization = realize_channel(pdp, FadingConfig(doppler_hz=0.0), 0.0,
                                      np.random.default_rng(8))
        port = PortModel(medium="wireless", sample_period_ns=FINE)
        link = LinkPath(egress_port=port, ingress_port=port, pdp=pdp,
                        realization=realization)
        excess = link.excess_delay_ns(0.0)
        assert 0.0 <= excess <= pdp.max_excess_delay_ns
        sample = one_way_beacon(make_phc(0.0), make_phc(0.0), link, 1e9)
        config = ProtocolConfig(scheme=SCHEME_ONE_WAY, calibrated_delay_ns=0.0)
        assert estimate_offset(sample, config) == pytest.approx(excess, abs=1e-5)

    def test_ftm_burst_averages_positions(self):
        master, slave = make_phc(5.0), make_phc(-3.0)
        link = fine_link()
        burst = ftm_burst(make_phc(5.0), make_phc(-3.0), link, link, 3, 1e9)
        singles = [
            two_way_exchange(master, slave, link, link, 1e9 + k * 1e6)
            for k in range(3)
        ]
        assert burst.t1_ns == pytest.approx(np.mean([s.t1_ns for s in singles]))
        assert burst.t4_ns == pytest.approx(np.mean([s.t4_ns for s in singles]))
        assert burst.scheme == SCHEME_FTM_BURST
        est = estimate_offset(burst, ProtocolConfig(scheme=SCHEME_FTM_BURST))
        assert est == pytest.approx(-8.0, abs=0.01)

    def test_ftm_burst_rejects_empty(self):
        link = fine_link()
        with pytest.raises(ValueError):
            ftm_burst(make_phc(), make_phc(), link, link, 0, 0.0)


class TestPresets:
    def test_expected_presets(self):
        assert set(PROTOCOL_PRESETS) == {"wired-ptp", "80211-ptp", "wsharp-beacon"}
        assert PROTOCOL_PRESETS["wired-ptp"].sync_period_s == 1.0
        assert PROTOCOL_PRESETS["80211-ptp"].sync_period_s == 0.125
        beacon = PROTOCOL_PRESETS["wsharp-beacon"]
        assert beacon.scheme == SCHEME_ONE_WAY
        assert beacon.sync_period_s == pytest.approx(500e-6)
        assert (beacon.kp, beacon.ki) == (0.1, 0.01)

    def test_config_validation(self):
        with pytest.raises(UnsupportedSchemeError):
            ProtocolConfig(scheme="carrier-pigeon")
        with pytest.raises(ValueError):
            ProtocolConfig(sync_period_s=0.0)
        with pytest.raises(ValueError):
            ProtocolConfig(burst_length=0)
