"""Offset/delay estimators, and the exchanges as the kernel stamps them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsync.channel import (
    FadingConfig,
    LinkGeometry,
    build_pdp,
    propagation_delay_ns,
    realize_channel,
)
from hybridsync.protocol import (
    PROTOCOL_PRESETS,
    SCHEME_FTM_BURST,
    SCHEME_ONE_WAY,
    SCHEME_TWO_WAY,
    ProtocolConfig,
    SyncSample,
    UnsupportedSchemeError,
    estimate_offset,
    estimate_path_delay,
)
from hybridsync.sim import ExperimentConfig
from test_sim import make_runtime, set_excess, step

FINE = 1e-6  # effectively quantization-free timestamping grid
ONE_WAY = ProtocolConfig(SCHEME_ONE_WAY)

# Both sides of every edge of the servo's stable region 0 < kp < 2, ki >= 0,
# 2*kp + ki < 4: (kp, ki, inside).
GAIN_EDGES = [(0.01, 0.0, True), (0.0, 0.1, False), (1.99, 0.01, True), (2.0, 0.0, False),
              (1.5, 0.99, True), (1.5, 1.0, False), (0.7, 0.0, True), (0.7, -0.01, False)]
GAIN_EDGE_IDS = ["kp_0.01", "kp_0", "kp_1.99", "kp_2", "sum_3.99", "sum_4", "ki_0", "ki_-0.01"]


def fine_hop(protocol=ProtocolConfig(), **overrides):
    """A wireless hop on the fine grid without CDC or path delay."""
    return make_runtime(protocol, "wireless", **{"ts_m": FINE, "ts_s": FINE, "prop_ns": 0.0,
                                                 **overrides})


def first_estimate(h, master_off=0.0, slave_off=0.0):
    """The estimate of the hop's first period: the jam step it applies."""
    off, rate = [master_off, slave_off], [1.0, 1.0]
    step(h, off, rate)
    return slave_off - off[1]


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
    """Single exchanges through the kernel, read off its jam step."""

    def test_two_way_recovers_slave_offset(self):
        h = fine_hop(prop_ns=25.0 / 0.2998)
        assert first_estimate(h, 0.0, 40.0) == pytest.approx(40.0, abs=1e-5)

    def test_one_way_with_exact_calibration(self):
        calibrated = ProtocolConfig(SCHEME_ONE_WAY, calibrated_delay_ns=1135.0)
        h = fine_hop(calibrated, prop_ns=1135.0)
        assert first_estimate(h, 0.0, -17.5) == pytest.approx(-17.5, abs=1e-5)

    def test_one_way_miscalibration_appears_as_bias(self):
        calibrated = ProtocolConfig(SCHEME_ONE_WAY, calibrated_delay_ns=1135.0)
        geom = LinkGeometry(distance_m=30.0, base_delay_ns=1135.0)
        h = fine_hop(calibrated, prop_ns=propagation_delay_ns(geom))
        assert first_estimate(h) == pytest.approx(30.0 / 0.2998, abs=1e-5)

    def test_ethernet_ports_quantize_all_four_timestamps(self):
        # Four stamps on one 8 ns grid put the estimate on a 4 ns grid.
        h = make_runtime(ph_m=0.0, ph_s=0.0, first_ps=10**12 + 400)
        assert first_estimate(h, 0.3, 0.0) % 4.0 == 0.0

    def test_wireless_egress_is_not_quantized(self):
        h = fine_hop(ONE_WAY, ts_s=50.0, ph_s=0.0, first_ps=10**12 + 3700)
        # t1 = 1e9 + 3.7 as sent; t2 = 1e9 on the 50 ns receive grid
        assert first_estimate(h) == pytest.approx(-3.7, abs=1e-6)

    def test_cdc_error_enters_timestamp(self):
        h = fine_hop(ONE_WAY, first_ps=0, cdc_m=(32.0, 1.0, 8.0))
        # at t=0 the master's stage reads 16 - (0.25 * 32 % 32) = +8 ns early
        assert first_estimate(h) == pytest.approx(-8.0, abs=1e-5)

    def test_estimates_bounded_by_quantization(self):
        for k in range(200):
            h = fine_hop(ts_m=50.0, ph_m=0.63, ts_s=50.0, ph_s=0.63,
                         first_ps=round((k * 1.25e8 + 17.0) * 1e3))
            assert abs(first_estimate(h, 11.1, 11.1)) <= 25.0 + 1e-9

    def test_multipath_excess_delays_arrival(self):
        pdp = build_pdp("IWLAN_B")
        gains = realize_channel(pdp, FadingConfig(doppler_hz=0.0), 0.0,
                                np.random.default_rng(8)).tap_gains
        excess = float(pdp.delays_ns[np.argmax(np.abs(gains) ** 2)])
        assert 0.0 <= excess <= pdp.max_excess_delay_ns
        h = fine_hop(ONE_WAY)
        set_excess(h, [[excess] * len(h.dmf[0])], h.dmr)
        assert first_estimate(h) == pytest.approx(excess, abs=1e-5)

    def test_ftm_burst_averages_positions(self):
        h = fine_hop(ProtocolConfig(SCHEME_FTM_BURST, burst_length=3))
        # forward excess delays of 0, 3 and 6 ns bias the positions by half each
        set_excess(h, [[excess] * len(h.dmf[0]) for excess in (0.0, 3.0, 6.0)], h.dmr)
        assert h.burst == 3
        assert first_estimate(h, 5.0, -3.0) == pytest.approx(-8.0 + 1.5, abs=1e-5)

    def test_ftm_burst_rejects_empty(self):
        with pytest.raises(ValueError):
            ProtocolConfig(SCHEME_FTM_BURST, burst_length=0)
        with pytest.raises(ValueError):
            ExperimentConfig(scheme=SCHEME_FTM_BURST, burst_length=0)


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
        for bad in (dict(sync_period_s=math.nan), dict(sync_period_s=1e-13),
                    dict(sync_period_s=math.inf), dict(burst_length=1.5),
                    dict(burst_length=True)):
            with pytest.raises(ValueError):
                ProtocolConfig(**bad)

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf])
    def test_refuses_a_non_finite_calibrated_delay(self, delay):
        # Refused where it is set: inf overflowed the kernel's integer chain
        # budget, and nan met only the hop budget's misleading >= 0 check.
        with pytest.raises(ValueError, match="^calibrated_delay_ns must be finite"):
            ProtocolConfig(calibrated_delay_ns=delay)

    @pytest.mark.parametrize("cls, name", [
        (ProtocolConfig, "sync_period_s"), (ProtocolConfig, "calibrated_delay_ns"),
        (ProtocolConfig, "kp"), (ProtocolConfig, "ki"),
        (ExperimentConfig, "speed_kmh"), (ExperimentConfig, "duration_s"),
        (ExperimentConfig, "pps_interval_s"), (ExperimentConfig, "warmup_s"),
        (ExperimentConfig, "extra_distance_m"), (ExperimentConfig, "kp"),
        (ExperimentConfig, "ki"), (ExperimentConfig, "sync_period_s"),
        (ExperimentConfig, "drift_walk_sigma_ppm_per_s"),
    ], ids=lambda x: getattr(x, "__name__", x))
    def test_float_fields_refuse_non_reals(self, cls, name):
        # None is the "take the preset's value" of the optional experiment knobs
        optional = cls is ExperimentConfig and name in ("kp", "ki", "sync_period_s")
        for value in ["1", True, *([] if optional else [None])]:
            with pytest.raises(ValueError, match=f"^{name} must be a real number, got {value!r}$"):
                cls(**{name: value})

    @pytest.mark.parametrize("kp, ki, inside", GAIN_EDGES, ids=GAIN_EDGE_IDS)
    def test_refuses_gains_outside_the_stable_region(self, kp, ki, inside):
        if inside:
            ProtocolConfig(kp=kp, ki=ki)
        else:
            with pytest.raises(ValueError, match="outside the stable region"):
                ProtocolConfig(kp=kp, ki=ki)
