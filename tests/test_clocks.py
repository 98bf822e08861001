"""Timestamp quantization, and the slave clock and servo as the exchange
kernel runs them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from hybridsync.clocks import quantize_value
from hybridsync.protocol import SCHEME_ONE_WAY, ProtocolConfig
from test_sim import WINDUP_PPM, make_runtime, pps_samples, step

TA = 5e8 + 1135.0  # true arrival time of the first beacon of ``ideal_hop``


def ideal_hop(sync_period_s=1.0, **overrides):
    """A one-way hop (kp 0.7, ki 0.3) on a 0.1 ps receive grid, without CDC,
    whose path delay is calibrated exactly: each estimate is the slave's lead."""
    protocol = ProtocolConfig(SCHEME_ONE_WAY, sync_period_s=sync_period_s,
                              calibrated_delay_ns=1135.0)
    return make_runtime(protocol, "wireless", ts_s=1e-4, ph_s=0.0, prop_ns=1135.0, **overrides)


def exchange(h, off, rate, periods=1):
    """Run the hop's next beacons; node 0 is the master, node 1 the slave."""
    step(h, off, rate, periods)


class TestQuantize:
    def test_known_values_wireless_grid(self):
        assert quantize_value(123.0, 50.0) == 100.0
        assert quantize_value(126.0, 50.0) == 150.0

    def test_known_values_ethernet_grid(self):
        assert quantize_value(123.0, 8.0) == 120.0
        assert quantize_value(127.9, 8.0) == 128.0

    def test_midpoint_takes_lower_grid_point(self):
        # error hits -T/2 exactly and +T/2 never occurs
        assert quantize_value(124.0, 8.0) == 120.0
        assert quantize_value(125.0, 50.0) == 100.0

    def test_phase_shifts_grid(self):
        assert quantize_value(123.0, 8.0, phase=0.5) == 124.0
        assert quantize_value(3.0, 8.0, phase=0.25) == 2.0

    def test_array_input(self):
        values = np.array([0.0, 3.9, 4.0, 4.1, 8.0])
        out = quantize_value(values, 8.0)
        assert np.array_equal(out, [0.0, 0.0, 0.0, 8.0, 8.0])

    @given(
        value=st.floats(-1e12, 1e12),
        period=st.sampled_from([6.25, 8.0, 32.0, 50.0]),
        phase=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_error_bounded_by_half_period(self, value, period, phase):
        err = float(quantize_value(value, period, phase)) - value
        assert -period / 2.0 <= err < period / 2.0

    @pytest.mark.parametrize("period", [8.0, 50.0])
    def test_error_uniform_over_random_readings(self, period):
        rng = np.random.default_rng(1234)
        values = rng.uniform(0.0, 1e9, size=200_000)
        err = np.asarray(quantize_value(values, period)) - values
        stat = kstest(err, "uniform", args=(-period / 2.0, period)).pvalue
        assert stat >= 0.01
        assert abs(err.mean()) < 0.05 * period


class TestServo:
    def test_first_estimate_is_jam_step(self):
        h = ideal_hop()
        off, rate = [0.0, 54321.0], [1.0, 1.0]
        exchange(h, off, rate)
        assert off[1] == pytest.approx(0.0, abs=1e-6)
        assert rate[1] == 1.0
        assert h.locked and h.integ == 0.0

    def test_locked_update_splits_pi_terms(self):
        h = ideal_hop(locked=True)
        off, rate = [0.0, 70.0], [1.0, 1.0]
        exchange(h, off, rate)
        assert h.integ == pytest.approx(0.021)
        assert rate[1] == pytest.approx(1.0 - 0.021e-6, abs=1e-15)
        assert off[1] + rate[1] * TA == pytest.approx(TA + 70.0 - 49.0, abs=1e-6)

    def test_integrator_clamps(self):
        h = ideal_hop(locked=True, integ=99.9995)
        off, rate = [0.0, 1e9], [1.0, 1.0]
        exchange(h, off, rate)
        assert h.integ == 100.0
        assert rate[1] == pytest.approx(1.0 - 0.0005e-6, abs=1e-15)
        clamped = rate[1]
        exchange(h, off, rate)
        assert h.integ == 100.0
        assert rate[1] == clamped

    def test_rejects_bad_inputs(self):
        for gains in (dict(kp=-0.1), dict(ki=-0.1), dict(kp=math.nan), dict(ki=math.inf)):
            with pytest.raises(ValueError):
                ProtocolConfig(**gains)

    def test_converges_on_offset_and_drift(self):
        # closed loop against a 10 ppm oscillator, ideal measurements
        h = ideal_hop()
        off, rate = [0.0, 1e6], [1.0, 1.0 + 10e-6]
        exchange(h, off, rate, periods=50)
        t_last = TA + 49e9
        assert abs(off[1] + rate[1] * t_last - t_last) < 1e-3
        assert h.integ == pytest.approx(10.0, abs=1e-6)

    @given(est=st.floats(-1e9, 1e9), interval=st.floats(1e-4, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_freq_step_never_exceeds_windup_span(self, est, interval):
        h = ideal_hop(sync_period_s=interval, locked=True)
        off, rate = [0.0, est], [1.0, 1.0]
        exchange(h, off, rate)
        assert abs(h.integ) <= WINDUP_PPM
        assert abs(rate[1] - 1.0) <= 2.0 * WINDUP_PPM * 1e-6


class TestPhcState:
    def test_slew_keeps_time_continuous(self):
        # At the beacon's arrival only the phase step moves the slave clock;
        # the frequency step pivots about that instant.
        h = ideal_hop(locked=True)
        off, rate = [0.0, 70.0], [1.0, 1.0 + 3e-6]
        before = off[1] + rate[1] * TA
        exchange(h, off, rate)
        assert rate[1] != 1.0 + 3e-6
        assert off[1] + rate[1] * TA == pytest.approx(before - 0.7 * (before - TA), abs=1e-4)

    def test_crossing_inverts_time_at(self):
        off, rate = 500.0, 1.0 + 2e-6
        leads, _ = pps_samples([(3, 0.0, 1.0, off, rate)], 5, 1e9)
        for k, lead in zip(range(5, 8), leads):
            # the measured clock reads k seconds where its edge leads the reference's
            assert off + rate * (k * 1e9 - lead) == pytest.approx(k * 1e9, abs=1e-6)
