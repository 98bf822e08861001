"""Cross-domain counter translation between asynchronous clock domains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from hybridsync.cdc import CdcConfig, CdcFeasibilityError, cdc_read_error, translate_time


class TestCdcConfig:
    def test_defaults_are_feasible(self):
        cdc = CdcConfig()
        assert cdc.t_src_ns == 32.0
        assert cdc.t_dst_ns == 6.25

    def test_rejects_src_period_below_four_dst_periods(self):
        with pytest.raises(CdcFeasibilityError):
            CdcConfig(t_src_ns=20.0, t_dst_ns=6.25)
        CdcConfig(t_src_ns=25.0, t_dst_ns=6.25)  # exactly 4x is allowed

    def test_rejects_nonpositive_periods(self):
        with pytest.raises(ValueError):
            CdcConfig(t_src_ns=0.0)


class TestTranslateTime:
    def test_known_translation_sequence(self):
        cdc = CdcConfig()
        # destination instants at n * 6.25 ns on the source timeline
        expected = {0: 16.0, 1: 9.75, 5: -15.25, 6: 10.5}
        for n, want in expected.items():
            read, delta = translate_time(cdc, 0.0, n)
            assert delta == pytest.approx(want)
            instant = n * 6.25
            assert read == pytest.approx(instant + want)

    def test_array_index(self):
        cdc = CdcConfig()
        read, delta = translate_time(cdc, 0.0, np.arange(6))
        assert read.shape == (6,)
        assert delta[0] == pytest.approx(16.0)

    def test_bounds(self):
        # |delta| spans [0, t_src/2]: t_src/2 on a source tick, 0 halfway between
        assert translate_time(CdcConfig(), 0.0, 0)[1] == 16.0
        assert translate_time(CdcConfig(), 16.0, 0)[1] == 0.0

    @given(
        src_time=st.floats(0.0, 1e12),
        n=st.integers(0, 10**9),
        rho=st.floats(-100.0, 100.0),
        phase=st.floats(0.0, 1.0, exclude_max=True),
    )
    @settings(max_examples=300)
    def test_error_bounded_by_half_source_period(self, src_time, n, rho, phase):
        cdc = CdcConfig(rho_dst_ppm=rho, dst_phase=phase)
        _, delta = translate_time(cdc, src_time, n)
        assert -16.0 < delta <= 16.0

    def test_error_uniform_and_centered(self):
        # incommensurate drift sweeps the sampling train across the source
        # period; the translation error must be uniform on (-T/2, T/2]
        cdc = CdcConfig(rho_dst_ppm=37.0, dst_phase=0.1)
        _, delta = translate_time(cdc, 0.0, np.arange(1_000_000))
        assert kstest(delta, "uniform", args=(-16.0, 32.0)).pvalue >= 0.01
        assert abs(delta.mean()) < 0.1
        assert delta.min() > -16.0
        assert delta.max() <= 16.0


class TestCdcStage:
    """The continuous read-error law that the exchange kernel applies."""

    def test_matches_translate_time(self):
        rho, phase = 43.0, 0.37
        cdc = CdcConfig(rho_dst_ppm=rho, dst_phase=phase)
        for n in (0, 1, 17, 1000, 123456):
            instant = (n + phase) * 6.25 * (1.0 + rho * 1e-6)
            _, delta = translate_time(cdc, 0.0, n)
            assert cdc_read_error(instant, 32.0, 1.0, 0.0) == pytest.approx(delta)

    def test_array_law_matches_translate_time_and_scalar_law(self):
        # The kernel evaluates the law over whole beacon series: each element
        # must be bitwise the scalar value, negative reading instants included.
        rho, phase = -61.0, 0.83
        cdc = CdcConfig(rho_dst_ppm=rho, dst_phase=phase)
        n = np.arange(-5000, 200_000, 7)
        instant = (n + phase) * 6.25 * (1.0 + rho * 1e-6)
        _, delta = translate_time(cdc, 0.0, n)
        errors = cdc_read_error(instant, 32.0, 1.0, 0.0)
        assert errors == pytest.approx(delta, abs=1e-9)
        drifting = cdc_read_error(instant, 32.0, 1.0 + 3e-6, 12.8)
        assert drifting.tolist() == [cdc_read_error(t, 32.0, 1.0 + 3e-6, 12.8)
                                     for t in instant.tolist()]

    def test_phase_offset_shifts_error(self):
        assert cdc_read_error(0.0, 32.0, 1.0, 0.25 * 32.0) == pytest.approx(8.0)

    def test_relative_drift_decorrelates_consecutive_reads(self):
        # an incommensurate drift equidistributes the read phase
        times = np.arange(1_000_000) * 5e5  # 0.5 ms cadence
        errs = cdc_read_error(times, 32.0, 1.0 + 2.0**0.5 * 1e-6, 0.0)
        assert kstest(errs, "uniform", args=(-16.0, 32.0)).pvalue >= 0.01
        assert abs(np.mean(errs)) < 0.1

    @given(t=st.floats(0.0, 1e13), rel=st.floats(-50.0, 50.0),
           phase=st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=300)
    def test_read_error_within_bounds(self, t, rel, phase):
        err = cdc_read_error(t, 32.0, 1.0 + rel * 1e-6, phase * 32.0)
        assert -16.0 < err <= 16.0
