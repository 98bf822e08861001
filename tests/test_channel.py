"""Power delay profiles, fading synthesis and arrival detection."""

import hashlib
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import j0
from scipy.stats import kstest

from hybridsync import channel
from hybridsync.channel import (
    CHANNEL_CATALOG,
    ChannelSpecError,
    FadingConfig,
    LinkGeometry,
    PowerDelayProfile,
    build_pdp,
    canonical_channel_name,
    detected_excess_series,
    doppler_from_speed,
    propagation_delay_ns,
    realize_channel,
    rms_delay_spread,
    tap_gain_series,
)
from footprint import traced_peak

CATALOG_NAMES = sorted(CHANNEL_CATALOG)
MULTIPATH_NAMES = [name for name in CATALOG_NAMES if CHANNEL_CATALOG[name][2] > 0]


def direct_ifft_series(power, f_d, period_s, count, offset_s, rng):
    """One tap's gains by a single n_fft-point inverse DFT: the oracle of the
    polyphase route, drawing the same coefficients from ``rng``."""
    n_fft = 1 << max(4, (count - 1).bit_length())
    df = 1.0 / (n_fft * period_s)
    kmax = int(math.floor(f_d / df)) + 1
    k = np.arange(-kmax, kmax + 1)
    cdf = channel._jakes_cdf(np.clip(np.arange(-kmax - 0.5, kmax + 1) * df, -f_d, f_d) / f_d)
    coeffs = np.sqrt(power * np.diff(cdf) / 2.0) * (
        rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size))
    spectrum = np.zeros(n_fft, dtype=complex)
    np.add.at(spectrum, k % n_fft, coeffs * np.exp(2j * math.pi * k * df * offset_s))
    return (np.fft.ifft(spectrum) * n_fft)[:count]


def tap_block(power, fading, period_s, count, offset_s, rng):
    """One tap of power ``power`` through ``channel._comb_blocks``, its row
    blocks stacked into the ``(phases, m)`` layout; each block is copied out
    before its buffer is reused."""
    layout = channel._comb_layout(fading.doppler_hz, period_s, count)
    one_tap = types.SimpleNamespace(linear_powers=np.array([power]))
    blocks = channel._comb_blocks(one_tap, fading, layout, offset_s, rng)
    return np.concatenate([block.copy() for _, _, block in blocks])


# The detected series of the one-way trend comb (IWLAN_B, 10 km/h, 2 kHz
# beacons over 520 s) as excess delays, pinned before it was synthesised in
# row blocks.
TREND_COMB_DIGEST = "2a0f035285155e9dcd249e436962a3541af7912a4fb0878b593be5e4fc6e6c96"


def strongest_taps(gains):
    """The oracle detector: the index of the tap of most power at each instant."""
    return np.argmax(np.abs(gains) ** 2, axis=0)


# One comb per synthesis route, on 3000 points.
ROUTES = pytest.mark.parametrize("name, doppler_hz, period_s", [
    ("IWLAN_B", 22.24, 0.5e-3), ("WLAN_C", 22.24, 0.125), ("IWLAN_A", 0.0, 0.5e-3),
], ids=["ifft", "independent", "frozen"])


class TestGeometry:
    def test_propagation_delay(self):
        assert propagation_delay_ns(LinkGeometry(distance_m=0.2998)) == pytest.approx(1.0)
        geom = LinkGeometry(distance_m=30.0, base_delay_ns=1135.0)
        assert propagation_delay_ns(geom) == pytest.approx(1135.0 + 100.0667, abs=0.01)

    def test_doppler_from_speed(self):
        assert doppler_from_speed(10.0) == pytest.approx(22.24, abs=0.02)
        assert doppler_from_speed(30.0) == pytest.approx(66.71, abs=0.05)
        assert doppler_from_speed(0.0) == 0.0


class TestCatalogProfiles:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_targets_met(self, name):
        _, rms, excess = CHANNEL_CATALOG[name]
        pdp = build_pdp(name)
        assert pdp.max_excess_delay_ns == excess
        assert rms_delay_spread(pdp) == pytest.approx(rms, rel=0.01)
        assert 1 <= pdp.n_taps <= 10

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_taps_start_at_zero_and_increase(self, name):
        pdp = build_pdp(name)
        delays = pdp.delays_ns
        assert delays[0] == 0.0
        assert np.all(np.diff(delays) > 0) or pdp.n_taps == 1
        # powers must not grow with delay for an exponential-decay profile
        powers = [p for _, p in pdp.taps]
        assert all(a >= b for a, b in zip(powers, powers[1:]))

    @pytest.mark.parametrize("name", MULTIPATH_NAMES)
    def test_pinned_decay_constant_is_the_solver_root(self, name):
        _, rms, excess = CHANNEL_CATALOG[name]
        delays = build_pdp(name).delays_ns

        def spread_error(log_alpha):
            return channel._moment_rms(delays, np.exp(-delays / math.exp(log_alpha))) - rms

        root = brentq(spread_error, math.log(1e-3), math.log(1e9), xtol=1e-12)
        assert channel._PINNED_LOG_ALPHA[(rms, excess)] == root

    # The pins are brentq's roots; the bisection may differ in the last bits.
    @pytest.mark.parametrize("name", MULTIPATH_NAMES)
    def test_pinned_profile_equals_solved_profile(self, name, monkeypatch):
        _, rms, excess = CHANNEL_CATALOG[name]
        pinned = build_pdp(name).taps
        monkeypatch.setattr(channel, "_PINNED_LOG_ALPHA", {})
        solved = channel._synthesize_pdp(rms, excess).taps
        assert [d for d, _ in solved] == [d for d, _ in pinned]
        # A power in dB is proportional to 1 / alpha, so it moves by the
        # relative change of alpha: at most 1e-12 for a root 1e-12 off in log alpha.
        assert [p for _, p in solved] == pytest.approx([p for _, p in pinned], rel=1e-12)

    def test_name_canonicalization(self):
        assert canonical_channel_name("wlan a") == "WLAN_A"
        assert canonical_channel_name("IWLAN-B") == "IWLAN_B"
        assert build_pdp("awgn").n_taps == 1
        with pytest.raises(ChannelSpecError):
            canonical_channel_name("WLAN_Z")

    def test_custom_tuple_spec(self):
        pdp = build_pdp((40.0, 200.0))
        assert pdp.max_excess_delay_ns == 200.0
        assert rms_delay_spread(pdp) == pytest.approx(40.0, rel=0.01)

    @pytest.mark.parametrize("spec", [5, [40.0], (40.0, 200.0, 1.0), (math.nan, 200.0),
                                      (40.0, math.inf), (40.0, -200.0), (True, 200.0),
                                      ("40", "200"), None])
    def test_malformed_spec_rejected(self, spec):
        with pytest.raises(ChannelSpecError, match=r"catalog name .* pair of finite numbers"):
            build_pdp(spec)

    def test_overflowing_pair_rejected_without_warnings(self):
        # delays**2 overflows, so the uniform-power limit is not a number
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ChannelSpecError,
                               match=r"^channel \[1e\+300, 1e\+300\] has no finite"):
                build_pdp((1e300, 1e300))

    def test_pair_without_root_rejected_before_the_solver(self, monkeypatch):
        # At 1e150 ns every tap but the first has no power over the whole
        # bracket, so the spread error has one sign at both of its ends.
        monkeypatch.setattr(channel, "_bisect", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in ((50.0, 1e150), (1e-8, 1e-6)):
                with pytest.raises(ChannelSpecError) as refused:
                    build_pdp(spec)
                assert str(refused.value).startswith(
                    f"channel [{spec[0]!r}, {spec[1]!r}] has no decay constant in 1e-3..1e9 ns")

    def test_infeasible_spread_rejected(self):
        with pytest.raises(ChannelSpecError):
            build_pdp((120.0, 200.0))  # above the uniform-power limit
        with pytest.raises(ChannelSpecError):
            build_pdp((10.0, 0.0))

    def test_profile_validation(self):
        with pytest.raises(ChannelSpecError):
            PowerDelayProfile([(5.0, 0.0), (10.0, -3.0)])  # no zero tap
        with pytest.raises(ChannelSpecError):
            PowerDelayProfile([(0.0, 0.0), (10.0, -3.0), (10.0, -6.0)])


class TestFadingStatistics:
    def test_frozen_process_is_constant(self):
        pdp = build_pdp("IWLAN_A")
        gains = tap_gain_series(pdp, FadingConfig(doppler_hz=0.0), 5.0, 2, 0.0,
                                np.random.default_rng(3))
        a = gains[:, 0]
        b = gains[:, 1]
        assert np.allclose(a, b)

    def test_rayleigh_amplitudes(self):
        pdp = build_pdp("WLAN_A")
        rng = np.random.default_rng(17)
        fading = FadingConfig(doppler_hz=0.0)
        draws = np.array([
            realize_channel(pdp, fading, 0.0, rng).tap_gains[0] for _ in range(4000)
        ])
        scale = math.sqrt(pdp.linear_powers[0] / 2.0)
        assert kstest(np.abs(draws), "rayleigh", args=(0.0, scale)).pvalue >= 0.01

    def test_mean_tap_power_matches_pdp(self):
        pdp = build_pdp("IWLAN_B")
        fading = FadingConfig(doppler_hz=50.0)
        series = tap_gain_series(pdp, fading, 1e-3, 20000, 0.0,
                                 np.random.default_rng(11))
        measured = np.mean(np.abs(series) ** 2, axis=1)
        assert np.allclose(measured, pdp.linear_powers, rtol=0.2)

    def test_jakes_autocorrelation_matches_bessel(self):
        f_d = doppler_from_speed(30.0)
        pdp = build_pdp((50.0, 390.0))
        fading = FadingConfig(spectrum="jakes", doppler_hz=f_d)
        rng = np.random.default_rng(29)
        period, count, reps = 2.5e-4, 2048, 48
        max_lag = 20  # out to 5 ms
        acc = np.zeros(max_lag, dtype=complex)
        power = 0.0
        for _ in range(reps):
            g = tap_gain_series(pdp, fading, period, count, 0.0, rng)[0]
            power += np.mean(np.abs(g) ** 2)
            for lag in range(1, max_lag + 1):
                acc[lag - 1] += np.mean(g[lag:] * np.conj(g[:-lag]))
        emp = np.real(acc) / power
        lags_s = np.arange(1, max_lag + 1) * period
        theory = j0(2.0 * math.pi * f_d * lags_s)
        assert np.max(np.abs(emp - theory)) <= 0.05

    def test_spectral_routes_agree_on_power(self):
        # f_d * T = 0.011: both lengths take the IFFT route, at two transform sizes
        pdp = build_pdp("WLAN_A")
        fading = FadingConfig(doppler_hz=22.24)
        direct = tap_gain_series(pdp, fading, 5e-4, 60000, 0.0,
                                 np.random.default_rng(7))
        fft = tap_gain_series(pdp, fading, 5e-4, 80000, 0.0,
                              np.random.default_rng(7))
        p_direct = np.mean(np.abs(direct) ** 2, axis=1)
        p_fft = np.mean(np.abs(fft) ** 2, axis=1)
        assert np.allclose(p_direct, p_fft, rtol=0.35)
        assert np.allclose(p_direct, pdp.linear_powers, rtol=0.35)

    def test_one_sample_power_near_nyquist(self):
        # f_d * T = 0.49 on a one-sample comb: the band edge folds onto the
        # 16-point transform's Nyquist bin and must keep its power
        pdp = build_pdp("AWGN")
        fading = FadingConfig(doppler_hz=0.49)
        rng = np.random.default_rng(37)
        draws = np.array([
            tap_gain_series(pdp, fading, 1.0, 1, 0.0, rng)[0, 0] for _ in range(20000)
        ])
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.04)

    @pytest.mark.parametrize("doppler_hz", [999.8], ids=["near-nyquist"])
    def test_ifft_route_is_unnormalised_ifft(self, monkeypatch, doppler_hz):
        # At f_d * T = 0.4999 the band fills the 4096-point spectrum of a
        # 3000-point comb: one phase, whose bins +-n_fft/2 alias and are summed,
        # bitwise against ``ifft(spectrum) * n_fft``.
        count = 3000
        spectra = []
        ifft = np.fft.ifft

        def recording_ifft(a, *args, **kwargs):
            spectra.append(a.copy())
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", recording_ifft)
        got = tap_block(0.7, FadingConfig(doppler_hz=doppler_hz), 5e-4, count, 0.0003,
                        np.random.default_rng(41))
        (spectrum,) = spectra
        assert spectrum.shape == got.shape == (1, 4096)
        expected = ifft(spectrum[0]) * 4096
        assert got.dtype == expected.dtype
        assert got[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m, kmax", [(64, 23), (16, 8)], ids=["narrow", "band-filling"])
    @pytest.mark.parametrize("zeros", [False, True], ids=["random", "signed-zeros"])
    def test_row_placement_is_add_at(self, m, kmax, zeros):
        # Bin k of -kmax..kmax lands at k % m of a zeroed row, bitwise as
        # np.add.at places it: on a narrow row (m > 2 * kmax), on a row the
        # band fills, whose bins +-m/2 alias and sum, and with coefficients
        # whose components are +-0.0 beside random ones.
        rng = np.random.default_rng(43)
        coeffs = rng.standard_normal(2 * kmax + 1) + 1j * rng.standard_normal(2 * kmax + 1)
        if zeros:
            parts = coeffs.view(float)
            parts[rng.random(parts.size) < 0.5] = 0.0
            parts[rng.random(parts.size) < 0.5] *= -0.0
            coeffs[[0, -1]] = [complex(-0.0, 0.0), complex(-0.0, -0.0)]
        row = np.zeros(m, dtype=complex)
        channel._place_bins(row, coeffs, kmax)
        expected = np.zeros(m, dtype=complex)
        np.add.at(expected, np.arange(-kmax, kmax + 1) % m, coeffs)
        assert row.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("count", [3000, 1 << 20], ids=["short", "long"])
    @pytest.mark.parametrize("speed_kmh", [0.5, 10.0, 100.0])
    @pytest.mark.parametrize("name", MULTIPATH_NAMES)
    def test_polyphase_route_matches_direct_ifft(self, name, speed_kmh, count):
        # 2 kHz combs of 4 to 512 phases.  The gains move only in their last
        # bits (worst 5.1e-14 of the rms over these cases, measured before
        # the tolerance was fixed); the detected tap indices are the oracle's
        # argmax.
        pdp = build_pdp(name)
        f_d = doppler_from_speed(speed_kmh)
        fading = FadingConfig(doppler_hz=f_d)
        offset_s = 0.0003
        rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
        best = np.full(count, -1.0)
        best_tap = np.zeros(count, dtype=int)
        for i, power in enumerate(pdp.linear_powers):
            expected = direct_ifft_series(power, f_d, 5e-4, count, offset_s, oracle_rng)
            got = tap_block(power, fading, 5e-4, count, offset_s, rng).T.ravel()[:count]
            rms = math.sqrt(np.mean(np.abs(expected) ** 2))
            assert np.max(np.abs(got - expected)) <= 1e-12 * rms
            tap_power = np.abs(expected) ** 2
            best_tap[tap_power > best] = i
            best = np.maximum(best, tap_power)
        index = detected_excess_series(pdp, fading, 5e-4, count, offset_s,
                                       np.random.default_rng(11))
        assert index.tobytes() == best_tap.astype(np.uint8).tobytes()

    def test_trend_comb_runs_band_sized_transforms(self, monkeypatch):
        # The one-way trend comb (IWLAN_B, 10 km/h, 2 kHz beacons over 520 s)
        # has 23,301 bins in a 2**20-point spectrum: 32 phases of 32,768
        # points per tap, never one 2**20-point transform, each phase its own
        # one-row block.
        shapes = []
        ifft = np.fft.ifft

        def recording_ifft(a, *args, **kwargs):
            shapes.append((a.shape, kwargs.get("axis", -1)))
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", recording_ifft)
        pdp = build_pdp("IWLAN_B")
        fading = FadingConfig(doppler_hz=doppler_from_speed(10.0))
        detected_excess_series(pdp, fading, 5e-4, 1_040_002, 0.0003, np.random.default_rng(5))
        assert shapes == [((1, 32768), 1)] * (32 * pdp.n_taps)

    def test_trend_comb_is_pinned_and_small(self):
        # The same comb's detected excess delays, pinned.  Row blocks took the
        # call's traced peak from 34.6 MB to 16.6 MB.  Writing each block's
        # power and comparison into reused scratch took it from 14.7 MB to
        # 13.7 MB; holding one half's best power and a one-byte tap index, to
        # 11.5 MB; one block's best power with every tap's bins held at once
        # kept it there, and blocks of one 32,768-point row (512 KiB, a
        # quarter of the 2 MiB blocks), to 9.9 MB.  Returning the index alone,
        # not its float64 lookup, took it to 7.3 MB.  Called first in a
        # process, the call also holds the transform's plan: 12.4 MB with 2
        # MiB blocks, 10.8 MB with one-row blocks, 8.1 MB with the index alone.
        # Squaring each block in its own memory and dropping the bins' draw
        # arrays after the draws took it to 7.0 MB (7.9 MB first in a process).
        pdp = build_pdp("IWLAN_B")
        fading = FadingConfig(doppler_hz=doppler_from_speed(10.0))
        peak, index = traced_peak(lambda: detected_excess_series(
            pdp, fading, 5e-4, 1_040_002, 0.0003, np.random.default_rng(5)))
        assert hashlib.sha256(pdp.delays_ns[index].tobytes()).hexdigest() == TREND_COMB_DIGEST
        assert peak <= 8e6

    def test_trend_comb_index_series_is_small(self):
        # The series the simulator holds: the strongest tap's index, one byte
        # a point, whose lookup in the tap delays is the pinned series.  Its
        # traced growth from 260,001 to 1,040,002 points is the index and the
        # longer combs' bins: 5.8 B a point, as the best power is one row
        # block's whatever the comb's length, where half a comb of it took
        # 6.7 B and the float64 series and a whole comb's best power 9.97 B.
        pdp = build_pdp("IWLAN_B")
        fading = FadingConfig(doppler_hz=doppler_from_speed(10.0))
        (small, _), (large, index) = [traced_peak(lambda: detected_excess_series(
            pdp, fading, 5e-4, count, 0.0003, np.random.default_rng(5)))
            for count in (260_001, 1_040_002)]
        assert (large - small) / (1_040_002 - 260_001) <= 6.5
        assert index.dtype == np.uint8 and index.shape == (1_040_002,)
        assert hashlib.sha256(pdp.delays_ns[index].tobytes()).hexdigest() == TREND_COMB_DIGEST

    @pytest.mark.parametrize("name, doppler_hz, period_s, count, digest", [
        ("IWLAN_B", 22.24, 0.5e-3, 3000,
         "25e98b94f67184b0ea580a738a4314e056f48bd4203b0219ad5b628cefbcb372"),
        ("WLAN_C", 22.24, 0.125, 3000,
         "b2f4dc731e9730ba784db888a8b0d1f2d45b0f99dec018ce61daf78a639b2c45"),
        ("IWLAN_A", 0.0, 0.5e-3, 3000,
         "50643ef13e5a5a9dadc47ca47b714d6fd854af1bf1b2ce400d53bc72c9a22800"),
        ("IWLAN_B", 0.4995 / 5e-4, 0.5e-3, 20_000,
         "17bed04774ce95058c69bfca08fb1de39daf806c14cdc86522bc9d6344c0af7a"),
    ], ids=["ifft", "independent", "frozen", "ifft-band-filling"])
    def test_gains_are_pinned(self, name, doppler_hz, period_s, count, digest):
        # Digests of the gains before row blocks, on the ROUTES combs and a
        # band-filling one.  Its 32,737 bins are enough for numpy to reuse
        # temporaries, which sets the operand order, and so the last bits, of
        # the bins' phase shift.
        gains = tap_gain_series(build_pdp(name), FadingConfig(doppler_hz=doppler_hz),
                                period_s, count, 0.0003, np.random.default_rng(37))
        assert hashlib.sha256(gains.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("count", [65_536, 100_000])
    def test_fast_sampling_draws_are_independent(self, count):
        # period far beyond coherence time: successive gains decorrelate,
        # whatever the comb length
        pdp = build_pdp("IWLAN_A")
        fading = FadingConfig(doppler_hz=60.0)
        g = tap_gain_series(pdp, fading, 0.1, count, 0.0,
                            np.random.default_rng(13))[0]
        r1 = np.mean(g[1:] * np.conj(g[:-1])) / np.mean(np.abs(g) ** 2)
        assert abs(r1) < 0.02


class TestDetection:
    @staticmethod
    def detect(monkeypatch, pdp, gains, rows=4):
        """The detector on each tap's ``gains`` at up to four instants, fed as
        the comb's layout of 4 phases of 4 points: one instant per row, every
        tap of a block of ``rows`` rows before the next block."""
        def comb_blocks(pdp, fading, layout, offset_s, rng):
            for first in range(0, 4, rows):
                for i, tap in enumerate(gains):
                    block = np.zeros((4, 4), dtype=complex)
                    block[:len(tap), 0] = tap
                    yield i, first, block[first:first + rows]

        monkeypatch.setattr(channel, "_comb_blocks", comb_blocks)
        return detected_excess_series(pdp, FadingConfig(doppler_hz=22.24), 5e-4,
                                      len(gains[0]), 0.0, np.random.default_rng(0))

    def test_strongest_tap_policy(self, monkeypatch):
        pdp = PowerDelayProfile([(0.0, 0.0), (100.0, -3.0)])
        index = self.detect(monkeypatch, pdp, [[1.0, 2.0], [2.0, 1.0]])
        assert index.tolist() == [1, 0]
        assert pdp.delays_ns[index].tolist() == [100.0, 0.0]

    @pytest.mark.parametrize("name", ["WLAN_A", "IWLAN_B"])
    def test_series_stays_on_tap_grid(self, name):
        pdp = build_pdp(name)
        fading = FadingConfig(doppler_hz=22.24)
        index = detected_excess_series(pdp, fading, 1e-3, 5000, 0.0,
                                       np.random.default_rng(19))
        assert index.dtype == np.uint8 and index.max() < pdp.n_taps
        excess = pdp.delays_ns[index]
        assert excess.min() >= 0.0
        assert excess.max() <= pdp.max_excess_delay_ns
        assert set(np.unique(excess)).issubset(set(pdp.delays_ns))

    def test_series_matches_pointwise_detection(self):
        # streaming argmax and one-shot detection draw from the same law
        pdp = build_pdp("IWLAN_A")
        fading = FadingConfig(doppler_hz=0.0)
        n = 3000
        rng = np.random.default_rng(23)
        from_series = pdp.delays_ns[[
            detected_excess_series(pdp, fading, 1e-3, 1, 0.0, rng)[0]
            for _ in range(n)
        ]]
        rng = np.random.default_rng(24)
        pointwise = pdp.delays_ns[[
            strongest_taps(realize_channel(pdp, fading, 0.0, rng).tap_gains)
            for _ in range(n)
        ]]
        se = math.hypot(from_series.std(), pointwise.std()) / math.sqrt(n)
        assert abs(from_series.mean() - pointwise.mean()) < 4.0 * se + 1e-9

    @ROUTES
    def test_series_is_argmax_of_tap_gains(self, name, doppler_hz, period_s):
        pdp = build_pdp(name)
        fading = FadingConfig(doppler_hz=doppler_hz)
        n, offset_s = 3000, 0.0003
        index = detected_excess_series(pdp, fading, period_s, n, offset_s,
                                       np.random.default_rng(37))
        gains = tap_gain_series(pdp, fading, period_s, n, offset_s,
                                np.random.default_rng(37))
        assert index.dtype == np.uint8
        assert np.array_equal(index, strongest_taps(gains))

    def test_indices_past_one_byte_widen(self):
        # 257 taps need a two-byte index, still the argmax of the gains.
        pdp = PowerDelayProfile([(25.0 * i, -0.1 * i) for i in range(257)])
        fading = FadingConfig(doppler_hz=22.24)
        index = detected_excess_series(pdp, fading, 5e-4, 3000, 0.0003,
                                       np.random.default_rng(41))
        gains = tap_gain_series(pdp, fading, 5e-4, 3000, 0.0003, np.random.default_rng(41))
        assert index.dtype == np.uint16
        assert np.array_equal(index, strongest_taps(gains))

    def test_earlier_tap_wins_a_tie(self, monkeypatch):
        pdp = PowerDelayProfile([(0.0, 0.0), (50.0, -1.0), (100.0, -2.0)])
        gains = [[1, 1, 0.5, 1], [1j, 2, 0.5j, -1], [-1, 2j, 0.5, 3]]
        for rows in (1, 2, 4):
            assert self.detect(monkeypatch, pdp, gains, rows).tolist() == [0, 1, 0, 2]

    @pytest.mark.parametrize("doppler_hz, spectra", [
        (22.24, 0.5), (0.4995 / 5e-4, 5.5), (0.0, 0.65), (1000.0, 3.7),
    ], ids=["narrow", "band-filling", "frozen", "independent"])
    def test_series_memory_stays_near_one_spectrum(self, doppler_hz, spectra):
        # In units of one 16 * n_fft-byte spectrum.  Only the tap index (1 byte
        # a point), one row block, squared in its own memory, its running best
        # power and comparison, every tap's bins and one tap's draw
        # temporaries live at once: 0.48 spectra on a narrow band, whose
        # 512 KiB row blocks are a sixteenth of a spectrum (0.51 with a
        # separate tap power, 0.63 with the float64 series looked up from the
        # index, 0.91 with 2 MiB blocks, 0.83 with half a comb's best and one
        # tap's bins at a time), and 5.37 when the band fills the comb, a
        # one-row comb that holds one tap's bins at a time (5.87 with a
        # separate tap power, 6.12 with an int32 place per bin, 5.62 with each
        # tap's bins drawn after its row block was freed), where the bins, the
        # one row and the coefficients' temporaries are each about a spectrum
        # (2.06 and 7.06 with whole-spectrum transforms).  A frozen comb holds
        # the index, the best power and the comparison over the whole comb,
        # 10 B a point, 0.63 spectra (1.13 with a separate tap power, as the
        # read-only broadcast draw could not be squared in place); independent
        # draws add a tap's draw and its temporaries, 3.64 spectra (4.14).
        count = 1 << 19
        pdp = build_pdp("IWLAN_B")
        fading = FadingConfig(doppler_hz=doppler_hz)
        peak, _ = traced_peak(lambda: detected_excess_series(
            pdp, fading, 5e-4, count, 0.0, np.random.default_rng(3)))
        assert peak <= spectra * count * 16

    @ROUTES
    def test_row_blocks_do_not_change_the_series(self, monkeypatch, name, doppler_hz,
                                                 period_s):
        # One row per block, three rows (the ifft comb's 32 phases leave a
        # ragged last block) and one block for the whole comb: the tap
        # indices, the gains and the generator's state afterwards are those
        # of the default block size.
        pdp = build_pdp(name)
        fading = FadingConfig(doppler_hz=doppler_hz)
        n, offset_s = 3000, 0.0003

        def series():
            out = []
            for f in (detected_excess_series, tap_gain_series):
                rng = np.random.default_rng(37)
                out += [f(pdp, fading, period_s, n, offset_s, rng).tobytes(),
                        rng.bit_generator.state]
            return out

        expected = series()
        n_fft, _, kmax, phases, m = channel._comb_layout(doppler_hz, period_s, n)
        assert phases == (32 if kmax else 1)
        for block in (m, 3 * m, n_fft):
            monkeypatch.setattr(channel, "_BLOCK", block)
            assert series() == expected

    @pytest.mark.parametrize("doppler_hz, count, blocks", [
        (22.24, 3000, 1), (22.24, 3000, 2), (0.4995 / 5e-4, 20_000, 1)],
        ids=["ifft", "ifft-two-blocks", "ifft-band-filling"])
    def test_each_tap_draws_its_spectrum_once(self, monkeypatch, doppler_hz, count, blocks):
        # The 32-phase comb in one row block and in two, and the band-filling
        # comb, which is one row: each tap draws its bins' real and imaginary
        # parts once, in tap order, before its first transform, and no later
        # block draws again.
        events = []
        ifft = np.fft.ifft

        def recording_ifft(a, *args, **kwargs):
            events.append(("ifft", len(a)))
            return ifft(a, *args, **kwargs)

        class RecordingRng:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, size):
                events.append(("draw", size))
                return self.rng.standard_normal(size)

        _, _, kmax, phases, m = channel._comb_layout(doppler_hz, 5e-4, count)
        monkeypatch.setattr(channel, "_BLOCK", phases * m // blocks)
        monkeypatch.setattr(np.fft, "ifft", recording_ifft)
        pdp = build_pdp("IWLAN_B")
        fading = FadingConfig(doppler_hz=doppler_hz)
        got = detected_excess_series(pdp, fading, 5e-4, count, 0.0003,
                                     RecordingRng(np.random.default_rng(37)))
        rows = phases // blocks
        first_block = [("draw", 2 * kmax + 1)] * 2 + [("ifft", rows)]
        assert events == (first_block * pdp.n_taps
                          + [("ifft", rows)] * (pdp.n_taps * (blocks - 1)))
        assert got.tobytes() == detected_excess_series(
            pdp, fading, 5e-4, count, 0.0003, np.random.default_rng(37)).tobytes()

    def test_single_tap_never_errs(self):
        index = detected_excess_series(build_pdp("AWGN"), FadingConfig(), 1e-3,
                                       100, 0.0, np.random.default_rng(0))
        assert index.dtype == np.uint8 and not index.any()


@given(rms=st.floats(5.0, 60.0), excess=st.floats(150.0, 1000.0))
@settings(max_examples=60, deadline=None)
def test_synthesis_hits_requested_spread(rms, excess):
    # stay clearly inside the uniform-power feasibility limit of the grid
    assume(rms <= 0.28 * excess)
    pdp = build_pdp((rms, excess))
    assert rms_delay_spread(pdp) == pytest.approx(rms, rel=0.01)
    assert pdp.max_excess_delay_ns == pytest.approx(excess)
    assert pdp.n_taps <= 10


# Pairs inside the feasible range: at most 0.3 of the excess stays below the
# uniform-power limit of every grid of up to 10 taps, and at least 1e-3 of it
# above the spread at the bracket's 1e-3 ns end.
@given(excess=st.floats(1.0, 1e5), fraction=st.floats(1e-3, 0.3))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_bisection_agrees_with_brentq(excess, fraction):
    rms = fraction * excess
    pdp = build_pdp((rms, excess))
    delays = pdp.delays_ns

    def spread_error(log_alpha):
        return channel._moment_rms(delays, np.exp(-delays / math.exp(log_alpha))) - rms

    bracket = (math.log(1e-3), math.log(1e9))
    root = channel._bisect(spread_error, *bracket)
    assert root == pytest.approx(brentq(spread_error, *bracket, xtol=1e-12), rel=0, abs=1e-12)
    assert rms_delay_spread(pdp) == pytest.approx(rms, rel=1e-9)
