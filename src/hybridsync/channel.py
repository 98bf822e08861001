"""Tapped delay line wireless channels with Doppler-shaped fading.

Profiles are synthesized as exponentially decaying taps on a uniform delay
grid, solved so the rms delay spread hits a target value.  Each tap fades
as a Rayleigh process under the Jakes Doppler spectrum, whose
autocorrelation is ``J0(2 * pi * f_d * tau)``.
A strongest-tap detector locks onto the replica with the most
instantaneous power, which is what injects multipath error into receive
timestamps.

Tap gains are sampled on regular combs with period ``T``, and the synthesis
route follows from ``f_d * T`` alone: a zero Doppler freezes each tap to one
draw, ``f_d * T >= 0.5`` gives independent draws, and every other comb is an
inverse DFT of the Doppler spectrum run as band-sized polyphase transforms
(Young & Beaulieu 2000; Markel 1971).  A single instant is a one-sample comb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Real

import numpy as np

__all__ = [
    "CHANNEL_CATALOG",
    "ChannelRealization",
    "ChannelSpecError",
    "FadingConfig",
    "LinkGeometry",
    "PowerDelayProfile",
    "SPEED_OF_LIGHT_M_PER_NS",
    "build_pdp",
    "canonical_channel_name",
    "detect_arrival",
    "detected_excess_series",
    "doppler_from_speed",
    "propagation_delay_ns",
    "realize_channel",
    "rms_delay_spread",
    "tap_gain_series",
]

SPEED_OF_LIGHT_M_PER_NS = 0.2998
CARRIER_HZ = 2.4e9
DEFAULT_TAP_SPACING_NS = 25.0
MAX_TAPS = 10


class ChannelSpecError(ValueError):
    """Raised for unknown channel names, malformed specs or infeasible profile targets."""


@dataclass(frozen=True)
class PowerDelayProfile:
    """Tap delays (ns) and mean tap powers (dB), first tap at delay 0.

    ``taps`` may be any iterable of (delay, power) pairs; it is stored as a
    tuple of float pairs.
    """

    taps: tuple[tuple[float, float], ...]

    def __post_init__(self):
        taps = tuple((float(d), float(p)) for d, p in self.taps)
        object.__setattr__(self, "taps", taps)
        delays = [d for d, _ in taps]
        if not delays or delays[0] != 0.0:
            raise ChannelSpecError("first tap must sit at delay 0")
        if any(b <= a for a, b in zip(delays, delays[1:])):
            raise ChannelSpecError("tap delays must be strictly increasing")

    @property
    def max_excess_delay_ns(self) -> float:
        return self.taps[-1][0] - self.taps[0][0]

    @cached_property
    def delays_ns(self) -> np.ndarray:
        return np.array([d for d, _ in self.taps])

    @cached_property
    def linear_powers(self) -> np.ndarray:
        return 10.0 ** (np.array([p for _, p in self.taps]) / 10.0)

    @property
    def n_taps(self) -> int:
        return len(self.taps)


@dataclass(frozen=True)
class FadingConfig:
    """Rayleigh fading statistics of every tap.

    ``doppler_hz`` of zero freezes the channel: one draw per tap, constant
    over time.  ``spectrum`` names the Doppler power spectrum that correlates
    successive realizations; Jakes is the only one.
    """

    spectrum: str = "jakes"
    doppler_hz: float = 0.0

    def __post_init__(self):
        if self.spectrum != "jakes":
            raise ChannelSpecError(f"unknown Doppler spectrum {self.spectrum!r}")
        if not 0 <= self.doppler_hz < math.inf:
            raise ChannelSpecError(f"doppler_hz must be finite and >= 0, got {self.doppler_hz!r}")


@dataclass(frozen=True)
class ChannelRealization:
    """Instantaneous complex tap gains drawn at one emission instant."""

    tap_gains: np.ndarray


@dataclass(frozen=True)
class LinkGeometry:
    """Line-of-sight distance plus any fixed processing/port delay."""

    distance_m: float = 0.0
    base_delay_ns: float = 0.0

    def __post_init__(self):
        if not (0 <= self.distance_m < math.inf and 0 <= self.base_delay_ns < math.inf):
            raise ChannelSpecError("distance and base delay must be finite and >= 0")


def propagation_delay_ns(geometry: LinkGeometry) -> float:
    """One-way flight time plus the fixed base delay."""
    return geometry.distance_m / SPEED_OF_LIGHT_M_PER_NS + geometry.base_delay_ns


def doppler_from_speed(speed_kmh: float) -> float:
    """Maximum Doppler shift for a scatterer speed in km/h at the 2.4 GHz carrier."""
    if not 0 <= speed_kmh < math.inf:
        raise ChannelSpecError(f"speed_kmh must be finite and >= 0, got {speed_kmh!r}")
    c_m_per_s = SPEED_OF_LIGHT_M_PER_NS * 1e9
    return speed_kmh / 3.6 * CARRIER_HZ / c_m_per_s


def _moment_rms(delays: np.ndarray, powers: np.ndarray) -> float:
    total = powers.sum()
    mean = float((powers * delays).sum() / total)
    second = float((powers * delays**2).sum() / total)
    return math.sqrt(max(second - mean * mean, 0.0))


def rms_delay_spread(pdp: PowerDelayProfile) -> float:
    """Power-weighted rms spread of the tap delays, in linear power."""
    return _moment_rms(pdp.delays_ns, pdp.linear_powers)


# Catalog of named scenarios: (scenario label, rms delay spread ns, max excess ns).
CHANNEL_CATALOG = {
    "AWGN": ("Ideal", 0.0, 0.0),
    "WLAN_A": ("Small Office", 50.0, 390.0),
    "WLAN_C": ("Large Office", 150.0, 1050.0),
    "IWLAN_A": ("Industrial", 29.0, 140.0),
    "IWLAN_B": ("Industrial", 89.0, 600.0),
}

_NAME_LOOKUP = {k.replace("_", "").upper(): k for k in CHANNEL_CATALOG}

# The solver's decay constants (log of the 1/e delay in ns) for the multipath
# catalog profiles, keyed by (rms, max excess); pinned so that a run on a
# catalog channel never imports scipy.
_PINNED_LOG_ALPHA = {CHANNEL_CATALOG[name][1:]: log_alpha for name, log_alpha in (
    ("WLAN_A", 3.949718716662003), ("WLAN_C", 5.05072294688385),
    ("IWLAN_A", 3.4866243795400926), ("IWLAN_B", 4.53097952311596))}


def canonical_channel_name(name: str) -> str:
    key = "".join(ch for ch in name if ch.isalnum()).upper()
    try:
        return _NAME_LOOKUP[key]
    except KeyError:
        raise ChannelSpecError(f"unknown channel {name!r}") from None


def _synthesize_pdp(rms_target_ns: float, max_excess_ns: float) -> PowerDelayProfile:
    if max_excess_ns == 0.0:
        if rms_target_ns != 0.0:
            raise ChannelSpecError("single-tap profile cannot have nonzero delay spread")
        return PowerDelayProfile(((0.0, 0.0),))
    if rms_target_ns <= 0.0:
        raise ChannelSpecError("multi-tap profile needs a positive rms delay spread")
    n_taps = max(min(MAX_TAPS, round(max_excess_ns / DEFAULT_TAP_SPACING_NS) + 1), 2)
    delays = np.linspace(0.0, max_excess_ns, n_taps)
    with np.errstate(over="ignore", invalid="ignore"):
        uniform_limit = _moment_rms(delays, np.ones(n_taps))
    if not math.isfinite(uniform_limit):
        raise ChannelSpecError(f"channel [{rms_target_ns!r}, {max_excess_ns!r}] has no finite "
                               "uniform-power limit: its delay moments overflow")
    if rms_target_ns >= uniform_limit:
        raise ChannelSpecError(
            f"rms delay spread {rms_target_ns} ns unreachable on a "
            f"{n_taps}-tap grid spanning {max_excess_ns} ns "
            f"(uniform-power limit {uniform_limit:.1f} ns)"
        )

    def spread_error(log_alpha: float) -> float:
        powers = np.exp(-delays / math.exp(log_alpha))
        return _moment_rms(delays, powers) - rms_target_ns

    log_alpha = _PINNED_LOG_ALPHA.get((rms_target_ns, max_excess_ns))
    if log_alpha is None:
        bracket = (math.log(1e-3), math.log(1e9))
        errors = [spread_error(end) for end in bracket]
        if min(errors) > 0.0 or max(errors) < 0.0:
            low, high = (rms_target_ns + err for err in errors)
            raise ChannelSpecError(
                f"channel [{rms_target_ns!r}, {max_excess_ns!r}] has no decay constant "
                f"in 1e-3..1e9 ns: its rms delay spread runs from {low:.6g} to {high:.6g} ns")
        from scipy.optimize import brentq

        log_alpha = brentq(spread_error, *bracket, xtol=1e-12)
    powers_db = -delays / math.exp(log_alpha) * (10.0 / math.log(10.0))
    return PowerDelayProfile(zip(delays, powers_db))


# Every profile is built once per (rms, max excess) pair of floats, so a
# custom pair runs the solver once, not once per topology and replica.
_cached_pdp = lru_cache(maxsize=64)(_synthesize_pdp)


def build_pdp(spec) -> PowerDelayProfile:
    """Build a profile from a catalog name or an ``(rms, max_excess)`` pair."""
    if isinstance(spec, PowerDelayProfile):
        return spec
    if isinstance(spec, str):
        _, rms, excess = CHANNEL_CATALOG[canonical_channel_name(spec)]
        return _cached_pdp(rms, excess)
    if not (isinstance(spec, (tuple, list)) and len(spec) == 2 and all(
            isinstance(x, Real) and not isinstance(x, bool) and 0 <= x < math.inf
            for x in spec)):
        raise ChannelSpecError(
            f"channel must be a catalog name ({', '.join(CHANNEL_CATALOG)}) or an "
            f"[rms_ns, max_excess_ns] pair of finite numbers >= 0, got {spec!r}")
    return _cached_pdp(*map(float, spec))


def _jakes_cdf(x: np.ndarray) -> np.ndarray:
    """CDF of the Jakes spectrum on x = f / f_d over the band [-1, 1].

    Bin masses taken from the CDF are exact and need no special handling of
    the band-edge singularity of the density.
    """
    x = np.clip(x, -1.0, 1.0)
    return 0.5 + np.arcsin(x) / math.pi


def realize_channel(pdp, fading, true_time_ns, rng) -> ChannelRealization:
    """Draw instantaneous tap gains at one instant: a one-sample comb."""
    gains = tap_gain_series(pdp, fading, 1.0, 1, true_time_ns * 1e-9, rng)[:, 0]
    return ChannelRealization(gains)


def detect_arrival(realization: ChannelRealization, pdp: PowerDelayProfile) -> float:
    """Excess delay (ns) of the instantaneous strongest tap."""
    idx = int(np.argmax(np.abs(realization.tap_gains) ** 2))
    delays = pdp.delays_ns
    return float(delays[idx] - delays[0])


# --- Series synthesis for periodic sampling ----------------------------------


def _tap_series(power, fading, period_s, count, offset_s, rng) -> np.ndarray:
    """One tap's complex gains at instants ``offset_s + n * period_s``.

    The route depends only on the Doppler frequency ``f_d`` and the period
    ``T``: ``f_d = 0`` is one frozen draw, ``f_d * T >= 0.5`` (sampling far
    coarser than the coherence time) gives independent draws, and anything
    else is band-limited spectral synthesis by an inverse DFT.

    Every route returns a phase-major ``(phases, m)`` block, sample ``n`` at
    ``[n % phases, n // phases]``: draws are one row, and the inverse DFT is
    ``n_fft // m`` transforms of the smallest power of two ``m`` holding the
    band, row ``l`` on the bins turned by ``exp(2j * pi * k * l / n_fft)``.
    """
    f_d = fading.doppler_hz
    if f_d == 0.0:
        gain = math.sqrt(power / 2.0) * complex(rng.standard_normal(), rng.standard_normal())
        return np.full((1, count), gain, dtype=complex)
    if f_d * period_s >= 0.5:
        return math.sqrt(power / 2.0) * (
            rng.standard_normal((1, count)) + 1j * rng.standard_normal((1, count))
        )
    # Inverse DFT of the Doppler spectrum (Young & Beaulieu 2000).
    n_fft = 1 << max(4, (count - 1).bit_length())
    df = 1.0 / (n_fft * period_s)
    kmax = int(math.floor(f_d / df)) + 1
    k = np.arange(-kmax, kmax + 1)
    upper = np.clip((k + 0.5) * df, -f_d, f_d)
    lower = np.clip((k - 0.5) * df, -f_d, f_d)
    masses = power * (_jakes_cdf(upper / f_d) - _jakes_cdf(lower / f_d))
    coeffs = np.sqrt(masses / 2.0) * (
        rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k))
    )
    coeffs = coeffs * np.exp(2j * math.pi * k * df * offset_s)
    m = min(1 << (2 * kmax).bit_length(), n_fft)
    spectrum = np.zeros((n_fft // m, m), dtype=complex)
    bins, turn = k % m, np.exp(2j * math.pi / n_fft * k)
    for row in spectrum:
        # Bins +-n_fft/2 alias when f_d * T nears 0.5 (one row, m == n_fft); sum them.
        np.add.at(row, bins, coeffs)
        coeffs *= turn
    # Unnormalised, in place: m is a power of two, so each row is bitwise
    # ``ifft(row) * m`` without its two extra arrays.
    return np.fft.ifft(spectrum, norm="forward", out=spectrum, axis=1)


def tap_gain_series(
    pdp: PowerDelayProfile,
    fading: FadingConfig,
    period_s: float,
    count: int,
    offset_s: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Complex gains of every tap on a regular comb, shape ``(n_taps, count)``."""
    powers = pdp.linear_powers
    out = np.empty((pdp.n_taps, count), dtype=complex)
    for i in range(pdp.n_taps):
        out[i] = _tap_series(powers[i], fading, period_s, count, offset_s, rng).T.ravel()[:count]
    return out


def detected_excess_series(
    pdp: PowerDelayProfile,
    fading: FadingConfig,
    period_s: float,
    count: int,
    offset_s: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Excess delay (ns) of the strongest tap at each comb instant.

    Synthesizes taps one at a time so long runs stay within memory: only the
    running best power (float64) and tap index (one byte up to 256 taps)
    persist, and each tap's ``16 * n_fft``-byte inverse-DFT buffer and power
    are freed before the next tap is drawn, all in the phase-major layout of
    ``_tap_series`` until the end.  The earlier tap wins a tie.
    """
    if pdp.n_taps == 1:
        return np.zeros(count)
    powers = pdp.linear_powers
    delays = pdp.delays_ns
    for i in range(pdp.n_taps):
        power = np.abs(_tap_series(powers[i], fading, period_s, count, offset_s, rng))
        np.square(power, out=power)
        if i == 0:
            best_power = power
            best_tap = np.zeros(power.shape, dtype=np.min_scalar_type(pdp.n_taps - 1))
            continue
        better = power > best_power
        np.copyto(best_power, power, where=better)
        np.copyto(best_tap, i, where=better)
        del power, better
    return delays[best_tap.T.ravel()[:count]] - delays[0]
