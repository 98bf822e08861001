"""Tapped delay line wireless channels with Doppler-shaped fading.

Profiles are synthesized as exponentially decaying taps on a uniform delay
grid, solved so the rms delay spread hits a target value.  Each tap fades
as a Rayleigh process under the Jakes Doppler spectrum, whose
autocorrelation is ``J0(2 * pi * f_d * tau)``.
A strongest-tap detector locks onto the replica with the most
instantaneous power, which is what injects multipath error into receive
timestamps.  It gives that tap's index at each instant, one byte up to 256
taps, which the profile's ``delays_ns`` turns into the detected excess
delay, as the first tap sits at delay 0.

Tap gains are sampled on regular combs with period ``T``, and the synthesis
route follows from ``f_d * T`` alone: a zero Doppler freezes each tap to one
draw, ``f_d * T >= 0.5`` gives independent draws, and every other comb is an
inverse DFT of the Doppler spectrum run as band-sized polyphase transforms
(Young & Beaulieu 2000; Markel 1971), one row block at a time, every tap of
a block before the next, so that the detector squares each block in its own
memory and holds the running best power of one block: whole rows of at most
``2 ** 15`` samples (512 KiB), such as one 32,768-point row of the one-way
trend comb, or one longer row.  Draws are one block, a frozen tap's one
value broadcast over its comb.  A single instant is a one-sample comb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .protocol import refuse, refuse_bad_fields

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
        refuse_bad_fields(self, ChannelSpecError, doppler_hz=(0, None))


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
        refuse_bad_fields(self, ChannelSpecError, distance_m=(0, None), base_delay_ns=(0, None))


def propagation_delay_ns(geometry: LinkGeometry) -> float:
    """One-way flight time plus the fixed base delay."""
    return geometry.distance_m / SPEED_OF_LIGHT_M_PER_NS + geometry.base_delay_ns


def doppler_from_speed(speed_kmh: float) -> float:
    """Maximum Doppler shift for a scatterer speed in km/h at the 2.4 GHz carrier."""
    refuse("speed_kmh", speed_kmh, float, 0, None, ChannelSpecError)
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

# The decay constants (log of the 1/e delay in ns) of the multipath catalog
# profiles, keyed by (rms, max excess), as Brent's method found them; pinned
# so that the catalog profiles' bits do not depend on the solver.
_PINNED_LOG_ALPHA = {CHANNEL_CATALOG[name][1:]: log_alpha for name, log_alpha in (
    ("WLAN_A", 3.949718716662003), ("WLAN_C", 5.05072294688385),
    ("IWLAN_A", 3.4866243795400926), ("IWLAN_B", 4.53097952311596))}


def canonical_channel_name(name: str) -> str:
    key = "".join(ch for ch in name if ch.isalnum()).upper()
    try:
        return _NAME_LOOKUP[key]
    except KeyError:
        raise ChannelSpecError(f"unknown channel {name!r}") from None


def _bisect(f, low: float, high: float) -> float:
    """Root of ``f``, which rises from ``f(low) <= 0`` to ``f(high) >= 0``: the
    upper end of the bracket, halved until its ends are adjacent floats."""
    while low < (mid := 0.5 * (low + high)) < high:
        if f(mid) < 0.0:
            low = mid
        else:
            high = mid
    return high


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
        log_alpha = _bisect(spread_error, *bracket)
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
    if not (isinstance(spec, (tuple, list)) and len(spec) == 2):
        raise ChannelSpecError(
            f"channel must be a catalog name ({', '.join(CHANNEL_CATALOG)}) or an "
            f"[rms_ns, max_excess_ns] pair of finite numbers >= 0, got {spec!r}")
    for name, x in zip(("rms_ns", "max_excess_ns"), spec):
        refuse(f"channel {name}", x, float, 0, None, ChannelSpecError)
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


# --- Series synthesis for periodic sampling ----------------------------------

# Most samples per inverse-DFT row block: 512 KiB, one 32,768-point row of the
# one-way trend comb, whose block, best power and comparison are then a
# quarter of 2 MiB blocks'; shorter rows batch up to 2 ** 15 samples.
# With 2 ** 16, every trend-comb call took 76k minor faults, not 2-3k.
_BLOCK = 2 ** 15


def _comb_layout(f_d, period_s, count):
    """``(n_fft, df, kmax, phases, m)``: sample ``n`` of a tap sits at ``[n % phases,
    n // phases]`` of a phase-major ``(phases, m)`` block; draws have ``kmax == 0``."""
    if f_d == 0.0 or f_d * period_s >= 0.5:
        return count, 0.0, 0, 1, count
    n_fft = 1 << max(4, (count - 1).bit_length())
    df = 1.0 / (n_fft * period_s)
    kmax = int(math.floor(f_d / df)) + 1
    m = min(1 << (2 * kmax).bit_length(), n_fft)
    return n_fft, df, kmax, n_fft // m, m


def _block_rows(phases, m):
    """Rows in each of ``_comb_blocks``' row blocks but its last: whole rows of
    at most ``_BLOCK`` samples, or one row."""
    return min(phases, max(1, _BLOCK // m))


def _place_bins(row, coeffs, kmax):
    """Add the bins ``k = -kmax..kmax`` of ``coeffs`` at places ``k % m`` of the
    zeroed ``m``-point ``row``: bitwise ``np.add.at(row, k % m, coeffs)``, by
    two slice adds in its order.  The bins +-m/2 of a band-filling comb
    (``m == 2 * kmax``) alias and sum as ``(0 + coeffs[0]) + coeffs[-1]``."""
    row[len(row) - kmax:] += coeffs[:kmax]
    row[:kmax + 1] += coeffs[kmax:]


def _comb_blocks(pdp, fading, layout, offset_s, rng):
    """Yield ``(tap, first_row, gains)``: every tap's complex gains at instants
    ``offset_s + n * period_s`` on rows ``first_row...`` of its ``layout``
    (a ``_comb_layout``), one row block after another, every tap of a block
    before the next block.

    The route depends only on the Doppler frequency ``f_d`` and the period
    ``T``: ``f_d = 0`` is one frozen draw, ``f_d * T >= 0.5`` (sampling far
    coarser than the coherence time) gives independent draws, and anything
    else is band-limited spectral synthesis by an inverse DFT, row ``l`` on
    the bins turned by ``exp(2j * pi * k * l / n_fft)``.  Draws are one
    block, the array drawn: ``(1, 1)`` frozen, for the consumer to broadcast
    over the comb, or ``(1, m)``.  Inverse-DFT blocks hold at most ``_BLOCK``
    samples of one buffer, reused by the next yield, so a consumer may write
    over a block.  Each tap draws its spectrum from ``rng`` in tap order
    during the first block and drops it after its last; the bins ``k`` and
    their masses go once the last tap has drawn.
    """
    n_fft, df, kmax, phases, m = layout
    powers = pdp.linear_powers
    if not kmax:  # one draw held over the comb if f_d = 0, else one per sample
        shape = (1, 1 if fading.doppler_hz == 0.0 else m)
        for i, power in enumerate(powers):
            yield i, 0, math.sqrt(power / 2.0) * (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        return
    # Inverse DFT of the Doppler spectrum (Young & Beaulieu 2000): the bins k,
    # their masses (the Jakes CDF step across their edges (k -+ 0.5) * df)
    # and the turn from one row to the next.  int32 halves k beside int64,
    # and converts exactly.
    k = np.arange(-kmax, kmax + 1, dtype=np.int32)
    masses = np.diff(_jakes_cdf(np.arange(-kmax - 0.5, kmax + 1) * df / fading.doppler_hz))
    # One phase has no next row; skipping its turn spares a spectrum-sized array.
    turn = np.exp(2j * math.pi / n_fft * k) if phases > 1 else 1.0
    rows = _block_rows(phases, m)
    buffer = np.empty((rows, m), complex)
    coeffs = [None] * len(powers)
    for first in range(0, phases, rows):
        block = buffer[:phases - first]
        for i, power in enumerate(powers):
            if not first:
                coeffs[i] = np.sqrt(power * masses / 2.0) * (
                    rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k)))
                # coeffs * exp at every size, written over the exp: written over
                # coeffs[i] instead, a fresh process's trend comb took 72k minor
                # faults, not 3k, as glibc's malloc laid the heap out otherwise.
                shift = np.exp(2j * math.pi * k * df * offset_s)
                coeffs[i] = np.multiply(coeffs[i], shift, out=shift)
                del shift
                if i == len(powers) - 1:  # only the draws read k and the masses
                    del k, masses
            block.fill(0.0)
            for row in block:
                _place_bins(row, coeffs[i], kmax)
                coeffs[i] *= turn
            if first + rows >= phases:
                coeffs[i] = None
            # Unnormalised, in place: m is a power of two, so each row is bitwise
            # ``ifft(row) * m`` without its two extra arrays.
            yield i, first, np.fft.ifft(block, norm="forward", out=block, axis=1)


def tap_gain_series(
    pdp: PowerDelayProfile,
    fading: FadingConfig,
    period_s: float,
    count: int,
    offset_s: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Complex gains of every tap on a regular comb, shape ``(n_taps, count)``,
    each row of each block copied straight to its strided samples (a frozen
    tap's one draw broadcast over them)."""
    layout = _comb_layout(fading.doppler_hz, period_s, count)
    phases = layout[3]
    out = np.empty((pdp.n_taps, count), dtype=complex)
    for i, first, block in _comb_blocks(pdp, fading, layout, offset_s, rng):
        for phase, gains in enumerate(block, first):
            out[i, phase::phases] = gains[:len(range(phase, count, phases))]
    return out


def detected_excess_series(
    pdp: PowerDelayProfile,
    fading: FadingConfig,
    period_s: float,
    count: int,
    offset_s: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """The index of the strongest tap at each comb instant, in the smallest
    unsigned type that holds every index (one byte up to 256 taps);
    ``pdp.delays_ns[index]`` is that tap's excess delay (ns).

    Synthesizes a row block at a time (one 32,768-point row, 512 KiB, on the
    one-way trend comb), every tap of it before the next, so long runs stay
    within memory: only the index (1 byte per point of the ``_comb_layout``),
    every tap's bins and one block's gains, squared in place, running best
    power and comparison persist.  A frozen comb, one draw per tap, holds
    the index, best power and comparison of the whole comb: 10 B a point.
    Each tap draws its spectrum once, so the generator ends where
    ``tap_gain_series`` leaves it.  The earlier tap wins a tie.
    """
    dtype = np.min_scalar_type(pdp.n_taps - 1)
    if pdp.n_taps == 1:
        return np.zeros(count, dtype)
    layout = _comb_layout(fading.doppler_hz, period_s, count)
    phases, m = layout[3:]
    best_tap = np.zeros((phases, m), dtype)
    # One block's scratch, reused by every block; ``np.square`` is bitwise ``** 2``.
    shape = (_block_rows(phases, m), m)
    best_power, better = np.empty(shape), np.empty(shape, bool)
    for i, first, block in _comb_blocks(pdp, fading, layout, offset_s, rng):
        n = len(block)
        q, b = best_power[:n], better[:n]
        if not i:  # each block's contest starts afresh at its first tap
            q.fill(0.0)
        # |g| ** 2 in the block's own memory, bitwise a separate array's: its
        # real part, broadcast over the row if the block is one frozen draw.
        p = np.abs(block, out=block).real
        np.square(p, out=p)
        np.greater(p, q, out=b)
        np.copyto(q, p, where=b)
        np.copyto(best_tap[first:first + n], i, where=b)
    return best_tap.T.ravel()[:count]
