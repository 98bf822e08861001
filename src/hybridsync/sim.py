"""Deterministic discrete-event simulation of synchronization chains.

True time is carried as integer picoseconds so periodic schedules never
accumulate rounding drift.  Every node owns a PHC modeled affinely between
servo events (displayed = offset + rate * true_time); exchanges, servo
updates, drift-walk steps and PPS edges are merged chronologically.  At a
tie the PPS edge comes first, then the walk, then hops in declaration
order.  Each replica draws its randomness from an independently spawned
seed stream, so results do not depend on how replicas are distributed over
workers.

The per-sample synchronization error follows PPS semantics: it is the
difference of the true times at which the reference and the measured node's
counters cross the next whole pulse boundary, positive when the measured
clock runs ahead.  Clocks change only at hop and walk events, so PPS edges
are recorded per affine clock segment (every edge up to the next such
event) and evaluated in one vectorized pass after the event loop.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from numbers import Integral

import numpy as np

from .budget import (
    CDC_T_SRC_NS,
    ETHERNET_TS_NS,
    WIRELESS_TS_NS,
    chain_max_error,
    topology_budget,
)
from .cdc import cdc_read_error
from .channel import (
    FadingConfig,
    LinkGeometry,
    build_pdp,
    detected_excess_series,
    doppler_from_speed,
    propagation_delay_ns,
)
from .protocol import (
    PROTOCOL_PRESETS,
    SCHEME_FTM_BURST,
    SCHEME_ONE_WAY,
    SCHEME_TWO_WAY,
    ProtocolConfig,
)

__all__ = [
    "ExperimentConfig",
    "HopSpec",
    "PortSpec",
    "RunStats",
    "SIM_PRESETS",
    "Topology",
    "TopologyError",
    "build_topology",
    "compute_stats",
    "replica_pool",
    "run_experiment",
]

EMULATOR_BASE_DELAY_NS = 1135.0
OTA_LINK_M = 10.0  # calibrated over-the-air link length
REPLY_DELAY_S = 1e-3  # slave's reply after each arrival
BURST_SPACING_S = 1e-3  # between the exchanges of an FTM burst
WINDUP_PPM = 100.0  # anti-windup clamp on the servo's frequency integrator
HIST_BINS = 64
DIVERGENCE_FACTOR = 10.0

# Excess-delay series entries one replica may hold: about 0.5 GB at the 63 B
# per entry of peak RSS measured on one-way IWLAN_B (55 MB at 130 s, 102 MB
# at 520 s, 10 km/h), and 4x the largest preset default (emulator-wsharp,
# 2 kHz over 1000 s).
MAX_SERIES_ENTRIES = 2 ** 23

# The wireless scheme of every named setup, in the order the CLI lists them.
_PRESET_SCHEMES = {
    "calnex": SCHEME_TWO_WAY,
    "calnex-eth3": None,  # no wireless hop
    "emulator-80211": SCHEME_TWO_WAY,
    "emulator-wsharp": SCHEME_ONE_WAY,
    "ota-80211": SCHEME_TWO_WAY,
    "ota-wsharp": SCHEME_ONE_WAY,
}
SIM_PRESETS = tuple(_PRESET_SCHEMES)


class TopologyError(ValueError):
    """Raised for malformed node/hop graphs."""


@dataclass(frozen=True)
class PortSpec:
    """Timestamping interface of one hop endpoint."""

    sample_period_ns: float = ETHERNET_TS_NS
    cdc_t_src_ns: float = 0.0  # 0 means the port reads its PHC natively

    def __post_init__(self):
        if not (0 < self.sample_period_ns < math.inf and 0 <= self.cdc_t_src_ns < math.inf):
            raise ValueError("sample_period_ns must be finite and positive, "
                             "cdc_t_src_ns finite and >= 0")


@dataclass(frozen=True)
class HopSpec:
    """One synchronization hop: master disciplines slave over ethernet or a
    wireless medium.  Only wireless hops fade (when ``channel`` is set) and
    run one-way, as the one-way branch never quantizes the master's stamp."""

    master: str
    slave: str
    medium: str
    protocol: ProtocolConfig
    master_port: PortSpec
    slave_port: PortSpec
    geometry: LinkGeometry = field(default_factory=LinkGeometry)
    channel: str | None = None
    doppler_hz: float = 0.0
    stagger_s: float = 0.0

    def __post_init__(self):
        if self.medium not in ("ethernet", "wireless"):
            raise ValueError(f"unknown medium {self.medium!r}")
        if self.medium == "ethernet" and self.protocol.scheme == SCHEME_ONE_WAY:
            raise ValueError("an ethernet hop cannot run the one-way scheme")
        if self.channel is not None:
            build_pdp(self.channel)


@dataclass(frozen=True)
class Topology:
    """Node ids and hops of a chain; the one node no hop disciplines is its gmc."""

    name: str
    nodes: tuple[str, ...]
    hops: tuple[HopSpec, ...]
    measured_node: str
    reference_node: str

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise TopologyError("duplicate node ids")
        known = set(self.nodes)
        upstream: dict[str, int] = {}
        for i, hop in enumerate(self.hops):
            if hop.master not in known or hop.slave not in known:
                raise TopologyError(f"hop {i} references unknown nodes")
            if hop.slave in upstream:
                raise TopologyError(f"node {hop.slave} has two upstream hops")
            upstream[hop.slave] = i
        for probe in (self.measured_node, self.reference_node):
            if probe not in known:
                raise TopologyError(f"unknown probe node {probe!r}")
        roots = known - set(upstream)
        if len(roots) != 1:
            raise TopologyError("topology needs exactly one gmc: a node no hop disciplines")
        gmc, = roots
        for node in known - roots:
            seen, cur = set(), node
            while cur != gmc:
                if cur in seen:
                    raise TopologyError(f"node {node} is not chained to the gmc")
                seen.add(cur)
                cur = self.hops[upstream[cur]].master

    def upstream_path(self, node_id: str) -> list[int]:
        """Hop indices from the node up to the gmc."""
        upstream = {h.slave: i for i, h in enumerate(self.hops)}
        path, cur = [], node_id
        while cur in upstream:
            path.append(upstream[cur])
            cur = self.hops[upstream[cur]].master
        return path


@dataclass(frozen=True)
class RunStats:
    """Summary statistics of the PPS error samples of one experiment."""

    mu_ns: float
    sigma_ns: float
    mu_plus_3sigma_ns: float
    min_ns: float
    max_ns: float
    n_samples: int
    hist_edges: tuple[float, ...]
    hist_counts: tuple[int, ...]
    per_replica: tuple["RunStats", ...] = ()
    converged: bool = True


def compute_stats(samples) -> RunStats:
    """Mean, sample standard deviation and extrema of an error series."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ValueError("need at least two samples")
    mu = float(samples.mean())
    sigma = float(samples.std(ddof=1))
    counts, edges = np.histogram(samples, bins=HIST_BINS)
    return RunStats(
        mu_ns=mu,
        sigma_ns=sigma,
        mu_plus_3sigma_ns=abs(mu) + 3.0 * sigma,
        min_ns=float(samples.min()),
        max_ns=float(samples.max()),
        n_samples=int(samples.size),
        hist_edges=tuple(float(e) for e in edges),
        hist_counts=tuple(int(c) for c in counts),
    )


def _recorded_pps_edges(duration_ps: int, warmup_ps: int, pps_ps: int) -> tuple[int, int]:
    """First and last index k of the recorded PPS edges; edge k is at k * pps_ps."""
    return max(warmup_ps // pps_ps, 0) + 1, duration_ps // pps_ps


def _period_ps(name: str, seconds: float) -> int:
    """A period in whole picoseconds; refuses one that rounds below 1 ps."""
    if not (math.isfinite(seconds) and round(seconds * 1e12) >= 1):
        raise ValueError(f"{name} must be at least 1 ps, got {seconds!r}")
    return round(seconds * 1e12)


# --- Experiment configuration -------------------------------------------------


@dataclass
class ExperimentConfig:
    """Knobs of one Monte Carlo experiment.

    ``cdc_stages`` counts PHC translation stages on the wireless path: 1
    places a crossing only in the translator, 2 adds the station's own
    crossing.  ``extra_distance_m`` lengthens the wireless link without
    recalibrating one-way receivers, which injects an uncompensated
    propagation delay.  ``drift_free`` zeroes every oscillator frequency
    error, the regime the analytic budgets are stated for.  On the ``ota-*``
    presets the extra distance adds to a calibrated ``OTA_LINK_M`` link.
    """

    preset: str = "emulator-80211"
    channel: str = "AWGN"
    speed_kmh: float = 0.0
    duration_s: float = 1000.0
    pps_interval_s: float = 1.0
    replicas: int = 1
    seed: int = 1
    warmup_s: float = 100.0
    drift_free: bool = False
    cdc_stages: int = 2
    extra_distance_m: float = 0.0
    scheme: str | None = None
    burst_length: int = 1
    kp: float | None = None
    ki: float | None = None
    sync_period_s: float | None = None
    drift_walk_sigma_ppm_per_s: float = 0.0
    topology: Topology | None = None

    def __post_init__(self):
        if not (math.isfinite(self.duration_s) and math.isfinite(self.warmup_s)):
            raise ValueError("duration_s and warmup_s must be finite")
        if self.duration_s <= self.warmup_s:
            raise ValueError("duration_s must exceed warmup_s")
        pps_ps = _period_ps("pps_interval_s", self.pps_interval_s)
        first_k, last_k = _recorded_pps_edges(round(self.duration_s * 1e12),
                                              round(self.warmup_s * 1e12), pps_ps)
        if last_k - first_k < 1:
            raise ValueError(f"pps_interval_s={self.pps_interval_s!r} leaves fewer "
                             "than two PPS edges after warm-up")
        if not isinstance(self.seed, Integral) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if (not isinstance(self.replicas, Integral) or isinstance(self.replicas, bool)
                or self.replicas < 1):
            raise ValueError(f"replicas must be an integer >= 1, got {self.replicas!r}")
        if not isinstance(self.drift_free, bool):
            raise ValueError(f"drift_free must be true or false, got {self.drift_free!r}")
        if (not isinstance(self.cdc_stages, Integral) or isinstance(self.cdc_stages, bool)
                or self.cdc_stages not in (1, 2)):
            raise ValueError(f"cdc_stages must be the integer 1 or 2, got {self.cdc_stages!r}")
        walk = self.drift_walk_sigma_ppm_per_s
        if not (math.isfinite(walk) and walk >= 0):
            raise ValueError(f"drift_walk_sigma_ppm_per_s must be finite and >= 0, got {walk!r}")
        # Hop settings, the channel among them, are checked where they are
        # used: in the hop specs and their protocol configs.
        topo = build_topology(self)
        duration_ps = round(self.duration_s * 1e12)
        entries = sum(math.prod(_series_shape(hop, duration_ps)) for hop in topo.hops)
        if entries > MAX_SERIES_ENTRIES:
            raise ValueError(f"a replica would hold {entries} excess-delay entries, more than "
                             f"{MAX_SERIES_ENTRIES}; shorten duration_s or lengthen sync_period_s")

    def as_dict(self) -> dict:
        doc = {}
        for f in fields(self):
            if f.name == "topology":
                continue
            doc[f.name] = getattr(self, f.name)
        doc["inline_topology"] = self.topology.name if self.topology else None
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Inverse of ``as_dict`` for configs without an inline topology."""
        doc = dict(doc)
        name = doc.pop("inline_topology", None)
        if name is not None:
            raise ValueError(f"inline topology {name!r} cannot be rebuilt from a name")
        known = {f.name for f in fields(cls)} - {"topology"}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


def _eth_hop(master: str, slave: str, stagger_s: float) -> HopSpec:
    return HopSpec(
        master=master, slave=slave, medium="ethernet",
        protocol=PROTOCOL_PRESETS["wired-ptp"],
        master_port=PortSpec(), slave_port=PortSpec(),
        stagger_s=stagger_s,
    )


def _stagger(i: int) -> float:
    return 0.0003 + 0.0017 * i


def build_topology(config: ExperimentConfig) -> Topology:
    """Materialize one of the named test setups.

    Every config builds the wireless hop its settings describe, so those
    settings are checked even where the chain has no wireless hop.
    """
    scheme = config.scheme or _PRESET_SCHEMES.get(config.preset) or SCHEME_TWO_WAY
    base = PROTOCOL_PRESETS["wsharp-beacon" if scheme == SCHEME_ONE_WAY else "80211-ptp"]
    wireless = HopSpec(
        master="", slave="", medium="wireless",
        protocol=ProtocolConfig(
            scheme=scheme,
            sync_period_s=(base.sync_period_s if config.sync_period_s is None
                           else config.sync_period_s),
            burst_length=config.burst_length,
            kp=config.kp if config.kp is not None else base.kp,
            ki=config.ki if config.ki is not None else base.ki),
        master_port=PortSpec(WIRELESS_TS_NS, CDC_T_SRC_NS),
        slave_port=PortSpec(WIRELESS_TS_NS, CDC_T_SRC_NS if config.cdc_stages == 2 else 0.0),
        geometry=LinkGeometry(distance_m=config.extra_distance_m),
        channel=config.channel, doppler_hz=doppler_from_speed(config.speed_kmh),
    )
    if config.topology is not None:
        return config.topology
    preset = config.preset

    def wireless_hop(master: str, slave: str, stagger_s: float,
                     geometry: LinkGeometry, calibrated_delay_ns: float) -> HopSpec:
        proto = wireless.protocol
        if scheme == SCHEME_ONE_WAY:
            proto = replace(proto, calibrated_delay_ns=calibrated_delay_ns)
        return replace(wireless, master=master, slave=slave, protocol=proto,
                       geometry=geometry, stagger_s=stagger_s)

    if preset in ("calnex", "calnex-eth3"):
        nodes = ("gmc", "tr1", "tr2", "analyzer")
        bridge = (_eth_hop("tr1", "tr2", _stagger(1)) if preset == "calnex-eth3" else
                  wireless_hop("tr1", "tr2", _stagger(1), wireless.geometry, 0.0))
        hops = (_eth_hop("gmc", "tr1", _stagger(0)), bridge,
                _eth_hop("tr2", "analyzer", _stagger(2)))
        return Topology(preset, nodes, hops, "analyzer", "gmc")
    if preset in ("emulator-80211", "emulator-wsharp"):
        nodes = ("gmc", "switch", "translator", "sta")
        geom = replace(wireless.geometry, base_delay_ns=EMULATOR_BASE_DELAY_NS)
        hops = (_eth_hop("gmc", "switch", _stagger(0)),
                _eth_hop("switch", "translator", _stagger(1)),
                wireless_hop("translator", "sta", _stagger(2), geom, geom.base_delay_ns))
        return Topology(preset, nodes, hops, "sta", "gmc")
    if preset in ("ota-80211", "ota-wsharp"):
        nodes = ("gmc", "switch", "translator", "sta", "probe")
        geom = replace(wireless.geometry, distance_m=OTA_LINK_M + config.extra_distance_m)
        calibrated = propagation_delay_ns(LinkGeometry(distance_m=OTA_LINK_M))
        hops = (_eth_hop("gmc", "switch", _stagger(0)),
                _eth_hop("switch", "translator", _stagger(1)),
                _eth_hop("switch", "probe", _stagger(2)),
                wireless_hop("translator", "sta", _stagger(3), geom, calibrated))
        return Topology(preset, nodes, hops, "sta", "probe")
    raise ValueError(f"unknown preset {preset!r}")


# --- Replica execution ---------------------------------------------------------


class _HopRuntime:
    """Mutable per-replica state of one hop, laid out for the hot loop.

    ``dmf``/``dmr`` hold one forward/reverse excess-delay float64 series per
    burst position, indexed by period.  ``beacons`` holds the clock-independent
    terms that ``_set_excess_series`` derives from them.  On a one-way hop it
    is a (4, periods) array of each beacon's send instant ``t0``, the master
    CDC term at ``t0``, the arrival ``ta`` and the slave CDC term at ``ta``.
    On a burst hop it is a (periods, burst, 8) array: per exchange the send
    instant ``t`` and the master CDC term there, the arrival ``ta`` and the
    slave CDC term there, the reply instant ``tr`` and the slave CDC term
    there, and the return arrival ``tb`` and the master CDC term there.
    """

    __slots__ = (
        "mi", "si", "scheme", "egress_quant", "period_ps", "next_ps", "n",
        "kp", "ki", "k3", "integ", "locked",
        "ts_m", "ph_m", "ts_s", "ph_s",
        "cdc_m_T", "cdc_m_rate", "cdc_m_phase", "cdc_s_T", "cdc_s_rate", "cdc_s_phase",
        "prop_ns", "calib_ns", "dmf", "dmr", "burst", "beacons",
    )


def _draw_cdc(init_rng: np.random.Generator, t_src: float, drift_free: bool):
    phase = init_rng.uniform(0.0, 1.0)
    magnitude = init_rng.uniform(1.0, 5.0)
    sign = 1.0 if init_rng.random() < 0.5 else -1.0
    rel = 0.0 if drift_free else sign * magnitude
    return t_src, 1.0 + rel * 1e-6, phase * t_src


def _series_shape(hop: HopSpec, duration_ps: int) -> tuple[int, int, int]:
    """Entries per excess-delay series, burst positions and directions of a hop.

    Only FTM repeats the exchange within a period; only one-way sends no reply.
    """
    period_ps = round(hop.protocol.sync_period_s * 1e12)
    count = int((duration_ps - round(hop.stagger_s * 1e12)) // period_ps) + 2
    burst = hop.protocol.burst_length if hop.protocol.scheme == SCHEME_FTM_BURST else 1
    return count, burst, 1 if hop.protocol.scheme == SCHEME_ONE_WAY else 2


def _prepare_hop(hop: HopSpec, node_index: dict, config: ExperimentConfig,
                 init_rng, fading_seeds, duration_ps: int) -> _HopRuntime:
    h = _HopRuntime()
    h.mi = node_index[hop.master]
    h.si = node_index[hop.slave]
    h.scheme = hop.protocol.scheme
    h.egress_quant = hop.medium == "ethernet"
    period_ps = round(hop.protocol.sync_period_s * 1e12)
    h.period_ps = period_ps
    h.next_ps = round(hop.stagger_s * 1e12)
    h.n = 0
    h.kp = hop.protocol.kp
    h.ki = hop.protocol.ki
    h.k3 = 1000.0 * hop.protocol.sync_period_s
    h.integ = 0.0
    h.locked = False
    h.ts_m = hop.master_port.sample_period_ns
    h.ph_m = init_rng.uniform(0.0, 1.0)
    h.ts_s = hop.slave_port.sample_period_ns
    h.ph_s = init_rng.uniform(0.0, 1.0)
    h.cdc_m_T, h.cdc_m_rate, h.cdc_m_phase = 0.0, 1.0, 0.0
    h.cdc_s_T, h.cdc_s_rate, h.cdc_s_phase = 0.0, 1.0, 0.0
    if hop.master_port.cdc_t_src_ns:
        h.cdc_m_T, h.cdc_m_rate, h.cdc_m_phase = _draw_cdc(
            init_rng, hop.master_port.cdc_t_src_ns, config.drift_free)
    if hop.slave_port.cdc_t_src_ns:
        h.cdc_s_T, h.cdc_s_rate, h.cdc_s_phase = _draw_cdc(
            init_rng, hop.slave_port.cdc_t_src_ns, config.drift_free)
    h.prop_ns = propagation_delay_ns(hop.geometry)
    h.calib_ns = hop.protocol.calibrated_delay_ns
    count, h.burst, directions = _series_shape(hop, duration_ps)
    dmf = [np.zeros(count) for _ in range(h.burst)]
    dmr = [np.zeros(count) for _ in range(h.burst)] if directions == 2 else []
    if hop.medium == "wireless" and hop.channel is not None:
        pdp = build_pdp(hop.channel)
        if pdp.n_taps > 1:
            fading = FadingConfig(doppler_hz=hop.doppler_hz)
            fwd_rng, rev_rng = fading_seeds
            period_s = hop.protocol.sync_period_s
            for b in range(h.burst):
                dmf[b] = detected_excess_series(
                    pdp, fading, period_s, count,
                    hop.stagger_s + b * BURST_SPACING_S, fwd_rng)
            if directions == 2:
                rev_offset = hop.stagger_s + h.prop_ns * 1e-9 + REPLY_DELAY_S
                for b in range(h.burst):
                    dmr[b] = detected_excess_series(
                        pdp, fading, period_s, count,
                        rev_offset + b * BURST_SPACING_S, rev_rng)
    _set_excess_series(h, dmf, dmr)
    return h


def _set_excess_series(h: _HopRuntime, dmf: list, dmr: list) -> None:
    """Install a hop's excess-delay series before its first exchange.

    Also evaluate once every exchange's clock-independent instants and CDC
    terms (see ``_HopRuntime``) from the hop's first send instant, period,
    delays and CDC laws as they stand, so the kernel only adds the clocks.
    Each element is bitwise what the scalar expression gives.
    """
    h.dmf = [np.asarray(d, dtype=float) for d in dmf]
    h.dmr = [np.asarray(d, dtype=float) for d in dmr]
    periods = h.dmf[0].size
    send_ps = h.next_ps + h.period_ps * np.arange(periods)

    def master_cdc(t):
        return cdc_read_error(t, h.cdc_m_T, h.cdc_m_rate, h.cdc_m_phase) if h.cdc_m_T else 0.0

    def slave_cdc(t):
        return cdc_read_error(t, h.cdc_s_T, h.cdc_s_rate, h.cdc_s_phase) if h.cdc_s_T else 0.0

    if h.scheme == SCHEME_ONE_WAY:
        h.beacons = np.empty((4, periods))
        t0, cm, ta, cs = h.beacons
        # In place, in the order of ``t0 + prop_ns + dmf``, and ``send_ps`` freed
        # before the CDC temporaries; else this step sets the replica's peak RSS.
        np.multiply(send_ps, 1e-3, out=t0)
        del send_ps
        cm[:] = master_cdc(t0)
        np.add(t0, h.prop_ns, out=ta)
        ta += h.dmf[0]
        cs[:] = slave_cdc(ta)
        return
    # Burst position b sends b spacings after the period starts; the slave
    # replies REPLY_DELAY_S after each arrival.
    h.beacons = np.empty((periods, h.burst, 8))
    for b, (fwd, rev) in enumerate(zip(h.dmf, h.dmr)):
        t = send_ps * 1e-3 + b * (BURST_SPACING_S * 1e9)
        ta = t + h.prop_ns + fwd
        tr = ta + REPLY_DELAY_S * 1e9
        tb = tr + h.prop_ns + rev
        for i, column in enumerate((t, master_cdc(t), ta, slave_cdc(ta),
                                    tr, slave_cdc(tr), tb, master_cdc(tb))):
            h.beacons[:, b, i] = column


def _run_hop_until(h: _HopRuntime, off: list, rate: list, barrier_ps: int) -> None:
    """Process every exchange of one hop up to and including the barrier.

    Other streams cannot fire inside the window, so the master clock state is
    constant here and only the slave evolves.  The caller ends the window
    1 ps short of any event that wins a tie against this hop (a PPS edge, a
    walk step, a lower-index hop's exchange).  There is one loop over the
    window's periods with two branches, each held exchange by exchange to the
    test oracle in ``tests/test_sim.py`` by ``TestEngineProtocolLockstep``:

    * the one-way branch stamps a beacon and subtracts the calibrated delay
      (``test_one_way_wireless_hop_with_cdc``).  It reads the window's slice
      of the per-hop series that ``_set_excess_series`` precomputed (send
      instant, master CDC term, arrival, slave CDC term) as lists, so per
      beacon only the two clock reads, the receive quantizer and the
      estimate remain;
    * the burst branch runs ``h.burst`` two-way exchanges per period and
      averages their estimates; two-way hops are bursts of one
      (``test_two_way_ethernet_hop`` and ``test_ftm_burst_hop``).  It reads
      the window's rows of the precomputed (periods, burst, 8) array as
      lists: per exchange the send, arrival, reply and return instants and
      the CDC term at each.  Per exchange only the four clock reads, the
      quantizers (all four stamps on Ethernet ports, the two receive stamps
      on wireless ones) and the estimate remain.

    Each branch yields the period's estimate and the arrival the servo slews
    at; the jam-then-PI step after them is shared.  ``test_integrator_windup``
    drives its anti-windup clamp through both branches, and
    ``TestWindowSplits`` checks that where the barriers fall does not change
    the result.
    """
    ceil = math.ceil
    t_ps = h.next_ps
    if t_ps > barrier_ps:
        return
    period_ps = h.period_ps
    k = (barrier_ps - t_ps) // period_ps + 1
    mo, mr = off[h.mi], rate[h.mi]
    so, sr = off[h.si], rate[h.si]
    kp, ki, k3, windup = h.kp, h.ki, h.k3, WINDUP_PPM
    integ, locked = h.integ, h.locked
    ts_s, ph_s = h.ts_s, h.ph_s
    n = h.n
    # Each branch loads only what it reads.
    one_way = h.scheme == SCHEME_ONE_WAY
    if one_way:
        calib = h.calib_ns
        t0s, cms, tas, css = h.beacons[:, n:n + k].tolist()
    else:
        ts_m, ph_m = h.ts_m, h.ph_m
        burst, egress_quant = h.burst, h.egress_quant
        stamps = h.beacons[n:n + k].tolist()

    for j in range(k):
        if one_way:
            t1 = (mo + mr * t0s[j]) + cms[j]
            ta = tas[j]
            v = (so + sr * ta) + css[j]
            t2 = ts_s * (ceil(v / ts_s - ph_s - 0.5) + ph_s)
            est = t2 - t1 - calib
            anchor = ta
        else:
            acc = 0.0
            for t, cmt, ta, csa, tr, csr, tb, cmb in stamps[j]:
                t1 = (mo + mr * t) + cmt
                if egress_quant:
                    t1 = ts_m * (ceil(t1 / ts_m - ph_m - 0.5) + ph_m)
                v = (so + sr * ta) + csa
                t2 = ts_s * (ceil(v / ts_s - ph_s - 0.5) + ph_s)
                t3 = (so + sr * tr) + csr
                if egress_quant:
                    t3 = ts_s * (ceil(t3 / ts_s - ph_s - 0.5) + ph_s)
                v = (mo + mr * tb) + cmb
                t4 = ts_m * (ceil(v / ts_m - ph_m - 0.5) + ph_m)
                acc += ((t2 - t1) - (t4 - t3)) * 0.5
            est = acc / burst
            anchor = tb
        if locked:
            step = kp * est
            raw = integ + ki * est / k3
            new = windup if raw > windup else (-windup if raw < -windup else raw)
            fstep = new - integ
            integ = new
        else:
            step = est
            fstep = 0.0
            locked = True
        so -= step
        if fstep:
            so += fstep * 1e-6 * anchor
            sr -= fstep * 1e-6

    h.next_ps = t_ps + k * period_ps
    h.n = n + k
    h.integ = integ
    h.locked = locked
    off[h.si] = so
    rate[h.si] = sr


def _run_replica(topo: Topology, config: ExperimentConfig,
                 seed_seq: np.random.SeedSequence) -> tuple[np.ndarray, bool]:
    """Simulate one replica; returns (pps error samples, converged flag)."""
    streams = seed_seq.spawn(1 + 2 * len(topo.hops) + 1)
    init_rng = np.random.default_rng(streams[0])
    walk_rng = np.random.default_rng(streams[-1])

    node_index = {node: i for i, node in enumerate(topo.nodes)}
    slaves = {hop.slave for hop in topo.hops}
    off, rate, walk_sigma = [], [], []
    for node in topo.nodes:
        if node not in slaves:  # the gmc
            off.append(0.0)
            rate.append(1.0)
            walk_sigma.append(0.0)
            continue
        offset = init_rng.uniform(-1e6, 1e6)
        drift = init_rng.uniform(-2.0, 2.0)
        if config.drift_free:
            drift = 0.0
        off.append(offset)
        rate.append(1.0 + drift * 1e-6)
        walk_sigma.append(0.0 if config.drift_free else config.drift_walk_sigma_ppm_per_s)

    duration_ps = round(config.duration_s * 1e12)
    warmup_ps = round(config.warmup_s * 1e12)
    hops = [
        _prepare_hop(topo.hops[i], node_index, config, init_rng,
                     (np.random.default_rng(streams[1 + 2 * i]),
                      np.random.default_rng(streams[2 + 2 * i])),
                     duration_ps)
        for i in range(len(topo.hops))
    ]

    budget_ns = chain_max_error(topology_budget(topo))
    diverged_limit = DIVERGENCE_FACTOR * budget_ns if budget_ns > 0 else math.inf

    pps_ps = round(config.pps_interval_s * 1e12)
    first_k, _ = _recorded_pps_edges(duration_ps, warmup_ps, pps_ps)
    next_pps = first_k * pps_ps
    walk_period_ps = 10 ** 12
    next_walk = walk_period_ps if any(s > 0 for s in walk_sigma) else duration_ps + 1
    mi_ref = node_index[topo.reference_node]
    mi_slv = node_index[topo.measured_node]
    # One entry per affine clock segment: (edge count, reference and measured
    # offset/rate).  Warm-up edges record nothing, so they are not scheduled.
    segments: list[tuple] = []

    while True:
        # Ties go to the PPS edge, then the walk, then the lowest hop index.
        best_ps, best = next_walk, -2  # -2 walk, >=0 hop index
        for i, h in enumerate(hops):
            if h.next_ps < best_ps:
                best_ps, best = h.next_ps, i
        if next_pps <= best_ps:
            if next_pps > duration_ps:
                break
            # Every edge up to the next walk or hop event sees these clocks.
            last = best_ps if best_ps < duration_ps else duration_ps
            count = (last - next_pps) // pps_ps + 1
            segments.append((count, off[mi_ref], rate[mi_ref], off[mi_slv], rate[mi_slv]))
            next_pps += count * pps_ps
            continue
        if best_ps > duration_ps:
            break
        if best >= 0:
            # The window ends 1 ps short of every event this hop loses a tie
            # to, and at (inclusive) a higher-index hop's next event.
            barrier = (next_pps if next_pps < next_walk else next_walk) - 1
            for j, other in enumerate(hops):
                if j != best:
                    edge = other.next_ps - (j < best)
                    if edge < barrier:
                        barrier = edge
            if barrier > duration_ps:
                barrier = duration_ps
            _run_hop_until(hops[best], off, rate, barrier)
        else:
            t_ns = next_walk * 1e-3
            for i in range(len(off)):
                sigma = walk_sigma[i]
                if sigma > 0.0:
                    delta_ppm = walk_rng.normal(0.0, sigma)
                    rate[i] += delta_ppm * 1e-6
                    off[i] -= delta_ppm * 1e-6 * t_ns
            next_walk += walk_period_ps

    return _pps_samples(segments, first_k, config.pps_interval_s * 1e9, diverged_limit)


def _pps_samples(segments: list[tuple], first_k: int, interval_ns: float,
                 diverged_limit: float) -> tuple[np.ndarray, bool]:
    """Errors at consecutive PPS edges from ``first_k`` on, and a converged flag.

    Each segment is (edge count, reference offset, reference rate, measured
    offset, measured rate).  Edge k is where both counters read
    k * interval.  The expression is the scalar one applied elementwise, and
    k stays far below 2**53, so each sample is bitwise what a per-edge
    evaluation gives.  NaN never counts as diverged.
    """
    table = np.array(segments).T
    counts = table[0].astype(np.int64)
    off_ref, rate_ref, off_slv, rate_slv = (np.repeat(row, counts) for row in table[1:])
    target = np.arange(first_k, first_k + counts.sum()) * interval_ns
    samples = (target - off_ref) / rate_ref - (target - off_slv) / rate_slv
    converged = not np.any((samples > diverged_limit) | (samples < -diverged_limit))
    return samples, converged


def _replica_job(args):
    topo, config, seed_seq = args
    return _run_replica(topo, config, seed_seq)


def replica_pool(workers: int, replicas: int):
    """A process pool of ``min(workers, replicas)`` processes for runs of at
    most ``replicas`` replicas, or a null context yielding None where one
    process suffices.  Enter it with ``with``, which joins its children."""
    workers = min(workers, replicas)
    return ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()


def run_experiment(config: ExperimentConfig, workers: int = 1,
                   return_samples: bool = False, pool=None):
    """Run every replica and pool the PPS error statistics.

    Replica seed streams are pre-split from the experiment seed, so the
    result is identical whatever ``workers`` is.  The replicas run on
    ``pool`` when one is given (as from ``replica_pool``, which the caller
    closes), else on a pool of their own.  Sets ``converged=False`` if any
    post-warmup sample exceeds ten times the chain budget.
    """
    topo = build_topology(config)
    seeds = np.random.SeedSequence(config.seed).spawn(config.replicas)
    jobs = [(topo, config, s) for s in seeds]
    # A caller's pool is left open; an own one is closed here.
    scope = replica_pool(workers, config.replicas) if pool is None else nullcontext(pool)
    with scope as pool:
        results = list(pool.map(_replica_job, jobs)) if pool else [_replica_job(j) for j in jobs]
    sample_arrays = [r[0] for r in results]
    converged = all(r[1] for r in results)
    pooled = np.concatenate(sample_arrays)
    stats = compute_stats(pooled)
    per_replica = tuple(compute_stats(s) for s in sample_arrays)
    stats = replace(stats, per_replica=per_replica, converged=converged)
    if return_samples:
        return stats, sample_arrays
    return stats
