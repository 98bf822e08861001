"""Deterministic simulation of synchronization chains, one hop at a time.

True time is carried as integer picoseconds so periodic schedules never
accumulate rounding drift.  Every node owns a PHC modeled affinely between
servo events (displayed = offset + rate * true_time).  Each event has a key
(instant_ps, rank): rank 0 is a PPS edge, 1 a drift-walk step and 2 + i an
exchange of hop i; whatever reads a clock at key K sees exactly the writes
with keys below K.  No node reads a clock below it, so a replica is a
feed-forward graph run one hop at a time in dependency order (Chandy and
Misra's conservative simulation): each hop runs all its exchanges and its
slave's walk steps in one kernel call, masters first, recording its slave's
clock only where child hops' exchanges or PPS edges read it.  Every event
stream is an arithmetic progression, so who reads which state is counted
by integer division.  Each replica draws from its own spawned seed streams,
so results do not depend on how replicas are distributed over workers.
Configs refuse a time beyond ``MAX_TIME_S``, just under 2**62 ps, so two
counts sum within int64.

The per-sample synchronization error follows PPS semantics: it is the
difference of the true times at which the reference and the measured node's
counters cross the next whole pulse boundary, positive when the measured
clock runs ahead.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, field, fields, replace

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
from .clocks import quantize_value
from .protocol import (
    MAX_TIME_S,
    POSITIVE,
    PROTOCOL_PRESETS,
    SCHEME_FTM_BURST,
    SCHEME_ONE_WAY,
    SCHEME_TWO_WAY,
    ProtocolConfig,
    refuse,
    refuse_bad_fields,
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
    "run_experiment",
]

EMULATOR_BASE_DELAY_NS = 1135.0
OTA_LINK_M = 10.0  # calibrated over-the-air link length
REPLY_DELAY_S = 1e-3  # slave's reply after each arrival
BURST_SPACING_S = 1e-3  # between the exchanges of an FTM burst
WINDUP_PPM = 100.0  # anti-windup clamp on the servo's frequency integrator
HIST_BINS = 64
DIVERGENCE_FACTOR = 10.0

# Excess-delay series entries one replica may hold: 4x the largest preset
# default (emulator-wsharp, 2 kHz over 1000 s).  Priced on the costlier frozen
# channel (one-way IWLAN_B at 0 km/h, whose detector holds a whole comb's best
# power): 10 B of peak RSS per entry (40 MB at 130 s, 47 MB at 520 s, 56 MB
# at 1000 s, 76 MB at 2000 s) and 117 MB for a run at the cap; at 10 km/h,
# 7.2 B an entry and 94 MB.
MAX_SERIES_ENTRIES = 2 ** 23
# Largest drift-walk sigma: a 1-sigma step of 1e6 ppm each second changes a
# clock's rate by as much as the whole rate, far past any oscillator (a
# violent walk that diverges the servo is 5 ppm/sqrt(s)), and far below the
# ~1e305 at which the walked clocks overflow to inf and NaN.
MAX_WALK_PPM_PER_S = 1e6
# Recorded PPS edges over all replicas: ~0.27 GB at the 16 B per edge a run
# holds (tracemalloc), its samples and their deviations from the mean.
MAX_RUN_PPS_EDGES = 2 ** 24

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
        refuse_bad_fields(self, sample_period_ns=(POSITIVE, None), cdc_t_src_ns=(0, None))


@dataclass(frozen=True)
class HopSpec:
    """One synchronization hop: master disciplines slave over ethernet or wireless.
    A hop fades only when its channel has more than one tap, so an ethernet hop's
    channel is AWGN; only wireless hops run one-way, as the one-way branch never
    quantizes the master's stamp."""

    master: str
    slave: str
    medium: str
    protocol: ProtocolConfig
    master_port: PortSpec
    slave_port: PortSpec
    geometry: LinkGeometry = field(default_factory=LinkGeometry)
    channel: str = "AWGN"
    doppler_hz: float = 0.0
    stagger_s: float = 0.0

    def __post_init__(self):
        if self.medium not in ("ethernet", "wireless"):
            raise ValueError(f"unknown medium {self.medium!r}")
        if self.medium == "ethernet" and self.protocol.scheme == SCHEME_ONE_WAY:
            raise ValueError("an ethernet hop cannot run the one-way scheme")
        refuse_bad_fields(self, doppler_hz=(0, None), stagger_s=(0, MAX_TIME_S))
        if build_pdp(self.channel).n_taps > 1 and self.medium == "ethernet":
            raise ValueError(f"an ethernet hop cannot take the fading channel {self.channel!r}")


@dataclass(frozen=True)
class Topology:
    """Node ids and hops of a chain; the one node no hop disciplines is its gmc.
    The derived ``order`` is breadth first from it, slaves in hop order: masters first."""

    name: str
    nodes: tuple[str, ...]
    hops: tuple[HopSpec, ...]
    measured_node: str
    reference_node: str
    order: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise TopologyError("duplicate node ids")
        known, slaves = set(self.nodes), set()
        for i, hop in enumerate(self.hops):
            if hop.master not in known or hop.slave not in known:
                raise TopologyError(f"hop {i} references unknown nodes")
            if hop.slave in slaves:
                raise TopologyError(f"node {hop.slave} has two upstream hops")
            slaves.add(hop.slave)
        for probe in (self.measured_node, self.reference_node):
            if probe not in known:
                raise TopologyError(f"unknown probe node {probe!r}")
        order = list(known - slaves)
        if len(order) != 1:
            raise TopologyError("topology needs exactly one gmc: a node no hop disciplines")
        for node in order:  # each node has one master at most, so is reached once
            order += [hop.slave for hop in self.hops if hop.master == node]
        if len(order) != len(known):
            raise TopologyError(f"nodes {sorted(known - set(order))} are not chained to the gmc")
        object.__setattr__(self, "order", tuple(order))

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
    low, high = float(samples.min()), float(samples.max())
    # The extrema are np.histogram's own default range: bitwise its edges.
    counts, edges = np.histogram(samples, bins=HIST_BINS, range=(low, high))
    return RunStats(
        mu_ns=mu,
        sigma_ns=sigma,
        mu_plus_3sigma_ns=abs(mu) + 3.0 * sigma,
        min_ns=low,
        max_ns=high,
        n_samples=int(samples.size),
        hist_edges=tuple(float(e) for e in edges),
        hist_counts=tuple(int(c) for c in counts),
    )


def _to_ps(seconds: float) -> int:
    """A time in whole picoseconds: a period's count is at least 1, any time's fits int64."""
    return round(seconds * 1e12)


def _pps_edges(config: ExperimentConfig) -> tuple[int, int, int]:
    """First index k, count and period (ps) of the recorded PPS edges; edge k is at k * period."""
    pps_ps = _to_ps(config.pps_interval_s)
    first_k = _to_ps(config.warmup_s) // pps_ps + 1
    return first_k, _to_ps(config.duration_s) // pps_ps - first_k + 1, pps_ps


# --- Experiment configuration -------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of one Monte Carlo experiment.

    ``cdc_stages`` counts PHC translation stages on the wireless path: 1
    places a crossing only in the translator, 2 adds the station's own
    crossing.  ``extra_distance_m`` lengthens the wireless link without
    recalibrating one-way receivers, which injects an uncompensated
    propagation delay.  ``drift_free`` zeroes every oscillator frequency
    error, the regime the analytic budgets are stated for.  On the ``ota-*``
    presets the extra distance adds to a calibrated ``OTA_LINK_M`` link.
    A built config is frozen; ``dataclasses.replace`` makes a checked copy.
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
        refuse_bad_fields(self, duration_s=(0, MAX_TIME_S), pps_interval_s=(1e-12, MAX_TIME_S),
                          warmup_s=(0, MAX_TIME_S), replicas=(1, None), seed=(0, None),
                          cdc_stages=(1, 2), drift_walk_sigma_ppm_per_s=(0, MAX_WALK_PPM_PER_S))
        if not self.duration_s > self.warmup_s:
            raise ValueError("duration_s must exceed warmup_s")
        duration_ps = _to_ps(self.duration_s)
        _, count, _ = _pps_edges(self)
        if count < 2:
            raise ValueError(f"pps_interval_s={self.pps_interval_s!r} leaves fewer "
                             "than two PPS edges after warm-up")
        edges = count * self.replicas
        if edges > MAX_RUN_PPS_EDGES:
            raise ValueError(f"pps_interval_s, duration_s and replicas ask for {edges} PPS "
                             f"edges in all; at most {MAX_RUN_PPS_EDGES} fit")
        # Hop settings, the channel among them, are checked where they are
        # used: in the hop specs and their protocol configs.
        topo = build_topology(self)
        entries = sum(math.prod(_series_shape(hop, duration_ps)) for hop in topo.hops)
        if entries > MAX_SERIES_ENTRIES:
            raise ValueError(f"a replica would hold {entries} excess-delay entries, more than "
                             f"{MAX_SERIES_ENTRIES}; shorten duration_s or lengthen sync_period_s")
        for i, hop in enumerate(topo.hops):
            name = f"hop {i} ({hop.master}->{hop.slave})"
            if _to_ps(hop.stagger_s) > duration_ps:
                raise ValueError(f"{name} starts at stagger_s={hop.stagger_s!r}, "
                                 f"after duration_s={self.duration_s!r}")
            # A beacon still in flight when the next is sent would land out of order.
            flight_ns = propagation_delay_ns(hop.geometry)
            if hop.medium == "wireless" and flight_ns >= hop.protocol.sync_period_s * 1e9:
                raise ValueError(f"{name} has a flight time (propagation_delay_ns, see "
                                 f"extra_distance_m) of {flight_ns!r} ns, not below "
                                 f"sync_period_s={hop.protocol.sync_period_s!r}")

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
    """Mutable per-replica state of one hop, laid out for the kernel.

    Exchange n (from 0) starts at ``first_ps + n * period_ps``; ``n`` counts
    the exchanges run so far.  ``dmf``/``dmr`` hold one forward/reverse series
    per burst position, indexed by period, of one-byte (up to 256 taps) indices
    into ``excess``, the channel's tap delays (ns): ``[0.0]`` on a hop that does not fade.
    """

    __slots__ = (
        "mi", "si", "scheme", "egress_quant", "period_ps", "first_ps", "n", "kp", "ki", "k3",
        "integ", "locked", "ts_m", "ph_m", "ts_s", "ph_s", "cdc_m", "cdc_s",
        "prop_ns", "calib_ns", "excess", "dmf", "dmr", "burst",
    )


def _draw_cdc(init_rng: np.random.Generator, t_src: float, drift_free: bool):
    """A port's CDC law (t_src, rate, phase), or None if it reads natively."""
    if not t_src:
        return None
    phase = init_rng.uniform(0.0, 1.0)
    magnitude = init_rng.uniform(1.0, 5.0)
    sign = 1.0 if init_rng.random() < 0.5 else -1.0
    rel = 0.0 if drift_free else sign * magnitude
    return t_src, 1.0 + rel * 1e-6, phase * t_src


def _series_shape(hop: HopSpec, duration_ps: int) -> tuple[int, int, int]:
    """Entries per excess-delay series, burst positions and directions of a hop.

    Only FTM repeats the exchange within a period; only one-way sends no reply.
    """
    count = int((duration_ps - _to_ps(hop.stagger_s)) // _to_ps(hop.protocol.sync_period_s)) + 2
    burst = hop.protocol.burst_length if hop.protocol.scheme == SCHEME_FTM_BURST else 1
    return count, burst, 1 if hop.protocol.scheme == SCHEME_ONE_WAY else 2


def _prepare_hop(hop: HopSpec, node_index: dict, config: ExperimentConfig,
                 init_rng, fading_seeds, duration_ps: int) -> _HopRuntime:
    h = _HopRuntime()
    h.mi = node_index[hop.master]
    h.si = node_index[hop.slave]
    h.scheme = hop.protocol.scheme
    h.egress_quant = hop.medium == "ethernet"
    h.period_ps = _to_ps(hop.protocol.sync_period_s)
    h.first_ps = _to_ps(hop.stagger_s)
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
    h.cdc_m = _draw_cdc(init_rng, hop.master_port.cdc_t_src_ns, config.drift_free)
    h.cdc_s = _draw_cdc(init_rng, hop.slave_port.cdc_t_src_ns, config.drift_free)
    h.prop_ns = propagation_delay_ns(hop.geometry)
    h.calib_ns = hop.protocol.calibrated_delay_ns
    count, h.burst, directions = _series_shape(hop, duration_ps)
    pdp = build_pdp(hop.channel)
    h.excess = pdp.delays_ns  # [0.0] on one tap, where the detector gives zeros
    fading = FadingConfig(doppler_hz=hop.doppler_hz)
    fwd_rng, rev_rng = fading_seeds
    period_s = hop.protocol.sync_period_s
    rev_offset = hop.stagger_s + h.prop_ns * 1e-9 + REPLY_DELAY_S
    h.dmf = [detected_excess_series(pdp, fading, period_s, count,
                                    hop.stagger_s + b * BURST_SPACING_S, fwd_rng)
             for b in range(h.burst)]
    h.dmr = [detected_excess_series(pdp, fading, period_s, count,
                                    rev_offset + b * BURST_SPACING_S, rev_rng)
             for b in range(h.burst)] if directions == 2 else []
    return h


# Stamps the kernel evaluates per numpy pass: enough to amortise the calls,
# few enough that their Python floats stay small beside the series.
_BLOCK = 4096


def _cut_runs(ends, a: int, b: int, *values) -> list:
    """Each of ``values``, given per run, repeated over positions a..b-1,
    where run r ends before position ``ends[r]`` and starts at the previous end."""
    r0, r1 = np.searchsorted(ends, (a, b - 1), side="right")
    cut = np.concatenate((ends[r0:r1], [b])) - np.concatenate(([a], ends[r0:r1]))
    return [np.repeat(x[r0:r1 + 1], cut) for x in values]


def _stamps(h: _HopRuntime, a: int, b: int, mo: np.ndarray, mr: np.ndarray) -> list:
    """What exchanges a..b-1 of a hop stamp without the slave clock, as lists.

    With the master's offsets ``mo`` and rates ``mr`` at each exchange: the
    send stamp ``t1`` (quantized on Ethernet egress), the arrival ``ta`` and
    the slave CDC term there; for a burst also the reply ``tr`` and the
    slave CDC term there, the return stamp ``t4`` and the return arrival
    ``tb``, position p of exchange n at index ``n * burst + p``.  Each is
    bitwise the scalar expression (``np.ceil`` is ``math.ceil``'s value).
    """
    send = (h.first_ps + h.period_ps * np.arange(a, b)) * 1e-3

    def cdc(t, law):
        return cdc_read_error(t, *law) if law else 0.0 * t

    def master(t):
        return (mo + mr * t) + cdc(t, h.cdc_m)

    if h.scheme == SCHEME_ONE_WAY:
        ta = send + h.prop_ns + h.excess[h.dmf[0][a:b]]
        return [master(send).tolist(), ta.tolist(), cdc(ta, h.cdc_s).tolist()]
    columns = np.empty((7, b - a, h.burst))
    for p, (fwd, rev) in enumerate(zip(h.dmf, h.dmr)):
        t = send + p * (BURST_SPACING_S * 1e9)
        ta = t + h.prop_ns + h.excess[fwd[a:b]]
        tr = ta + REPLY_DELAY_S * 1e9
        tb = tr + h.prop_ns + h.excess[rev[a:b]]
        t1 = quantize_value(master(t), h.ts_m, h.ph_m) if h.egress_quant else master(t)
        columns[:, :, p] = (t1, ta, cdc(ta, h.cdc_s), tr, cdc(tr, h.cdc_s),
                            quantize_value(master(tb), h.ts_m, h.ph_m), tb)
    return columns.reshape(7, -1).tolist()


def _run_hop(h: _HopRuntime, n_end: int, master, off: list, rate: list,
             stops=(), walks=((), (), ())) -> list:
    """Run exchanges ``h.n`` to ``n_end - 1`` of one hop in one call.

    ``master`` = (offsets, rates, lengths) is the master's clock over them as
    runs.  The slave's clock ``off[h.si]``/``rate[h.si]`` moves in place,
    with its walk steps ``walks`` = (exchanges done before each, ppm, ns).
    Its (offset, rate) is recorded and returned at each of the increasing
    ``stops``, counted in exchanges plus walk steps done.  ``_stamps`` gives
    the master side of each block, so the Python loop holds only the slave's
    reads and quantizers, the estimate and the servo.  In ``tests/test_sim.py``
    ``TestEngineProtocolLockstep`` holds every one-way, two-way and FTM
    exchange and the jam-then-PI step to a per-exchange oracle, and
    ``TestWindowSplits`` checks that how the run is cut changes nothing.
    """
    ceil = math.ceil
    mo_runs, mr_runs, lengths = master
    ends = h.n + np.cumsum(lengths)
    so, sr = off[h.si], rate[h.si]
    kp, ki, k3, windup = h.kp, h.ki, h.k3, WINDUP_PPM
    integ, locked = h.integ, h.locked
    ts_s, ph_s = h.ts_s, h.ph_s
    one_way, calib = h.scheme == SCHEME_ONE_WAY, h.calib_ns
    burst, last, egress_quant = h.burst, h.burst - 1, h.egress_quant
    stops, walk_n, (_, walk_ppm, walk_ns) = [*stops, math.inf], [*walks[0], math.inf], walks
    # Blocks of about _BLOCK stamps: three per beacon, seven per exchange.
    width = max(1, _BLOCK // (3 if one_way else 7 * burst))
    records = []
    s = k = 0
    acc = 0.0
    j = a = b = h.n
    while True:
        while stops[s] == j + k or walk_n[k] == j:  # what is due, in key order
            if stops[s] == j + k:
                records.append((so, sr))
                s += 1
            else:
                sr += walk_ppm[k] * 1e-6
                so -= walk_ppm[k] * 1e-6 * walk_ns[k]
                k += 1
        if j == n_end:
            break
        if j == b:
            t1s = tas = cas = replies = trs = crs = t4s = tbs = None  # free the last block
            a, b = j, min(j + width, n_end)
            t1s, tas, cas, *replies = _stamps(h, a, b, *_cut_runs(ends, a, b, mo_runs, mr_runs))
            if not one_way:
                trs, crs, t4s, tbs = replies
        e = min(stops[s] - k, walk_n[k], b)
        for y in range((j - a) * burst, (e - a) * burst):
            anchor = tas[y]
            v = (so + sr * anchor) + cas[y]
            t2 = ts_s * (ceil(v / ts_s - ph_s - 0.5) + ph_s)
            if one_way:
                est = t2 - t1s[y] - calib
            else:
                t3 = (so + sr * trs[y]) + crs[y]
                if egress_quant:
                    t3 = ts_s * (ceil(t3 / ts_s - ph_s - 0.5) + ph_s)
                est = ((t2 - t1s[y]) - (t4s[y] - t3)) * 0.5
                anchor = tbs[y]
                if burst > 1:  # one servo step per burst, on the running sum's mean
                    acc += est
                    if y % burst != last:
                        continue
                    est = acc / burst
                    acc = 0.0
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
        j = e
    h.n, h.integ, h.locked = n_end, integ, locked
    off[h.si], rate[h.si] = so, sr
    return records


def _before(stream: tuple, instant, rank: int):
    """How many events of ``stream`` = (first_ps, period_ps, count, rank) have
    a key below (instant, rank); ``instant`` may be an integer array."""
    first, period, count, own = stream
    if not count:
        return 0
    return np.minimum(np.maximum((instant + (period - first - (own > rank))) // period, 0), count)


def _runs(own: tuple, walk: tuple, reader: tuple):
    """Group a reader's events by the writes to their node that precede each:
    the node's hop exchanges ``own`` and walk steps ``walk``.  Returns each
    state's position (how many writes made it) and run length, in key order,
    enumerating only the shorter side, readers or writes."""
    if reader[2] <= own[2] + walk[2]:
        at = np.arange(reader[0], reader[0] + reader[1] * reader[2], reader[1])
        position = _before(own, at, reader[3]) + _before(walk, at, reader[3])
        starts = np.flatnonzero(position[1:] != position[:-1]) + 1
        starts = np.concatenate(([0], starts, [reader[2]]))
        return position[starts[:-1]], starts[1:] - starts[:-1]
    # ahead[p]: how many readers come before the write that makes state p.
    ahead = np.zeros(own[2] + walk[2] + 2, np.int64)
    ahead[-1] = reader[2]
    for this, other in ((own, walk), (walk, own)):
        at = np.arange(this[0], this[0] + this[1] * this[2], this[1])
        position = np.arange(1, this[2] + 1) + _before(other, at, this[3])
        ahead[position] = _before(reader, at, this[3])
    lengths = ahead[1:] - ahead[:-1]
    keep = np.flatnonzero(lengths)
    return keep, lengths[keep]


def _prepare_replica(topo: Topology, config: ExperimentConfig,
                     seed_seq: np.random.SeedSequence):
    """Initial clocks and hop runtimes of one replica, drawn in declaration
    order; returns (hops, offsets, rates, walk generator)."""
    streams = seed_seq.spawn(1 + 2 * len(topo.hops) + 1)
    init_rng = np.random.default_rng(streams[0])
    node_index = {node: i for i, node in enumerate(topo.nodes)}
    slaves = {hop.slave for hop in topo.hops}
    off, rate = [], []
    for node in topo.nodes:  # the gmc draws nothing
        offset, drift = ((init_rng.uniform(-1e6, 1e6), init_rng.uniform(-2.0, 2.0))
                         if node in slaves else (0.0, 0.0))
        off.append(offset)
        rate.append(1.0 + (0.0 if config.drift_free else drift) * 1e-6)
    hops = [_prepare_hop(hop, node_index, config, init_rng,
                         [np.random.default_rng(seq) for seq in streams[1 + 2 * i:3 + 2 * i]],
                         _to_ps(config.duration_s))
            for i, hop in enumerate(topo.hops)]
    return hops, off, rate, np.random.default_rng(streams[-1])


def _run_replica(topo: Topology, config: ExperimentConfig,
                 seed_seq: np.random.SeedSequence) -> tuple[np.ndarray, bool]:
    """Simulate one replica; returns (pps error samples, converged flag).

    Each node takes its turn after its master: its hop runs every exchange and
    walk step, recording the node's clock where the node's readers need it."""
    hops, off, rate, walk_rng = _prepare_replica(topo, config, seed_seq)
    duration_ps = _to_ps(config.duration_s)
    first_k, count, pps_ps = _pps_edges(config)
    pps = (first_k * pps_ps, pps_ps, count, 0)
    events = [(h.first_ps, h.period_ps, (duration_ps - h.first_ps) // h.period_ps + 1, 2 + i)
              for i, h in enumerate(hops)]
    # abs: -0.0 walks as 0.0 does, but Generator.normal would refuse its sign.
    sigma = 0.0 if config.drift_free else abs(config.drift_walk_sigma_ppm_per_s)
    walk = (10 ** 12, 10 ** 12, duration_ps // 10 ** 12 if sigma > 0 else 0, 1)
    walk_at = np.arange(1, walk[2] + 1) * 10 ** 12
    # Every node but the gmc walks: per step one draw per node, in node order.
    walk_ppm = walk_rng.normal(0.0, sigma, size=(walk[2], len(hops)))
    walk_ns = (walk_at * 1e-3).tolist()
    writer = {h.si: i for i, h in enumerate(hops)}
    order = [topo.nodes.index(node) for node in topo.order]
    probes = [topo.nodes.index(node) for node in (topo.reference_node, topo.measured_node)]
    feeds = {}  # reader -> the clock it reads, as runs: hop index, or "pps" and a node
    for v in order:
        i = writer.get(v)
        own, node_walk = ((0, 1, 0, 0),) * 2 if i is None else (events[i], walk)  # gmc: none
        readers = [(j, events[j]) for j, h in enumerate(hops) if h.mi == v]
        readers += [(("pps", v), pps)] if v in probes else []
        runs = [(j, *_runs(own, node_walk, stream)) for j, stream in readers]
        # The states any reader sees, each once, in key order.
        stops = sorted(set().union(*(r[1].tolist() for r in runs)))
        if i is None:
            records = [(off[v], rate[v])] * len(stops)
        else:
            walks = (_before(own, walk_at, 1).tolist(), walk_ppm[:, v - (v > order[0])].tolist(),
                     walk_ns)
            records = _run_hop(hops[i], own[2], feeds[i], off, rate, stops, walks)
        states = np.array(records).reshape(-1, 2)
        for j, position, lengths in runs:
            at = np.searchsorted(stops, position)
            feeds[j] = states[at, 0], states[at, 1], lengths

    budget_ns = chain_max_error(topology_budget(topo))
    diverged_limit = DIVERGENCE_FACTOR * budget_ns if budget_ns > 0 else math.inf
    ref, slv = (feeds["pps", v] for v in probes)
    return _pps_samples(ref, slv, first_k, config.pps_interval_s * 1e9, diverged_limit)


def _pps_samples(ref, slv, first_k: int, interval_ns: float,
                 diverged_limit: float) -> tuple[np.ndarray, bool]:
    """Errors at consecutive PPS edges from ``first_k`` on, and a converged flag.

    ``ref`` and ``slv`` give the reference and the measured clock as runs
    (offsets, rates, edge counts) over the same edges.  Edge k is where both
    counters read k * interval.  Both clocks are cut to ``_BLOCK`` edges at a
    time, so the output is the only array as long as the run.  The expression
    is the scalar one applied elementwise, and k stays far below 2**53, so
    each sample is bitwise what a per-edge evaluation gives, whatever the
    block.  NaN never counts as diverged.
    """
    ends = [np.cumsum(p[2]) for p in (ref, slv)]
    samples = np.empty(int(ends[0][-1]))
    converged = True
    for a in range(0, samples.size, _BLOCK):
        b = min(a + _BLOCK, samples.size)
        (off_ref, rate_ref), (off_slv, rate_slv) = (_cut_runs(e, a, b, *p[:2])
                                                    for e, p in zip(ends, (ref, slv)))
        target = np.arange(first_k + a, first_k + b) * interval_ns
        # (target - off_ref) / rate_ref - (target - off_slv) / rate_slv, in place.
        out = np.divide(np.subtract(target, off_ref, out=off_ref), rate_ref, out=samples[a:b])
        out -= np.divide(np.subtract(target, off_slv, out=off_slv), rate_slv, out=off_slv)
        converged = converged and not np.any((out > diverged_limit) | (out < -diverged_limit))
    return samples, converged


def _serve(jobs: list, read_fd: int, write_fd: int) -> None:
    """In a forked child: pickle each job's result, or the first exception,
    down the pipe in job order, then leave the process whatever happens, so
    the child never returns into its caller's code."""
    code = 1
    try:
        os.close(read_fd)  # else a dead caller leaves the child blocked on a full pipe
        with open(write_fd, "wb") as out:
            try:
                for job in jobs:
                    pickle.dump(_run_replica(*job), out, pickle.HIGHEST_PROTOCOL)
                    out.flush()
            except Exception as exc:  # sent on for the caller to raise
                pickle.dump(exc, out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _receive(children: dict, k: int, i: int):
    """Job ``i``'s result from child ``k``, raising what the child raised.
    A child that ended without it is reaped and dropped from ``children``."""
    pid, reader = children[k]
    try:
        result = pickle.load(reader)
    except (EOFError, pickle.UnpicklingError):
        del children[k]
        reader.close()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        raise RuntimeError(f"replica worker {pid} ended before sending replica {i} "
                           f"(exit status {status})") from None
    if isinstance(result, Exception):
        raise result
    return result


def _run_replicas(jobs: list, rows: np.ndarray, workers: int) -> bool:
    """Copy ``_run_replica(*job)``'s samples into ``rows[i]`` for each job i,
    in job order; returns whether every replica converged.

    n = min(workers, jobs, CPUs this process may use) processes share the
    jobs, job i running in process i mod n.  Process 0 is the caller;
    1..n-1 are forked here, each sending its results down a pipe of its own.
    At n = 1, as where the platform cannot fork, nothing forks.  A child's
    exception is raised here, and a child that ends without its results
    raises RuntimeError.  On return or raise, every child has been killed
    and reaped.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    n = min(workers, len(jobs), cpus) if hasattr(os, "fork") else 1
    children = {}  # process index -> (pid, read end of its pipe)
    converged = True
    try:
        for k in range(1, n):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _serve(jobs[k::n], read_fd, write_fd)
            os.close(write_fd)
            children[k] = pid, open(read_fd, "rb")
        for i, (job, row) in enumerate(zip(jobs, rows)):
            # No reference to a replica's samples outlives its copy.
            row[:], ok = _run_replica(*job) if i % n == 0 else _receive(children, i % n, i)
            converged &= ok
        return converged
    finally:
        for pid, reader in children.values():
            os.kill(pid, signal.SIGKILL)  # done, or no longer needed
            os.waitpid(pid, 0)
            reader.close()


def run_experiment(config: ExperimentConfig, workers: int = 1,
                   return_samples: bool = False):
    """Run every replica of the checked, frozen ``config``; pool the PPS error statistics.

    Replica seed streams are pre-split from the experiment seed, so the
    result is identical whatever ``workers`` is.  The replicas run on at
    most ``workers`` processes, this one and children forked for this call,
    and never on more than there are replicas or CPUs this process may use.
    ``_run_replicas`` copies each replica's samples as they arrive into its
    row of one ``replicas x edges`` array; the statistics, and with
    ``return_samples`` the per-replica arrays, are views of its rows.  Sets
    ``converged=False`` if any post-warmup sample exceeds ten times the chain budget.
    """
    refuse("workers", workers, int, 1)
    topo = build_topology(config)
    seeds = np.random.SeedSequence(config.seed).spawn(config.replicas)
    _, count, _ = _pps_edges(config)
    pooled = np.empty((config.replicas, count))
    converged = _run_replicas([(topo, config, s) for s in seeds], pooled, workers)
    stats = compute_stats(pooled.reshape(-1))
    per_replica = tuple(compute_stats(row) for row in pooled)
    stats = replace(stats, per_replica=per_replica, converged=converged)
    if return_samples:
        return stats, list(pooled)
    return stats
