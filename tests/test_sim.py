"""Hop-major engine: topologies, determinism, the exchange kernel against a
per-exchange oracle and the engine against a time-major reference."""

import copy
import math
import os
import signal
from dataclasses import FrozenInstanceError, dataclass, replace

import numpy as np
import pytest

from hybridsync import sim
from hybridsync.budget import HOP_CDC, HOP_WIRELESS_ONE_WAY, chain_max_error, topology_budget
from hybridsync.cdc import cdc_read_error
from hybridsync.channel import PowerDelayProfile, propagation_delay_ns
from hybridsync.clocks import quantize_value
from hybridsync.protocol import (
    PROTOCOL_PRESETS,
    SCHEME_FTM_BURST,
    SCHEME_ONE_WAY,
    ProtocolConfig,
    SyncSample,
    estimate_offset,
)
from hybridsync.sim import (
    ExperimentConfig,
    HopSpec,
    PortSpec,
    SIM_PRESETS,
    Topology,
    TopologyError,
    _HopRuntime,
    _pps_samples,
    _prepare_hop,
    build_topology,
    compute_stats,
    run_experiment,
    _run_hop,
)
from footprint import traced_peak
from test_budget import run_with_package


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def record_forks(monkeypatch, cpus: int) -> list:
    """Let this process use ``cpus`` CPUs; returns the list that each replica
    worker's pid is appended to as ``os.fork`` starts it."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "fork", fork)
    return pids


def make_runtime(protocol=ProtocolConfig(), medium="ethernet", **overrides) -> _HopRuntime:
    """A master(0)/slave(1) hop as ``_prepare_hop`` lays it out, first exchange at
    0.5 s, with the grid phases, path delay and any other field overridden."""
    hop = HopSpec("m", "s", medium, protocol, PortSpec(), PortSpec(), stagger_s=0.5)
    config = ExperimentConfig(preset="calnex-eth3", drift_free=True)
    fading = [np.random.default_rng(1), np.random.default_rng(2)]  # a single tap draws none
    h = _prepare_hop(hop, {"m": 0, "s": 1}, config, np.random.default_rng(0), fading,
                     5 * 10**11 + 64 * round(protocol.sync_period_s * 1e12))
    for key, value in {"ph_m": 0.3, "ph_s": 0.7, "prop_ns": 250.5, **overrides}.items():
        setattr(h, key, value)
    return h


def set_excess(h, dmf, dmr=()):
    """Install forward/reverse excess-delay series, one per burst position, as
    the hop holds them: one table of their values and a series of indices each."""
    series = [np.asarray(d, dtype=float) for d in (*dmf, *dmr)]
    h.excess, taps = np.unique(np.concatenate(series), return_inverse=True)
    taps = np.split(taps.astype(np.min_scalar_type(len(h.excess) - 1)),
                    np.cumsum([len(d) for d in series])[:-1])
    h.dmf, h.dmr = taps[:len(dmf)], taps[len(dmf):]


def step(h, off, rate, periods=1):
    """Run the hop's next periods with the master's clock held at
    ``off[h.mi]``/``rate[h.mi]``."""
    _run_hop(h, h.n + periods, ([off[h.mi]], [rate[h.mi]], [periods]), off, rate)


def wireless_grid_topology(preset: str, sample_period_ns: float) -> Topology:
    """A preset chain whose wireless ports stamp on a custom grid."""
    base = build_topology(ExperimentConfig(preset=preset, channel="AWGN"))
    hops = tuple(
        replace(hop,
                master_port=replace(hop.master_port, sample_period_ns=sample_period_ns),
                slave_port=replace(hop.slave_port, sample_period_ns=sample_period_ns))
        if hop.medium == "wireless" else hop
        for hop in base.hops)
    return replace(base, name=f"{preset}-{sample_period_ns:g}ns", hops=hops)


# --- Per-exchange oracle --------------------------------------------------------
# One hop's exchanges restated step by step from the public timestamp and
# estimator functions.  It shares no code with the kernel, and an FTM burst
# averages its timestamps before estimating, where the kernel averages
# estimates.

WINDUP_PPM = 100.0


@dataclass
class Clock:
    """Affine clock ``off + rate * t``, disciplined by a jam-then-PI servo."""

    off: float
    rate: float
    integ: float = 0.0
    locked: bool = False

    def read(self, t):
        return self.off + self.rate * t

    def discipline(self, est, config, anchor):
        """Jam the first estimate; then step phase by kp and slew frequency by the
        clamped integrator, keeping the clock continuous at ``anchor``."""
        if not self.locked:
            self.locked, self.off = True, self.off - est
            return
        raw = self.integ + config.ki * est / (1000.0 * config.sync_period_s)
        new = min(WINDUP_PPM, max(-WINDUP_PPM, raw))
        value = self.read(anchor) - config.kp * est
        self.rate -= (new - self.integ) * 1e-6
        self.off, self.integ = value - self.rate * anchor, new


@dataclass
class Port:
    """Timestamping grid and phase, Ethernet egress quantization, CDC law."""

    grid_ns: float
    phase: float
    ethernet: bool = True
    cdc: tuple = ()  # (t_src, rate, phase_ns) of the port's domain crossing

    def stamp(self, clock, t, egress=False):
        value = clock.read(t) + (cdc_read_error(t, *self.cdc) if self.cdc else 0.0)
        if egress and not self.ethernet:
            return value
        return float(quantize_value(value, self.grid_ns, self.phase))

    def fields(self, side):
        return {f"ts_{side}": self.grid_ns, f"ph_{side}": self.phase,
                f"cdc_{side}": self.cdc or None}


def oracle_period(master, slave, m_port, s_port, config, t0, prop, fwd, rev):
    """One period's sample, and the arrival the servo anchors its slew at.
    Replies and burst positions follow 1 ms apart, as ``REPLY_DELAY_S`` and
    ``BURST_SPACING_S`` fix them for every hop."""
    if config.scheme == SCHEME_ONE_WAY:
        ta = t0 + prop + fwd[0]
        sample = SyncSample(m_port.stamp(master, t0, egress=True), s_port.stamp(slave, ta),
                            None, None, SCHEME_ONE_WAY)
        return sample, ta
    stamps = []
    for b, (df, dr) in enumerate(zip(fwd, rev)):
        t = t0 + b * 1e6
        ta = t + prop + df
        tb = ta + 1e6 + prop + dr
        stamps.append((m_port.stamp(master, t, egress=True), s_port.stamp(slave, ta),
                       s_port.stamp(slave, ta + 1e6, egress=True), m_port.stamp(master, tb)))
    return SyncSample(*(sum(c) / len(stamps) for c in zip(*stamps)), config.scheme), tb


def run_lockstep(master, slave, m_port, s_port, config, periods, probe, prop=250.5,
                 dmf=None, dmr=None, master_steps=()):
    """Step kernel and oracle one period at a time; returns the integrator trace.

    ``master_steps`` moves the master's clock to a new (offset, rate) before
    each of the first periods.  Then the whole run in one kernel call, with
    the master's clock as one run per period and a stop after every period,
    must record bitwise the clocks the stepped run left.
    """
    medium = "ethernet" if m_port.ethernet else "wireless"
    h = make_runtime(config, medium, prop_ns=prop, **m_port.fields("m"), **s_port.fields("s"))
    set_excess(h, dmf or h.dmf, dmr or h.dmr)
    whole = copy.copy(h)
    off, rate = [master.off, slave.off], [master.rate, slave.rate]
    # Averaging timestamps instead of estimates differs by rounding only.
    averaged = config.scheme == SCHEME_FTM_BURST and config.burst_length > 1
    clock_tol, integ_tol = (1e-5, 1e-9) if averaged else (1e-6, 1e-12)
    trace, masters, states = [], [], [(off[1], rate[1])]
    for n in range(periods):
        if n < len(master_steps):
            master.off, master.rate = off[0], rate[0] = master_steps[n]
        masters.append((off[0], rate[0]))
        t0 = (h.first_ps + n * h.period_ps) * 1e-3
        step(h, off, rate)
        sample, anchor = oracle_period(master, slave, m_port, s_port, config, t0, prop,
                                       [h.excess[d[n]] for d in h.dmf],
                                       [h.excess[d[n]] for d in h.dmr])
        slave.discipline(estimate_offset(sample, config), config, anchor)
        assert off[1] + rate[1] * probe == pytest.approx(slave.read(probe), abs=clock_tol)
        assert h.integ == pytest.approx(slave.integ, abs=integ_tol)
        trace.append(h.integ)
        states.append((off[1], rate[1]))
    assert h.n == periods
    off[1], rate[1] = states[0]
    runs = (*zip(*masters), [1] * periods)
    assert _run_hop(whole, periods, runs, off, rate, range(periods + 1)) == states
    return trace


ONE_WAY = ProtocolConfig(SCHEME_ONE_WAY, sync_period_s=5e-4, calibrated_delay_ns=1135.0,
                         kp=0.1, ki=0.01)
WIRELESS_CDC = (Port(50.0, 0.0, False, (32.0, 1.0 + 3e-6, 0.4 * 32.0)),
                Port(50.0, 0.45, False, (32.0, 1.0 - 2e-6, 0.1 * 32.0)))


class TestEngineProtocolLockstep:
    """The kernel's loops must reproduce the oracle exchange by exchange."""

    def test_two_way_ethernet_hop(self):
        run_lockstep(Clock(0.0, 1.0), Clock(40.0, 1.0 + 2e-6), Port(8.0, 0.3), Port(8.0, 0.7),
                     ProtocolConfig(), periods=3, probe=10e9)

    # Every exchange reads the master's clock as its upstream hop left it.
    @pytest.mark.parametrize("protocol, ports", [
        (ProtocolConfig(sync_period_s=0.25), (Port(8.0, 0.3), Port(8.0, 0.7))),
        (ONE_WAY, WIRELESS_CDC),
        (ProtocolConfig(SCHEME_FTM_BURST, sync_period_s=0.25, burst_length=2), WIRELESS_CDC),
    ], ids=["two-way", "one-way", "ftm-burst-2"])
    def test_master_clock_steps_between_periods(self, protocol, ports):
        steps = [(15.0 + 40.0 * n, 1.0 + (-1) ** n * 3e-6 * n) for n in range(6)]
        run_lockstep(Clock(15.0, 1.0), Clock(-300.0, 1.0 - 1e-6), *ports, protocol,
                     periods=8, probe=3e9, prop=1135.0, master_steps=steps)

    def test_one_way_wireless_hop_with_cdc(self):
        run_lockstep(Clock(0.0, 1.0), Clock(-300.0, 1.0 - 1e-6), WIRELESS_CDC[0],
                     Port(50.0, 0.45, False), ONE_WAY, periods=4, probe=3e9, prop=1135.0)

    @pytest.mark.parametrize("medium", ["ethernet", "wireless"])
    def test_ftm_burst_hop(self, medium):
        burst, periods = 3, 4
        # Quarter-ns excess delays keep every arrival time exact in both models.
        dmf = [[0.25 * ((3 * b + 5 * n) % 7) for n in range(periods)] for b in range(burst)]
        dmr = [[0.25 * ((2 * b + 3 * n) % 5) for n in range(periods)] for b in range(burst)]
        ports = (Port(8.0, 0.3), Port(8.0, 0.7)) if medium == "ethernet" else WIRELESS_CDC
        period = 1.0 if medium == "ethernet" else 0.125
        config = ProtocolConfig(SCHEME_FTM_BURST, sync_period_s=period, burst_length=burst)
        run_lockstep(Clock(15.0, 1.0 - 1.5e-6), Clock(40.0, 1.0 + 2e-6), *ports, config,
                     periods=periods, probe=10e9, dmf=dmf, dmr=dmr)

    @pytest.mark.parametrize("scheme", [SCHEME_ONE_WAY, SCHEME_FTM_BURST])
    def test_integrator_windup(self, scheme):
        # A full phase step (kp = 1) on one huge excess delay swings the next
        # estimate just as far the other way: the integrator clamps both ways.
        if scheme == SCHEME_ONE_WAY:
            config = replace(ONE_WAY, kp=1.0)
            ports, excess, rev = WIRELESS_CDC, 2e4, None
        else:
            config = ProtocolConfig(SCHEME_FTM_BURST, burst_length=2, kp=1.0)
            ports, excess, rev = (Port(8.0, 0.3), Port(8.0, 0.7)), 2e6, [[0.0] * 6] * 2
        fwd = [[excess if n == 1 else 0.0 for n in range(6)]] * config.burst_length
        trace = run_lockstep(Clock(0.0, 1.0), Clock(-300.0, 1.0 - 1e-6), *ports, config,
                             periods=6, probe=3e9, prop=1135.0, dmf=fwd, dmr=rev)
        assert trace[1] == WINDUP_PPM and trace[2] == -WINDUP_PPM


class TestWindowSplits:
    """A hop's run, cut into windows by recording stops, with its blocks and its
    master's runs cut elsewhere, gives bitwise what stepping it one period per
    call gives."""

    PERIODS = 60

    def hop(self, protocol, ports):
        medium = "ethernet" if ports[0].ethernet else "wireless"
        h = make_runtime(protocol, medium, prop_ns=1135.0, **ports[0].fields("m"),
                         **ports[1].fields("s"))
        count = len(h.dmf[0])
        set_excess(h, [[0.25 * ((5 * n + 3 * b) % 11) + 1e-3 * n for n in range(count)]
                       for b in range(h.burst)],
                   [[0.25 * ((2 * n + 5 * b) % 7) + 2e-3 * n for n in range(count)]
                    for b in range(len(h.dmr))])
        return h

    @staticmethod
    def master(n):
        # The master's clock moves every third period.
        return 15.0 + 2.5 * (n // 3), 1.0 - 1.5e-6 + 1e-7 * (n // 3)

    def drive(self, monkeypatch, window, protocol=ONE_WAY, ports=WIRELESS_CDC):
        h, off, rate = self.hop(protocol, ports), [0.0, -300.0], [1.0, 1.0 + 2e-6]
        states = [(off[1], rate[1])]
        for n in range(self.PERIODS):
            off[0], rate[0] = self.master(n)
            step(h, off, rate)
            states.append((off[1], rate[1]))
        servo = (h.integ, h.locked, h.n)
        assert servo[1:] == (True, self.PERIODS)  # locked, periods run
        # Blocks of 2 * window + 1 exchanges (3 stamps a beacon, 7 an exchange);
        # each three-period run of the master cut into ``window`` runs.
        h, off, rate = self.hop(protocol, ports), [None, -300.0], [None, 1.0 + 2e-6]
        monkeypatch.setattr(sim, "_BLOCK", (2 * window + 1) * (
            3 if h.scheme == SCHEME_ONE_WAY else 7 * h.burst))
        runs = [(*self.master(n), 3 // window + (k < 3 % window))
                for n in range(0, self.PERIODS, 3) for k in range(window)]
        stops = range(0, self.PERIODS + 1, window)
        assert _run_hop(h, self.PERIODS, list(zip(*runs)), off, rate, stops) == states[::window]
        assert ((off[1], rate[1]), (h.integ, h.locked, h.n)) == (states[-1], servo)

    @pytest.mark.parametrize("window", [1, 2, 7])
    def test_one_way_windows_match_a_single_call(self, monkeypatch, window):
        self.drive(monkeypatch, window)

    @pytest.mark.parametrize("ports", [(Port(8.0, 0.3), Port(8.0, 0.7)), WIRELESS_CDC],
                             ids=["ethernet", "wireless-cdc"])
    @pytest.mark.parametrize("protocol", [
        ProtocolConfig(sync_period_s=0.125),
        ProtocolConfig(SCHEME_FTM_BURST, sync_period_s=0.125, burst_length=3)],
        ids=["two-way", "ftm-burst-3"])
    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_burst_windows_match_a_single_call(self, monkeypatch, window, protocol, ports):
        self.drive(monkeypatch, window, protocol, ports)


def time_major_samples(topo, config, seed):
    """PPS samples of one replica stepped one event at a time in key order.

    Keys are (instant_ps, rank): rank 0 is a PPS edge, 1 a walk step and
    2 + i an exchange of hop i.  Only the preparation of the replica and the
    kernel, called for one exchange at a time, are shared with the engine;
    the walk draws one scalar at a time.
    """
    hops, off, rate, walk_rng = sim._prepare_replica(topo, config, np.random.SeedSequence(seed))
    duration_ps = round(config.duration_s * 1e12)
    pps_ps = round(config.pps_interval_s * 1e12)
    # The recorded edges: the first after warm-up up to the last within the run.
    first_k = round(config.warmup_s * 1e12) // pps_ps + 1
    events = [(k * pps_ps, 0, k) for k in range(first_k, duration_ps // pps_ps + 1)]
    sigma = 0.0 if config.drift_free else config.drift_walk_sigma_ppm_per_s
    if sigma > 0:
        events += [(t, 1, None) for t in range(10**12, duration_ps + 1, 10**12)]
    for i, h in enumerate(hops):
        events += [(t, 2 + i, h) for t in range(h.first_ps, duration_ps + 1, h.period_ps)]
    gmc, = set(range(len(off))) - {h.si for h in hops}
    ref, slv = (topo.nodes.index(node) for node in (topo.reference_node, topo.measured_node))
    samples = []
    for t, rank, what in sorted(events, key=lambda event: event[:2]):
        if rank == 0:
            target = what * (config.pps_interval_s * 1e9)
            samples.append((target - off[ref]) / rate[ref] - (target - off[slv]) / rate[slv])
        elif rank == 1:
            for v in range(len(off)):
                if v != gmc:
                    delta_ppm = walk_rng.normal(0.0, sigma)
                    rate[v] += delta_ppm * 1e-6
                    off[v] -= delta_ppm * 1e-6 * (t * 1e-3)
        else:
            step(what, off, rate)
    return samples


class TestTieOrder:
    """The engine reproduces the time-major reference bitwise, ties included:
    at one instant the PPS edge reads first, then the walk steps, then the
    hops in declaration order."""

    @pytest.mark.parametrize("chain, walk, pps", [
        # every exchange lands on a 1 s PPS edge
        pytest.param([("gmc", "s", 1.0)], 0.0, 1.0, id="pps"),
        pytest.param([("gmc", "s", 1.0)], 2.0, 1.0, id="pps-walking"),
        # every fourth exchange lands on a 1 s walk step
        pytest.param([("gmc", "s", 0.25)], 5.0, 3.33, id="walk"),
        pytest.param([("gmc", "s", 0.25)], 0.0, 3.33, id="walk-still"),
        # every fourth exchange of hop 1 lands on one of hop 0
        pytest.param([("gmc", "a", 1.0), ("a", "s", 0.25)], 0.0, 1.73, id="hop-hop"),
        pytest.param([("gmc", "a", 1.0), ("a", "s", 0.25)], 2.0, 1.73, id="hop-hop-walking"),
        # the master's hop is declared after its child's, and the gmc last
        pytest.param([("a", "s", 0.25), ("gmc", "a", 1.0)], 0.0, 0.5, id="master-after-child"),
        pytest.param([("a", "s", 0.25), ("gmc", "a", 1.0)], 2.0, 0.5,
                     id="master-after-child-walking"),
        # a PPS edge, a walk step and both hops at every whole second
        pytest.param([("gmc", "a", 0.5), ("a", "s", 1.0)], 2.0, 1.0, id="all-at-once"),
        pytest.param([("gmc", "a", 0.5), ("a", "s", 1.0)], 0.0, 1.0, id="all-at-once-still"),
    ])
    def test_windows_match_per_event_evaluation_bitwise(self, chain, walk, pps):
        wired = PROTOCOL_PRESETS["wired-ptp"]
        hops = tuple(HopSpec(master, slave, "ethernet", replace(wired, sync_period_s=period),
                             PortSpec(), PortSpec()) for master, slave, period in chain)
        nodes = tuple(dict.fromkeys(node for m, s, _ in chain for node in (m, s)))
        config = ExperimentConfig(topology=Topology("ties", nodes, hops, "s", "gmc"),
                                  duration_s=40.0, warmup_s=5.0, pps_interval_s=pps,
                                  drift_walk_sigma_ppm_per_s=walk)
        samples, _ = sim._run_replica(build_topology(config), config, np.random.SeedSequence(7))
        assert samples.tolist() == time_major_samples(build_topology(config), config, 7)

    def test_branched_one_way_chain_with_walk(self):
        # Two probes on branches of the switch, 2 kHz beacons and a PPS grid
        # finer than the beacons, with every clock walking.
        config = ExperimentConfig(preset="ota-wsharp", channel="IWLAN_B", speed_kmh=10.0,
                                  duration_s=3.5, warmup_s=1.0, pps_interval_s=0.0007,
                                  drift_walk_sigma_ppm_per_s=0.5)
        topo = build_topology(config)
        samples, _ = sim._run_replica(topo, config, np.random.SeedSequence(3))
        assert samples.tolist() == time_major_samples(topo, config, 3)


class TestPrepareHop:
    @pytest.mark.parametrize("scheme, positions, replies", [
        ("one_way", 1, False), ("two_way", 1, True), ("ftm_burst", 4, True)])
    def test_excess_series_shape(self, scheme, positions, replies):
        # burst_length only counts for FTM; one-way hops get no reverse series
        config = ExperimentConfig(preset="emulator-80211", channel="IWLAN_A",
                                  scheme=scheme, burst_length=4)
        topo = build_topology(config)
        node_index = {node: i for i, node in enumerate(topo.nodes)}
        rngs = [np.random.default_rng(k) for k in range(3)]
        h = _prepare_hop(topo.hops[-1], node_index, config, rngs[0], rngs[1:], 10**13)
        assert h.burst == positions
        assert len(h.dmf) == positions
        assert len(h.dmr) == (positions if replies else 0)
        # An ethernet hop's AWGN channel does not fade: one zero delay, zero indices.
        eth = _prepare_hop(topo.hops[0], node_index, config, rngs[0], rngs[1:], 10**13)
        assert eth.excess.tolist() == [0.0]
        assert all(d.dtype == np.uint8 and not d.any() for d in (*eth.dmf, *eth.dmr))
        assert len(eth.dmf) == len(eth.dmr) == 1

    def test_series_of_many_taps_widen(self):
        # A 257-tap profile's tap indices take two bytes each.
        pdp = PowerDelayProfile([(25.0 * i, -0.1 * i) for i in range(257)])
        hop = HopSpec("m", "s", "wireless", PROTOCOL_PRESETS["80211-ptp"], PortSpec(),
                      PortSpec(), channel=pdp, doppler_hz=22.24)
        config = ExperimentConfig(preset="calnex-eth3", drift_free=True)
        rngs = [np.random.default_rng(k) for k in range(3)]
        h = _prepare_hop(hop, {"m": 0, "s": 1}, config, rngs[0], rngs[1:], 10**13)
        assert h.excess is pdp.delays_ns
        assert [d.dtype for d in (*h.dmf, *h.dmr)] == [np.uint16] * 2
        assert [len(d) for d in (*h.dmf, *h.dmr)] == [82] * 2


def pps_samples(segments, first_k, interval_ns, diverged_limit=np.inf):
    """``_pps_samples`` over segments of (edge count, reference offset, reference
    rate, measured offset, measured rate)."""
    counts, off_ref, rate_ref, off_slv, rate_slv = zip(*segments)
    return _pps_samples((off_ref, rate_ref, counts), (off_slv, rate_slv, counts),
                        first_k, interval_ns, diverged_limit)


class TestPpsError:
    """One-edge PPS samples: reference (0, 1), measured (off, rate)."""

    def one_edge(self, off, rate):
        samples, _ = pps_samples([(1, 0.0, 1.0, off, rate)], 1, 1e9)
        return float(samples[0])

    def test_positive_when_slave_ahead(self):
        assert self.one_edge(40.0, 1.0) == pytest.approx(40.0)

    def test_negative_when_slave_behind(self):
        assert self.one_edge(-25.0, 1.0) == pytest.approx(-25.0)

    def test_rate_error_scales_crossing(self):
        # slave 1 ppm fast reaches the 1 s mark 1 us of true time early
        assert self.one_edge(0.0, 1.0 + 1e-6) == pytest.approx(1000.0, rel=1e-5)

    def test_matches_engine_formula(self):
        target = 4e9
        off, rate = [12.5, -80.0], [1.0 + 2e-6, 1.0 - 3e-6]
        manual = (target - off[0]) / rate[0] - (target - off[1]) / rate[1]
        samples, _ = pps_samples([(1, off[0], rate[0], off[1], rate[1])], 4, 1e9)
        assert samples[0] == pytest.approx(manual, abs=1e-5)


class TestTopologies:
    def test_presets_build_and_validate(self):
        for preset in SIM_PRESETS:
            topo = build_topology(ExperimentConfig(preset=preset, channel="IWLAN_A"))
            assert topo.name == preset

    def test_calnex_chain_shape(self):
        topo = build_topology(ExperimentConfig(preset="calnex", channel="AWGN"))
        assert [h.medium for h in topo.hops] == ["ethernet", "wireless", "ethernet"]
        assert topo.measured_node == "analyzer"
        assert topo.reference_node == "gmc"

    def test_emulator_wsharp_hop_parameters(self):
        topo = build_topology(ExperimentConfig(preset="emulator-wsharp",
                                               channel="IWLAN_B", speed_kmh=30.0))
        wireless = topo.hops[-1]
        assert wireless.protocol.scheme == SCHEME_ONE_WAY
        assert wireless.protocol.calibrated_delay_ns == 1135.0
        assert wireless.protocol.sync_period_s == pytest.approx(500e-6)
        assert wireless.doppler_hz == pytest.approx(66.71, abs=0.05)
        assert wireless.master_port.cdc_t_src_ns == 32.0
        assert wireless.slave_port.cdc_t_src_ns == 32.0

    def test_single_cdc_stage_config(self):
        topo = build_topology(ExperimentConfig(preset="emulator-80211",
                                               channel="AWGN", cdc_stages=1))
        assert topo.hops[-1].master_port.cdc_t_src_ns == 32.0
        assert topo.hops[-1].slave_port.cdc_t_src_ns == 0.0
        assert chain_max_error(topology_budget(topo)) == 57.0

    def test_scheme_override(self):
        topo = build_topology(ExperimentConfig(preset="emulator-80211",
                                               channel="AWGN",
                                               scheme="ftm_burst", burst_length=4))
        assert topo.hops[-1].protocol.scheme == "ftm_burst"
        assert topo.hops[-1].protocol.burst_length == 4

    def test_ota_budget_drops_common_hops(self):
        # gmc->switch serves both probes and must cancel out
        topo = build_topology(ExperimentConfig(preset="ota-80211", channel="IWLAN_A"))
        entries = topology_budget(topo)
        assert chain_max_error(entries) == 143.0
        assert sum(1 for e in entries if e.kind == HOP_CDC) == 2

    def test_one_way_budget_includes_residual(self):
        config = ExperimentConfig(preset="emulator-wsharp", channel="AWGN",
                                  extra_distance_m=30.0)
        entries = topology_budget(build_topology(config))
        one_way = [e for e in entries if e.kind == HOP_WIRELESS_ONE_WAY]
        assert len(one_way) == 1
        assert one_way[0].t_ms_ns == pytest.approx(30.0 / 0.2998, abs=0.01)
        assert chain_max_error(entries) == pytest.approx(173.07, abs=0.01)

    def test_budget_matches_analytic_presets(self):
        pairs = [("calnex-eth3", 24.0), ("calnex", 73.0)]
        for preset, expected in pairs:
            topo = build_topology(ExperimentConfig(preset=preset, channel="AWGN"))
            assert chain_max_error(topology_budget(topo)) == expected

    def test_validation_catches_bad_graphs(self):
        nodes = ("a", "b", "c")

        def hop(m, s):
            return HopSpec(m, s, "ethernet", PROTOCOL_PRESETS["wired-ptp"], PortSpec(), PortSpec())

        assert Topology("t", nodes, (hop("a", "b"), hop("b", "c")), "c", "a").hops
        with pytest.raises(TopologyError):  # orphan c
            Topology("t", nodes, (hop("a", "b"),), "c", "a")
        with pytest.raises(TopologyError):  # two upstream hops
            Topology("t", nodes, (hop("a", "b"), hop("c", "b"), hop("a", "c")), "b", "a")
        with pytest.raises(TopologyError):  # gmc as slave
            Topology("t", nodes, (hop("b", "a"), hop("a", "b"), hop("a", "c")), "b", "a")
        with pytest.raises(TopologyError):  # unknown probe
            Topology("t", nodes, (hop("a", "b"), hop("b", "c")), "d", "a")
        with pytest.raises(TopologyError):  # duplicate node
            Topology("t", ("a", "b", "b"), (hop("a", "b"),), "b", "a")
        # Never budget or run a cycle: the upstream walk of b and c never ends.
        with pytest.raises(TopologyError):
            Topology("t", nodes, (hop("b", "c"), hop("c", "b")), "b", "a")

    def test_order_is_masters_first_breadth_first(self):
        def hop(m, s):
            return HopSpec(m, s, "ethernet", PROTOCOL_PRESETS["wired-ptp"], PortSpec(), PortSpec())

        # A branched tree declared leaves first, the gmc "g" last among the nodes.
        pairs = [("b", "d"), ("a", "c"), ("g", "b"), ("b", "e"), ("g", "a"), ("c", "f")]
        topo = Topology("t", ("f", "e", "d", "c", "b", "a", "g"),
                        tuple(hop(m, s) for m, s in pairs), "f", "g")
        assert topo.order == ("g", "b", "a", "d", "e", "c", "f")
        position = {node: i for i, node in enumerate(topo.order)}
        assert all(position[m] < position[s] for m, s in pairs)
        # The reference: a breadth-first walk over node indices from the gmc.
        index = {node: i for i, node in enumerate(topo.nodes)}
        walk = [index["g"]]
        for v in walk:
            walk += [index[s] for m, s in pairs if index[m] == v]
        assert [topo.nodes[v] for v in walk] == list(topo.order)
        with pytest.raises(FrozenInstanceError):
            topo.order = topo.nodes
        with pytest.raises(TypeError):
            Topology("t", topo.nodes, topo.hops, "f", "g", topo.order)
        # A cycle apart from the gmc, and an orphan beside it, are still refused.
        with pytest.raises(TopologyError, match="not chained"):
            Topology("t", ("g", "a", "b", "c"), (hop("g", "a"), hop("b", "c"), hop("c", "b")),
                     "a", "g")
        with pytest.raises(TopologyError, match="exactly one gmc"):
            Topology("t", ("g", "a", "c"), (hop("g", "a"),), "a", "g")

    @pytest.mark.parametrize("medium, protocol, channel", [
        ("optical", ProtocolConfig(), "AWGN"),
        ("ethernet", ONE_WAY, "AWGN"),
        ("wireless", ProtocolConfig(), "WLAN_Z"),
        ("ethernet", ProtocolConfig(), "IWLAN_B"),
    ], ids=["unknown_medium", "one_way_ethernet", "unknown_channel", "fading_ethernet"])
    def test_hop_refuses_what_the_kernel_runs_wrongly(self, medium, protocol, channel):
        # Construction only: no preset builds these hops.
        with pytest.raises(ValueError):
            HopSpec("m", "s", medium, protocol, PortSpec(), PortSpec(), channel=channel)

    @pytest.mark.parametrize("doppler_hz", [math.nan, -5.0, math.inf, "fast", True])
    def test_hop_refuses_a_bad_doppler(self, doppler_hz):
        # Also on a single-tap channel, whose run would ignore it.
        with pytest.raises(ValueError):
            HopSpec("m", "s", "wireless", ProtocolConfig(), PortSpec(), PortSpec(),
                    channel="AWGN", doppler_hz=doppler_hz)

    def test_ota_extra_distance_is_uncalibrated(self):
        # 10 m stay calibrated out; the extra 30 m add 100.07 ns, as on the emulator.
        default = build_topology(ExperimentConfig(preset="ota-wsharp", channel="AWGN")).hops[-1]
        assert default.geometry.distance_m == 10.0
        assert default.protocol.calibrated_delay_ns == propagation_delay_ns(default.geometry)
        for preset in ("ota-wsharp", "emulator-wsharp"):
            topo = build_topology(ExperimentConfig(preset=preset, channel="AWGN",
                                                   extra_distance_m=30.0))
            assert chain_max_error(topology_budget(topo)) == pytest.approx(173.07, abs=0.01)

    @pytest.mark.parametrize("port", [dict(sample_period_ns=0.0),
                                      dict(sample_period_ns=float("nan")),
                                      dict(cdc_t_src_ns=-32.0)])
    def test_port_refuses_degenerate_grid(self, port):
        # a zero grid would fail only inside the exchange kernel
        with pytest.raises(ValueError):
            PortSpec(**port)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(preset="testbed-9000")


class TestPpsSegments:
    """Each probe's clock comes as segments (runs) of edges that see one state."""

    @staticmethod
    def probes():
        # The two probes' runs end at different edges.
        rng = np.random.default_rng(5)
        probes = []
        for _ in range(2):
            counts = rng.integers(1, 50, size=40)
            counts[-1] += 2000 - counts.sum()
            probes.append((rng.uniform(-1e6, 1e6, 40), 1.0 + rng.uniform(-2e-6, 2e-6, 40),
                           counts))
        return probes

    def test_matches_per_edge_evaluation_bitwise(self):
        probes = self.probes()
        first_k, interval_ns = 12_345, 2e6
        samples, converged = _pps_samples(*probes, first_k, interval_ns, np.inf)
        (off_ref, rate_ref), (off_slv, rate_slv) = (
            [np.repeat(x, counts).tolist() for x in (off, rate)] for off, rate, counts in probes)
        expected = [(k * interval_ns - off_ref[i]) / rate_ref[i]
                    - (k * interval_ns - off_slv[i]) / rate_slv[i]
                    for i, k in enumerate(range(first_k, first_k + 2000))]
        assert samples.tolist() == expected
        assert converged

    @pytest.mark.parametrize("block", [1, 3, 2001])
    def test_blocks_do_not_change_the_samples(self, monkeypatch, block):
        # Blocks of one edge, of three (most runs end inside one) and one
        # block for all 2000 edges give what the unblocked formula gives.
        probes = self.probes()
        first_k, interval_ns = 12_345, 2e6
        (off_ref, rate_ref), (off_slv, rate_slv) = (
            [np.repeat(x, counts) for x in (off, rate)] for off, rate, counts in probes)
        target = np.arange(first_k, first_k + 2000) * interval_ns
        expected = (target - off_ref) / rate_ref - (target - off_slv) / rate_slv
        # Only the largest sample lies beyond the second-largest magnitude.
        limit = np.sort(np.abs(expected))[-2]
        monkeypatch.setattr(sim, "_BLOCK", block)
        samples, converged = _pps_samples(*probes, first_k, interval_ns, np.inf)
        assert samples.tobytes() == expected.tobytes() and converged
        assert _pps_samples(*probes, first_k, interval_ns, limit)[1] is False

    def test_divergence_inside_a_segment(self):
        # The measured clock runs 1 ppb fast: errors 1, 2, 3, 4 ns at edges 1-4.
        segments = [(4, 0.0, 1.0, 0.0, 1.0 + 1e-9), (2, 0.0, 1.0, 0.0, 1.0)]
        samples, converged = pps_samples(segments, 1, 1e9, 2.5)
        assert abs(samples[0]) < 2.5 < abs(samples[2])
        assert not converged
        _, converged = pps_samples(segments, 1, 1e9, 4.5)
        assert converged

    def test_nan_never_diverges(self):
        _, converged = pps_samples([(3, np.nan, 1.0, 0.0, 1.0)], 1, 1e9, 1.0)
        assert converged


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(duration_s=10.0, warmup_s=10.0)
        with pytest.raises(ValueError):
            ExperimentConfig(cdc_stages=3)
        with pytest.raises(ValueError):
            ExperimentConfig(replicas=0)
        with pytest.raises(ValueError):
            ExperimentConfig(pps_interval_s=0.0)

    # Never run these: at 0 ps the PPS schedule would not advance.
    @pytest.mark.parametrize("overrides", [
        dict(pps_interval_s=1e-13),
        dict(pps_interval_s=float("inf")),
        dict(sync_period_s=1e-13),
        dict(sync_period_s=-1.0),
        dict(duration_s=float("inf")),
        dict(duration_s=20.0, warmup_s=5.0, pps_interval_s=20.0),
        dict(duration_s=20.0, warmup_s=5.0, pps_interval_s=12.0),
        dict(seed=-1),
        dict(seed=1.5),
        dict(seed=True),
        dict(pps_interval_s=1e300),
        dict(duration_s=1e300),
        dict(sync_period_s=1e300),
        dict(warmup_s=-1e300),
        dict(warmup_s=-1.0),
    ], ids=["sub_ps_pps", "inf_pps", "sub_ps_sync", "negative_sync", "inf_duration",
            "no_pps_edge", "one_pps_edge", "negative_seed", "float_seed", "bool_seed",
            "pps_beyond_ps_range", "duration_beyond_ps_range", "sync_beyond_ps_range",
            "huge_negative_warmup", "negative_warmup"])
    def test_refuses_degenerate_periods_and_seeds(self, overrides):
        with pytest.raises(ValueError):
            ExperimentConfig(**overrides)

    # Refused while the config is built: never run these.
    def test_refuses_runs_too_large_for_memory(self):
        with pytest.raises(ValueError, match="excess-delay entries"):
            ExperimentConfig(preset="emulator-wsharp", sync_period_s=1e-6)
        with pytest.raises(ValueError, match="excess-delay entries"):
            ExperimentConfig(preset="calnex", scheme="ftm_burst", burst_length=4,
                             sync_period_s=1e-4)

    def test_refuses_pps_edges_beyond_the_caps(self):
        # With no warm-up, edges 1 .. duration / pps are recorded.
        def config(edges, replicas, pps_interval_s=1e-4):
            return ExperimentConfig(preset="calnex-eth3", duration_s=edges * pps_interval_s,
                                    warmup_s=0.0, pps_interval_s=pps_interval_s,
                                    replicas=replicas)

        per_replica = sim.MAX_RUN_PPS_EDGES // 16
        config(sim.MAX_RUN_PPS_EDGES, 1)
        config(per_replica, 16)
        for args in ((sim.MAX_RUN_PPS_EDGES + 1, 1), (per_replica, 17), (10 ** 9, 1000, 1e-6)):
            with pytest.raises(ValueError, match="^pps_interval_s, duration_s and replicas "
                                                 f"ask for {args[0] * args[1]} PPS edges in all"):
                config(*args)

    def test_refuses_a_flight_time_not_below_the_sync_period(self):
        # emulator-wsharp's radio hop: 1135 ns plus the extra distance at c,
        # one beacon every 500 us.
        ExperimentConfig(preset="emulator-wsharp", extra_distance_m=149_559.0)  # 499,997.6 ns
        with pytest.raises(ValueError, match=r"hop 2 \(translator->sta\) has a flight time"):
            ExperimentConfig(preset="emulator-wsharp", extra_distance_m=149_561.0)  # 500,004.2 ns

    def test_largest_preset_defaults_fit(self):
        for preset in SIM_PRESETS:
            ExperimentConfig(preset=preset, channel="IWLAN_B")
        # calnex-eth3 checks but does not use the wireless period
        ExperimentConfig(preset="calnex-eth3", sync_period_s=1e-6)

    @pytest.mark.parametrize("overrides", [
        dict(drift_walk_sigma_ppm_per_s=float("nan")), dict(drift_walk_sigma_ppm_per_s=-1.0),
        dict(drift_walk_sigma_ppm_per_s=1e305),
    ], ids=["nan_walk", "negative_walk", "overflowing_walk"])
    def test_refuses_bad_hop_and_walk_settings(self, overrides):
        with pytest.raises(ValueError):
            ExperimentConfig(**overrides)

    def test_largest_walk_is_accepted(self):
        ExperimentConfig(drift_walk_sigma_ppm_per_s=1e6)
        with pytest.raises(ValueError, match=r"^drift_walk_sigma_ppm_per_s must be in "):
            ExperimentConfig(drift_walk_sigma_ppm_per_s=1.000001e6)

    def stagger_config(self, stagger_s):
        hop = HopSpec("gmc", "s", "ethernet", PROTOCOL_PRESETS["wired-ptp"], PortSpec(),
                      PortSpec(), stagger_s=stagger_s)
        return ExperimentConfig(topology=Topology("late", ("gmc", "s"), (hop,), "s", "gmc"),
                                duration_s=20.0, warmup_s=5.0)

    @pytest.mark.parametrize("stagger_s", [float("nan"), -0.5])
    def test_hop_refuses_a_stagger_outside_time(self, stagger_s):
        with pytest.raises(ValueError, match="stagger_s must be finite and >= 0"):
            self.stagger_config(stagger_s)

    def test_refuses_a_hop_that_starts_after_the_run(self):
        # Refused before any series is allocated; a first exchange at the
        # run's last instant still counts.
        with pytest.raises(ValueError, match=r"hop 0 \(gmc->s\) starts at stagger_s=50.0, "
                                             r"after duration_s=20.0"):
            self.stagger_config(50.0)
        stats = run_experiment(replace(self.stagger_config(20.0), pps_interval_s=5.0))
        assert stats.n_samples == 3

    def test_two_pps_edges_after_warmup_suffice(self):
        config = ExperimentConfig(preset="calnex-eth3", duration_s=20.0, warmup_s=5.0,
                                  pps_interval_s=10.0, drift_free=True, seed=np.int64(3))
        stats = run_experiment(config)
        assert stats.n_samples == 2

    def test_dict_round_trip_rejects_unknown_keys(self):
        config = ExperimentConfig(preset="calnex", channel="WLAN_A", seed=9)
        doc = config.as_dict()
        doc.pop("inline_topology")
        assert ExperimentConfig.from_dict(doc) == config
        doc["jitter_budget"] = 1.0
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(doc)


class TestRunExperiment:
    def quick_config(self, **overrides):
        base = dict(preset="calnex", channel="AWGN", duration_s=30.0,
                    warmup_s=6.0, pps_interval_s=0.5, replicas=2, seed=42,
                    drift_free=True)
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_deterministic_given_seed(self):
        config = self.quick_config()
        _, a = run_experiment(config, return_samples=True)
        _, b = run_experiment(config, return_samples=True)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_seed_changes_samples(self):
        _, a = run_experiment(self.quick_config(seed=1), return_samples=True)
        _, b = run_experiment(self.quick_config(seed=2), return_samples=True)
        assert not np.array_equal(a[0], b[0])

    def test_workers_do_not_change_samples(self):
        config = self.quick_config(preset="emulator-wsharp", channel="IWLAN_B",
                                   speed_kmh=10.0, replicas=3, drift_free=False)
        _, serial = run_experiment(config, workers=1, return_samples=True)
        _, parallel = run_experiment(config, workers=2, return_samples=True)
        for x, y in zip(serial, parallel):
            assert np.array_equal(x, y)

    def test_pool_never_outnumbers_replicas(self, monkeypatch):
        forks = record_forks(monkeypatch, cpus=4)  # CPUs do not bound it here
        run_experiment(self.quick_config(replicas=2), workers=3)
        assert len(forks) == 1  # the caller runs replica 0, one child replica 1
        run_experiment(self.quick_config(replicas=1), workers=3)
        assert len(forks) == 1

    def test_pool_never_outnumbers_cpus(self, monkeypatch):
        forks = record_forks(monkeypatch, cpus=2)
        run_experiment(self.quick_config(replicas=8, duration_s=10.0), workers=64)
        assert len(forks) == 1

    def test_cpu_count_bounds_the_pool_without_an_affinity_mask(self, monkeypatch):
        forks = record_forks(monkeypatch, cpus=4)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one CPU
        run_experiment(self.quick_config(replicas=3), workers=3)
        assert forks == []
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        run_experiment(self.quick_config(replicas=3), workers=3)
        assert len(forks) == 1

    def test_without_fork_the_caller_runs_every_replica(self, monkeypatch):
        config = self.quick_config(replicas=3)
        record_forks(monkeypatch, cpus=4)
        forked = run_experiment(config, workers=3, return_samples=True)
        monkeypatch.delattr(os, "fork")
        stats, samples = run_experiment(config, workers=3, return_samples=True)
        assert stats == forked[0]
        assert all(np.array_equal(x, y) for x, y in zip(samples, forked[1], strict=True))

    @pytest.mark.parametrize("workers", [0, 2.5, True, "2"])
    def test_refuses_workers_but_a_positive_integer(self, monkeypatch, workers):
        forks = record_forks(monkeypatch, cpus=1)  # nothing forks either way
        with pytest.raises(ValueError, match="^workers must be an integer >= 1, got "):
            run_experiment(self.quick_config(), workers=workers)
        assert forks == []

    def fail_replica(self, monkeypatch, replica: int, fail) -> None:
        """Patch ``_run_replica`` so that ``fail(pid)`` runs first in ``replica``."""
        real = sim._run_replica

        def run_replica(topo, config, seed_seq):
            if seed_seq.spawn_key == (replica,):
                fail(os.getpid())
            return real(topo, config, seed_seq)

        monkeypatch.setattr(sim, "_run_replica", run_replica)

    @staticmethod
    def raise_lookup_error(pid):
        raise LookupError(f"replica failed in process {pid}")

    def test_a_replica_error_in_a_child_is_raised_in_the_caller(self, monkeypatch):
        forks = record_forks(monkeypatch, cpus=2)
        self.fail_replica(monkeypatch, 1, self.raise_lookup_error)
        with pytest.raises(LookupError) as exc:
            run_experiment(self.quick_config(replicas=3), workers=2)
        assert str(exc.value) == f"replica failed in process {forks[0]}"
        assert_no_child_left()

    def test_a_killed_child_raises_runtime_error(self, monkeypatch):
        forks = record_forks(monkeypatch, cpus=2)
        self.fail_replica(monkeypatch, 1, lambda pid: os.kill(pid, signal.SIGKILL))
        with pytest.raises(RuntimeError) as exc:
            run_experiment(self.quick_config(replicas=3), workers=2)
        assert str(exc.value) == (f"replica worker {forks[0]} ended before sending "
                                  "replica 1 (exit status -9)")
        assert_no_child_left()

    def test_no_child_outlives_a_run(self, monkeypatch):
        forks = record_forks(monkeypatch, cpus=3)
        run_experiment(self.quick_config(replicas=3), workers=3)
        assert len(forks) == 2
        assert_no_child_left()

    def test_a_failing_caller_kills_its_children(self, monkeypatch):
        forks = record_forks(monkeypatch, cpus=3)
        self.fail_replica(monkeypatch, 0, self.raise_lookup_error)
        with pytest.raises(LookupError, match=f"^replica failed in process {os.getpid()}$"):
            run_experiment(self.quick_config(replicas=3), workers=3)
        assert len(forks) == 2
        assert_no_child_left()

    def test_sample_count_and_replica_stats(self):
        config = self.quick_config()
        stats, arrays = run_experiment(config, return_samples=True)
        per_replica_edges = int((30.0 - 6.0) / 0.5)
        assert all(len(a) == per_replica_edges for a in arrays)
        assert stats.n_samples == 2 * per_replica_edges
        assert len(stats.per_replica) == 2
        assert stats.converged

    def test_replica_samples_are_rows_of_one_pooled_array(self):
        stats, arrays = run_experiment(self.quick_config(replicas=3), return_samples=True)
        assert [a.ctypes.data - arrays[0].ctypes.data for a in arrays] == [
            i * arrays[0].nbytes for i in range(3)]
        assert all(np.shares_memory(a, arrays[0].base) for a in arrays)
        assert stats.per_replica == tuple(compute_stats(a.copy()) for a in arrays)
        assert replace(stats, per_replica=(), converged=True) == compute_stats(
            np.concatenate(arrays))

    def test_drift_free_chain_respects_budget(self):
        config = self.quick_config(replicas=8)
        budget = chain_max_error(topology_budget(build_topology(config)))
        _, arrays = run_experiment(config, return_samples=True)
        worst = max(max(abs(a.min()), abs(a.max())) for a in arrays)
        assert worst <= budget

    def test_violent_drift_walk_flags_divergence(self):
        config = self.quick_config(preset="calnex-eth3", drift_free=False,
                                   drift_walk_sigma_ppm_per_s=5.0,
                                   duration_s=40.0, warmup_s=6.0, replicas=1)
        stats = run_experiment(config)
        assert not stats.converged

    def test_divergence_caught_inside_a_clock_segment(self):
        # At 100 Hz PPS and 1 s hop periods each clock segment holds ~100 edges.
        config = self.quick_config(preset="calnex-eth3", drift_free=False,
                                   drift_walk_sigma_ppm_per_s=5.0, pps_interval_s=0.01,
                                   duration_s=40.0, warmup_s=6.0, replicas=1)
        stats = run_experiment(config)
        assert stats.n_samples == 3400
        assert not stats.converged

    @pytest.mark.parametrize("preset", ["emulator-wsharp", "emulator-80211"])
    def test_budget_follows_wireless_port_grid(self, preset):
        topo = wireless_grid_topology(preset, 200.0)
        budget = chain_max_error(topology_budget(topo))
        assert budget == 148.0
        config = ExperimentConfig(topology=topo, drift_free=True, seed=7, replicas=8,
                                  duration_s=60.0, warmup_s=15.0, pps_interval_s=0.5)
        _, arrays = run_experiment(config, return_samples=True)
        worst = max(float(np.abs(a).max()) for a in arrays)
        assert worst <= budget

    def test_two_way_ignores_burst_length(self):
        # Only FTM repeats the exchange; a two-way hop fires once per period.
        base = dict(preset="emulator-80211", channel="IWLAN_A", speed_kmh=10.0,
                    duration_s=20.0, warmup_s=5.0, replicas=1, drift_free=False)
        _, single = run_experiment(self.quick_config(**base), return_samples=True)
        _, burst = run_experiment(self.quick_config(**base, scheme="two_way",
                                                    burst_length=4),
                                  return_samples=True)
        assert np.array_equal(single[0], burst[0])

    def test_ftm_scheme_runs(self):
        config = self.quick_config(preset="emulator-80211", channel="IWLAN_A",
                                   scheme="ftm_burst", burst_length=4,
                                   duration_s=20.0, warmup_s=5.0, replicas=1,
                                   drift_free=False)
        stats = run_experiment(config)
        assert stats.converged
        assert stats.n_samples == 30

    def test_one_way_bias_tracks_uncompensated_distance(self):
        # paired runs share every draw, so the mean shift isolates the
        # uncompensated propagation of the extra 30 m
        mus = []
        for extra in (0.0, 30.0):
            config = self.quick_config(preset="emulator-wsharp", channel="AWGN",
                                       extra_distance_m=extra, duration_s=40.0,
                                       warmup_s=10.0, replicas=2)
            mus.append(run_experiment(config).mu_ns)
        assert mus[1] - mus[0] == pytest.approx(-30.0 / 0.2998, abs=15.0)


class TestComputeStats:
    def test_known_values(self):
        stats = compute_stats([1.0, 3.0, 5.0, 7.0])
        assert stats.mu_ns == 4.0
        assert stats.sigma_ns == pytest.approx(np.std([1, 3, 5, 7], ddof=1))
        assert stats.mu_plus_3sigma_ns == pytest.approx(4.0 + 3 * stats.sigma_ns)
        assert (stats.min_ns, stats.max_ns) == (1.0, 7.0)
        assert stats.n_samples == 4
        assert sum(stats.hist_counts) == 4
        assert len(stats.hist_edges) == len(stats.hist_counts) + 1

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            compute_stats([1.0])

    def test_sign_preserved_in_mu(self):
        stats = compute_stats([-10.0, -12.0, -14.0])
        assert stats.mu_ns == -12.0
        assert stats.mu_plus_3sigma_ns == pytest.approx(12.0 + 3 * 2.0)

    @pytest.mark.parametrize("samples", [
        [3.0, -1.0], [0.5, 2.0, 0.25], np.full(1000, 7.25),
        np.random.default_rng(3).normal(-40.0, 13.0, 1000),
        np.random.default_rng(4).standard_t(3, 210_000) * 25.0,
    ], ids=["two", "three", "constant", "normal", "heavy-tailed"])
    def test_histogram_is_numpys_default(self, samples):
        # compute_stats hands its extrema to np.histogram as the range.
        counts, edges = np.histogram(samples, 64)
        stats = compute_stats(samples)
        assert np.array(stats.hist_edges).tobytes() == edges.tobytes()
        assert stats.hist_counts == tuple(counts.tolist())
        assert (stats.min_ns, stats.max_ns) == (np.min(samples), np.max(samples))


class TestFootprint:
    def test_one_way_replica_memory_per_beacon(self):
        # Python memory that grows with the run: the excess-delay index series
        # (1 B per beacon; 1.1 B measured, 8.1 B with float64 series) and
        # nothing per beacon beyond it; the kernel's blocks have a fixed size.
        # Short runs, as tracing slows the kernel ~60x.
        def replica(duration_s):
            config = ExperimentConfig(preset="emulator-wsharp", channel="AWGN",
                                      duration_s=duration_s, warmup_s=5.0)
            sim._run_replica(build_topology(config), config, np.random.SeedSequence(1))

        replica(8.0)  # first-call allocations
        peaks = [traced_peak(lambda: replica(duration_s))[0] for duration_s in (13.0, 26.0)]
        assert (peaks[1] - peaks[0]) / (13 * 2000) <= 2.0

    def test_pps_memory_per_edge(self):
        # Memory that grows with the recorded PPS edges, on a drift-free chain
        # at 1 kHz PPS: a replica holds its samples (8 B an edge) and blocks of
        # a fixed size; a run holds every replica's samples in one array, and
        # np.std's deviations from the mean beside it (8 B more).
        def config(edges, replicas=1):
            return ExperimentConfig(preset="calnex-eth3", drift_free=True, warmup_s=0.0,
                                    pps_interval_s=1e-3, duration_s=edges * 1e-3,
                                    replicas=replicas)

        def replica(edges):
            c = config(edges)
            sim._run_replica(build_topology(c), c, np.random.SeedSequence(1))

        replica(1000)  # first-call allocations
        peaks = [traced_peak(lambda: replica(edges))[0] for edges in (100_000, 200_000)]
        assert (peaks[1] - peaks[0]) / 100_000 <= 12.0
        peaks = [traced_peak(lambda: run_experiment(config(edges, 4), return_samples=True))[0]
                 for edges in (100_000, 200_000)]
        assert (peaks[1] - peaks[0]) / (4 * 100_000) <= 17.0

    def test_replicas_never_import_numpy_ma(self):
        # numpy.ma costs about 38 ms to import; np.unique is one lazy importer.
        code = ("import sys\n"
                "import numpy as np\n"
                "from hybridsync import sim\n"
                "for preset in sim.SIM_PRESETS:\n"
                "    config = sim.ExperimentConfig(preset=preset, channel='IWLAN_B',\n"
                "        speed_kmh=10.0, duration_s=12.0, warmup_s=2.0,\n"
                "        pps_interval_s=0.25, drift_walk_sigma_ppm_per_s=0.1)\n"
                "    sim._run_replica(sim.build_topology(config), config,\n"
                "                     np.random.SeedSequence(0))\n"
                "print('numpy.ma' in sys.modules)\n")
        assert run_with_package(["-c", code]) == "False\n"

    def test_replicas_never_import_multiprocessing(self):
        # multiprocessing costs about 1.5 MB and 17 ms to import.
        code = ("import sys\n"
                "import hybridsync.cli\n"
                "from hybridsync import sim\n"
                "config = sim.ExperimentConfig(preset='calnex-eth3', duration_s=12.0,\n"
                "                              warmup_s=2.0, replicas=2)\n"
                "sim.run_experiment(config, workers=2)\n"
                "print('multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)\n")
        assert run_with_package(["-c", code]) == "False False\n"
