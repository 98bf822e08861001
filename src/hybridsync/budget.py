"""Analytic worst-case error budgets for synchronization chains.

Each hop contributes an additive worst-case term to the end-to-end clock
error.  An Ethernet hop quantizes four timestamps whose errors average
pairwise, leaving two half-periods.  A wireless two-way hop quantizes only
the two receive timestamps (one half-period after averaging) and its
detector bias averages to half the maximum excess delay.  A one-way hop
keeps the full receive quantization half-period plus the full excess delay
plus whatever propagation delay was not calibrated out.  A clock domain
crossing adds half the source tick period per stage.

A chain is described once, as the simulator's ``Topology``:
``topology_budget`` reads the terms off its hops, and ``chain_preset`` reads
them off the topology of the simulator setup that a chain name stands for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import CHANNEL_CATALOG, SPEED_OF_LIGHT_M_PER_NS, build_pdp, propagation_delay_ns
from .protocol import SCHEME_ONE_WAY, refuse, refuse_bad_fields

__all__ = [
    "CHAIN_PRESETS",
    "HOP_CDC",
    "HOP_ETHERNET",
    "HOP_WIRELESS_ONE_WAY",
    "HOP_WIRELESS_TWO_WAY",
    "HopBudget",
    "budget_report",
    "chain_max_error",
    "chain_preset",
    "hop_max_error",
    "topology_budget",
    "wireless_link_budget",
]

HOP_ETHERNET = "ethernet"
HOP_WIRELESS_TWO_WAY = "wireless_two_way"
HOP_WIRELESS_ONE_WAY = "wireless_one_way"
HOP_CDC = "cdc"
_KINDS = (HOP_ETHERNET, HOP_WIRELESS_TWO_WAY, HOP_WIRELESS_ONE_WAY, HOP_CDC)
_WIRELESS_KINDS = {"two_way": HOP_WIRELESS_TWO_WAY, "ftm_burst": HOP_WIRELESS_TWO_WAY,
                   "one_way": HOP_WIRELESS_ONE_WAY}

ETHERNET_TS_NS = 8.0
WIRELESS_TS_NS = 50.0
CDC_T_SRC_NS = 32.0


@dataclass(frozen=True)
class HopBudget:
    """Parameters that fix one hop's worst-case contribution."""

    kind: str
    ts_ns: float = 0.0
    max_excess_ns: float = 0.0
    t_ms_ns: float = 0.0
    t_src_ns: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown hop kind {self.kind!r}")
        refuse_bad_fields(self, ts_ns=(0, None), max_excess_ns=(0, None), t_ms_ns=(0, None),
                          t_src_ns=(0, None))


def hop_max_error(hop: HopBudget) -> float:
    """Worst-case error contribution of a single hop, in ns."""
    if hop.kind == HOP_ETHERNET:
        return 2.0 * (hop.ts_ns / 2.0)
    if hop.kind == HOP_WIRELESS_TWO_WAY:
        return hop.ts_ns / 2.0 + hop.max_excess_ns / 2.0
    if hop.kind == HOP_WIRELESS_ONE_WAY:
        return hop.ts_ns / 2.0 + hop.max_excess_ns + hop.t_ms_ns
    return hop.t_src_ns / 2.0


def chain_max_error(hops) -> float:
    """Worst-case end-to-end error of a chain: hop contributions add."""
    return sum(hop_max_error(h) for h in hops)


def wireless_link_budget(pdp, scheme: str, t_ms_ns: float = 0.0) -> float:
    """Worst-case error of a wireless link with ``WIRELESS_TS_NS`` ports for a
    profile and messaging scheme."""
    if scheme not in _WIRELESS_KINDS:
        raise ValueError(f"unknown scheme {scheme!r}")
    excess = build_pdp(pdp).max_excess_delay_ns
    return hop_max_error(HopBudget(_WIRELESS_KINDS[scheme], ts_ns=WIRELESS_TS_NS,
                                   max_excess_ns=excess, t_ms_ns=t_ms_ns))


def topology_budget(topo) -> list[HopBudget]:
    """Budget entries, labelled ``master->slave``, for a topology's probe pair.

    Hops shared by both probes' upstream paths carry common-mode error and
    cancel; every remaining hop contributes its own worst case, with CDC
    stages listed separately per translating port.  Each hop's timestamp
    grid comes from its ports: the mean of both for Ethernet and two-way
    hops, whose estimates use both ends' stamps, and the slave's alone for
    one-way hops, which quantize only on receive.
    """
    measured = set(topo.upstream_path(topo.measured_node))
    reference = set(topo.upstream_path(topo.reference_node))
    entries: list[HopBudget] = []
    for i in sorted(measured.symmetric_difference(reference)):
        hop = topo.hops[i]
        label = f"{hop.master}->{hop.slave}"
        ts_ns = (hop.master_port.sample_period_ns + hop.slave_port.sample_period_ns) / 2.0
        if hop.medium == "ethernet":
            entries.append(HopBudget(HOP_ETHERNET, ts_ns=ts_ns, label=label))
            continue
        for port in (hop.master_port, hop.slave_port):
            if port.cdc_t_src_ns:
                entries.append(HopBudget(HOP_CDC, t_src_ns=port.cdc_t_src_ns, label=label))
        excess = build_pdp(hop.channel).max_excess_delay_ns
        if hop.protocol.scheme == SCHEME_ONE_WAY:
            residual = abs(propagation_delay_ns(hop.geometry)
                           - hop.protocol.calibrated_delay_ns)
            entries.append(HopBudget(HOP_WIRELESS_ONE_WAY,
                                     ts_ns=hop.slave_port.sample_period_ns,
                                     max_excess_ns=excess, t_ms_ns=residual, label=label))
        else:
            entries.append(HopBudget(HOP_WIRELESS_TWO_WAY, ts_ns=ts_ns,
                                     max_excess_ns=excess, label=label))
    return entries


# Chain names that are not ``<simulator preset>-<channel>``.
_NAMED_CHAINS = {"calnex-eth3": ("calnex-eth3", "AWGN"), "calnex-awgn": ("calnex", "AWGN")}
_CHAIN_FAMILIES = ("emulator-80211", "emulator-wsharp")


def chain_preset(name: str, cdc_stages: int = 2, t_ms_ns: float = 0.0) -> list[HopBudget]:
    """Budget chain of a named test setup, read off the simulator's topology.

    Names: ``calnex-eth3``, ``calnex-awgn``, ``emulator-80211-<channel>`` and
    ``emulator-wsharp-<channel>``.  ``cdc_stages`` counts the PHC translation
    stages along the wireless path (the translator always has one; a second
    models the station's own domain crossing).  ``t_ms_ns`` is uncompensated
    propagation delay on the wireless link; only one-way budgets carry it.
    """
    from .sim import ExperimentConfig, build_topology  # sim imports this module

    refuse("t_ms_ns", t_ms_ns, float, 0)
    key = name.lower().replace("_", "-")
    if key in _NAMED_CHAINS:
        preset, channel = _NAMED_CHAINS[key]
    else:
        family = next((f for f in _CHAIN_FAMILIES if key.startswith(f + "-")), None)
        if family is None:
            raise ValueError(f"unknown chain preset {name!r}")
        preset, channel = family, key[len(family) + 1:]
    config = ExperimentConfig(preset=preset, channel=channel, cdc_stages=cdc_stages,
                              extra_distance_m=t_ms_ns * SPEED_OF_LIGHT_M_PER_NS)
    return topology_budget(build_topology(config))


CHAIN_PRESETS = tuple(
    list(_NAMED_CHAINS)
    + [f"{family}-{c.lower()}" for family in _CHAIN_FAMILIES for c in CHANNEL_CATALOG]
)


def budget_report(hops) -> dict:
    """JSON-ready per-hop and total worst-case error report."""
    per_hop = []
    for hop in hops:
        per_hop.append({
            "kind": hop.kind,
            "label": hop.label or hop.kind,
            "max_error_ns": hop_max_error(hop),
        })
    return {"per_hop": per_hop, "total_ns": chain_max_error(hops)}
