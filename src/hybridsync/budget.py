"""Analytic worst-case error budgets for synchronization chains.

Each hop contributes an additive worst-case term to the end-to-end clock
error.  An Ethernet hop quantizes four timestamps whose errors average
pairwise, leaving two half-periods.  A wireless two-way hop quantizes only
the two receive timestamps (one half-period after averaging) and its
detector bias averages to half the maximum excess delay.  A one-way hop
keeps the full receive quantization half-period plus the full excess delay
plus whatever propagation delay was not calibrated out.  A clock domain
crossing adds half the source tick period per stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import CHANNEL_CATALOG, build_pdp, canonical_channel_name

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
        for value in (self.ts_ns, self.max_excess_ns, self.t_ms_ns, self.t_src_ns):
            if value < 0:
                raise ValueError("hop parameters must be >= 0")


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


def wireless_link_budget(pdp, scheme: str, ts_ns: float = WIRELESS_TS_NS,
                         t_ms_ns: float = 0.0) -> float:
    """Worst-case wireless-link error for a profile and messaging scheme."""
    if scheme not in _WIRELESS_KINDS:
        raise ValueError(f"unknown scheme {scheme!r}")
    excess = build_pdp(pdp).max_excess_delay_ns
    return hop_max_error(HopBudget(_WIRELESS_KINDS[scheme], ts_ns=ts_ns,
                                   max_excess_ns=excess, t_ms_ns=t_ms_ns))


def _eth() -> HopBudget:
    return HopBudget(HOP_ETHERNET, ts_ns=ETHERNET_TS_NS, label="ethernet")


def _cdc() -> HopBudget:
    return HopBudget(HOP_CDC, t_src_ns=CDC_T_SRC_NS, label="cdc")


def _wireless(channel: str, scheme: str, t_ms_ns: float = 0.0) -> HopBudget:
    name = canonical_channel_name(channel)
    excess = CHANNEL_CATALOG[name][2]
    return HopBudget(_WIRELESS_KINDS[scheme], ts_ns=WIRELESS_TS_NS, max_excess_ns=excess,
                     t_ms_ns=t_ms_ns, label=f"wireless {name}")


def chain_preset(name: str, cdc_stages: int = 2, t_ms_ns: float = 0.0) -> list[HopBudget]:
    """Budget chain for a named test setup.

    Names: ``calnex-eth3``, ``calnex-awgn``, ``emulator-80211-<channel>`` and
    ``emulator-wsharp-<channel>``.  ``cdc_stages`` counts the PHC translation
    stages along the wireless path (the translator always has one; a second
    models the station's own domain crossing).
    """
    key = name.lower().replace("_", "-")
    if key == "calnex-eth3":
        return [_eth(), _eth(), _eth()]
    if cdc_stages not in (1, 2):
        raise ValueError("cdc_stages must be 1 or 2")
    cdcs = [_cdc() for _ in range(cdc_stages)]
    if key == "calnex-awgn":
        return [_eth(), _eth()] + cdcs + [_wireless("AWGN", "two_way")]
    for prefix, scheme in (("emulator-80211-", "two_way"), ("emulator-wsharp-", "one_way")):
        if key.startswith(prefix):
            channel = key[len(prefix):]
            return [_eth(), _eth()] + cdcs + [_wireless(channel, scheme, t_ms_ns)]
    raise ValueError(f"unknown chain preset {name!r}")


CHAIN_PRESETS = tuple(
    ["calnex-eth3", "calnex-awgn"]
    + [f"emulator-80211-{c.lower()}" for c in CHANNEL_CATALOG]
    + [f"emulator-wsharp-{c.lower()}" for c in CHANNEL_CATALOG]
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
