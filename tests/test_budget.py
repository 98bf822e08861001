"""Analytic worst-case error budgets."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsync.budget import (
    CHAIN_PRESETS,
    HOP_CDC,
    HOP_ETHERNET,
    HOP_WIRELESS_ONE_WAY,
    HOP_WIRELESS_TWO_WAY,
    HopBudget,
    budget_report,
    chain_max_error,
    chain_preset,
    hop_max_error,
    wireless_link_budget,
)

TWO_WAY_LINK_BUDGETS = {
    "AWGN": 25.0,
    "WLAN_A": 220.0,
    "WLAN_C": 550.0,
    "IWLAN_A": 95.0,
    "IWLAN_B": 325.0,
}

ONE_WAY_LINK_BUDGETS = {
    "AWGN": 25.0,
    "WLAN_A": 415.0,
    "WLAN_C": 1075.0,
    "IWLAN_A": 165.0,
    "IWLAN_B": 625.0,
}

# (chain, cdc_stages): (total, sorted per-hop terms), as the hand-built chain
# lists gave them before chains were read off the simulator's topologies.
PINNED_CHAINS = {
    ("calnex-eth3", 1): (24.0, [8.0, 8.0, 8.0]),
    ("calnex-awgn", 1): (57.0, [8.0, 8.0, 16.0, 25.0]),
    ("emulator-80211-awgn", 1): (57.0, [8.0, 8.0, 16.0, 25.0]),
    ("emulator-80211-wlan_a", 1): (252.0, [8.0, 8.0, 16.0, 220.0]),
    ("emulator-80211-wlan_c", 1): (582.0, [8.0, 8.0, 16.0, 550.0]),
    ("emulator-80211-iwlan_a", 1): (127.0, [8.0, 8.0, 16.0, 95.0]),
    ("emulator-80211-iwlan_b", 1): (357.0, [8.0, 8.0, 16.0, 325.0]),
    ("emulator-wsharp-awgn", 1): (57.0, [8.0, 8.0, 16.0, 25.0]),
    ("emulator-wsharp-wlan_a", 1): (447.0, [8.0, 8.0, 16.0, 415.0]),
    ("emulator-wsharp-wlan_c", 1): (1107.0, [8.0, 8.0, 16.0, 1075.0]),
    ("emulator-wsharp-iwlan_a", 1): (197.0, [8.0, 8.0, 16.0, 165.0]),
    ("emulator-wsharp-iwlan_b", 1): (657.0, [8.0, 8.0, 16.0, 625.0]),
    ("calnex-eth3", 2): (24.0, [8.0, 8.0, 8.0]),
    ("calnex-awgn", 2): (73.0, [8.0, 8.0, 16.0, 16.0, 25.0]),
    ("emulator-80211-awgn", 2): (73.0, [8.0, 8.0, 16.0, 16.0, 25.0]),
    ("emulator-80211-wlan_a", 2): (268.0, [8.0, 8.0, 16.0, 16.0, 220.0]),
    ("emulator-80211-wlan_c", 2): (598.0, [8.0, 8.0, 16.0, 16.0, 550.0]),
    ("emulator-80211-iwlan_a", 2): (143.0, [8.0, 8.0, 16.0, 16.0, 95.0]),
    ("emulator-80211-iwlan_b", 2): (373.0, [8.0, 8.0, 16.0, 16.0, 325.0]),
    ("emulator-wsharp-awgn", 2): (73.0, [8.0, 8.0, 16.0, 16.0, 25.0]),
    ("emulator-wsharp-wlan_a", 2): (463.0, [8.0, 8.0, 16.0, 16.0, 415.0]),
    ("emulator-wsharp-wlan_c", 2): (1123.0, [8.0, 8.0, 16.0, 16.0, 1075.0]),
    ("emulator-wsharp-iwlan_a", 2): (213.0, [8.0, 8.0, 16.0, 16.0, 165.0]),
    ("emulator-wsharp-iwlan_b", 2): (673.0, [8.0, 8.0, 16.0, 16.0, 625.0]),
}


class TestHopFormulas:
    def test_ethernet_hop_is_twice_half_period(self):
        assert hop_max_error(HopBudget(HOP_ETHERNET, ts_ns=8.0)) == 8.0
        assert hop_max_error(HopBudget(HOP_ETHERNET, ts_ns=40.0)) == 40.0

    def test_two_way_wireless_halves_multipath(self):
        hop = HopBudget(HOP_WIRELESS_TWO_WAY, ts_ns=50.0, max_excess_ns=390.0)
        assert hop_max_error(hop) == 220.0

    def test_one_way_wireless_takes_full_multipath_and_residual(self):
        hop = HopBudget(HOP_WIRELESS_ONE_WAY, ts_ns=50.0, max_excess_ns=390.0,
                        t_ms_ns=100.0)
        assert hop_max_error(hop) == 515.0

    def test_cdc_stage_is_half_source_period(self):
        assert hop_max_error(HopBudget(HOP_CDC, t_src_ns=32.0)) == 16.0

    def test_invalid_hops_rejected(self):
        with pytest.raises(ValueError):
            HopBudget("fiber")
        with pytest.raises(ValueError):
            HopBudget(HOP_ETHERNET, ts_ns=-8.0)
        for field in ("ts_ns", "max_excess_ns", "t_ms_ns", "t_src_ns"):
            with pytest.raises(ValueError):
                HopBudget(HOP_WIRELESS_ONE_WAY, **{field: math.nan})

    @given(
        ts=st.floats(0.0, 100.0),
        excess=st.floats(0.0, 2000.0),
        t_ms=st.floats(0.0, 500.0),
    )
    @settings(max_examples=200)
    def test_one_way_dominates_two_way(self, ts, excess, t_ms):
        two = HopBudget(HOP_WIRELESS_TWO_WAY, ts_ns=ts, max_excess_ns=excess)
        one = HopBudget(HOP_WIRELESS_ONE_WAY, ts_ns=ts, max_excess_ns=excess,
                        t_ms_ns=t_ms)
        assert hop_max_error(one) >= hop_max_error(two)


class TestLinkBudgets:
    @pytest.mark.parametrize("channel,expected", sorted(TWO_WAY_LINK_BUDGETS.items()))
    def test_two_way_catalog_values(self, channel, expected):
        assert wireless_link_budget(channel, "two_way") == expected

    @pytest.mark.parametrize("channel,expected", sorted(ONE_WAY_LINK_BUDGETS.items()))
    def test_one_way_catalog_values(self, channel, expected):
        assert wireless_link_budget(channel, "one_way") == expected

    def test_ftm_matches_two_way(self):
        assert wireless_link_budget("WLAN_A", "ftm_burst") == 220.0

    def test_residual_adds_one_way_only(self):
        assert wireless_link_budget("AWGN", "one_way", t_ms_ns=100.07) == \
            pytest.approx(125.07)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            wireless_link_budget("AWGN", "three_way")


class TestChainPresets:
    def test_all_ethernet_chain(self):
        assert chain_max_error(chain_preset("calnex-eth3")) == 24.0

    def test_hybrid_ideal_channel_chain(self):
        hops = chain_preset("calnex-awgn")
        assert chain_max_error(hops) == 73.0
        assert [(h.kind, h.label, hop_max_error(h)) for h in hops] == [
            (HOP_ETHERNET, "gmc->tr1", 8.0),
            (HOP_CDC, "tr1->tr2", 16.0),
            (HOP_CDC, "tr1->tr2", 16.0),
            (HOP_WIRELESS_TWO_WAY, "tr1->tr2", 25.0),
            (HOP_ETHERNET, "tr2->analyzer", 8.0),
        ]

    def test_emulator_two_way_chains(self):
        assert chain_max_error(chain_preset("emulator-80211-iwlan_a")) == 143.0
        assert chain_max_error(chain_preset("emulator-80211-wlan_c")) == 598.0
        assert chain_max_error(chain_preset("emulator-80211-awgn")) == 73.0

    def test_emulator_one_way_chains(self):
        assert chain_max_error(chain_preset("emulator-wsharp-iwlan_b")) == 673.0
        assert chain_max_error(chain_preset("emulator-wsharp-awgn")) == 73.0

    def test_single_cdc_stage_variant(self):
        assert chain_max_error(chain_preset("calnex-awgn", cdc_stages=1)) == 57.0

    def test_residual_propagates_to_one_way_chain(self):
        total = chain_max_error(chain_preset("emulator-wsharp-awgn", t_ms_ns=100.0))
        assert total == 173.0

    def test_every_preset_builds(self):
        for name in CHAIN_PRESETS:
            hops = chain_preset(name)
            assert chain_max_error(hops) > 0.0

    @pytest.mark.parametrize("name,cdc_stages", sorted(PINNED_CHAINS))
    def test_pinned_chain_terms(self, name, cdc_stages):
        hops = chain_preset(name, cdc_stages=cdc_stages)
        total, terms = PINNED_CHAINS[name, cdc_stages]
        assert chain_max_error(hops) == total
        assert sorted(hop_max_error(h) for h in hops) == terms

    def test_spellings(self):
        assert chain_preset("Emulator_80211_IWLAN-A") == chain_preset("emulator-80211-iwlan_a")
        assert chain_preset("CALNEX_ETH3") == chain_preset("calnex-eth3")

    @pytest.mark.parametrize("t_ms_ns", [-5.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["calnex-awgn", "emulator-wsharp-awgn"])
    def test_refuses_bad_residual(self, name, t_ms_ns):
        with pytest.raises(ValueError, match="t_ms_ns"):
            chain_preset(name, t_ms_ns=t_ms_ns)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            chain_preset("calnex-fso")
        with pytest.raises(ValueError):
            chain_preset("calnex-awgn", cdc_stages=3)

    def test_chain_budgets_sorted_by_channel_severity(self):
        order = ["awgn", "iwlan_a", "wlan_a", "iwlan_b", "wlan_c"]
        for family in ("emulator-80211", "emulator-wsharp"):
            totals = [chain_max_error(chain_preset(f"{family}-{c}")) for c in order]
            assert totals == sorted(totals)


class TestReport:
    def test_report_totals_and_labels(self):
        doc = budget_report(chain_preset("calnex-awgn"))
        assert doc["total_ns"] == 73.0
        assert [(h["kind"], h["label"], h["max_error_ns"]) for h in doc["per_hop"]] == [
            (HOP_ETHERNET, "gmc->tr1", 8.0),
            (HOP_CDC, "tr1->tr2", 16.0),
            (HOP_CDC, "tr1->tr2", 16.0),
            (HOP_WIRELESS_TWO_WAY, "tr1->tr2", 25.0),
            (HOP_ETHERNET, "tr2->analyzer", 8.0),
        ]


def run_with_package(argv) -> str:
    """Stdout of a fresh interpreter that has this package on its path; fails
    the test on a non-zero exit."""
    import hybridsync

    src = str(Path(hybridsync.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, check=True).stdout


# ``budget`` and ``sim`` import each other; pytest's import order would hide a
# cycle that breaks when either is imported first.
@pytest.mark.parametrize("first", ["hybridsync.budget", "hybridsync.sim"])
def test_chain_preset_from_fresh_interpreter(first):
    code = (f"import {first}\n"
            "from hybridsync.budget import chain_max_error, chain_preset\n"
            "print(chain_max_error(chain_preset('calnex-awgn')))")
    assert run_with_package(["-c", code]) == "73.0\n"


# No command imports scipy: catalog profiles use pinned decay constants, and
# a custom (rms, excess) pair is solved by bisection.
def test_catalog_runs_never_import_scipy(tmp_path):
    fast = ["--set", "duration_s=20", "--set", "warmup_s=5", "--set", "pps_interval_s=0.5"]
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from hybridsync.cli import main\n"
            "from hybridsync.sim import SIM_PRESETS, ExperimentConfig\n"
            "from hybridsync.channel import CHANNEL_CATALOG\n"
            "for preset in SIM_PRESETS:\n"
            "    for channel in CHANNEL_CATALOG:\n"
            "        ExperimentConfig(preset=preset, channel=channel)\n"
            "codes = [main(['budget', '--all']),\n"
            "         main(['simulate', '--preset', 'calnex', '--set', 'channel=[40,200]',\n"
            f"               '--out', {str(tmp_path)!r}, *{fast!r}]),\n"
            "         main(['sweep', '--preset', 'emulator-wsharp', '--set', 'channel=\"IWLAN_B\"',\n"
            f"               '--axis', 'speed_kmh=0,10', *{fast!r}])]\n"
            "print(codes)\n")
    assert run_with_package(["-c", code]).splitlines()[-1] == "[0, 0, 0]"
    assert (tmp_path / "samples.csv").exists()
