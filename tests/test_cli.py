"""Command line interface: subcommands, precedence, exit codes, determinism."""

import csv
import hashlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from hybridsync import channel, cli, sim
from hybridsync.budget import HOP_WIRELESS_ONE_WAY, HOP_WIRELESS_TWO_WAY, wireless_link_budget
from hybridsync.channel import CHANNEL_CATALOG
from hybridsync.cli import _write_samples_csv, main
from footprint import traced_peak
from test_protocol import GAIN_EDGE_IDS, GAIN_EDGES

FAST = [
    "--set", "duration_s=20",
    "--set", "warmup_s=5",
    "--set", "pps_interval_s=0.5",
    "--set", "drift_free=true",
]

# One drifting single-tap config per kernel path.  AWGN keeps FFT synthesis
# and complex exponentials out of the samples, so each digest rests only on
# numpy's bit generators and Python float arithmetic.  ``one_way_fading``
# pins the inverse-FFT fading route: 79,994 beacons on IWLAN_B at 10 km/h.
PINNED_SAMPLES = {
    "one_way": (["--preset", "emulator-wsharp", "--set", 'channel="AWGN"'],
                "335b820216f1e81963d12c1473521f927f6d8e1203b401c081959d703caf6441"),
    "two_way": (["--preset", "calnex", "--set", 'channel="AWGN"'],
                "adf6f44c210da8e548bf2deaa3c6dda6d1d300c9fb556ddea8cad84178d5e2e8"),
    "ftm_burst": (["--preset", "calnex", "--set", 'channel="AWGN"',
                   "--set", 'scheme="ftm_burst"', "--set", "burst_length=4"],
                  "76b3281588829a7c09bb0edca665ee2356172db3cd046c83f0b7fbd7ef4c3d12"),
    "one_way_fading": (["--preset", "emulator-wsharp", "--set", 'channel="IWLAN_B"',
                        "--set", "speed_kmh=10"],
                       "e09ccc8175896b12f44c29c70af38c995765824d36e9cb7e65779fdeaafce09a"),
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def fallbacks(monkeypatch):
    """Sizes of the samples.csv chunks left to the general ``%r`` path."""
    sizes = []
    general = cli._repr_rows
    monkeypatch.setattr(cli, "_repr_rows",
                        lambda r, start, x: sizes.append(len(x)) or general(r, start, x))
    return sizes


class TestBudgetCommand:
    def test_single_preset_json(self, capsys):
        code, out = run(capsys, "budget", "--preset", "calnex-awgn")
        assert code == 0
        doc = json.loads(out)
        assert doc["total_ns"] == 73.0
        assert len(doc["per_hop"]) == 5

    def test_all_presets(self, capsys):
        code, out = run(capsys, "budget", "--all")
        assert code == 0
        docs = json.loads(out)
        totals = {d["preset"]: d["total_ns"] for d in docs}
        assert totals["calnex-eth3"] == 24.0
        assert totals["emulator-80211-wlan_c"] == 598.0

    def test_csv_format(self, capsys, tmp_path):
        code, out = run(capsys, "budget", "--preset", "calnex-eth3",
                        "--format", "csv", "--out", str(tmp_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "preset,kind,label,max_error_ns"
        assert lines[-1].startswith("calnex-eth3,total")
        assert (tmp_path / "budget.csv").read_text() == out

    def test_csv_wireless_rows_are_the_link_budgets(self, capsys):
        code, out = run(capsys, "budget", "--all", "--format", "csv")
        assert code == 0
        rows = {(r["preset"].rsplit("-", 1)[1], r["kind"]): float(r["max_error_ns"])
                for r in csv.DictReader(io.StringIO(out)) if r["kind"].startswith("wireless_")}
        for channel_name in CHANNEL_CATALOG:
            for scheme, kind in (("two_way", HOP_WIRELESS_TWO_WAY),
                                 ("one_way", HOP_WIRELESS_ONE_WAY)):
                assert rows[(channel_name.lower(), kind)] == \
                    wireless_link_budget(channel_name, scheme)

    def test_requires_preset_or_all(self, capsys):
        code, _ = run(capsys, "budget")
        assert code == 2

    @pytest.mark.parametrize("t_ms_ns", ["nan", "-5", "inf"])
    def test_bad_residual_exits_2(self, capsys, t_ms_ns):
        code = main(["budget", "--all", "--t-ms-ns", t_ms_ns])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("budget: ") and captured.err.count("\n") == 1
        assert "t_ms_ns" in captured.err


class TestSimulateCommand:
    def test_writes_summary_and_samples(self, capsys, tmp_path):
        code, out = run(capsys, "simulate", "--preset", "calnex-eth3",
                        "--seed", "7", "--replicas", "2", *FAST,
                        "--out", str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == json.loads(out)
        assert summary["budget_ns"] == 24.0
        assert summary["config"]["seed"] == 7
        assert len(summary["config_sha256"]) == 64
        assert summary["stats"]["n_samples"] == 2 * 30
        assert len(summary["per_replica"]) == 2
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0] == "replica,index,error_ns"
        assert len(lines) == 1 + 2 * 30

    def test_output_bytes_stable_across_workers(self, capsys, tmp_path):
        paths = []
        # Three workers on two replicas: the pool is cut to two.
        for workers, sub in (("1", "a"), ("2", "b"), ("3", "c")):
            out_dir = tmp_path / sub
            code, _ = run(capsys, "simulate", "--preset", "calnex-eth3",
                          "--seed", "5", "--replicas", "2", *FAST,
                          "--workers", workers, "--out", str(out_dir))
            assert code == 0
            paths.append(out_dir)
        for other in paths[1:]:
            assert (paths[0] / "samples.csv").read_bytes() == \
                (other / "samples.csv").read_bytes()
            assert (paths[0] / "summary.json").read_bytes() == \
                (other / "summary.json").read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, capsys, monkeypatch, command, workers):
        monkeypatch.setattr(cli, "run_experiment", None)
        axis = ["--axis", "seed=1,2"] if command == "sweep" else []
        code = main([command, "--preset", "calnex-eth3", *axis, "--workers", workers])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"{command}: --workers must be at least 1, got {workers}\n"

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"calnex"', "null"])
    def test_config_file_not_an_object_exits_2(self, capsys, tmp_path, text):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        code = main(["simulate", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "simulate: config file must hold a JSON object\n"

    @pytest.mark.parametrize("spec", ["5", "[40]", "[40,200,1]", "[NaN,200]", "[40,-200]"])
    def test_malformed_channel_exits_2(self, capsys, monkeypatch, spec):
        monkeypatch.setattr(cli, "run_experiment", None)
        code = main(["simulate", "--preset", "calnex", "--set", f"channel={spec}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(
            "simulate: channel must be a catalog name (AWGN, WLAN_A, WLAN_C, IWLAN_A, "
            "IWLAN_B) or an [rms_ns, max_excess_ns] pair of finite numbers >= 0, got ")
        assert captured.err.count("\n") == 1

    def test_custom_channel_profile_runs(self, capsys):
        code, out = run(capsys, "simulate", "--preset", "calnex", "--set", "channel=[40,200]",
                        *FAST)
        assert code == 0
        assert json.loads(out)["config"]["channel"] == [40, 200]

    def test_custom_channel_without_root_exits_2(self, capsys):
        code = main(["simulate", "--preset", "emulator-wsharp", "--set", "channel=[50,1e150]"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("simulate: channel [50.0, 1e+150] has no decay constant")
        assert captured.err.count("\n") == 1 and "f(a)" not in captured.err
        code, _ = run(capsys, "simulate", "--preset", "emulator-wsharp",
                      "--set", "channel=[50,1e5]", *FAST)
        assert code == 0

    def test_custom_channel_profile_solved_once(self, capsys, monkeypatch):
        solves = []
        bisect = channel._bisect
        monkeypatch.setattr(channel, "_bisect", lambda *args: solves.append(args) or bisect(*args))
        channel._cached_pdp.cache_clear()
        code, _ = run(capsys, "simulate", "--preset", "calnex", "--set", "channel=[40,200]",
                      "--replicas", "3", *FAST)
        assert code == 0
        assert len(solves) == 1

    def test_unknown_set_key_exits_2(self, capsys):
        code, _ = run(capsys, "simulate", "--preset", "calnex-eth3",
                      "--set", "bogus_knob=1")
        assert code == 2

    def test_invalid_value_exits_2(self, capsys):
        code, _ = run(capsys, "simulate", "--preset", "calnex-eth3",
                      "--set", "cdc_stages=7")
        assert code == 2

    # Each is refused before running; the degenerate PPS periods would
    # otherwise loop forever or fail late, and ``too_large`` would allocate
    # 10**9-entry series, so running any of them fails the test instead.
    # The ``eth3_`` cases set wireless knobs that calnex-eth3 does not use.
    # ``legacy_detector_key`` is a key that older summaries' config blocks
    # carry and the config no longer has.
    @pytest.mark.parametrize("argv", [
        ["--set", "speed_kmh=NaN"], ["--set", 'channel="BOGUS"'],
        ["--set", 'scheme="bogus"'], ["--config", "missing.json"], ["--seed", "-1"],
        ["--set", "pps_interval_s=1e-13"], ["--set", "sync_period_s=1e-13"],
        ["--set", "pps_interval_s=600"], ["--set", "replicas=1.5"],
        ["--set", "burst_length=0"], ["--set", "burst_length=1.5"], ["--set", "kp=NaN"],
        ["--set", "extra_distance_m=NaN"], ["--set", "sync_period_s=NaN"],
        ["--set", "drift_walk_sigma_ppm_per_s=-1"],
        ["--set", "drift_walk_sigma_ppm_per_s=1e305"],
        ["--preset", "emulator-wsharp", "--set", "sync_period_s=1e-6"],
        ["--preset", "calnex-eth3", "--set", "kp=NaN"],
        ["--preset", "calnex-eth3", "--set", "burst_length=0"],
        ["--preset", "calnex-eth3", "--set", "sync_period_s=0"],
        ["--set", "drift_free=False"], ["--set", "cdc_stages=true"],
        ["--set", "cdc_stages=2.0"], ["--set", 'detector_policy="strongest_tap"'],
        ["--preset", "emulator-wsharp", "--set", "pps_interval_s=1e300"],
        ["--preset", "emulator-wsharp", "--set", "duration_s=1e300"],
        ["--preset", "emulator-wsharp", "--set", "sync_period_s=1e300"],
        ["--preset", "emulator-wsharp", "--set", "warmup_s=-1e300"],
        ["--preset", "emulator-wsharp", "--set", "warmup_s=-1"],
        ["--preset", "emulator-wsharp", "--set", "extra_distance_m=1e300"],
        ["--preset", "emulator-wsharp", "--set", "kp=5"],
        ["--preset", "emulator-wsharp", "--set", 'duration_s="30"'],
        ["--preset", "emulator-wsharp", "--set", 'kp="0.5"'],
        ["--preset", "emulator-wsharp", "--set", 'speed_kmh="10"'],
        ["--preset", "emulator-wsharp", "--set", 'extra_distance_m="5"'],
        ["--preset", "emulator-wsharp", "--set", 'pps_interval_s="1"'],
        ["--preset", "emulator-wsharp", "--set", 'warmup_s="1"'],
        ["--preset", "calnex-eth3", "--set", "pps_interval_s=1e-6", "--set", "warmup_s=1",
         "--replicas", "1000"],
    ], ids=["nan_speed", "unknown_channel", "unknown_scheme", "missing_config",
            "negative_seed", "sub_ps_pps", "sub_ps_sync", "one_pps_edge",
            "fractional_replicas", "zero_burst", "fractional_burst", "nan_kp",
            "nan_extra_distance", "nan_sync", "negative_walk", "overflowing_walk",
            "too_large", "eth3_nan_kp", "eth3_zero_burst", "eth3_zero_sync",
            "string_drift_free", "bool_cdc_stages",
            "float_cdc_stages", "legacy_detector_key", "pps_beyond_ps_range",
            "duration_beyond_ps_range", "sync_beyond_ps_range", "huge_negative_warmup",
            "negative_warmup", "flight_beyond_sync_period", "unstable_kp",
            "string_duration", "string_kp", "string_speed", "string_extra_distance",
            "string_pps", "string_warmup", "too_many_pps_edges"])
    def test_bad_config_value_exits_2(self, capsys, monkeypatch, tmp_path, argv):
        def never_run(*args, **kwargs):
            raise AssertionError("a refused config reached run_experiment")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_experiment", never_run)
        code = main(["simulate", "--preset", "calnex", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("simulate: ") and captured.err.count("\n") == 1
        if "detector_policy" in argv[-1]:
            assert captured.err.startswith("simulate: unknown config keys")

    @pytest.mark.parametrize("kp, ki, inside", GAIN_EDGES, ids=GAIN_EDGE_IDS)
    def test_servo_gains_outside_the_stable_region_exit_2(self, capsys, monkeypatch,
                                                          kp, ki, inside):
        class Ran(Exception):
            pass

        def ran(*args, **kwargs):
            raise Ran

        monkeypatch.setattr(cli, "run_experiment", ran)
        argv = ["simulate", "--preset", "emulator-wsharp", "--set", f"kp={kp}",
                "--set", f"ki={ki}"]
        if inside:
            with pytest.raises(Ran):
                main(argv)
        else:
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("simulate: servo gains") and \
                captured.err.count("\n") == 1

    def test_summary_config_round_trips(self, capsys, tmp_path):
        argv = ["simulate", "--preset", "emulator-80211", "--seed", "4",
                "--replicas", "1", "--set", 'channel="IWLAN_A"',
                "--set", "speed_kmh=10", *FAST]
        code, _ = run(capsys, *argv, "--out", str(tmp_path / "a"))
        assert code == 0
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(summary["config"]))
        code, _ = run(capsys, "simulate", "--config", str(cfg),
                      "--out", str(tmp_path / "b"))
        assert code == 0
        assert (tmp_path / "a" / "samples.csv").read_bytes() == \
            (tmp_path / "b" / "samples.csv").read_bytes()

    def test_inline_topology_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"preset": "calnex", "inline_topology": "custom"}))
        code, _ = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2

    # Each pin also checks that every chunk takes the vectorised formatter.
    @pytest.mark.parametrize("loop", sorted(PINNED_SAMPLES))
    def test_samples_digest_pinned(self, capsys, tmp_path, fallbacks, loop):
        preset_args, digest = PINNED_SAMPLES[loop]
        code, _ = run(capsys, "simulate", *preset_args, "--seed", "11",
                      "--replicas", "2", "--set", "duration_s=40",
                      "--set", "warmup_s=10",
                      "--set", "pps_interval_s=0.5", "--format", "csv",
                      "--out", str(tmp_path))
        assert code == 0
        data = (tmp_path / "samples.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        assert fallbacks == []

    def test_dense_pps_digest_pinned(self, capsys, tmp_path, fallbacks):
        # A 0.1 ms PPS grid ties with every exchange (staggers 0.3/2.0/3.7 ms,
        # periods 1 s and 0.125 s), and the warm-up ends between two edges.
        code, _ = run(capsys, "simulate", "--preset", "calnex", "--seed", "11",
                      "--replicas", "2", "--set", 'channel="AWGN"',
                      "--set", "duration_s=12", "--set", "warmup_s=10.00005",
                      "--set", "pps_interval_s=0.0001", "--format", "csv",
                      "--out", str(tmp_path))
        assert code == 0
        data = (tmp_path / "samples.csv").read_bytes()
        assert data.count(b"\n") == 1 + 40_000
        assert hashlib.sha256(data).hexdigest() == \
            "0ea3932abf63d1df8e852d93ccaefd00f673ae34be2d3c17c7c8f371796327ce"
        assert fallbacks == []

    def test_dense_pps_one_way_digest_pinned(self, capsys, tmp_path):
        # A 0.3 ms PPS grid cuts the 0.5 ms beacon train into windows of zero
        # or one beacon once the warm-up ends; before, windows hold thousands.
        code, _ = run(capsys, "simulate", "--preset", "emulator-wsharp", "--seed", "11",
                      "--replicas", "2", "--set", 'channel="AWGN"',
                      "--set", "duration_s=12", "--set", "warmup_s=10.00005",
                      "--set", "pps_interval_s=0.0003", "--format", "csv",
                      "--out", str(tmp_path))
        assert code == 0
        data = (tmp_path / "samples.csv").read_bytes()
        assert data.count(b"\n") == 1 + 2 * 6667
        assert hashlib.sha256(data).hexdigest() == \
            "f4b96063784377523c8db52f9b42bef4044511450552f6f5c92afb18c3825d29"


def test_samples_writer_matches_csv_module(tmp_path):
    # In 3-row chunks the last array alternates between the vectorised
    # formatter and the general path; whole, all of it takes the general path.
    arrays = [np.array([np.nan, np.inf, -np.inf, -0.0, 1e-05, 1e16, 5e-324]),
              np.array([], dtype=float), np.array([-12.25]),
              np.array([12.5, 3.0 + 2.0 ** -19, -7.75, np.nan, np.inf, -np.inf, 4.0, 0.5,
                        -1234.0625, -0.0, 1e-05, 1e16, 5e-324, 2.0 ** 31 - 2.0 ** -19])]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["replica", "index", "error_ns"])
    for r, arr in enumerate(arrays):
        for i, value in enumerate(arr):
            writer.writerow([r, i, repr(float(value))])
    path = tmp_path / "out" / "samples.csv"
    for chunk in (8192, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _write_samples_csv(path, arrays, chunk=chunk)
        assert path.read_bytes() == buf.getvalue().encode()


GRID = 2.0 ** -19


@st.composite
def grid_values(draw):
    """m * 2**-k with k <= 19 and 1e-4 <= |value| < 2**31, either sign."""
    k = draw(st.integers(0, 19))
    m = draw(st.integers(math.ceil(1e-4 * 2 ** k), 2 ** (31 + k) - 1))
    return draw(st.sampled_from([1.0, -1.0])) * m * 2.0 ** -k


@seed(1001)
@settings(max_examples=400, deadline=None)
@given(values=st.lists(grid_values(), min_size=1, max_size=40),
       r=st.integers(0, 12), start=st.integers(0, 10 ** 7))
# Every binade bottom in range, where the gap below halves, and its grid
# neighbours.
@example(values=[2.0 ** p + s * GRID for p in range(-13, 31) for s in (-1, 0, 1)],
         r=0, start=0)
# The largest fractions below an integer, whose rounded-up neighbours at
# every shorter length would carry into the next integer.
@example(values=[1.0 - GRID, 7.0 - GRID, 2.0 ** 31 - GRID], r=1, start=9)
@example(values=[1.0, 12.0, 1e9, 2.0 ** 31 - 1], r=2, start=99)  # integers print ".0"
# 17 significant digits, and exact ties that round to the even digit
# (1073741824.0039062, 1073741824.0117188).
@example(values=[1735039634.5113373, 137899454.09350586, 234510.20166015625,
                 2.0 ** 30 + 1 / 256, 2.0 ** 30 + 3 / 256], r=3, start=10 ** 6)
@example(values=[-12.25, -(2.0 ** 31 - GRID), -(2.0 ** -13), -0.5], r=11, start=4)
# Row indices whose width changes inside the chunk, across a four-digit word
# and into a third word, and index 0.
@example(values=[0.25, 1.5, -2.75, 3.0, 4.125, 5.5, 6.0625, 7.5], r=4, start=9_995)
@example(values=[-0.5, 8.25, 9.125, 10.0], r=5, start=99_999_998)
@example(values=[0.25], r=0, start=0)
# Whole parts at the edges of the leading-zero words.
@example(values=[0.0625, 9_999.75, -10_000.125, 2.0 ** 31 - 0.5], r=6, start=0)
# Fractions whose trailing zeros fill whole words next to longer ones.
@example(values=[0.5, 1.0625, 3.0 + GRID, -1.0625, 2.0], r=7, start=123)
# 19 fraction digits, the most there are.
@example(values=[k * GRID for k in (53, 97, 255, 1023, 2047)] + [-99 * GRID], r=8, start=77)
def test_grid_rows_match_repr(values, r, start):
    rows = cli._grid_rows(r, start, np.array(values))
    assert rows == "".join(f"{r},{start + k},{v!r}\n" for k, v in enumerate(values)).encode()


def test_samples_writer_memory_stays_small(tmp_path, fallbacks):
    # 420,000 grid samples, as many as the dense PPS benchmark writes: text is
    # built and written one chunk at a time, so the peak does not grow with them.
    rng = np.random.default_rng(19)
    arrays = [rng.choice([-1.0, 1.0], 210_000) * rng.integers(2 ** 15, 60 * 2 ** 15, 210_000)
              * 2.0 ** -15 for _ in range(2)]
    peak, _ = traced_peak(lambda: _write_samples_csv(tmp_path / "samples.csv", arrays))
    assert fallbacks == []
    assert peak < 3.5 * 2 ** 20


def test_samples_writer_chunks_are_seamless(tmp_path):
    arrays = [np.arange(7) * 0.1 - 0.25, np.array([], dtype=float), np.array([3.5])]
    _write_samples_csv(tmp_path / "whole.csv", arrays)
    _write_samples_csv(tmp_path / "split.csv", arrays, chunk=2)
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


class TestSeedPrecedence:
    def read_seed(self, capsys, *argv):
        code, out = run(capsys, *argv)
        assert code == 0
        return json.loads(out)["config"]["seed"]

    def test_env_used_as_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("HYBRIDSYNC_SEED", "123")
        seed = self.read_seed(capsys, "simulate", "--preset", "calnex-eth3",
                              "--replicas", "1", *FAST)
        assert seed == 123

    def test_config_file_beats_env(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("HYBRIDSYNC_SEED", "123")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "calnex-eth3", "seed": 77,
                                   "duration_s": 20.0, "warmup_s": 5.0,
                                   "pps_interval_s": 0.5, "replicas": 1,
                                   "drift_free": True}))
        seed = self.read_seed(capsys, "simulate", "--config", str(cfg))
        assert seed == 77

    def test_seed_flag_beats_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "calnex-eth3", "seed": 77,
                                   "duration_s": 20.0, "warmup_s": 5.0,
                                   "pps_interval_s": 0.5, "replicas": 1,
                                   "drift_free": True}))
        seed = self.read_seed(capsys, "simulate", "--config", str(cfg),
                              "--seed", "9")
        assert seed == 9

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_malformed_env_seed_exits_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("HYBRIDSYNC_SEED", value)
        monkeypatch.setattr(cli, "run_experiment", None)
        code = main(["simulate", "--preset", "calnex-eth3", *FAST])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("simulate: HYBRIDSYNC_SEED must be a non-negative decimal "
                                f"integer such as HYBRIDSYNC_SEED=1001, got {value!r}\n")

    def test_set_beats_seed_flag(self, capsys):
        seed = self.read_seed(capsys, "simulate", "--preset", "calnex-eth3",
                              "--replicas", "1", *FAST, "--seed", "9",
                              "--set", "seed=5")
        assert seed == 5


class TestSweepCommand:
    def test_channel_axis(self, capsys, tmp_path):
        code, out = run(capsys, "sweep", "--preset", "emulator-80211",
                        "--axis", "channel=AWGN,IWLAN_A",
                        "--seed", "3", "--replicas", "2", *FAST,
                        "--out", str(tmp_path))
        assert code == 0
        trend = json.loads(out)
        assert trend["axis"] == "channel"
        assert [p["value"] for p in trend["points"]] == ["AWGN", "IWLAN_A"]
        sigmas = [p["stats"]["sigma_ns"] for p in trend["points"]]
        assert sigmas[0] < sigmas[1]
        csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert csv_lines[0].startswith("channel,replica,")
        assert len(csv_lines) == 1 + 2 * 2
        assert (tmp_path / "trend.json").read_text() == out

    def replicas_sweep(self, capsys, tmp_path, values, workers):
        code, _ = run(capsys, "sweep", "--preset", "emulator-80211", "--set", 'channel="IWLAN_A"',
                      "--axis", f"replicas={values}", "--seed", "3", "--workers", str(workers),
                      *FAST, "--out", str(tmp_path))
        assert code == 0
        return [(tmp_path / name).read_bytes() for name in ("trend.json", "sweep.csv")]

    def test_one_pool_sized_by_the_largest_point(self, capsys, monkeypatch, tmp_path):
        sizes = []

        class RecordingPool(sim.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr("os.cpu_count", lambda: 4)  # CPUs do not bound it here
        self.replicas_sweep(capsys, tmp_path, "2,3,1", workers=4)
        assert sizes == [3]
        self.replicas_sweep(capsys, tmp_path, "1,1", workers=4)  # one process suffices
        assert sizes == [3]

    def test_output_bytes_stable_across_workers(self, capsys, tmp_path):
        serial = self.replicas_sweep(capsys, tmp_path / "serial", "1,3", workers=1)
        assert self.replicas_sweep(capsys, tmp_path / "pooled", "1,3", workers=3) == serial

    def test_unknown_axis_param_exits_2(self, capsys):
        code, _ = run(capsys, "sweep", "--preset", "calnex-eth3",
                      "--axis", "warp_factor=1,2")
        assert code == 2

    def test_invalid_point_exits_2_before_running(self, capsys):
        code, out = run(capsys, "sweep", "--preset", "calnex-eth3",
                        "--axis", "speed_kmh=0,-1", *FAST)
        assert code == 2
        assert out == ""

    def test_malformed_axis_exits_2(self, capsys):
        code, _ = run(capsys, "sweep", "--preset", "calnex-eth3",
                      "--axis", "speed_kmh")
        assert code == 2


def test_validate_channel_is_no_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate-channel", "--channel", "IWLAN_A"])
    assert exc.value.code == 2
    assert "invalid choice: 'validate-channel'" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
