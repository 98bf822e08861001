"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from hybridsync import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _cli_outputs(tmp_path: Path, name: str, workers: int = 1):
    """Run one workload at smoke size in-process; return what the checks need."""
    workload = run.WORKLOADS[name]
    out = tmp_path / f"{name}-w{workers}"
    argv = run.cli_argv(workload, SEED, workers, out, smoke=True)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    points = [run.expected_point(doc) for doc in run.config_docs(workload, SEED, smoke=True)]
    return workload, points, out, rc


def _checks(workload, points, out, rc) -> run.Checks:
    checks = run.Checks()
    run.check_outputs(checks, workload, points, out, rc)
    return checks


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "oneway-trend"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_planted_out_of_budget_sample_fails(tmp_path):
    workload, points, out, rc = _cli_outputs(tmp_path, "dense-pps-ftm")
    assert points[0].drift_free
    assert _checks(workload, points, out, rc).failed == 0
    path = out / "samples.csv"
    lines = path.read_text().splitlines(keepends=True)
    replica, index, _ = lines[3].split(",")
    lines[3] = f"{replica},{index},{points[0].budget_ns + 0.5!r}\n"
    path.write_text("".join(lines))
    checks = _checks(workload, points, out, rc)
    assert checks.failed == 1
    assert "outside budget" in checks.messages[0]


@pytest.mark.parametrize("name", ["oneway-trend", "twoway-sweep"])
def test_wrong_n_samples_fails(tmp_path, name):
    workload, points, out, rc = _cli_outputs(tmp_path, name)
    assert _checks(workload, points, out, rc).failed == 0
    doc_name = "summary.json" if workload.command == "simulate" else "trend.json"
    doc = json.loads((out / doc_name).read_text())
    stats = doc["stats"] if workload.command == "simulate" else doc["points"][1]["stats"]
    stats["n_samples"] += 1
    (out / doc_name).write_text(json.dumps(doc))
    checks = _checks(workload, points, out, rc)
    assert checks.failed == 1
    assert "n_samples" in checks.messages[0]


def test_nonzero_exit_fails(tmp_path):
    workload, points, out, _ = _cli_outputs(tmp_path, "oneway-trend")
    assert _checks(workload, points, out, 1).failed == 1


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_outputs_identical_across_worker_counts(tmp_path, name):
    digests = []
    for workers in (1, 2):
        workload, points, out, rc = _cli_outputs(tmp_path, name, workers)
        assert _checks(workload, points, out, rc).failed == 0
        digests.append(run.digests(out, workload.artifacts))
    assert len(digests[0]) == len(run.WORKLOADS[name].artifacts)
    assert digests[0] == digests[1]
