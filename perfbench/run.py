"""Host-time benchmark of the hybridsync CLI on three Monte Carlo workloads.

Run from the root of a source checkout (the package is imported from
``src/``, never from an installed copy):

    python3 perfbench/run.py --workload oneway-trend --seed 1001 --seconds 30 --trace 0

Each repetition starts a fresh interpreter (``perfbench/child.py``) that
imports the package, resolves the workload's configs, builds their
topologies and budgets (set-up), then calls ``hybridsync.cli.main`` once
with artifacts written to a scratch directory (``wall_s``).  Repetitions
run in a closed loop, one at a time, until ``--seconds`` have passed and at
least ``MIN_REPS`` have run; every reported time is a median over them.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` cycles three kinds of repetition: one with spans around every
layer boundary at one worker, one untraced at one worker (the base of
``trace.overhead_frac``) and, for pooled workloads, one untraced at the
workload's worker count (the base of ``sim.pool_efficiency``).  The
untraced ones time only ``run_experiment``.

Every repetition's outputs are checked: exit code 0, ``converged``, sample
counts against the schedule, every drift-free sample inside the analytic
budget, and artifact digests equal across repetitions and worker counts.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (checks) and ``metrics``.  The full record, with
the environment, digests and spans, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1001
MIN_REPS = 3
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    """One CLI invocation, sized so a repetition takes a few host seconds."""

    command: str  # simulate | sweep
    preset: str
    sets: dict
    replicas: int
    workers: int
    artifacts: tuple[str, ...]
    smoke_sets: dict  # tiny sizes for the benchmark's own tests
    axis: tuple[str, tuple] | None = None


# Why each workload: see perfbench/README.md.
WORKLOADS = {
    # One-way 2 kHz beacons on a fading channel: the exchange/servo kernel
    # and the long-comb IFFT synthesis route.
    "oneway-trend": Workload(
        command="simulate", preset="emulator-wsharp",
        sets={"channel": "IWLAN_B", "speed_kmh": 10.0, "duration_s": 520.0,
              "warmup_s": 20.0, "pps_interval_s": 0.5},
        replicas=1, workers=1, artifacts=("samples.csv", "summary.json"),
        smoke_sets={"duration_s": 8.0, "warmup_s": 2.0}),
    # Two-way 8 Hz exchanges swept over four multipath channels: the
    # direct-sum synthesis route and a process pool started per point.
    "twoway-sweep": Workload(
        command="sweep", preset="emulator-80211",
        sets={"speed_kmh": 10.0, "duration_s": 520.0},
        axis=("channel", ("IWLAN_A", "WLAN_A", "IWLAN_B", "WLAN_C")),
        replicas=2, workers=2, artifacts=("sweep.csv", "trend.json"),
        smoke_sets={"duration_s": 60.0, "warmup_s": 30.0}),
    # 500 Hz PPS on a drift-free single-tap FTM chain: no fading, so the
    # time goes to the PPS loop, stats and samples.csv writing.
    "dense-pps-ftm": Workload(
        command="simulate", preset="calnex",
        sets={"channel": "AWGN", "scheme": "ftm_burst", "burst_length": 4,
              "drift_free": True, "pps_interval_s": 0.002, "duration_s": 520.0},
        replicas=2, workers=1, artifacts=("samples.csv", "summary.json"),
        smoke_sets={"duration_s": 60.0, "warmup_s": 30.0}),
}

END_TO_END = {
    "wall_s": "s",
    "exchanges_per_s": "1/s",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "channel.calls": "count",
    "channel.tap_samples": "count",
    "channel.synth_s": "s",
    "channel.ns_per_tap_sample": "ns",
    "sim.run_s": "s",
    "sim.self_s": "s",
    "sim.exchanges": "count",
    "sim.pps_samples": "count",
    "sim.ns_per_exchange": "ns",
    "sim.pool_run_s": "s",
    "sim.pool_workers": "count",
    "sim.pool_efficiency": "ratio",
    "stats.calls": "count",
    "stats.s": "s",
    "budget.calls": "count",
    "budget.s": "s",
    "cli.artifact_s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.artifact_mb_per_s": "MB/s",
    "setup.import_s": "s",
    "setup.topology_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
}


# --- inputs ----------------------------------------------------------------------


def config_docs(workload: Workload, seed: int, smoke: bool) -> list[dict]:
    """Config documents of every point the CLI will run, seed included."""
    doc = {"preset": workload.preset, "seed": seed, "replicas": workload.replicas}
    doc.update(workload.sets)
    if smoke:
        doc.update(workload.smoke_sets)
    if workload.axis is None:
        return [doc]
    param, values = workload.axis
    return [dict(doc, **{param: value}) for value in values]


def cli_argv(workload: Workload, seed: int, workers: int, out_dir: Path,
             smoke: bool) -> list[str]:
    doc = config_docs(workload, seed, smoke)[0]
    argv = [workload.command, "--preset", workload.preset, "--seed", str(seed),
            "--replicas", str(workload.replicas), "--workers", str(workers),
            "--format", "both", "--out", str(out_dir)]
    for key, value in doc.items():
        if key in ("preset", "seed", "replicas") or (workload.axis and key == workload.axis[0]):
            continue
        argv += ["--set", f"{key}={json.dumps(value)}"]
    if workload.axis is not None:
        argv += ["--axis", f"{workload.axis[0]}=" + ",".join(workload.axis[1])]
    return argv


@dataclass(frozen=True)
class Expected:
    """What one point of the workload must produce, from its config alone."""

    replicas: int
    pps_per_replica: int
    exchanges: int  # over all replicas
    budget_ns: float
    drift_free: bool

    @property
    def pps_samples(self) -> int:
        return self.replicas * self.pps_per_replica


def expected_point(doc: dict) -> Expected:
    """Count PPS samples and timestamp exchanges from the built topology.

    Integer picoseconds as in the simulator: a hop fires at its stagger and
    then every period up to and including the run's end; FTM bursts count
    each sub-exchange; PPS samples are the edges after warm-up.
    """
    from hybridsync import ExperimentConfig, build_topology, chain_max_error, topology_budget

    config = ExperimentConfig.from_dict(doc)
    topo = build_topology(config)
    duration_ps = round(config.duration_s * 1e12)
    warmup_ps = round(config.warmup_s * 1e12)
    pps_ps = round(config.pps_interval_s * 1e12)
    per_replica = 0
    for hop in topo.hops:
        first_ps = round(hop.stagger_s * 1e12)
        period_ps = round(hop.protocol.sync_period_s * 1e12)
        if first_ps <= duration_ps:
            fired = (duration_ps - first_ps) // period_ps + 1
            burst = hop.protocol.burst_length if hop.protocol.scheme == "ftm_burst" else 1
            per_replica += fired * burst
    return Expected(
        replicas=config.replicas,
        pps_per_replica=duration_ps // pps_ps - warmup_ps // pps_ps,
        exchanges=per_replica * config.replicas,
        budget_ns=chain_max_error(topology_budget(topo)),
        drift_free=config.drift_free,
    )


# --- correctness -----------------------------------------------------------------


class Checks:
    """Counts output checks attempted and failed, keeping failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


def digests(out_dir: Path, names) -> dict:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in names if (out_dir / name).exists()}


def check_outputs(checks: Checks, workload: Workload, points: list[Expected],
                  out_dir: Path, rc) -> None:
    """Check one repetition's artifacts against the expected counts and budget."""
    import numpy as np

    checks.check(rc == 0, f"exit code {rc}")
    missing = [n for n in workload.artifacts if not (out_dir / n).is_file()]
    checks.check(not missing, f"missing artifacts {missing}")
    if missing:
        return
    if workload.command == "simulate":
        (exp,) = points
        summary = json.loads((out_dir / "summary.json").read_text())
        checks.check(summary["stats"]["converged"] is True, "converged is not true")
        want = exp.pps_samples
        per = [r["n_samples"] for r in summary["per_replica"]]
        samples = np.loadtxt(out_dir / "samples.csv", delimiter=",", skiprows=1,
                             usecols=2, ndmin=1)
        checks.check(summary["stats"]["n_samples"] == want and samples.size == want
                     and per == [exp.pps_per_replica] * exp.replicas,
                     f"n_samples {summary['stats']['n_samples']}, {samples.size} rows,"
                     f" per replica {per}; expected {want}")
        checks.check(summary["budget_ns"] == exp.budget_ns,
                     f"budget_ns {summary['budget_ns']} != {exp.budget_ns}")
        if exp.drift_free:
            worst = float(np.max(np.abs(samples))) if samples.size else 0.0
            checks.check(worst <= exp.budget_ns,
                         f"sample {worst} ns outside budget {exp.budget_ns} ns")
        return
    trend = json.loads((out_dir / "trend.json").read_text())
    stats = [p["stats"] for p in trend["points"]]
    checks.check(len(stats) == len(points) and all(s["converged"] is True for s in stats),
                 "a sweep point did not converge")
    rows = (out_dir / "sweep.csv").read_text().splitlines()[1:]
    counts = [int(row.split(",")[2]) for row in rows]
    want_rows = [e.pps_per_replica for e in points for _ in range(e.replicas)]
    checks.check([s["n_samples"] for s in stats]
                 == [e.pps_samples for e in points]
                 and counts == want_rows,
                 f"n_samples {[s['n_samples'] for s in stats]}, rows {counts}")


# --- environment -----------------------------------------------------------------


def _openblas_threads() -> dict:
    """Thread count of the OpenBLAS builds bundled with numpy and scipy."""
    import numpy as np
    import scipy

    found = {}
    for package in (np, scipy):
        libs_dir = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs_dir.glob("*openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                func = getattr(lib, symbol, None)
                if func is not None:
                    func.restype = ctypes.c_int
                    found[path.name] = func()
                    break
    return found


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": _openblas_threads(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
    }


# --- repetitions -----------------------------------------------------------------


def run_child(workload: Workload, docs: list[dict], seed: int, workers: int,
              mode: str, out_dir: Path, run_id: str, smoke: bool) -> dict:
    spec = {
        "src": str(SRC),
        "configs": docs,
        "argv": cli_argv(workload, seed, workers, out_dir, smoke),
        "mode": mode,
        "run_id": run_id,
        "spawn_ns": time.clock_gettime_ns(time.CLOCK_MONOTONIC),
    }
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {run_id} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def span_layers(spans: list[dict]) -> dict:
    """Per-layer totals of one traced repetition.

    A span's self time is its duration minus its children's; summed by
    layer, self times add up to the duration of ``cli.main``.
    """
    dur = {s["id"]: (s["end"] - s["start"]) * 1e-9 for s in spans}
    self_s = dict(dur)
    for s in spans:
        if s["parent"] is not None:
            self_s[s["parent"]] -= dur[s["id"]]
    out = {"calls": {}, "self": {}, "total": {}}
    for s in spans:
        name = s["name"]
        out["calls"][name] = out["calls"].get(name, 0) + 1
        out["total"][name] = out["total"].get(name, 0.0) + dur[s["id"]]
        out["self"][s["layer"]] = out["self"].get(s["layer"], 0.0) + self_s[s["id"]]
    out["tap_samples"] = sum(s.get("work", 0) for s in spans
                             if s["name"] == "detected_excess_series")
    return out


def layer_metrics(rec: dict, points: list[Expected]) -> dict:
    layers = span_layers(rec["spans"])
    calls, own, total = layers["calls"], layers["self"], layers["total"]
    exchanges = sum(e.exchanges for e in points)
    artifact_s = own.get("cli", 0.0)
    synth_s = own.get("channel", 0.0)
    return {
        "channel.calls": calls.get("detected_excess_series", 0),
        "channel.tap_samples": layers["tap_samples"],
        "channel.synth_s": synth_s,
        # Floored denominator: single-tap chains synthesise nothing.
        "channel.ns_per_tap_sample": synth_s * 1e9 / max(1, layers["tap_samples"]),
        "sim.run_s": total["run_experiment"],
        "sim.self_s": own["sim"],
        "sim.exchanges": exchanges,
        "sim.pps_samples": sum(e.pps_samples for e in points),
        "sim.ns_per_exchange": own["sim"] * 1e9 / exchanges,
        "stats.calls": calls.get("compute_stats", 0),
        "stats.s": own.get("stats", 0.0),
        "budget.calls": calls.get("topology_budget", 0),
        "budget.s": own.get("budget", 0.0),
        "cli.artifact_s": artifact_s,
        "cli.artifact_bytes": rec["artifact_bytes"],
        "cli.artifact_mb_per_s": rec["artifact_bytes"] * 1e-6 / artifact_s,
        "setup.import_s": rec["import_s"],
        "setup.topology_s": rec["topology_s"],
    }


COUNT_METRICS = ("channel.calls", "channel.tap_samples", "sim.exchanges",
                 "sim.pps_samples", "stats.calls", "budget.calls", "cli.artifact_bytes")


def plan(workload: Workload, trace: bool) -> list[tuple[str, str, int]]:
    """Repetition kinds of one cycle: (kind, child mode, workers)."""
    if not trace:
        return [("e2e", "plain", workload.workers)]
    kinds = [("traced", "traced", 1), ("serial", "thin", 1)]
    if workload.workers > 1:
        kinds.append(("pool", "thin", workload.workers))
    return kinds


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    workload = WORKLOADS[workload_name]
    docs = config_docs(workload, seed, smoke)
    points = [expected_point(doc) for doc in docs]
    checks = Checks()
    reps: dict[str, list[dict]] = {}
    first_digests = None
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=OUT))
    deadline = time.monotonic() + seconds
    n = 0
    try:
        while True:
            for kind, mode, workers in plan(workload, trace):
                out_dir = scratch / f"rep{n}"
                rec = run_child(workload, docs, seed, workers, mode, out_dir,
                                f"{workload_name}-{seed}-{n}", smoke)
                rec.update(kind=kind, workers=workers, n=n)
                check_outputs(checks, workload, points, out_dir, rec["rc"])
                rec["digests"] = digests(out_dir, workload.artifacts)
                rec["artifact_bytes"] = sum((out_dir / a).stat().st_size
                                            for a in rec["digests"])
                if first_digests is None:
                    first_digests = rec["digests"]
                else:
                    checks.check(rec["digests"] == first_digests,
                                 f"repetition {n} ({kind}, {workers} workers) changed output")
                shutil.rmtree(out_dir)
                reps.setdefault(kind, []).append(rec)
                n += 1
            done = len(reps[plan(workload, trace)[0][0]])
            if smoke or (done >= MIN_REPS and time.monotonic() >= deadline):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    med = statistics.median
    if not trace:
        e2e = reps["e2e"]
        wall = med(r["wall_s"] for r in e2e)
        metrics = {
            "wall_s": wall,
            "exchanges_per_s": sum(e.exchanges for e in points) / wall,
            "samples_per_s": sum(e.pps_samples for e in points) / wall,
            "setup_s": med(r["setup_s"] for r in e2e),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in e2e),
        }
        units = END_TO_END
    else:
        per_rep = [layer_metrics(r, points) for r in reps["traced"]]
        for name in COUNT_METRICS:
            values = {m[name] for m in per_rep}
            checks.check(len(values) == 1, f"count {name} varied: {sorted(values)}")
        metrics = {k: per_rep[0][k] if k in COUNT_METRICS else med(m[k] for m in per_rep)
                   for k in per_rep[0]}
        pool = reps.get("pool", reps["serial"])
        # Untraced repetitions time only run_experiment, one span per point.
        pool_run_s = med(sum(s["end"] - s["start"] for s in r["spans"]) * 1e-9
                         for r in pool)
        traced_wall = med(r["wall_s"] for r in reps["traced"])
        untraced_wall = med(r["wall_s"] for r in reps["serial"])
        metrics.update({
            "sim.pool_run_s": pool_run_s,
            "sim.pool_workers": pool[0]["workers"],
            "sim.pool_efficiency": metrics["sim.run_s"] / (pool[0]["workers"] * pool_run_s),
            "trace.traced_wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        })
        units = PER_LAYER
    return {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "messages": checks.messages},
        "digests": first_digests,
        "environment": environment(),
        "repetitions": reps,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny durations, one repetition cycle (for tests)")
    args = parser.parse_args(argv)
    if not (SRC / "hybridsync" / "__init__.py").is_file():
        print(f"perfbench: no hybridsync package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    sys.path.insert(0, str(SRC))

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    checks = result["checks"]
    print(f"environment: {json.dumps(result['environment'], sort_keys=True)}")
    print(f"digests (seed {args.seed}): {json.dumps(result['digests'], sort_keys=True)}")
    print(f"repetitions: { {k: len(v) for k, v in result['repetitions'].items()} }")
    for message in checks["messages"]:
        print(f"check failed: {message}")
    print(f"failed_frac: {checks['failed']}/{checks['attempted']}")
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
