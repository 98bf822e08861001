"""Command line front end.

Subcommands:

* ``budget``            analytic worst-case error for the chain presets
* ``simulate``          Monte Carlo run of one experiment configuration
* ``sweep``             repeat an experiment along one swept parameter
* ``validate-channel``  self-checks of a channel model against its targets

Determinism contract: given the same resolved configuration, output files
are byte-identical regardless of worker count.  JSON is emitted with sorted
keys and CSV floats use ``repr`` round-tripping; nothing time- or
host-dependent is written.  ``samples.csv`` holds ``repr``'s bytes: written by a
vectorised formatter for PPS samples, by one ``%r`` per chunk for any other.

Seed resolution, lowest to highest precedence: built-in default, the
``HYBRIDSYNC_SEED`` environment variable, the config file, ``--seed``,
``--set seed=N``.  Unknown configuration keys are rejected (exit code 2);
failed validation or a diverged run exits 1.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .budget import CHAIN_PRESETS, budget_report, chain_max_error, chain_preset, topology_budget
from .channel import (
    CHANNEL_CATALOG,
    FadingConfig,
    build_pdp,
    canonical_channel_name,
    rms_delay_spread,
    tap_gain_series,
)
from .sim import ExperimentConfig, SIM_PRESETS, build_topology, replica_pool, run_experiment

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
ENV_SEED = "HYBRIDSYNC_SEED"


def _parse_value(text: str):
    """Interpret an override value as JSON if possible, else a string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_sets(pairs: list[str]) -> dict:
    doc = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        doc[key] = _parse_value(value)
    return doc


def _resolve_config(args) -> ExperimentConfig:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    doc: dict = {}
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        if not (env_seed.isascii() and env_seed.isdigit()):
            raise ValueError(f"{ENV_SEED} must be a non-negative decimal integer "
                             f"such as {ENV_SEED}=1001, got {env_seed!r}")
        doc["seed"] = int(env_seed)
    if args.config:
        file_doc = json.loads(Path(args.config).read_text())
        if not isinstance(file_doc, dict):
            raise ValueError("config file must hold a JSON object")
        doc.update(file_doc)
    if getattr(args, "preset", None):
        doc["preset"] = args.preset
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.replicas is not None:
        doc["replicas"] = args.replicas
    doc.update(_parse_sets(args.set or []))
    return ExperimentConfig.from_dict(doc)


def _config_digest(config: ExperimentConfig) -> str:
    blob = json.dumps(config.as_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _stats_doc(stats) -> dict:
    return {
        "converged": stats.converged,
        "hist_counts": list(stats.hist_counts),
        "hist_edges": list(stats.hist_edges),
        "max_ns": stats.max_ns,
        "min_ns": stats.min_ns,
        "mu_ns": stats.mu_ns,
        "mu_plus_3sigma_ns": stats.mu_plus_3sigma_ns,
        "n_samples": stats.n_samples,
        "sigma_ns": stats.sigma_ns,
    }


def _replica_doc(stats) -> dict:
    return {
        "max_ns": stats.max_ns,
        "min_ns": stats.min_ns,
        "mu_ns": stats.mu_ns,
        "n_samples": stats.n_samples,
        "sigma_ns": stats.sigma_ns,
    }


def _repr_rows(r: int, start: int, x: np.ndarray) -> bytes:
    """Rows ``r,start+k,repr(x[k])`` of any chunk, by one ``%`` call."""
    values = x.tolist()
    cells = [None] * (2 * len(values))
    cells[::2] = range(start, start + len(values))
    cells[1::2] = values
    return (f"{r},%d,%r\n" * len(values) % tuple(cells)).encode()


def _put_digits(rows: np.ndarray, v: np.ndarray, pad: bool) -> None:
    """Write the low ``len(rows)`` decimal digits of ``v`` as ASCII rows, the
    last digit in the last row; unless ``pad``, leading zeros become 0 bytes."""
    for k in range(len(rows) - 1, -1, -1):
        q = v // 10
        digit = v - q * 10 + 48
        rows[k] = digit if pad or k == len(rows) - 1 else np.where(v > 0, digit, 0)
        v = q


def _grid_rows(r: int, start: int, x: np.ndarray) -> bytes | None:
    """The bytes of ``_repr_rows`` for a chunk of multiples of 2**-19 in
    1e-4 <= |x| < 2**31, else None.  PPS samples are differences of times in
    ns, so all edges after 2**33 ns (8.6 s) qualify.  Like ``repr`` (shortest
    round trip: Steele & White 1990, Gay 1990) it picks the fewest fraction
    digits that round back to x, then the nearest such decimal, on a tie the
    even one."""
    a = np.abs(x)
    grid = a * 2.0 ** 19
    if not np.all((a >= 1e-4) & (a < 2.0 ** 31) & (np.floor(grid) == grid)):
        return None
    whole = np.floor(a)
    d = ((a - whole) * 2.0 ** 19).astype(np.uint64) * 5 ** 19  # the fraction in 1e-19
    # Half the gap between floats in 1e-19 is 5**19 * 2**(e - 35): below 2**53
    # and never whole, so it compares exactly with, and never equals, an integer
    # distance.  Below a power of two the gap halves; its exact decimal wins anyway.
    half = np.ldexp(float(5 ** 19), np.frexp(a)[1] - 35)
    # f digits fit if fewer do, so the fewest that fit is the count that do not.
    spacings = 10 ** np.arange(19, -1, -1, dtype=np.uint64)  # of f = 0..19 digits, in 1e-19
    below = d % spacings[:, None]
    f = np.count_nonzero((below > half) & (spacings[:, None] - below > half), axis=0)
    p = spacings[f]
    below = np.take_along_axis(below, f[None], 0)[0]
    above = p - below
    # The nearer neighbour that fits; on a tie the one with an even last digit.
    hi = (above < half) & ((below > half) | (above < below)
                           | ((above == below) & (d // p % 2 == 1)))
    # Neither neighbour is the next integer: x is 2**-19 or more below it.
    n, fw = len(x), max(int(f.max()), 1)
    frac = (d - below + p * hi) // 10 ** (19 - fw)  # fw fraction digits
    head, iw, ww = f"{r},".encode(), len(str(start + n - 1)), len(str(int(whole.max())))
    out = np.empty((len(head) + iw + ww + fw + 4, n), np.uint8)  # text by column; 0 is dropped
    out[:len(head)] = np.frombuffer(head, np.uint8)[:, None]
    j = len(head) + iw
    _put_digits(out[len(head):j], np.arange(start, start + n), pad=False)
    out[j] = ord(",")
    out[j + 1] = np.where(x < 0, ord("-"), 0)
    _put_digits(out[j + 2:j + 2 + ww], whole.astype(np.uint32), pad=False)
    j += 2 + ww
    out[j] = ord(".")
    for stop in range(j + 1 + fw, j + 1, -9):  # nine digits per uint32 group
        _put_digits(out[max(stop - 9, j + 1):stop], (frac % 10 ** 9).astype(np.uint32), pad=True)
        frac //= 10 ** 9
    out[j + 1:j + 1 + fw] *= np.arange(fw)[:, None] < np.maximum(f, 1)
    out[-1] = ord("\n")
    return out.T.tobytes().translate(None, b"\0")


def _write_samples_csv(path: Path, sample_arrays, chunk: int = 8192) -> None:
    """Stream one ``replica,index,error_ns`` row per sample; floats use ``repr``.

    Samples are formatted ``chunk`` at a time, never a whole replica: by
    ``_grid_rows`` where it applies, else by the general ``_repr_rows``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(b"replica,index,error_ns\n")
        for r, arr in enumerate(sample_arrays):
            for start in range(0, len(arr), chunk):
                x = arr[start:start + chunk]
                rows = _grid_rows(r, start, x)
                fh.write(_repr_rows(r, start, x) if rows is None else rows)


# --- budget --------------------------------------------------------------------


def _cmd_budget(args) -> int:
    names = list(CHAIN_PRESETS) if args.all else [args.preset]
    if not all(names):
        print("budget: give --preset NAME or --all", file=sys.stderr)
        return EXIT_USAGE
    reports = []
    for name in names:
        try:
            hops = chain_preset(name, cdc_stages=args.cdc_stages, t_ms_ns=args.t_ms_ns)
        except ValueError as exc:
            print(f"budget: {exc}", file=sys.stderr)
            return EXIT_USAGE
        doc = budget_report(hops)
        doc["preset"] = name
        reports.append(doc)
    if args.format in ("json", "both"):
        text = _dump_json(reports if args.all else reports[0])
        print(text, end="")
        if args.out:
            _write(Path(args.out) / "budget.json", text)
    if args.format in ("csv", "both"):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["preset", "kind", "label", "max_error_ns"])
        for doc in reports:
            for hop in doc["per_hop"]:
                writer.writerow([doc["preset"], hop["kind"], hop["label"],
                                 repr(hop["max_error_ns"])])
            writer.writerow([doc["preset"], "total", "", repr(doc["total_ns"])])
        if args.format == "csv":
            print(buf.getvalue(), end="")
        if args.out:
            _write(Path(args.out) / "budget.csv", buf.getvalue())
    return EXIT_OK


# --- simulate ------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    try:
        config = _resolve_config(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    stats, sample_arrays = run_experiment(config, workers=args.workers,
                                          return_samples=True)
    budget_ns = chain_max_error(topology_budget(build_topology(config)))
    summary = {
        "budget_ns": budget_ns,
        "config": config.as_dict(),
        "config_sha256": _config_digest(config),
        "per_replica": [_replica_doc(s) for s in stats.per_replica],
        "stats": _stats_doc(stats),
        "version": __version__,
    }
    text = _dump_json(summary)
    print(text, end="")
    if args.out:
        out = Path(args.out)
        if args.format in ("json", "both"):
            _write(out / "summary.json", text)
        if args.format in ("csv", "both"):
            _write_samples_csv(out / "samples.csv", sample_arrays)
    return EXIT_OK if stats.converged else EXIT_FAIL


# --- sweep ---------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    try:
        config = _resolve_config(args)
        param, sep, raw = args.axis.partition("=")
        if not sep or not param or not raw:
            raise ValueError(f"--axis expects param=v1,v2,..., got {args.axis!r}")
        values = [_parse_value(v) for v in raw.split(",")]
        base = config.as_dict()
        base.pop("inline_topology")
        if param not in base:
            raise ValueError(f"unknown sweep parameter {param!r}")
        point_configs = [ExperimentConfig.from_dict({**base, param: value})
                         for value in values]
    except (ValueError, TypeError, OSError) as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return EXIT_USAGE
    points = []
    all_converged = True
    # One pool, sized by the largest point, runs every point's replicas; with
    # none, one process suffices and each point runs serially.
    with replica_pool(args.workers, max(c.replicas for c in point_configs)) as pool:
        for value, point_config in zip(values, point_configs):
            stats = run_experiment(point_config, pool=pool)
            all_converged = all_converged and stats.converged
            points.append((value, stats))
    trend = {
        "axis": param,
        "base_config_sha256": _config_digest(config),
        "points": [
            {
                "per_replica_sigma_ns": [s.sigma_ns for s in stats.per_replica],
                "stats": _stats_doc(stats),
                "value": value,
            }
            for value, stats in points
        ],
        "version": __version__,
    }
    text = _dump_json(trend)
    print(text, end="")
    if args.out:
        out = Path(args.out)
        if args.format in ("json", "both"):
            _write(out / "trend.json", text)
        if args.format in ("csv", "both"):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow([param, "replica", "n_samples", "mu_ns", "sigma_ns",
                             "min_ns", "max_ns"])
            for value, stats in points:
                for r, s in enumerate(stats.per_replica):
                    writer.writerow([value, r, s.n_samples, repr(s.mu_ns),
                                     repr(s.sigma_ns), repr(s.min_ns), repr(s.max_ns)])
            _write(out / "sweep.csv", buf.getvalue())
    return EXIT_OK if all_converged else EXIT_FAIL


# --- validate-channel ------------------------------------------------------------


def _autocorr_deviation(pdp, fading, seed, realizations=32, count=2048,
                        period_s=2.5e-4, max_lag_s=5e-3) -> float:
    """Max deviation of the averaged gain autocorrelation from the Jakes law."""
    from scipy.special import j0

    rng = np.random.default_rng(seed)
    idx = int(np.argmax(pdp.linear_powers))
    max_lag = min(count - 1, int(round(max_lag_s / period_s)))
    lags = np.arange(1, max_lag + 1)
    acc = np.zeros(max_lag, dtype=complex)
    power = 0.0
    for _ in range(realizations):
        series = tap_gain_series(pdp, fading, period_s, count, 0.0, rng)[idx]
        power += float(np.mean(np.abs(series) ** 2))
        for k, lag in enumerate(lags):
            acc[k] += np.mean(series[lag:] * np.conj(series[:-lag]))
    emp = np.real(acc) / power
    theory = j0(2.0 * np.pi * fading.doppler_hz * lags * period_s)
    return float(np.max(np.abs(emp - theory)))


def _cmd_validate_channel(args) -> int:
    from scipy.stats import kstest

    try:
        name = canonical_channel_name(args.channel)
        fading = FadingConfig(doppler_hz=args.doppler_hz)
        if args.samples < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        if args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
    except ValueError as exc:
        print(f"validate-channel: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _, target_rms, target_excess = CHANNEL_CATALOG[name]
    pdp = build_pdp(name)
    checks = []

    rms = rms_delay_spread(pdp)
    tol = max(0.01 * target_rms, 1e-9)
    checks.append({
        "name": "rms_delay_spread",
        "passed": abs(rms - target_rms) <= tol,
        "detail": f"model {rms:.4f} ns vs target {target_rms} ns",
    })
    checks.append({
        "name": "max_excess_delay",
        "passed": abs(pdp.max_excess_delay_ns - target_excess) <= 1e-9,
        "detail": f"model {pdp.max_excess_delay_ns} ns vs target {target_excess} ns",
    })
    checks.append({
        "name": "tap_count",
        "passed": 1 <= pdp.n_taps <= 10,
        "detail": f"{pdp.n_taps} taps",
    })

    rng = np.random.default_rng(args.seed)
    frozen = FadingConfig(doppler_hz=0.0)
    idx = int(np.argmax(pdp.linear_powers))
    draws = np.empty(args.samples, dtype=complex)
    for i in range(args.samples):
        draws[i] = tap_gain_series(pdp, frozen, 1e-3, 1, 0.0, rng)[idx, 0]
    scale = float(np.sqrt(pdp.linear_powers[idx] / 2.0))
    pvalue = float(kstest(np.abs(draws), "rayleigh", args=(0.0, scale)).pvalue)
    checks.append({
        "name": "rayleigh_amplitude",
        "passed": pvalue >= 0.01,
        "detail": f"KS p={pvalue:.4f} over {args.samples} draws",
    })

    if args.doppler_hz > 0:
        dev = _autocorr_deviation(pdp, fading, rng)
        checks.append({
            "name": "jakes_autocorrelation",
            "passed": dev <= 0.05,
            "detail": f"max |emp - J0| = {dev:.4f}",
        })

    passed = all(c["passed"] for c in checks)
    report = {"channel": name, "checks": checks, "passed": passed,
              "version": __version__}
    print(_dump_json(report), end="")
    if args.out:
        _write(Path(args.out) / f"validate_{name}.json", _dump_json(report))
    return EXIT_OK if passed else EXIT_FAIL


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridsync",
        description="Clock synchronization budgets and simulations for "
                    "hybrid wired/wireless chains.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("budget", help="print analytic chain error budgets")
    p.add_argument("--preset", choices=CHAIN_PRESETS)
    p.add_argument("--all", action="store_true", help="report every preset")
    p.add_argument("--cdc-stages", type=int, default=2, choices=(1, 2))
    p.add_argument("--t-ms-ns", type=float, default=0.0,
                   help="uncompensated one-way propagation residual")
    p.add_argument("--format", choices=("json", "csv", "both"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_budget)

    for cmd, func in (("simulate", _cmd_simulate), ("sweep", _cmd_sweep)):
        p = sub.add_parser(cmd, help=f"{cmd} an experiment")
        p.add_argument("--preset", choices=SIM_PRESETS)
        p.add_argument("--config", help="JSON file with config fields")
        p.add_argument("--seed", type=int)
        p.add_argument("--replicas", type=int)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config field; repeatable")
        p.add_argument("--format", choices=("json", "csv", "both"), default="both")
        p.add_argument("--out")
        if cmd == "sweep":
            p.add_argument("--axis", required=True, metavar="PARAM=V1,V2,...")
        p.set_defaults(func=func)

    p = sub.add_parser("validate-channel", help="check a channel model")
    p.add_argument("--channel", required=True)
    p.add_argument("--doppler-hz", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=4000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_validate_channel)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
