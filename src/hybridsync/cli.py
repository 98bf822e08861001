"""Command line front end.

Subcommands:

* ``budget``    analytic worst-case error for the chain presets
* ``simulate``  Monte Carlo run of one experiment configuration
* ``sweep``     repeat an experiment along one swept parameter

Determinism contract: given the same resolved configuration, output files
are byte-identical regardless of worker count.  JSON is emitted with sorted
keys and CSV floats use ``repr`` round-tripping; nothing time- or
host-dependent is written.  ``samples.csv`` holds ``repr``'s bytes, written
chunk by chunk: for PPS samples by a vectorised formatter that counts digits
on a shrinking set of samples and emits four per table lookup, for any other
chunk by one ``%r``.

Seed resolution, lowest to highest precedence: built-in default, the
``HYBRIDSYNC_SEED`` environment variable, the config file, ``--seed``,
``--set seed=N``.  Unknown configuration keys are rejected (exit code 2);
failed validation or a diverged run exits 1.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .budget import CHAIN_PRESETS, budget_report, chain_max_error, chain_preset, topology_budget
from .sim import ExperimentConfig, SIM_PRESETS, build_topology, run_experiment

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


def _make_out(out) -> None:
    """Create the ``--out`` directory, if given, before any work is done, so
    that a path that cannot be one is refused up front (``OSError``)."""
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)


def _write(path: Path, text: str) -> None:
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


@functools.cache
def _digit_words() -> np.ndarray:
    """The ASCII of 0000..9999 as uint32 words, in the five variants below,
    10,000 apart; a 0 byte stands for a digit not printed.  Built on first
    use, so runs that write no samples.csv never hold it."""
    digits = np.arange(10_000, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1]) % 10
    full = (digits + ord("0")).astype(np.uint8)
    lead = full * np.logical_or.accumulate(digits > 0, axis=1)
    trail = full * np.logical_or.accumulate(digits[:, ::-1] > 0, axis=1)[:, ::-1]
    lead0, trail0 = lead.copy(), trail.copy()
    lead0[0, 3] = trail0[0, 1] = ord("0")
    words = np.ascontiguousarray([full, lead, lead0, trail, trail0]).view(np.uint32).ravel()
    words.flags.writeable = False
    return words


# Offsets into the digit words: all four digits; leading zeros dropped, for a
# word with digits above it or (LEAD0) the last word of a number, which
# prints 0; trailing zeros dropped, for a fraction's last words or (TRAIL0)
# its first, whose 0 prints ".0" (its first byte falls on the point).
_FULL, _LEAD, _LEAD0, _TRAIL, _TRAIL0 = range(0, 50_000, 10_000)

# In units of 2**-19 * 5**-f, decimals of f fraction digits lie 2**(19 - f)
# apart, x = whole + m * 2**-19 lies m * 5**f past 0, and half the gap between
# floats is 5**f * 2**(e - 35) with e = frexp(x)[1]: below 2**53 and never
# whole, so it compares exactly with, and never equals, an integer distance.
# Below a power of two the gap halves; its exact decimal wins anyway.
_POW5 = np.array([5 ** f for f in range(20)], np.uint64)
_SHIFT = np.arange(19, -1, -1, dtype=np.uint64)
_STEP = np.array([1 << k for k in range(19, -1, -1)], np.uint64)
# _ALWAYS[e + 13] for -13 <= e <= 31: the fewest fraction digits (at most 19)
# whose decimals lie closer together than the gap, so that one of them fits.
_ALWAYS = np.array([next((f for f in range(19) if 10 ** (19 - f) << (34 - e) < 5 ** 19), 19)
                    for e in range(-13, 32)])


def _decimals(m: np.ndarray, f: np.ndarray, half: np.ndarray):
    """The digits of the f-digit decimal at or below ``m * 2**-19``, then, in
    the units above, the distances from it up to x and from x up to the next
    one, and half the gap between floats."""
    pow5 = _POW5[f]
    v = m * pow5
    below = v & (_STEP[f] - 1)
    return v >> _SHIFT[f], below, _STEP[f] - below, half * pow5


def _word(out: np.ndarray, col: int) -> np.ndarray:
    """Columns ``col..col+3`` of every text row, as one uint32 each."""
    return out[:, col:col + 4].view(np.uint32)[:, 0]


def _put_int(out: np.ndarray, end: int, v: np.ndarray, words: int) -> None:
    """Write ``v`` in decimal ending before column ``end``, four digits per
    word, leading zeros as 0 bytes.  The top word may spill up to three
    columns to the left, which the caller writes afterwards."""
    for k in range(words):
        q = v // 10_000
        variant = _LEAD0 if k == 0 else _LEAD
        if k < words - 1:
            variant = _FULL if q.all() else np.where(q > 0, _FULL, variant)
        _word(out, end - 4 * k - 4)[:] = _digit_words()[v - q * 10_000 + variant]
        v = q


def _grid_rows(r: int, start: int, x: np.ndarray) -> bytes | None:
    """The bytes of ``_repr_rows`` for a chunk of multiples of 2**-19 in
    1e-4 <= |x| < 2**31, else None.  PPS samples are differences of times in
    ns, so all edges after 2**33 ns (8.6 s) qualify.  Like ``repr`` (shortest
    round trip: Steele & White 1990, Gay 1990) it picks the fewest fraction
    digits that round back to x, then the nearest such decimal, on a tie the
    even one.  Digits are counted down from an upper bound on a shrinking
    set of samples (as in Ryu: Adams 2018) and written four per table word."""
    a = np.abs(x)
    grid = a * 2.0 ** 19
    if not np.all((a >= 1e-4) & (a < 2.0 ** 31) & (np.floor(grid) == grid)):
        return None
    q = grid.astype(np.uint64)
    whole, m = (q >> 19).astype(np.int64), q & (2 ** 19 - 1)
    e = np.frexp(a)[1]
    half = np.ldexp(1.0, e - 35)
    # m * 2**-19 has 19 - tz(m) fraction digits, the last a 5, so any shorter
    # decimal is 5 units of that digit away: more than half the gap, if fewer
    # digits than always fit.  Then it is the answer.
    exact = np.where(m > 0, 20 - np.frexp((m & (0 - m)).astype(np.float64))[1], 0)
    always = _ALWAYS[e + 13]
    f = np.minimum(exact, always)
    # Elsewhere drop one digit at a time while that still fits: whether f digits
    # fit is monotone in f.
    live = np.flatnonzero(exact >= always)
    while live.size:
        fewer = f[live] - 1
        _, below, above, h = _decimals(m[live], fewer, half[live])
        fits = (below < h) | (above < h)
        f[live[fits]] = fewer[fits]
        live = live[fits & (fewer > 0)]
    d = m * 5 ** 19  # the fraction in 1e-19; rounded where f is short of exact
    rows = np.flatnonzero(f < exact)
    f_rows = f[rows]
    low, below, above, h = _decimals(m[rows], f_rows, half[rows])
    # The nearer neighbour that fits; on a tie the one with an even last digit.
    # Neither neighbour is the next integer: x is 2**-19 or more below it.
    up = (above < h) & ((below > h) | (above < below) | ((above == below) & (low & 1 == 1)))
    d[rows] = (low + up) * 10 ** _SHIFT[f_rows]
    # One text row per sample, 0 bytes dropped at the end.  The fraction's words
    # hold digits 1-3, 4-7, ..., the first word's first byte falling on the point.
    n, fwords = len(x), (max(int(f.max()), 1) + 4) // 4
    head, iw, ww = f"{r},".encode(), len(str(start + n - 1)), len(str(int(whole.max())))
    pad = max(4 * -(-iw // 4) - iw - len(head), 0)  # room for the index's top word
    comma = pad + len(head) + iw
    point = comma + 2 + ww
    out = np.empty((n, point + 4 * fwords + 1), np.uint8)
    prev = 0
    for k in range(fwords):
        digits = d // 10 ** (16 - 4 * k)
        variant = np.where(f <= 3 + 4 * k, _TRAIL0 if k == 0 else _TRAIL, _FULL)
        _word(out, point + 4 * k)[:] = _digit_words()[(digits - prev * 10_000).astype(np.intp)
                                                      + variant]
        prev = digits
    out[:, point] = ord(".")
    out[:, -1] = ord("\n")
    _put_int(out, point, whole, -(-ww // 4))
    out[:, comma + 1] = np.where(x < 0, ord("-"), 0)
    out[:, comma] = ord(",")
    _put_int(out, comma, np.arange(start, start + n), -(-iw // 4))
    for col, byte in enumerate(head, pad):
        out[:, col] = byte
    return out.tobytes().translate(None, b"\0")


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
    try:
        chains = [chain_preset(name, cdc_stages=args.cdc_stages, t_ms_ns=args.t_ms_ns)
                  for name in names]
        _make_out(args.out)
    except (ValueError, OSError) as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_USAGE
    reports = []
    for name, hops in zip(names, chains):
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
        _make_out(args.out)
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
        _make_out(args.out)
    except (ValueError, TypeError, OSError) as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return EXIT_USAGE
    points = []
    all_converged = True
    for value, point_config in zip(values, point_configs):
        stats = run_experiment(point_config, workers=args.workers)
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
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
