"""One benchmark repetition in a fresh interpreter.

``run.py`` starts this script once per repetition, so interpreter start,
imports and peak memory are those of a real CLI invocation.  The script
takes one JSON argument:

* ``src``: directory holding the ``hybridsync`` package;
* ``configs``: config documents of the run (one per sweep point), resolved
  during set-up as the CLI would;
* ``argv``: arguments for ``hybridsync.cli.main``;
* ``mode``: ``plain`` (nothing wrapped), ``thin`` (only ``run_experiment``
  timed) or ``traced`` (every layer boundary wrapped);
* ``spawn_ns``: ``CLOCK_MONOTONIC`` reading taken by the parent just before
  it started this process;
* ``run_id``: identifier shared by all spans of this repetition.

It prints one JSON record as the last line of its standard output.  The
CLI's own standard output goes to ``os.devnull``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import resource
import sys
import time


def _now_ns() -> int:
    # CLOCK_MONOTONIC is system-wide, so readings compare across processes.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory spans around wrapped functions.

    Each span records its name, layer, parent span, run id and start/end in
    nanoseconds.  Spans nest by call order on one thread; the simulator is
    forced to one worker when traced, because wrappers in pool children
    would not report back.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, func, work=None):
        """Return ``func`` wrapped in a span; ``work(*args)`` adds a count."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "layer": layer,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
                "start": 0,
                "end": 0,
            }
            if work is not None:
                span["work"] = work(*args, **kwargs)
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = _now_ns()
            try:
                return func(*args, **kwargs)
            finally:
                span["end"] = _now_ns()
                self._stack.pop()

        return wrapper


def _tap_samples(pdp, fading, period_s, count, *args, **kwargs) -> int:
    # Single-tap profiles return early without synthesising any fading.
    return pdp.n_taps * count if pdp.n_taps > 1 else 0


def _install(tracer: Tracer, mode: str, modules: list) -> None:
    """Replace each traced function in every module that imported it."""
    from hybridsync import channel, sim

    targets = [("sim", sim, "run_experiment", None)]
    if mode == "traced":
        targets += [
            ("stats", sim, "compute_stats", None),
            ("budget", sim, "topology_budget", None),
            ("channel", channel, "detected_excess_series", _tap_samples),
            ("channel", channel, "build_pdp", None),
        ]
    for layer, home, name, work in targets:
        original = getattr(home, name)
        wrapped = tracer.wrap(layer, name, original, work)
        for module in modules:
            if getattr(module, name, None) is original:
                setattr(module, name, wrapped)


def main() -> int:
    spec = json.loads(sys.argv[1])
    t_start = _now_ns()
    sys.path.insert(0, spec["src"])
    import hybridsync
    from hybridsync import budget, channel, cli, sim

    t_imported = _now_ns()
    for doc in spec["configs"]:
        config = sim.ExperimentConfig.from_dict(doc)
        budget.chain_max_error(sim.topology_budget(sim.build_topology(config)))
    t_ready = _now_ns()

    tracer = Tracer(spec["run_id"])
    main_fn = cli.main
    if spec["mode"] != "plain":
        _install(tracer, spec["mode"], [hybridsync, budget, channel, cli, sim])
    if spec["mode"] == "traced":
        main_fn = tracer.wrap("cli", "main", cli.main)

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        c0 = os.times()
        t0 = _now_ns()
        rc = main_fn(spec["argv"])
        t1 = _now_ns()
        c1 = os.times()

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record = {
        "rc": rc,
        "import_s": (t_imported - t_start) * 1e-9,
        "topology_s": (t_ready - t_imported) * 1e-9,
        "setup_s": (t_ready - spec["spawn_ns"]) * 1e-9,
        "wall_s": (t1 - t0) * 1e-9,
        # User plus system CPU time of the call, pool children included.
        "cpu_s": sum(c1[:4]) - sum(c0[:4]),
        # ru_maxrss is in KiB on Linux.  A pool adds its largest child's peak.
        "peak_rss_mb": (own + pool) / 1024.0,
        "spans": tracer.spans,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
