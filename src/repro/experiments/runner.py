"""Run every paper experiment and print its table.

Usage::

    python -m repro.experiments                 # all figures, quick windows
    python -m repro.experiments --full          # full measurement windows
    python -m repro.experiments fig8 fig13      # a subset
    python -m repro.experiments fig8 --jobs 4   # parallel cells (identical output)
    python -m repro.experiments fig8 --json     # machine-readable records

Each figure's cells run on a :class:`repro.runner.RunEngine`: parallel
across ``--jobs`` worker processes, retried on crash or timeout, cached
under ``<results-dir>/.cache/`` and archived as JSON records under
``<results-dir>/<figure>/``.  ``--jobs 1`` and ``--jobs N`` produce
bit-identical tables (seeds derive from spec content, not scheduling).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict

from repro.obs.live.status import SweepProgress

from repro.experiments import (
    chaos_matrix,
    migration_matrix,
    fig4_motivation,
    fig7_batch_size,
    fig8_throughput,
    fig9_latency,
    fig10_multiflow,
    fig11_webserving,
    fig12_cpu_balance,
    fig13_memcached,
    extensions,
    sensitivity,
)
from repro.runner import DEFAULT_TIMEOUT_S, RunEngine, RunFailure
from repro.runner.executors import EXECUTOR_NAMES, make_executor

MODULES = {
    "fig4": fig4_motivation,
    "fig7": fig7_batch_size,
    "fig8": fig8_throughput,
    "fig9": fig9_latency,
    "fig10": fig10_multiflow,
    "fig11": fig11_webserving,
    "fig12": fig12_cpu_balance,
    "fig13": fig13_memcached,
    "sensitivity": sensitivity,
    "extensions": extensions,
    "chaos": chaos_matrix,
    "migration": migration_matrix,
}

#: name -> one-call library entry point (kept for tests and interactive use)
EXPERIMENTS: Dict[str, Callable] = {name: mod.run for name, mod in MODULES.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="MFLOW reproduction experiments")
    parser.add_argument("figures", nargs="*", default=[], help="subset, e.g. fig8 fig13")
    parser.add_argument("--full", action="store_true", help="full measurement windows")
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes per figure (default: CPU count; 1 = in-process serial)",
    )
    parser.add_argument("--seed", type=int, default=0, help="global seed (default 0)")
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print run records as JSON instead of tables",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="ignore and do not update the result cache"
    )
    parser.add_argument(
        "--results-dir", default="results",
        help="artifact root (default ./results; records land in <root>/<figure>/)",
    )
    parser.add_argument(
        "--timeout-s", type=float, default=DEFAULT_TIMEOUT_S,
        help=f"per-cell wall-time cap before the worker is killed (default {DEFAULT_TIMEOUT_S:.0f})",
    )
    parser.add_argument(
        "--max-retries", type=int, default=1,
        help="retries per cell after a crash/timeout/exception, with "
             "exponential backoff (default 1); exhausted cells are quarantined",
    )
    parser.add_argument(
        "--checkpoint-s", type=float, default=None, metavar="SECONDS",
        help="snapshot each simulator every SECONDS of wall time so killed "
             "cells resume mid-run (`repro resume`); default: off",
    )
    parser.add_argument(
        "--executor", choices=list(EXECUTOR_NAMES), default="auto",
        help="execution backend: auto (local for --jobs 1, process pool "
             "otherwise, socket when --runners is given), or force one",
    )
    parser.add_argument(
        "--runners", default=None, metavar="HOST:PORT[,HOST:PORT...]",
        help="runner-pool addresses for the socket executor "
             "(start each with `repro runner serve`)",
    )
    parser.add_argument(
        "--heartbeat-s", type=float, default=None, metavar="SECONDS",
        help="socket-pool heartbeat interval; a runner silent for "
             "3 heartbeats is declared lost and its cells re-dispatched",
    )
    args = parser.parse_args(argv)

    names = args.figures or list(MODULES)
    unknown = [n for n in names if n not in MODULES]
    if unknown:
        parser.error(f"unknown figures {unknown}; choose from {list(MODULES)}")

    jobs = max(1, args.jobs if args.jobs is not None else (os.cpu_count() or 1))
    socket_kwargs = {}
    if args.heartbeat_s is not None:
        socket_kwargs["heartbeat_s"] = args.heartbeat_s
    try:
        executor = make_executor(
            args.executor,
            jobs=jobs,
            runners=args.runners.split(",") if args.runners else None,
            **socket_kwargs,
        )
    except ValueError as exc:
        parser.error(str(exc))
    json_out: Dict[str, Dict] = {}
    status = 0
    for name in names:
        module = MODULES[name]
        specs = module.specs(quick=not args.full)
        engine = RunEngine(
            jobs=jobs,
            global_seed=args.seed,
            timeout_s=args.timeout_s,
            retries=args.max_retries,
            results_dir=args.results_dir,
            use_cache=not args.no_cache,
            progress=SweepProgress(name) if sys.stderr.isatty() else None,
            checkpoint_wall_s=args.checkpoint_s,
            executor=executor,
        )
        started = time.time()
        try:
            records = engine.run(name, specs)
        except RunFailure as failure:
            print(f"[{name} FAILED]\n{failure}", file=sys.stderr, flush=True)
            status = 1
            continue
        elapsed = time.time() - started
        live = [r for r in records if not r.cached and r.wall_time_s > 0]
        sim_wall_s = sum(r.wall_time_s for r in live)
        sim_events = sum(r.events_executed for r in live)
        if args.as_json:
            json_out[name] = {
                "jobs": jobs,
                "global_seed": args.seed,
                "wall_time_s": round(elapsed, 3),
                "sim_wall_s": round(sim_wall_s, 3),
                "events_executed": sim_events,
                "events_per_sec": round(sim_events / sim_wall_s, 1)
                if sim_wall_s > 0 else 0.0,
                "records": [r.to_json_dict() for r in records],
            }
        else:
            result = module.reduce(records)
            print(result.table())
            cached = sum(1 for r in records if r.cached)
            rate = f", {sim_events / sim_wall_s / 1e3:.0f}k ev/s" if sim_wall_s else ""
            print(
                f"[{name} done in {elapsed:.1f}s: {len(records)} cells, "
                f"{cached} cached, jobs={jobs}{rate}]\n",
                flush=True,
            )
    if args.as_json:
        print(json.dumps(json_out, indent=1))
    return status


if __name__ == "__main__":  # pragma: no cover - CLI
    sys.exit(main())
