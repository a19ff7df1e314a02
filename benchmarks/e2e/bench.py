"""The MFLOW simulator's benchmark of record.

People use this repository to reproduce the paper's figures, so what
they pay is host time: how long a steady-state scenario and a whole
figure sweep take, and how long a run takes to start.  This script
measures that end to end, and splits one extra traced rep into the
simulator's layers.

Run from the repository root (no install or PYTHONPATH needed)::

    python3 benchmarks/e2e/bench.py --seed 1                  # all workloads
    python3 benchmarks/e2e/bench.py --workload tcp64k_mflow --seed 1 --seconds 30 --trace 0
    python3 benchmarks/e2e/bench.py --smoke                   # every workload, ~10 s

Each rep runs in a fresh ``rep.py`` process, one at a time.  A run
repeats reps until ``--seconds`` are spent (at least three; one when
tracing, which then adds one rep under cProfile).  It prints every
metric with its unit, writes the full report as JSON (``--out``), and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer ones with ``--trace 1``, and both when ``--trace`` is not
given.  See README.md for the workloads and the metric glossary.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path.insert(0, str(HERE))

from layers import LAYERS  # noqa: E402
from rep import WORKLOADS  # noqa: E402

#: (name, unit, better) — BENCHMARK.json declares the same names and
#: units.  The timings are host-normalised (see rep.SpeedProbe).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("pkts_per_s", "packets/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
#: reported beside them without a bound: the raw timings, which move with
#: the host's speed as much as with the code, and that speed (the mean
#: time of one probe sample)
HOST = (
    ("raw_setup_s", "s", "lower"),
    ("raw_wall_s", "s", "lower"),
    ("raw_pkts_per_s", "packets/s", "higher"),
    ("probe_s", "s", "lower"),
)
PER_LAYER = tuple(
    (f"{layer}.{field}", unit, better)
    for layer in LAYERS
    for field, unit, better in (
        ("self_s", "s", "lower"), ("share", "share", "lower"), ("calls", "count", "lower"),
    )
) + (
    ("sim.events_per_pkt", "events/packet", "lower"),
    ("cpu.items_per_pkt", "items/packet", "lower"),
    ("model.gbps", "Gbps", "higher"),
    ("model.p99_us", "us", "lower"),
    ("model.rx_pkts", "count", "higher"),
    ("model.handoffs", "count", "lower"),
    ("model.ooo_microflows", "count", "lower"),
    ("runner.harness_share", "share", "lower"),
    ("runner.cache_hits", "count", "higher"),
    ("runner.retries", "count", "lower"),
    ("runner.cached_sweep_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "share", "higher"),
)

MIN_REPS = 3
#: in a traced run, fewer untraced reps leave room for the traced one
MIN_REPS_TRACED = 1
#: a traced rep costs about this many untraced reps (cProfile overhead)
TRACE_COST = 4.0
#: one workload's reps must end well inside the 180 s a run may take
RUN_DEADLINE_S = 165.0
#: trace sanity: layer self times must cover the traced wall to this
#: tolerance, and unattributed time must stay below this share
COVERAGE_TOL = 0.05
EXT_SHARE_MAX = 0.02


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of ``values``."""
    vals = sorted(values)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def failed_reps(reps: List[Dict[str, Any]]) -> List[int]:
    """Indices of the reps that fail a correctness check.

    A rep fails when it raised, when one of its own output checks failed,
    or when its simulated-result digest differs from the first good rep
    of the same seed (every rep, the traced one included, simulates the
    same thing).
    """
    reference = next((r["digest"] for r in reps if r.get("ok")), None)
    return [
        i for i, r in enumerate(reps)
        if not r.get("ok") or r["failures"] or r["digest"] != reference
    ]


def run_child(workload: str, seed: int, trace: bool, smoke: bool, work_dir: Path,
              timeout_s: float) -> Dict[str, Any]:
    """One rep in a fresh process; returns the JSON line it printed."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--work-dir", str(work_dir)]
    if smoke:
        cmd.append("--smoke")
    cmd += ["--t0", repr(time.monotonic())]
    # own session, so a timeout can stop the sweep's pool workers too
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "error": f"rep timed out after {timeout_s:.0f}s"}
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"ok": False, "error": f"rep exited {proc.returncode}: {stderr[-2000:]}"}


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            work_dir: Path) -> Dict[str, Any]:
    """All reps of one workload, reduced to its metrics."""
    reps: List[Dict[str, Any]] = []
    durations: List[float] = []
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    min_reps = MIN_REPS_TRACED if trace else MIN_REPS
    while True:
        rep_started = time.monotonic()
        reps.append(run_child(workload, seed, False, smoke, work_dir,
                              deadline - rep_started))
        durations.append(time.monotonic() - rep_started)
        if smoke:
            break
        now = time.monotonic()
        next_cost = max(durations) * (1.0 + (TRACE_COST if trace else 0.0))
        if now + next_cost > deadline:
            break
        if len(reps) >= min_reps and now - started + next_cost > seconds:
            break
    traced = None
    if trace:
        traced = run_child(workload, seed, True, smoke, work_dir,
                           deadline - time.monotonic())
    return reduce_reps(workload, seed, reps, traced)


def reduce_reps(workload: str, seed: int, reps: List[Dict[str, Any]],
                traced: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The report for one workload: metrics, checks and the raw reps.
    ``traced`` is the traced rep's output, or None when not tracing."""
    everything = reps + ([traced] if traced is not None else [])
    failed = failed_reps(everything)
    good = [r for r in reps if r.get("ok")]
    report: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "attempted": len(everything),
        "failed": len(failed),
        "ops_failed": len(failed) / len(everything),
        "errors": [everything[i].get("error") or "; ".join(everything[i]["failures"])
                   or "simulated-result digest differs from the first rep"
                   for i in failed],
        "warnings": [],
        "end_to_end": {},
        "host": {},
        "per_layer": {},
        "reps": [{k: v for k, v in r.items() if k != "layers"} for r in everything],
    }
    if not good:
        return report
    samples = {name: [r[name] for r in good] for name in
               ("setup_s", "wall_s", "raw_setup_s", "raw_wall_s", "probe_s")}
    samples["pkts_per_s"] = [r["pkts"] / r["wall_s"] for r in good]
    samples["raw_pkts_per_s"] = [r["pkts"] / r["raw_wall_s"] for r in good]
    samples["peak_rss_mb"] = [r["rss_mb"] for r in good]
    for group, declared in (("end_to_end", END_TO_END), ("host", HOST)):
        for name, unit, better in declared:
            stats = quartiles(samples[name])
            report[group][name] = {"value": stats["median"], "unit": unit,
                                   "better": better, **stats}
    if traced is None:
        return report
    if not traced.get("ok"):
        report["warnings"].append("traced rep failed: no per-layer metrics")
        return report
    report["per_layer"] = per_layer(good, traced, report["warnings"])
    return report


def per_layer(good: List[Dict[str, Any]], traced: Dict[str, Any],
              warnings: List[str]) -> Dict[str, Dict[str, Any]]:
    first = good[0]
    layers = traced["layers"]
    attributed = sum(v["self_s"] for v in layers.values())
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layers[layer]["self_s"]
        values[f"{layer}.share"] = layers[layer]["self_s"] / attributed if attributed else 0.0
        values[f"{layer}.calls"] = layers[layer]["calls"]
    pkts = first["pkts"] or 1
    values["sim.events_per_pkt"] = first["events"] / pkts
    values["cpu.items_per_pkt"] = first.get("items", 0) / pkts
    for key, value in first["model"].items():
        values[f"model.{key}"] = value
    # harness numbers exist only for the sweep; the scenario workloads
    # never enter the runner, so theirs read 0
    sweeps = [r for r in good if "harness" in r]
    values["runner.harness_share"] = statistics.median(
        1.0 - r["harness"]["cell_wall_s"] / (r["harness"]["jobs"] * r["raw_wall_s"])
        for r in sweeps) if sweeps else 0.0
    values["runner.cache_hits"] = sweeps[0]["harness"]["cache_hits"] if sweeps else 0
    values["runner.retries"] = sum(r["harness"]["retries"] for r in sweeps)
    values["runner.cached_sweep_s"] = statistics.median(
        r["harness"]["cached_sweep_s"] for r in sweeps) if sweeps else 0.0
    values["trace.overhead"] = traced["region_s"] / statistics.median(
        r["region_s"] for r in good)
    values["trace.coverage"] = attributed / traced["region_s"]

    if abs(values["trace.coverage"] - 1.0) > COVERAGE_TOL:
        warnings.append(f"layer self times sum to {values['trace.coverage']:.1%} "
                        f"of the traced wall (want within {COVERAGE_TOL:.0%})")
    if values["ext.share"] > EXT_SHARE_MAX:
        warnings.append(f"ext.share is {values['ext.share']:.1%} "
                        f"(want at most {EXT_SHARE_MAX:.0%})")
    return {name: {"value": values[name], "unit": unit, "better": better}
            for name, unit, better in PER_LAYER}


def format_report(report: Dict[str, Any]) -> str:
    lines = [f"== {report['workload']}  seed {report['seed']}  "
             f"failed {report['failed']}/{report['attempted']} reps =="]
    for group, title in (("end_to_end", "end to end (host-normalised)"),
                         ("host", "raw host timings (no bound)")):
        if not report[group]:
            continue
        lines.append(f"  {title:<30} {'unit':<13} {'median':>12} "
                     f"{'q1':>12} {'q3':>12} {'n':>3}")
        for name, m in report[group].items():
            lines.append(f"  {name:<30} {m['unit']:<13} {m['median']:>12.6g} "
                         f"{m['q1']:>12.6g} {m['q3']:>12.6g} {m['n']:>3}")
    if report["per_layer"]:
        lines.append(f"  {'per layer (traced rep)':<30} {'unit':<13} {'value':>12}")
        for name, m in report["per_layer"].items():
            lines.append(f"  {name:<30} {m['unit']:<13} {m['value']:>12.6g}")
    lines += [f"  warning: {w}" for w in report["warnings"]]
    lines += [f"  failed rep: {e}" for e in report["errors"]]
    return "\n".join(lines)


def result_line(reports: List[Dict[str, Any]], groups: Sequence[str]) -> Dict[str, Any]:
    """The result line printed last; metric names get a ``<workload>:`` prefix
    when the run covered more than one workload."""
    metrics = {}
    for report in reports:
        prefix = f"{report['workload']}:" if len(reports) > 1 else ""
        for group in groups:
            for name, m in report[group].items():
                metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the MFLOW simulator (see README.md).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, in README order)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time spent on untraced reps of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer metrics "
                             "only; default: both")
    parser.add_argument("--smoke", action="store_true",
                        help="0.2 ms windows and one rep per workload")
    parser.add_argument("--out", type=Path, default=HERE / ".work" / "report.json",
                        help="where to write the full JSON report")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    trace = args.trace != 0
    groups = {0: ("end_to_end",), 1: ("per_layer",), None: ("end_to_end", "per_layer")}
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    # compile once up front, so no rep pays for byte-compiling the sources
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    work_dir = HERE / ".work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    try:
        for workload in workloads:
            report = measure(workload, args.seed, args.seconds, trace, args.smoke, work_dir)
            print(format_report(report), flush=True)
            reports.append(report)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "workloads": {r["workload"]: r for r in reports},
    }, indent=1) + "\n")
    if any(not r["end_to_end"] for r in reports):
        print("bench: a workload produced no successful rep", file=sys.stderr)
        return 1
    print(json.dumps(result_line(reports, groups[args.trace])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
