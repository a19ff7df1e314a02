"""Run the benchmark as its acceptance check does, and record the result.

Two sets of runs, one after the other.  Each set runs ``bench.py --trace
0`` once per workload for each of seeds 1-10, at ``run_seconds`` from
``BENCHMARK.json``, plus one ``--trace 1`` run per workload.  For every
end-to-end metric the script reports each set's median and its quartile
spread (``(q3 - q1) / median``, quartiles as
``statistics.quantiles(n=4)`` gives them), and how far the second set's
median moved from the first's, each against the bound ``BENCHMARK.json``
fixes.  The ``model.*`` values of the traced runs must be identical
across sets.

    python3 benchmarks/e2e/agreement.py --sha "$(git rev-parse --short HEAD)" \\
        --out benchmarks/e2e/results/"$(git rev-parse --short HEAD)".json

The file it writes is one point of the benchmark's trajectory.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import HERE, quartiles

ROOT = HERE.parents[1]
SETS = 2
SEEDS = list(range(1, 11))


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    """One ``bench.py`` invocation, with the arguments BENCHMARK.json's
    ``command`` is run with."""
    report_path = HERE / ".work" / "agreement-last.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--out", str(report_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        raise SystemExit(f"bench.py {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # the raw host timings are in the report only: they carry no bound
    host = json.loads(report_path.read_text())["workloads"][workload]["host"]
    return {"seed": seed, "trace": trace, "elapsed_s": elapsed, **result,
            "host": {name: m["value"] for name, m in host.items()}}


def spread(values: List[float]) -> Dict[str, float]:
    stats = quartiles(values)
    return {**stats, "spread": (stats["q3"] - stats["q1"]) / stats["median"]}


def run_set(workloads: List[str], seeds: List[int], seconds: int) -> Dict[str, Any]:
    runs: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            run = bench_run(workload, seed, seconds, 0)
            runs[workload].append(run)
            print(f"  {workload:<18} seed {seed:>2}  {run['elapsed_s']:5.1f}s  " + "  ".join(
                f"{k}={m['value']:.5g}" for k, m in run["metrics"].items()), flush=True)
    traced = {}
    for workload in workloads:
        traced[workload] = bench_run(workload, seeds[0], seconds, 1)
        print(f"  {workload:<18} traced  {traced[workload]['elapsed_s']:5.1f}s", flush=True)
    return {"runs": runs, "traced": traced}


def summarize(sets: List[Dict[str, Any]], bench: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for workload in sets[0]["runs"]:
        rows = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [spread([r["metrics"][name]["value"] for r in s["runs"][workload]])
                       for s in sets]
            first, second = per_set[0]["median"], per_set[-1]["median"]
            worse = (second / first - 1.0) if metric["better"] == "lower" \
                else (first / second - 1.0)
            rows[name] = {
                "bound": bound,
                "sets": per_set,
                "second_worse_by": worse,
                "agree": worse <= bound,
                "within_bound": all(s["spread"] <= bound for s in per_set),
                "steady": all(s["spread"] <= bound / 3 for s in per_set),
            }
        host = {name: [spread([r["host"][name] for r in s["runs"][workload]]) for s in sets]
                for name in sets[0]["runs"][workload][0]["host"]}
        models = [{k: m["value"] for k, m in s["traced"][workload]["metrics"].items()
                   if k.startswith("model.")} for s in sets]
        out[workload] = {
            "end_to_end": rows,
            "host": host,
            "model_identical": all(m == models[0] for m in models),
            "failed": sum(r["failed"] for s in sets for r in s["runs"][workload]),
        }
    return out


def main(argv: Optional[List[str]] = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sha", default=None, help="commit the runs measure")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sets = []
    for i in range(SETS):
        print(f"set {i + 1}/{SETS}", flush=True)
        sets.append(run_set(workloads, SEEDS, seconds))
    summary = summarize(sets, bench)
    payload = {
        "kind": "e2e-bench-agreement",
        "sha": args.sha,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "benchmark": bench,
        "seconds": seconds,
        "seeds": SEEDS,
        "summary": summary,
        "sets": sets,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    for workload, data in summary.items():
        print(f"{workload}  model identical: {data['model_identical']}  failed: {data['failed']}")
        for name, row in data["end_to_end"].items():
            spreads = " ".join(f"{s['median']:.5g} (spread {s['spread']:.1%})" for s in row["sets"])
            verdict = ("unresolved: spread over bound" if not row["within_bound"]
                       else "agree" if row["agree"] else "DISAGREE")
            print(f"  {name:<16} {spreads}  second set worse by "
                  f"{row['second_worse_by']:+.1%} (bound {row['bound']:.0%})  {verdict}")
        for name, per_set in data["host"].items():
            spreads = " ".join(f"{s['median']:.5g} (spread {s['spread']:.1%})" for s in per_set)
            print(f"  {name:<16} {spreads}  (host, no bound)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
