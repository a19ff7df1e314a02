"""One repetition of one benchmark workload, in a fresh process.

``bench.py`` starts this script once per rep and reads the single JSON
line it prints.  A fresh process per rep makes ``setup_s`` (interpreter
start, imports, scenario or engine construction) and ``peak_rss_mb``
real per-rep samples.  The script calls only the simulator's public
entry points: ``build_scenario`` / ``build_multiflow_scenario`` +
``Scenario.run`` for the scenario workloads, and
``fig7_batch_size.specs`` + ``RunEngine.run`` + ``reduce`` for the sweep.

    python3 benchmarks/e2e/rep.py --workload tcp64k_mflow --seed 1 \\
        --work-dir benchmarks/e2e/.work \\
        --t0 "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import heapq
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: What each workload runs.  Scenario workloads use the converged 2 + 8 ms
#: windows: the quick bench windows (0.5 + 1.5 ms) still measure the
#: warmup transient.  The sweep keeps fig7's own quick windows, because it
#: is there to measure the harness around the cells.
STEADY_WINDOWS = {"warmup_ns": 2e6, "measure_ns": 8e6}
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "tcp64k_mflow": {"kind": "sockperf", "system": "mflow", "proto": "tcp", "size": 65536,
                     "windows": STEADY_WINDOWS},
    "tcp4k_x8_vanilla": {"kind": "multiflow", "system": "vanilla", "n_flows": 8, "size": 4096,
                         "windows": STEADY_WINDOWS},
    "udp64k_mflow": {"kind": "sockperf", "system": "mflow", "proto": "udp", "size": 65536,
                     "windows": STEADY_WINDOWS},
    "fig7_sweep": {"kind": "sweep", "jobs": 2, "warm_reruns": 10, "windows": None},
}

#: --smoke: every workload at 0.2 ms windows, two warm re-runs
SMOKE_WINDOWS = {"warmup_ns": 2e5, "measure_ns": 2e5}
SMOKE_WARM_RERUNS = 2

#: Each vCPU of a shared host flips between about 1x and 2x speed every
#: fraction of a second to few seconds, on its own, so a rep samples the
#: speed the whole time it runs: every PROBE_INTERVAL_S it times
#: PROBE_ITERATIONS of a fixed kernel (about 3% of the rep's time).  Its
#: timings are then scaled to a host that runs those iterations in
#: PROBE_REF_S, the calm speed of the 2-vCPU VM the trajectory in
#: results/ was measured on.  A slow phase slows the kernel more than the
#: simulator: there, over 80 runs of every workload, the log of a run's
#: raw wall time rose with the log of its mean sample time at a slope of
#: 0.74-0.80 (correlation 0.99), so the scale is raised to
#: PROBE_EXPONENT.
PROBE_ITERATIONS = 1500
PROBE_INTERVAL_S = 0.02
PROBE_REF_S = 0.00055
PROBE_EXPONENT = 0.77


def _kernel(n: int) -> int:
    """Pure-Python work shaped like the simulator's (dict updates, heap
    pushes and pops, integer arithmetic).  The kernel belongs to the
    benchmark, so a change to the simulator cannot move it, and it keeps
    no object alive, so a larger simulator heap cannot slow it."""
    heap: List[int] = []
    counts: Dict[int, int] = {}
    for i in range(n):
        key = i * 7 % 13
        counts[key] = counts.get(key, 0) + i
        heapq.heappush(heap, key * n + i)
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(counts)


class SpeedProbe:
    """Samples the host's speed while a rep runs, from a SIGALRM handler.

    Each sample times the kernel on one of ``cpus``, in turn, so the sweep
    (whose workers run on every CPU) sees each CPU's speed; a scenario rep
    is pinned to one CPU and samples that one.  ``seconds`` turns an
    interval of the rep into seconds of work at the reference speed.
    """

    def __init__(self, cpus: List[int]) -> None:
        self.cpus = cpus
        self.samples: List[Tuple[float, float, int]] = []  # (start, duration, cpu)
        self._busy = False

    def _sample(self, *_signal: Any) -> None:
        if self._busy:  # a late tick must not land inside a sample
            return
        self._busy = True
        cpu = self.cpus[len(self.samples) % len(self.cpus)]
        mask = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {cpu})
            started = time.monotonic()
            _kernel(PROBE_ITERATIONS)
            self.samples.append((started, time.monotonic() - started, cpu))
        finally:
            # restored before the engine can fork a worker with the wrong mask
            os.sched_setaffinity(0, mask)
            self._busy = False

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def seconds(self, start: float, end: float, serial: bool = False) -> Tuple[float, float]:
        """``(normalised, raw)`` seconds of work in ``[start, end]``.

        The probes' own time is left out of both.  Each stretch between
        two samples is scaled by ``PROBE_REF_S`` over the mean of the
        latest sample on each CPU, the CPUs the sweep's workers share,
        raised to ``PROBE_EXPONENT``;
        before a CPU's first sample, its first one stands in.  With
        ``serial`` the stretch is scaled by the latest sample alone: one
        thread of work runs on the CPU a sample last pinned it to.
        """
        latest: Dict[int, float] = {}
        for _, duration, cpu in self.samples:
            latest.setdefault(cpu, duration)
        last = self.samples[0][1]
        normalised = raw = 0.0
        cursor = start
        for at, duration, cpu in self.samples + [(end, 0.0, -1)]:
            stretch = min(at, end) - cursor
            if stretch > 0:
                raw += stretch
                speed = last if serial else statistics.fmean(latest.values())
                normalised += stretch * (PROBE_REF_S / speed) ** PROBE_EXPONENT
            if cpu >= 0:
                latest[cpu] = last = duration
            cursor = max(cursor, at + duration)
        return normalised, raw


def digest(payload: Any) -> str:
    """Stable hash of a JSON-able simulated result."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def _timed(fn: Callable[[], Any], trace: bool) -> Tuple[Any, Tuple[float, float], Optional[dict]]:
    """Run ``fn`` once; returns its result, its ``(start, end)`` on the
    monotonic clock and, when ``trace`` is set, the per-layer rollup of a
    cProfile of the call."""
    profiler = None
    if trace:
        import cProfile

        profiler = cProfile.Profile()
    started = time.monotonic()
    if profiler is not None:
        profiler.enable()
    try:
        result = fn()
    finally:
        if profiler is not None:
            profiler.disable()
    ended = time.monotonic()
    layers = None
    if profiler is not None:
        import pstats

        import repro
        from layers import rollup

        layers = rollup(pstats.Stats(profiler).stats, os.path.dirname(repro.__file__))
    return result, (started, ended), layers


def _timings(probe: Optional[SpeedProbe], t0: float, setup_end: float,
             unit: Tuple[float, float], region: Tuple[float, float]) -> Dict[str, float]:
    """Set-up and timed-unit seconds, host-normalised and raw, and the raw
    seconds of the whole profiled region.  A traced rep runs no probe, so
    it reports only the region."""
    if probe is None:
        return {"region_s": region[1] - region[0]}
    setup_s, raw_setup_s = probe.seconds(t0, setup_end, serial=True)
    wall_s, raw_wall_s = probe.seconds(*unit)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": raw_wall_s,
        "region_s": probe.seconds(*region)[1],
        "probe_s": statistics.fmean(duration for _, duration, _ in probe.samples),
    }


def _model(measurements: List[Dict[str, Any]]) -> Dict[str, float]:
    """Deterministic simulated outputs: identical for any host-side change."""
    def total(name: str) -> int:
        return sum(m["counters"].get(name, 0) for m in measurements)

    return {
        "gbps": statistics.fmean(m["throughput_gbps"] for m in measurements),
        "p99_us": max(m["latency"]["p99_us"] for m in measurements),
        "rx_pkts": total("nic_rx_packets"),
        "handoffs": total("handoffs"),
        "ooo_microflows": total("mflow_ooo_microflows"),
    }


def _result_checks(measurements: List[Dict[str, Any]], link_gbps: float) -> List[str]:
    failures = []
    for i, m in enumerate(measurements):
        if m["messages_delivered"] <= 0:
            failures.append(f"cell {i}: no messages delivered")
        if not 0.0 < m["throughput_gbps"] <= link_gbps:
            failures.append(f"cell {i}: {m['throughput_gbps']} Gbps outside (0, {link_gbps}]")
    return failures


def scenario_rep(spec: Dict[str, Any], seed: int, windows: Dict[str, float],
                 t0: float, trace: bool, probe: Optional[SpeedProbe]) -> Dict[str, Any]:
    if spec["kind"] == "sockperf":
        from repro.workloads.sockperf import build_scenario

        sc = build_scenario(spec["system"], spec["proto"], spec["size"], seed=seed)
    else:
        from repro.workloads.multiflow import build_multiflow_scenario

        sc = build_multiflow_scenario(spec["system"], spec["n_flows"], spec["size"], seed=seed)
    setup_end = time.monotonic()
    res, unit, layers = _timed(lambda: sc.run(**windows), trace)
    # the digest covers what the simulation produced, nothing host-side
    measured = {
        "events_executed": res.events_executed,
        "counters": res.counters,
        "drops": res.drops,
        "throughput_gbps": res.throughput_gbps,
        "latency": res.latency.to_dict(),
        "hist": res.hist,
        "messages_delivered": res.messages_delivered,
    }
    return {
        **_timings(probe, t0, setup_end, unit, unit),
        "pkts": res.counters.get("nic_rx_packets", 0),
        "events": res.events_executed,
        "items": sum(core.items_executed for core in sc.cpus),
        "digest": digest(measured),
        "failures": _result_checks([measured], sc.costs.link_gbps),
        "model": _model([measured]),
        "layers": layers,
    }


def sweep_rep(spec: Dict[str, Any], seed: int, windows: Optional[Dict[str, float]],
              t0: float, trace: bool, probe: Optional[SpeedProbe], warm_reruns: int,
              work_dir: Path) -> Dict[str, Any]:
    from repro.experiments import fig7_batch_size as fig7
    from repro.netstack.costs import DEFAULT_COSTS
    from repro.runner import RunEngine

    specs = fig7.specs(quick=True)
    if windows is not None:
        specs = [s.with_windows(**windows) for s in specs]
    # One profile has to see every layer, so the traced sweep runs its
    # cells in this process; the untraced reps use the process pool.
    jobs = 1 if trace else spec["jobs"]
    results_dir = tempfile.mkdtemp(prefix="fig7-", dir=work_dir)
    try:
        engine = RunEngine(jobs=jobs, global_seed=seed, results_dir=results_dir, strict=False)
        setup_end = time.monotonic()

        def sweep():
            started = time.monotonic()
            cold = engine.run(fig7.EXPERIMENT, specs)
            unit = (started, time.monotonic())
            quarantined = len(engine.quarantined)
            rows = len(fig7.reduce(cold).summary.rows) if not quarantined else 0
            warm, warm_spans = [], []
            for _ in range(warm_reruns):
                started = time.monotonic()
                warm.append(engine.run(fig7.EXPERIMENT, specs))
                warm_spans.append((started, time.monotonic()))
            return cold, unit, quarantined, rows, warm, warm_spans

        (cold, unit, quarantined, rows, warm, warm_spans), region, layers = _timed(sweep, trace)
    finally:
        shutil.rmtree(results_dir, ignore_errors=True)

    failures = []
    if quarantined:
        failures.append(f"{quarantined} quarantined cell(s)")
    measurements = [r.measurements for r in cold if r.ok]
    failures += _result_checks(measurements, DEFAULT_COSTS.link_gbps)
    if not quarantined and rows != len(specs):
        failures.append(f"reduce produced {rows} rows for {len(specs)} cells")
    cold_digest = digest(measurements)
    for i, records in enumerate(warm):
        if not all(r.cached for r in records):
            failures.append(f"warm re-run {i}: not every cell came from the cache")
        if digest([r.measurements for r in records if r.ok]) != cold_digest:
            failures.append(f"warm re-run {i}: cached records differ from the cold ones")
    # a warm re-run only reads the cache, in this one process
    warm_s = [probe.seconds(*span, serial=True)[0] if probe else span[1] - span[0]
              for span in warm_spans]
    return {
        **_timings(probe, t0, setup_end, unit, region),
        "pkts": sum(m["counters"].get("nic_rx_packets", 0) for m in measurements),
        "events": sum(m["events_executed"] for m in measurements),
        "digest": cold_digest,
        "failures": failures,
        "model": _model(measurements) if measurements else {},
        "harness": {
            "jobs": jobs,
            "cell_wall_s": sum(r.wall_time_s for r in cold),
            "retries": sum(len(r.retries) for r in cold),
            "cache_hits": sum(r.cached for records in warm for r in records),
            "cached_sweep_s": statistics.median(warm_s) if warm_s else 0.0,
        },
        "layers": layers,
    }


def run_rep(workload: str, seed: int, t0: float, trace: bool, smoke: bool,
            work_dir: Path) -> Dict[str, Any]:
    spec = WORKLOADS[workload]
    windows = SMOKE_WINDOWS if smoke else spec["windows"]
    cpus = sorted(os.sched_getaffinity(0))
    if spec["kind"] != "sweep":
        # a scenario runs on one CPU; pinned, the probe samples that one
        cpus = cpus[:1]
        os.sched_setaffinity(0, cpus)
    # the traced rep runs no probe: its samples would show in the profile
    probe = None if trace else SpeedProbe(cpus)
    with probe or contextlib.nullcontext():
        if spec["kind"] == "sweep":
            reruns = SMOKE_WARM_RERUNS if smoke else spec["warm_reruns"]
            return sweep_rep(spec, seed, windows, t0, trace, probe, reruns, work_dir)
        return scenario_rep(spec, seed, windows, t0, trace, probe)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() in the parent just before it started this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work-dir", type=Path, required=True,
                        help="where the sweep may create its temporary results dir")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    args.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        out = run_rep(args.workload, args.seed, args.t0, bool(args.trace), args.smoke,
                      args.work_dir)
        out["ok"] = True
    except Exception:
        out = {"ok": False, "error": traceback.format_exc(limit=8)}
    out["rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
