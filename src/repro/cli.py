"""Command-line interface.

::

    python -m repro throughput --system mflow --proto tcp --size 65536
    python -m repro latency    --system vanilla --proto udp
    python -m repro multiflow  --system falcon --flows 10
    python -m repro memcached  --system mflow --clients 10
    python -m repro compare    --proto tcp --size 65536
    python -m repro trace      --system mflow --perfetto out.json --decompose
    python -m repro migrate    --system mflow --plan default
    python -m repro faults     show loss-burst
    python -m repro ceilings   --proto udp
    python -m repro prof       --system mflow --top 15
    python -m repro fidelity   --quick
    python -m repro resume     results/
    python -m repro fsck       results/ --evict
    python -m repro top        results/fig8 --once --json
    python -m repro metrics    results/fig8 --out sweep.prom
    python -m repro report     results/ --out report.html
    python -m repro diff       results/fig8-main results/fig8-branch

Every subcommand prints a small table; ``compare`` adds an ASCII bar
chart; ``trace`` runs one instrumented scenario and exports flight-
recorder artifacts (Perfetto trace, interval CSV, latency decomposition);
``ceilings`` prints the closed-form bottleneck model's analytic upper
bounds (no simulation).  The last two are the performance observatory
(:mod:`repro.perf`): ``prof`` runs one scenario under :mod:`cProfile`,
``fidelity`` runs the figure modules and scores their headline numbers
against the paper within tolerance bands.  The simulator's host-time
benchmark is ``benchmarks/e2e/`` (docs/BENCHMARKS.md).  ``resume``
finishes an interrupted sweep from its ``sweep.json`` + result cache +
simulator checkpoints; ``fsck`` audits a results tree, classifying
artifacts as ok, salvageable, or corrupt (:mod:`repro.resilience`).
``top``, ``metrics`` and ``report`` are the sweep-telemetry readers
(:mod:`repro.obs.live`): a live journal-tailing status view, an
OpenMetrics exporter, and a self-contained HTML/markdown run report.
``diff`` compares the exact stage histograms of two runs or sweeps and
prints a ranked regression attribution (:mod:`repro.obs.diff`), exiting
1 when a significant latency regression survives the CI-overlap test;
given two benchmark trajectory points (``BENCH_<sha>.json``) it lists
their end-to-end medians and per-layer accounting instead
(:mod:`repro.perf.trajectory`), exiting 1 when a median is past its
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis.bottleneck import BottleneckModel
from repro.analysis.charts import bar_chart
from repro.faults.plan import PLANS
from repro.migration.plan import PLANS as MIGRATION_PLANS
from repro.netstack.costs import DEFAULT_COSTS
from repro.obs.config import ObsConfig
from repro.sim.units import MSEC
from repro.workloads.memcached import run_memcached
from repro.workloads.options import RunOptions
from repro.workloads.multiflow import run_multiflow, utilization_stddev
from repro.workloads.sockperf import ALL_SYSTEMS, SYSTEMS, run_single_flow


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--warmup-ms", type=float, default=2.0)
    p.add_argument("--measure-ms", type=float, default=8.0)


def _add_fault_plan(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--fault-plan", choices=sorted(PLANS), default=None, metavar="NAME",
        help="named fault-injection plan (see `repro faults list`)",
    )


def _add_migration_plan(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--migration-plan", choices=sorted(MIGRATION_PLANS), default=None,
        metavar="NAME", dest="migration_plan",
        help="named live-migration plan (see `repro migrate --list`)",
    )


def _options(
    fault_plan: Optional[str] = None,
    migration_plan: Optional[str] = None,
    obs: Optional[ObsConfig] = None,
) -> RunOptions:
    """A run's options from the plan names given on the command line."""
    return RunOptions(
        faults=PLANS[fault_plan] if fault_plan else None,
        obs=obs,
        migration=MIGRATION_PLANS[migration_plan] if migration_plan else None,
    )


def _windows(args) -> dict:
    return {
        "warmup_ns": args.warmup_ms * MSEC,
        "measure_ns": args.measure_ms * MSEC,
    }


def _format_degradation(events) -> List[str]:
    """Human-readable lines for mflow_degraded / mflow_readmitted events."""
    lines = []
    for e in events:
        t_ms = e.get("t_ns", 0.0) / 1e6
        if e.get("event") == "mflow_degraded":
            lines.append(
                f"  {t_ms:8.3f} ms  DEGRADE  {e.get('flow', '?')}  "
                f"reason={e.get('reason', '?')} "
                f"merge_skips={e.get('merge_skips', 0)} parked={e.get('parked', 0)}"
            )
        else:
            lines.append(f"  {t_ms:8.3f} ms  READMIT  {e.get('flow', '?')}")
    return lines


def _print_fault_report(res, indent: str = "  ") -> None:
    """The run's fault ledger + degradation timeline, human-readably."""
    if res.fault_counters:
        width = max(len(k) for k in res.fault_counters)
        print(f"{indent}fault ledger:")
        for name in sorted(res.fault_counters):
            print(f"{indent}  {name:<{width}}  {res.fault_counters[name]}")
    else:
        print(f"{indent}fault ledger: (no faults fired in the window)")
    if res.degradation_events:
        print(f"{indent}degradation timeline ({len(res.degradation_events)} events):")
        for line in _format_degradation(res.degradation_events):
            print(indent + line)
    print(
        f"{indent}conservation: {res.conservation_checks} checks, "
        f"{res.conservation_violations} violations"
    )


def cmd_throughput(args) -> int:
    res = run_single_flow(
        args.system, args.proto, args.size, seed=args.seed,
        batch_size=args.batch, n_split_cores=args.split_cores,
        options=_options(args.fault_plan, args.migration_plan),
        **_windows(args),
    )
    if args.json:
        from repro.runner import scenario_result_to_dict

        out = scenario_result_to_dict(res)
        out.update(system=args.system, proto=args.proto, size=args.size)
        print(json.dumps(out, indent=1))
        return 0
    print(f"{args.system} {args.proto} {args.size}B: {res.throughput_gbps:.2f} Gbps")
    print(f"  messages: {res.messages_delivered}   latency: {res.latency}")
    print("  core utilization: " + " ".join(f"{u * 100:.0f}%" for u in res.cpu_utilization))
    if res.drops:
        print(f"  drops: {res.drops}")
    if res.fault_plan:
        print(f"  fault plan: {res.fault_plan}")
        _print_fault_report(res)
    if res.migration:
        print(f"  migration plan: {res.migration['plan']['name']}")
        _print_migration_report(res.migration)
    return 0


def _print_migration_report(mig: dict, indent: str = "  ") -> None:
    """The cutover timeline + robustness ledger, human-readably."""
    timeline = [
        ("drain", mig.get("drain_start_ns")),
        ("freeze", mig.get("freeze_ns")),
        ("restore", mig.get("restore_ns")),
    ]
    marks = "  ".join(
        f"{name}@{t / 1e6:.3f}ms" for name, t in timeline if t is not None
    )
    print(f"{indent}timeline: {marks or '(cutover never fired)'}")
    print(
        f"{indent}blackout: {mig.get('blackout_ns', 0.0) / 1e3:.0f} us "
        f"(snapshot {mig.get('snapshot_bytes', 0)} B, "
        f"digest {mig.get('snapshot_digest', '')[:12] or '-'})"
    )
    print(
        f"{indent}packets: buffered={mig.get('packets_buffered', 0)} "
        f"dropped={mig.get('packets_dropped', 0)} "
        f"replayed={mig.get('packets_replayed', 0)} "
        f"gro_flushed={mig.get('gro_flushed_at_freeze', 0)}"
    )
    print(
        f"{indent}flows: repointed={mig.get('flows_repointed', 0)} "
        f"rerouted={mig.get('flows_rerouted', 0)} "
        f"tcp_retx={mig.get('tcp_retransmit_segments', 0)} "
        f"merge_stalls={mig.get('merge_skips_after_drain', 0)}"
    )
    recovery = mig.get("recovery_ns") or {}
    if recovery:
        worst = max(recovery.values())
        print(
            f"{indent}recovery: {len(recovery)} flows, "
            f"slowest {worst / 1e3:.0f} us after restore"
        )
    drops = mig.get("connection_drops", 0)
    verdict = "ride-through OK" if drops == 0 else "CONNECTIONS LOST"
    print(f"{indent}connection drops: {drops}  ({verdict})")
    if mig.get("unrecovered_flows"):
        print(f"{indent}unrecovered: {', '.join(mig['unrecovered_flows'])}")


def cmd_migrate(args) -> int:
    """One live-migration cutover for one system, with the full ledger."""
    if args.list:
        width = max(len(name) for name in MIGRATION_PLANS)
        for name in sorted(MIGRATION_PLANS):
            print(f"{name:<{width}}  {MIGRATION_PLANS[name].describe()}")
        return 0
    status_line = None
    if sys.stderr.isatty() and not args.json:
        from repro.obs.live.status import StatusLine

        status_line = StatusLine("migrate")
        status_line.update(
            f"{args.system} {args.proto} {args.size}B plan={args.plan}: simulating cutover…"
        )
    res = run_single_flow(
        args.system, args.proto, args.size, seed=args.seed,
        options=_options(args.fault_plan, args.plan), **_windows(args),
    )
    if status_line is not None:
        status_line.done(
            f"{args.system} {args.proto} {args.size}B plan={args.plan}: "
            f"{res.messages_delivered} msgs simulated"
        )
    if args.json:
        from repro.runner import scenario_result_to_dict

        out = scenario_result_to_dict(res)
        out.update(system=args.system, proto=args.proto, size=args.size)
        print(json.dumps(out, indent=1))
        return 0
    print(
        f"{args.system} {args.proto} {args.size}B under plan {args.plan!r}: "
        f"{res.throughput_gbps:.2f} Gbps, {res.messages_delivered} msgs"
    )
    if res.migration is None:
        print("  (plan is inert: no cutover was scheduled)")
        return 0
    _print_migration_report(res.migration)
    if res.fault_plan:
        print(f"  fault plan: {res.fault_plan}")
        _print_fault_report(res)
    return 1 if res.migration.get("connection_drops", 0) else 0


def cmd_latency(args) -> int:
    from repro.experiments import fig9_latency

    res = fig9_latency.run_cell(args.system, args.proto, args.size, quick=False)
    print(
        f"{args.system} {args.proto} {args.size}B under ~max pre-drop load: "
        f"p50={res.latency.p50_us:.1f}us p99={res.latency.p99_us:.1f}us "
        f"at {res.throughput_gbps:.2f} Gbps"
    )
    return 0


def cmd_multiflow(args) -> int:
    res = run_multiflow(
        args.system, args.flows, args.size, seed=args.seed,
        options=_options(args.fault_plan), **_windows(args)
    )
    print(
        f"{args.system} x{args.flows} flows ({args.size}B): "
        f"{res.throughput_gbps:.2f} Gbps aggregate, "
        f"kernel util std {utilization_stddev(res):.1f}%"
    )
    return 0


def cmd_memcached(args) -> int:
    res = run_memcached(args.system, args.clients, seed=args.seed)
    print(
        f"{args.system} memcached x{args.clients} clients: "
        f"{res.requests_per_sec / 1e3:.1f} krps, "
        f"avg {res.latency.mean_us:.1f}us, p99 {res.latency.p99_us:.1f}us"
    )
    return 0


def cmd_compare(args) -> int:
    from repro.runner import RunEngine, RunSpec

    params = {"proto": args.proto, "size": args.size}
    if args.fault_plan:
        params["faults"] = PLANS[args.fault_plan].to_dict()
    specs = [
        RunSpec.make(
            "sockperf",
            {"system": system, **params},
            seed=args.seed,
            tags=("compare", system, args.proto, str(args.size)),
            **_windows(args),
        )
        for system in SYSTEMS
    ]
    engine = RunEngine(
        jobs=args.jobs,
        results_dir=args.results_dir,
        use_cache=not args.no_cache,
    )
    records = engine.run("compare", specs)
    if args.json:
        print(json.dumps([r.to_json_dict() for r in records], indent=1))
        return 0
    results = {r.params["system"]: r.scenario_result() for r in records}
    data = {system: res.throughput_gbps for system, res in results.items()}
    print(bar_chart(data, unit=" Gbps", title=f"{args.proto} {args.size}B single flow"))
    if args.fault_plan:
        print(f"\nfault plan: {args.fault_plan}")
        for system, res in results.items():
            print(f"{system}:")
            _print_fault_report(res)
    return 0


def cmd_trace(args) -> int:
    """One instrumented run + flight-recorder artifact export."""
    from repro.obs import decompose, write_trace
    from repro.workloads.sockperf import build_scenario

    sc = build_scenario(
        args.system, args.proto, args.size, seed=args.seed,
        batch_size=args.batch, n_split_cores=args.split_cores,
        n_receiver_cores=args.cores,
        options=_options(args.fault_plan, obs=ObsConfig(
            interval_ns=args.interval_us * 1e3, capacity=args.capacity,
        )),
    )
    res = sc.run(**_windows(args))
    if args.json:
        from repro.runner import scenario_result_to_dict

        out = scenario_result_to_dict(res)
        out.update(system=args.system, proto=args.proto, size=args.size)
        print(json.dumps(out, indent=1))
        return 0
    rec = sc.recorder
    print(
        f"{args.system} {args.proto} {args.size}B: {res.throughput_gbps:.2f} Gbps, "
        f"{res.messages_delivered} msgs"
    )
    drop_note = (
        "complete"
        if rec.events_dropped == 0
        else f"reservoir-sampled: {rec.events_dropped} dropped"
    )
    print(
        f"  flight recorder: {rec.events_seen} events seen, {rec.events_kept} kept "
        f"({drop_note}), {len(rec.cores())} core tracks"
    )
    perfetto_path, timeseries_path = args.perfetto, args.timeseries
    if perfetto_path is None and timeseries_path is None:
        # no explicit destinations: drop both artifacts under --out-dir
        os.makedirs(args.out_dir, exist_ok=True)
        stem = f"{args.system}_{args.proto}_{args.size}"
        perfetto_path = os.path.join(args.out_dir, f"{stem}.trace.json")
        timeseries_path = os.path.join(args.out_dir, f"{stem}.timeseries.csv")
    if perfetto_path:
        _ensure_parent(perfetto_path)
        write_trace(rec, perfetto_path, label=f"{args.system}/{args.proto}")
        print(f"  perfetto trace -> {perfetto_path}  (open at https://ui.perfetto.dev)")
    if timeseries_path:
        _ensure_parent(timeseries_path)
        n = sc.intervals.write_csv(timeseries_path)
        print(
            f"  time series    -> {timeseries_path}  "
            f"({n} intervals x {len(sc.intervals.columns())} columns)"
        )
    dec = decompose(rec.journeys)
    if args.decompose:
        print()
        print(dec.report())
    else:
        print(
            f"  decomposition: {dec.n_journeys} journeys, "
            f"mean e2e {dec.e2e_mean_us:.2f} us (--decompose for the breakdown)"
        )
    if res.fault_plan:
        print(f"  fault plan: {res.fault_plan}")
        _print_fault_report(res)
    return 0


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def cmd_faults(args) -> int:
    if args.action == "list":
        width = max(len(name) for name in PLANS)
        for name in sorted(PLANS):
            print(f"{name:<{width}}  {PLANS[name].describe()}")
        return 0
    if args.action == "show":
        if not args.plan:
            raise SystemExit("faults show requires a plan name (see `repro faults list`)")
        if args.plan not in PLANS:
            raise SystemExit(
                f"unknown fault plan {args.plan!r}; see `repro faults list`"
            )
        res = run_single_flow(
            args.system, args.proto, args.size, seed=args.seed,
            options=_options(args.plan), **_windows(args),
        )
        print(f"{args.plan}: {PLANS[args.plan].describe()}")
        print(
            f"{args.system} {args.proto} {args.size}B under {args.plan}: "
            f"{res.throughput_gbps:.2f} Gbps, {res.messages_delivered} msgs"
        )
        _print_fault_report(res)
        return 0
    raise SystemExit(f"unknown faults action {args.action!r}")


def cmd_prof(args) -> int:
    """Profile one scenario run under cProfile: where does *wall-clock* time go."""
    import cProfile
    import pstats

    from repro.workloads.sockperf import build_scenario

    sc = build_scenario(args.system, args.proto, args.size, seed=args.seed,
                        batch_size=args.batch, options=_options(args.fault_plan))
    profile = cProfile.Profile()
    res = profile.runcall(sc.run, **_windows(args))
    stats = pstats.Stats(profile)
    wall_s = stats.total_tt
    root = os.path.dirname(os.path.abspath(__file__)) + os.sep
    funcs, packages = [], {}
    for (path, line, name), (_, calls, self_s, _, _) in stats.stats.items():
        rel = path[len(root):] if path.startswith(root) else None
        pkg = rel.split(os.sep, 1)[0].removesuffix(".py") if rel else "ext"
        row = packages.setdefault(pkg, {"package": pkg, "self_s": 0.0, "calls": 0})
        row["self_s"] += self_s
        row["calls"] += calls
        funcs.append({"name": pstats.func_std_string((rel or path, line, name)),
                      "calls": calls, "self_s": self_s})
    rings = sorted((q.ring.stats() for q in sc.nic._queues), key=lambda r: -r["puts"])
    out = {
        "system": args.system, "proto": args.proto, "size": args.size,
        "throughput_gbps": res.throughput_gbps, "events_executed": res.events_executed,
        "wall_s": wall_s, "events_per_sec": res.events_executed / wall_s,
        "cost_centers": sorted(funcs, key=lambda f: -f["self_s"])[:args.top],
        "packages": sorted(packages.values(), key=lambda p: -p["self_s"]),
        "queues": rings[:5],
    }
    if args.json:
        print(json.dumps(out, indent=1))
        return 0
    print(f"{args.system} {args.proto} {args.size}B: {res.throughput_gbps:.2f} Gbps; "
          f"{res.events_executed} events in {wall_s * 1e3:.0f} ms wall under cProfile "
          f"({out['events_per_sec'] / 1e3:.0f}k events/s)")
    for title, rows, key in (("functions", out["cost_centers"], "name"),
                             ("packages", out["packages"], "package")):
        print(f"\ntop {title} by self time:")
        for r in rows:
            print(f"  {r['self_s'] * 1e3:9.2f} ms  {r['calls']:>9} calls  {r[key]}")
    print("\nbusiest NIC rings (puts/gets/drops):")
    for q in out["queues"]:
        print(f"  {q['name']:<24} {q['puts']:>9} / {q['gets']:>9} / {q['drops']}")
    return 0


def cmd_fidelity(args) -> int:
    """Score reproduced headline numbers against the paper's values."""
    from repro.perf.fidelity import run_fidelity

    board = run_fidelity(quick=args.quick, seed=args.seed)
    if args.json_out:
        board.write_json(args.json_out)
    if args.md_out:
        board.write_markdown(args.md_out)
    if args.json:
        print(json.dumps(board.to_json_dict(), indent=1))
    else:
        print(board.report())
    return board.exit_code()


def cmd_resume(args) -> int:
    """Finish an interrupted sweep from sweep.json + cache + checkpoints."""
    from repro.resilience.resume import ResumeError, resume_results

    progress = None
    if sys.stderr.isatty() and not args.json:
        from repro.obs.live.status import SweepProgress

        progress = SweepProgress("resume")
    try:
        report = resume_results(
            args.results_dir, jobs=args.jobs,
            experiments=args.experiments or None, progress=progress,
        )
    except ResumeError as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=1))
    else:
        print(report.report())
    return report.exit_code()


def cmd_fsck(args) -> int:
    """Audit a results tree: ok vs salvageable vs corrupt artifacts."""
    from repro.resilience.fsck import fsck_results

    report = fsck_results(args.results_dir, evict=args.evict)
    if args.json_out:
        from repro.resilience.atomic import atomic_write_json

        atomic_write_json(args.json_out, report.to_json_dict())
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=1))
    else:
        print(report.report())
    return report.exit_code()


def cmd_runner_serve(args) -> int:
    """Serve sweep cells to a pool coordinator (`--executor socket`)."""
    from repro.runner.executors.socketpool import serve

    return serve(
        host=args.host,
        port=args.port,
        slots=args.slots,
        runner_id=args.runner_id,
        once=args.once,
    )


def cmd_top(args) -> int:
    """Live (journal-tailing) sweep status view."""
    from pathlib import Path

    from repro.obs.live.status import StatusError
    from repro.obs.live.top import top

    try:
        return top(
            Path(args.sweep_dir),
            once=args.once,
            as_json=args.json,
            interval_s=args.interval,
        )
    except StatusError as exc:
        raise SystemExit(str(exc))


def cmd_metrics(args) -> int:
    """OpenMetrics (Prometheus textfile) export of sweep telemetry."""
    from pathlib import Path

    from repro.obs.live.openmetrics import render_openmetrics, sweep_families
    from repro.obs.live.status import StatusError, load_statuses

    try:
        statuses = load_statuses(Path(args.sweep_dir))
    except StatusError as exc:
        raise SystemExit(str(exc))
    text = render_openmetrics(sweep_families(statuses))
    if args.out:
        from repro.resilience.atomic import atomic_write_text

        atomic_write_text(args.out, text)
        print(
            f"wrote {args.out} ({len(text.splitlines())} lines, "
            f"{len(statuses)} sweep(s), OpenMetrics)"
        )
    else:
        sys.stdout.write(text)
    return 0


def cmd_report(args) -> int:
    """Unified HTML/markdown report over sweeps (+ optional bench/fidelity)."""
    from pathlib import Path

    from repro.obs.live.report import (
        build_html,
        build_markdown,
        load_json_artifact,
        write_report,
    )
    from repro.obs.live.status import StatusError, load_statuses

    try:
        statuses = load_statuses(Path(args.sweep_dir))
    except StatusError as exc:
        raise SystemExit(str(exc))
    try:
        bench = load_json_artifact(Path(args.bench)) if args.bench else None
        fidelity = (
            load_json_artifact(Path(args.fidelity)) if args.fidelity else None
        )
        diff = load_json_artifact(Path(args.diff)) if args.diff else None
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc))
    title = args.title or (
        "repro run report — " + ", ".join(s.experiment for s in statuses)
    )
    build = build_markdown if args.markdown else build_html
    text = build(statuses, bench=bench, fidelity=fidelity, diff=diff, title=title)
    if args.out:
        write_report(Path(args.out), text)
        print(f"wrote {args.out} ({len(statuses)} sweep(s))")
    else:
        sys.stdout.write(text)
    return 0


def cmd_diff(args) -> int:
    """Stage-histogram regression attribution between two hist sources, or
    the end-to-end and per-layer accounting between two benchmark
    trajectory points (``BENCH_<sha>.json``)."""
    from pathlib import Path

    from repro.obs.diff import diff_sources, load_hist_source
    from repro.perf import trajectory
    from repro.resilience.atomic import atomic_write_json, atomic_write_text

    points = [trajectory.load_point(Path(p)) for p in (args.a, args.b)]
    if any(points):
        if not all(points):
            raise SystemExit("repro diff: both sides must be benchmark trajectory points")
        doc = trajectory.diff_points(*points)
        header, report = "", trajectory.report(doc)
        code = 1 if trajectory.past_bound(doc) else 0
    else:
        try:
            source_a = load_hist_source(Path(args.a))
            source_b = load_hist_source(Path(args.b))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise SystemExit(str(exc))
        diff = diff_sources(
            source_a, source_b, tolerance=args.tol, seed=args.seed
        )
        doc, report, code = diff.to_json_dict(), diff.report(), diff.exit_code()
        header = "".join(
            f"{side}: {src.label} ({src.kind}, {src.n_merged} hist payload(s) merged)\n"
            for side, src in (("A", source_a), ("B", source_b))
        ) + "\n"
    if args.json_out:
        atomic_write_json(args.json_out, doc)
    if args.md_out:
        atomic_write_text(args.md_out, report + "\n")
    print(json.dumps(doc, indent=1) if args.json else header + report)
    return code


def cmd_ceilings(args) -> int:
    overlay = BottleneckModel(DEFAULT_COSTS, proto=args.proto, overlay=True)
    native = BottleneckModel(DEFAULT_COSTS, proto=args.proto, overlay=False)
    rows = {
        "native (1 core)": native.vanilla_ceiling(),
        "vanilla overlay (1 core)": overlay.vanilla_ceiling(),
        "mflow 2 branches": overlay.mflow_branch_ceiling(2),
        "mflow 3 branches": overlay.mflow_branch_ceiling(3),
    }
    if args.proto == "tcp":
        rows["falcon function-level"] = overlay.falcon_fun_ceiling()
    print(bar_chart(rows, unit=" Gbps", title=f"analytic ceilings ({args.proto})"))
    print("\n(closed-form upper bounds from the cost model; simulation adds queueing)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="MFLOW reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("throughput", help="single-flow throughput for one system")
    p.add_argument("--system", choices=ALL_SYSTEMS, default="mflow")
    p.add_argument("--proto", choices=["tcp", "udp"], default="tcp")
    p.add_argument("--size", type=int, default=65536)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--split-cores", type=int, default=2)
    p.add_argument("--json", action="store_true", help="emit the run record as JSON")
    _add_common(p)
    _add_fault_plan(p)
    _add_migration_plan(p)
    p.set_defaults(fn=cmd_throughput)

    p = sub.add_parser(
        "migrate", help="live container migration mid-run (cutover ledger)"
    )
    overlay_systems = [s for s in ALL_SYSTEMS if s != "native"]
    p.add_argument(
        "--system", choices=overlay_systems, default="mflow",
        help="overlay steering system to ride the cutover (native has no "
             "overlay ingress, hence nothing to migrate behind)",
    )
    p.add_argument("--proto", choices=["tcp", "udp"], default="tcp")
    p.add_argument("--size", type=int, default=65536)
    p.add_argument(
        "--plan", choices=sorted(MIGRATION_PLANS), default="default",
        metavar="NAME", help="named migration plan (--list to enumerate)",
    )
    p.add_argument(
        "--list", action="store_true", help="list the named migration plans"
    )
    p.add_argument("--json", action="store_true", help="emit the run record as JSON")
    _add_common(p)
    _add_fault_plan(p)
    p.set_defaults(fn=cmd_migrate)

    p = sub.add_parser("latency", help="latency at ~90%% of capacity")
    p.add_argument("--system", choices=ALL_SYSTEMS, default="mflow")
    p.add_argument("--proto", choices=["tcp", "udp"], default="tcp")
    p.add_argument("--size", type=int, default=65536)
    _add_common(p)
    p.set_defaults(fn=cmd_latency)

    p = sub.add_parser("multiflow", help="aggregate throughput of N flows")
    p.add_argument("--system", choices=["vanilla", "falcon", "mflow"], default="mflow")
    p.add_argument("--flows", type=int, default=10)
    p.add_argument("--size", type=int, default=65536)
    _add_common(p)
    _add_fault_plan(p)
    p.set_defaults(fn=cmd_multiflow)

    p = sub.add_parser("memcached", help="data-caching latency benchmark")
    p.add_argument("--system", choices=["vanilla", "falcon", "mflow"], default="mflow")
    p.add_argument("--clients", type=int, default=10)
    _add_common(p)
    p.set_defaults(fn=cmd_memcached)

    p = sub.add_parser("compare", help="all five systems side by side")
    p.add_argument("--proto", choices=["tcp", "udp"], default="tcp")
    p.add_argument("--size", type=int, default=65536)
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: CPU count; 1 = in-process serial)",
    )
    p.add_argument("--json", action="store_true", help="emit run records as JSON")
    p.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    p.add_argument(
        "--results-dir", default="results", help="artifact root (default ./results)"
    )
    _add_common(p)
    _add_fault_plan(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser(
        "trace", help="instrumented run + Perfetto/CSV/decomposition export"
    )
    p.add_argument("--system", choices=ALL_SYSTEMS, default="mflow")
    p.add_argument("--proto", choices=["tcp", "udp"], default="tcp")
    p.add_argument("--size", type=int, default=65536)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--split-cores", type=int, default=2)
    p.add_argument("--cores", type=int, default=8, help="receiver cores")
    p.add_argument(
        "--interval-us", type=float, default=100.0,
        help="interval-metrics sampling period in microseconds",
    )
    p.add_argument(
        "--capacity", type=int, default=200_000,
        help="flight-recorder event capacity (reservoir-sampled past it)",
    )
    p.add_argument(
        "--perfetto", metavar="PATH", default=None,
        help="write a Chrome trace_events JSON for chrome://tracing / Perfetto",
    )
    p.add_argument(
        "--timeseries", metavar="PATH", default=None,
        help="write per-interval metrics as CSV",
    )
    p.add_argument(
        "--decompose", action="store_true",
        help="print the per-stage queueing/service/hold latency breakdown",
    )
    p.add_argument(
        "--out-dir", default=os.path.join("results", "trace"),
        help="artifact directory when --perfetto/--timeseries are not given",
    )
    p.add_argument("--json", action="store_true", help="emit the run record as JSON")
    _add_common(p)
    _add_fault_plan(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("faults", help="fault-injection plan registry")
    p.add_argument(
        "action", choices=["list", "show"],
        help="list plans, or show one plan's ledger from a small run",
    )
    p.add_argument("plan", nargs="?", default=None, help="plan name (for show)")
    p.add_argument("--system", choices=ALL_SYSTEMS, default="mflow")
    p.add_argument("--proto", choices=["tcp", "udp"], default="tcp")
    p.add_argument("--size", type=int, default=65536)
    _add_common(p)
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "resume", help="finish an interrupted sweep (cache + checkpoints)"
    )
    p.add_argument("results_dir", help="results root holding <experiment>/sweep.json")
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: CPU count; 1 = in-process serial)",
    )
    p.add_argument(
        "--experiments", nargs="*", default=None, metavar="NAME",
        help="subset of experiments to resume (default: every sweep found)",
    )
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser(
        "fsck", help="validate results artifacts (schemas, digests, journals)"
    )
    p.add_argument("results_dir", help="results root to audit")
    p.add_argument(
        "--evict", action="store_true",
        help="delete corrupt cache entries and checkpoints (both re-derivable)",
    )
    p.add_argument(
        "--json-out", metavar="PATH", default=None,
        help="also write the report as JSON (atomically)",
    )
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(fn=cmd_fsck)

    p = sub.add_parser(
        "top", help="live sweep status from the journal (tail-safe)"
    )
    p.add_argument(
        "sweep_dir",
        help="sweep directory, or a results root holding several sweeps",
    )
    p.add_argument(
        "--once", action="store_true", help="render one snapshot and exit"
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable status document (implies --once)",
    )
    p.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh period in seconds (follow mode; default 1.0)",
    )
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser(
        "metrics", help="OpenMetrics (Prometheus textfile) sweep export"
    )
    p.add_argument(
        "sweep_dir",
        help="sweep directory, or a results root holding several sweeps",
    )
    p.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the textfile atomically instead of printing it",
    )
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser(
        "report", help="self-contained HTML/markdown sweep report"
    )
    p.add_argument(
        "sweep_dir",
        help="sweep directory, or a results root holding several sweeps",
    )
    p.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the report atomically instead of printing it",
    )
    p.add_argument(
        "--markdown", action="store_true",
        help="emit GitHub-flavored markdown instead of HTML",
    )
    p.add_argument(
        "--bench", metavar="BENCH_JSON", default=None,
        help="embed a BENCH_<sha>.json trajectory point (benchmarks/e2e/agreement.py --out)",
    )
    p.add_argument(
        "--fidelity", metavar="FIDELITY_JSON", default=None,
        help="embed a fidelity scoreboard JSON (repro fidelity --json-out)",
    )
    p.add_argument(
        "--diff", metavar="DIFF_JSON", default=None,
        help="embed a stage-attribution diff JSON (repro diff --json-out)",
    )
    p.add_argument("--title", default=None, help="report title override")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "diff",
        help="stage-histogram latency attribution between two runs/sweeps, or "
             "the accounting between two benchmark trajectory points",
    )
    p.add_argument(
        "a", help="baseline: run-record JSON, sweep dir or BENCH_<sha>.json"
    )
    p.add_argument(
        "b", help="candidate: run-record JSON, sweep dir or BENCH_<sha>.json"
    )
    p.add_argument(
        "--tol", type=float, default=0.02,
        help="relative mean-shift tolerance beyond CI overlap (default 0.02)",
    )
    p.add_argument("--seed", type=int, default=0, help="bootstrap resampling seed")
    p.add_argument(
        "--json-out", metavar="PATH", default=None,
        help="also write the attribution as JSON (atomically)",
    )
    p.add_argument(
        "--md-out", metavar="PATH", default=None,
        help="also write the attribution as markdown (atomically)",
    )
    p.add_argument("--json", action="store_true", help="print JSON instead of the table")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("ceilings", help="analytic bottleneck upper bounds")
    p.add_argument("--proto", choices=["tcp", "udp"], default="tcp")
    p.set_defaults(fn=cmd_ceilings)

    p = sub.add_parser(
        "prof", help="cProfile one scenario run: where the simulator's wall time goes"
    )
    p.add_argument("--system", choices=ALL_SYSTEMS, default="mflow")
    p.add_argument("--proto", choices=["tcp", "udp"], default="tcp")
    p.add_argument("--size", type=int, default=65536)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--top", type=int, default=10, help="functions to show")
    p.add_argument("--json", action="store_true", help="emit the profile as JSON")
    _add_common(p)
    _add_fault_plan(p)
    p.set_defaults(fn=cmd_prof)

    p = sub.add_parser(
        "runner",
        help="runner-pool worker commands (see docs/RUNNER.md, Executors)",
    )
    runner_sub = p.add_subparsers(dest="runner_command", required=True)
    p = runner_sub.add_parser(
        "serve",
        help="serve sweep cells over TCP to a socket-executor coordinator",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0 = ephemeral, printed on startup)",
    )
    p.add_argument(
        "--slots", type=int, default=1,
        help="concurrent cells this runner executes (default 1)",
    )
    p.add_argument(
        "--runner-id", default=None,
        help="identity reported to the coordinator (default host:port)",
    )
    p.add_argument(
        "--once", action="store_true",
        help="exit after the first coordinator session instead of re-listening",
    )
    p.set_defaults(fn=cmd_runner_serve)

    p = sub.add_parser(
        "fidelity", help="score reproduced headline numbers against the paper"
    )
    p.add_argument(
        "--quick", action="store_true",
        help="reduced replay windows (the CI configuration)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--json-out", metavar="PATH", default=None,
        help="also write the scoreboard as JSON",
    )
    p.add_argument(
        "--md-out", metavar="PATH", default=None,
        help="also write the scoreboard as markdown",
    )
    p.add_argument("--json", action="store_true", help="print JSON instead of the table")
    p.set_defaults(fn=cmd_fidelity)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
