"""``repro report <sweep-dir>`` — one static, self-contained run report.

Aggregates everything a sweep leaves behind into a single HTML (or
markdown) document with no external references, so it can be archived
as a CI artifact or mailed around:

* **summary tiles** — cells by state, retries, quarantines, cache hit
  ratio, summed wall time, aggregate events/sec;
* **run matrix table** — per cell: phase, attempts, wall time,
  events/sec, throughput, p99 latency, fault/degradation counters;
* **timeline** — per-cell start→finish bars from the v2 journal's
  wall-clock timestamps (omitted for v1 journals, which carry none);
* **latency decomposition** — the per-stage queueing/service/hold table
  from :mod:`repro.obs.decompose`, for every cell whose record carries
  an ``obs`` payload;
* **stage histograms** — always-on exact per-stage latency distributions
  (:mod:`repro.obs.hist`) rendered as unicode sparklines with p50/p99,
  for every cell whose record carries a ``hist`` payload;
* **fault summary** — aggregated fault-injection and degradation
  counters across the matrix;
* optional **bench** (a ``BENCH_<sha>.json`` trajectory point of the
  ``benchmarks/e2e`` benchmark), **fidelity** scoreboard, and
  **diff** (``repro diff --json-out``: a stage-histogram attribution or a
  two-point trajectory diff) payloads, embedded as tables when paths are
  supplied.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.obs.live.status import SweepStatus

__all__ = ["REPORT_SCHEMA_VERSION", "build_html", "build_markdown", "write_report"]

REPORT_SCHEMA_VERSION = 1

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #1a2733; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem; }
h3 { font-size: 1rem; margin-bottom: .3rem; }
table { border-collapse: collapse; width: 100%; font-size: .85rem; }
th, td { text-align: left; padding: .3rem .6rem; border-bottom: 1px solid #e3e8ee; }
th { background: #f4f6f8; } td.num, th.num { text-align: right;
     font-variant-numeric: tabular-nums; }
.tiles { display: flex; flex-wrap: wrap; gap: .8rem; margin: 1rem 0; }
.tile { border: 1px solid #e3e8ee; border-radius: .5rem; padding: .6rem 1rem;
        min-width: 7rem; }
.tile .v { font-size: 1.3rem; font-weight: 600; }
.tile .k { font-size: .75rem; color: #5b6b7a; text-transform: uppercase; }
.phase-done { color: #1a7f37; } .phase-cached { color: #4a5b8c; }
.phase-quarantined { color: #b42318; font-weight: 600; }
.phase-running, .phase-retrying { color: #b45309; }
.bar-row { display: flex; align-items: center; font-size: .75rem;
           margin: .15rem 0; }
.bar-label { width: 18rem; overflow: hidden; text-overflow: ellipsis;
             white-space: nowrap; }
.bar-track { flex: 1; background: #f4f6f8; border-radius: .2rem; height: .8rem;
             position: relative; }
.bar { position: absolute; height: 100%; border-radius: .2rem;
       background: #6b7fd7; min-width: 2px; }
.bar.q { background: #b42318; }
.note { color: #5b6b7a; font-size: .8rem; }
td.spark { font-family: ui-monospace, Menlo, monospace; letter-spacing: -1px;
           color: #4a5b8c; white-space: pre; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _num(value: Optional[float], fmt: str = "{:.2f}", dash: str = "-") -> str:
    if value is None:
        return dash
    return fmt.format(value)


def _tile(value: str, key: str) -> str:
    return f'<div class="tile"><div class="v">{_esc(value)}</div><div class="k">{_esc(key)}</div></div>'


def _summary_tiles(status: SweepStatus) -> str:
    counts = status.counts()
    tiles = [
        _tile(str(status.n_specs), "cells"),
        _tile(str(counts["done"]), "done"),
        _tile(str(counts["cached"]), "cached"),
        _tile(str(counts["quarantined"]), "quarantined"),
        _tile(str(status.retries_total), "retries"),
        _tile(f"{status.cache_hit_ratio * 100:.0f}%", "cache hits"),
        _tile(f"{status.wall_time_total_s:.1f}s", "wall time"),
    ]
    if status.events_per_sec_aggregate > 0:
        tiles.append(
            _tile(f"{status.events_per_sec_aggregate / 1e3:.0f}k", "events/sec")
        )
    return '<div class="tiles">' + "".join(tiles) + "</div>"


def _matrix_table(status: SweepStatus) -> str:
    rows = []
    for cell in status.cells:
        rows.append(
            "<tr>"
            f"<td>{_esc(cell.label)}</td>"
            f'<td class="phase-{_esc(cell.phase)}">{_esc(cell.phase)}</td>'
            f'<td class="num">{cell.attempts}</td>'
            f'<td class="num">{cell.retries}</td>'
            f'<td class="num">{cell.checkpoint_restores}</td>'
            f'<td class="num">{_num(cell.wall_time_s if not cell.cached else None)}</td>'
            f'<td class="num">{_num(cell.events_per_sec / 1e3 if cell.events_per_sec else None, "{:.0f}k")}</td>'
            f'<td class="num">{_num(cell.throughput_gbps)}</td>'
            f'<td class="num">{_num(cell.p99_us, "{:.1f}")}</td>'
            f'<td class="num">{cell.fault_injections or "-"}</td>'
            f'<td class="num">{cell.degradation_events or "-"}</td>'
            "</tr>"
        )
    return (
        "<table><thead><tr><th>cell</th><th>phase</th>"
        '<th class="num">att</th><th class="num">retry</th>'
        '<th class="num">ckpt</th><th class="num">wall s</th>'
        '<th class="num">ev/s</th><th class="num">Gbps</th>'
        '<th class="num">p99 µs</th><th class="num">faults</th>'
        '<th class="num">degr</th></tr></thead><tbody>'
        + "".join(rows)
        + "</tbody></table>"
    )


def _timeline(status: SweepStatus) -> str:
    timed = [
        c for c in status.cells
        if c.started_ts is not None and c.finished_ts is not None
        and c.finished_ts >= c.started_ts
    ]
    if not timed:
        return (
            '<p class="note">No wall-clock timeline: the journal predates '
            "schema v2 or no cell executed live.</p>"
        )
    t0 = min(c.started_ts for c in timed)
    t1 = max(c.finished_ts for c in timed)
    span = max(t1 - t0, 1e-9)
    rows = []
    for cell in timed:
        left = (cell.started_ts - t0) / span * 100.0
        width = max((cell.finished_ts - cell.started_ts) / span * 100.0, 0.3)
        klass = "bar q" if cell.phase == "quarantined" else "bar"
        rows.append(
            '<div class="bar-row">'
            f'<div class="bar-label">{_esc(cell.label)}</div>'
            '<div class="bar-track">'
            f'<div class="{klass}" style="left:{left:.2f}%;width:{width:.2f}%"></div>'
            "</div>"
            f'<div style="width:5rem;text-align:right">{cell.finished_ts - cell.started_ts:.2f}s</div>'
            "</div>"
        )
    return (
        f'<p class="note">{len(timed)} cells over {span:.2f}s of wall time.</p>'
        + "".join(rows)
    )


def _decomposition_sections(status: SweepStatus) -> str:
    sections = []
    for cell in status.cells:
        record = status.records.get(cell.spec_key) or {}
        obs = (record.get("measurements") or {}).get("obs") or {}
        dec = obs.get("decomposition") or {}
        stages = dec.get("stages") or []
        if not stages:
            continue
        rows = "".join(
            "<tr>"
            f"<td>{_esc(s.get('stage', '?'))}</td>"
            f'<td class="num">{_num(s.get("queue_us"))}</td>'
            f'<td class="num">{_num(s.get("service_us"))}</td>'
            f'<td class="num">{_num(s.get("hold_us"))}</td>'
            f'<td class="num">{s.get("visits", 0)}</td>'
            "</tr>"
            for s in stages
        )
        sections.append(
            f"<h3>{_esc(cell.label)} — {dec.get('n_journeys', 0)} journeys, "
            f"mean e2e {_num(dec.get('e2e_mean_us'))} µs</h3>"
            '<table><thead><tr><th>stage</th><th class="num">queue µs</th>'
            '<th class="num">service µs</th><th class="num">hold µs</th>'
            '<th class="num">visits</th></tr></thead>'
            f"<tbody>{rows}</tbody></table>"
        )
    if not sections:
        return (
            '<p class="note">No latency decomposition: run the sweep with '
            "observability enabled to record per-stage journeys.</p>"
        )
    return "".join(sections)


_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"
_SPARK_WIDTH = 24


def _sparkline(series: Dict[str, Any], width: int = _SPARK_WIDTH) -> str:
    """Unicode sparkline over the occupied bucket range of one series.

    The sparse buckets are compressed into ``width`` equal index spans;
    each column's height is its summed count scaled to the tallest
    column.  Deterministic, text-only — safe for HTML and markdown.
    """
    buckets = [(int(i), int(c)) for i, c in series.get("buckets", ())]
    if not buckets:
        return ""
    lo = buckets[0][0]
    hi = buckets[-1][0]
    span = max(hi - lo + 1, 1)
    width = min(width, span)
    cols = [0] * width
    for idx, count in buckets:
        cols[(idx - lo) * width // span] += count
    peak = max(cols)
    return "".join(
        _SPARK_BLOCKS[(c * (len(_SPARK_BLOCKS) - 1) + peak - 1) // peak] if c else " "
        for c in cols
    )


def _hist_rows(rollup: Dict[str, Dict[str, Dict[str, Any]]]):
    """(stage, service-series, queue-p99, spark, p50, p99) display rows,
    busiest stages first."""
    from repro.obs.hist import series_quantile_ns

    rows = []
    for stage, kinds in rollup.items():
        service = kinds.get("service") or {}
        if not service.get("count"):
            continue
        queue = kinds.get("queue") or {}
        rows.append(
            {
                "stage": stage,
                "count": int(service["count"]),
                "queue_p99_ns": (
                    series_quantile_ns(queue, 0.99) if queue.get("count") else None
                ),
                "spark": _sparkline(service),
                "p50_ns": series_quantile_ns(service, 0.50),
                "p99_ns": series_quantile_ns(service, 0.99),
                "sum_ns": int(service.get("sum_ns", 0)),
            }
        )
    rows.sort(key=lambda r: (-r["sum_ns"], r["stage"]))
    return rows


def _hist_sections(status: SweepStatus) -> str:
    from repro.obs.hist import stage_rollup

    sections = []
    for cell in status.cells:
        record = status.records.get(cell.spec_key) or {}
        hist = (record.get("measurements") or {}).get("hist")
        if not hist:
            continue
        try:
            rows = _hist_rows(stage_rollup(hist))
        except ValueError:
            continue
        if not rows:
            continue
        body = "".join(
            "<tr>"
            f"<td>{_esc(r['stage'])}</td>"
            f'<td class="num">{r["count"]}</td>'
            f'<td class="num">{_num(r["queue_p99_ns"] / 1e3 if r["queue_p99_ns"] is not None else None, "{:.1f}")}</td>'
            f'<td class="spark">{_esc(r["spark"])}</td>'
            f'<td class="num">{_num(r["p50_ns"] / 1e3, "{:.2f}")}</td>'
            f'<td class="num">{_num(r["p99_ns"] / 1e3, "{:.2f}")}</td>'
            "</tr>"
            for r in rows
        )
        sections.append(
            f"<h3>{_esc(cell.label)}</h3>"
            '<table><thead><tr><th>stage</th><th class="num">visits</th>'
            '<th class="num">queue p99 µs</th><th>service distribution</th>'
            '<th class="num">p50 µs</th><th class="num">p99 µs</th>'
            f"</tr></thead><tbody>{body}</tbody></table>"
        )
    if not sections:
        return (
            '<p class="note">No stage histograms: the records predate the '
            "hist payload or come from memcached or webserving cells.</p>"
        )
    return "".join(sections)


def _trajectory_diff(payload: Dict[str, Any]) -> Optional[Tuple[str, Dict, str]]:
    """For a two-point trajectory diff (``repro diff BENCH_a.json
    BENCH_b.json``): its title, the rows ``repro diff`` prints per
    workload, and its verdict line.  None for any other diff payload."""
    # deferred: repro.perf is not on a sweep's import path
    from repro.perf import trajectory

    if payload.get("kind") != trajectory.DIFF_KIND:
        return None
    rows = {w: trajectory.workload_rows(r) for w, r in payload["workloads"].items()}
    title = f"Trajectory diff {payload.get('old')} → {payload.get('new')}"
    return title, rows, trajectory.verdict(payload)


def _trajectory_diff_section(rows: Dict, verdict: str) -> str:
    sections = [
        f"<h3>{_esc(workload)}</h3>"
        '<table><thead><tr><th>metric</th><th class="num">old</th>'
        '<th class="num">new</th><th class="num">new/old</th><th></th>'
        "</tr></thead><tbody>"
        + "".join(
            f"<tr><td>{_esc(name)}</td><td class=\"num\">{old}</td>"
            f'<td class="num">{new}</td><td class="num">{ratio}</td>'
            f"<td>{flag}</td></tr>"
            for name, old, new, ratio, flag in workload_rows
        )
        + "</tbody></table>"
        for workload, workload_rows in rows.items()
    ]
    sections.append(f'<p class="note">{_esc(verdict)}</p>')
    return "".join(sections)


def _diff_section(payload: Dict[str, Any]) -> str:
    rows = payload.get("rows")
    if not isinstance(rows, list):
        return '<p class="note">Unrecognized diff payload layout.</p>'
    body = "".join(
        "<tr>"
        f"<td>{_esc(r.get('stage', '?'))}</td>"
        f"<td>{_esc(r.get('series', '?'))}</td>"
        f'<td class="num">{_num(r.get("mean_a_ns", 0.0) / 1e3, "{:.2f}")}</td>'
        f'<td class="num">{_num(r.get("mean_b_ns", 0.0) / 1e3, "{:.2f}")}</td>'
        f'<td class="num">{r.get("delta_pct", 0.0):+.1f}%</td>'
        f'<td class="num">{r.get("share_pct", 0.0):.1f}%</td>'
        f"<td>{_esc(r.get('status', '?'))}</td>"
        "</tr>"
        for r in rows
        if isinstance(r, dict)
    )
    verdict = "no significant regression" if payload.get("ok") else (
        "significant regression"
    )
    return (
        f'<p class="note">B = {_esc(payload.get("label_b", "?"))} vs '
        f'A = {_esc(payload.get("label_a", "?"))} — {verdict} '
        f'(tolerance {payload.get("tolerance", 0.0) * 100:.0f}% beyond CI '
        "overlap, ranked by contribution to the total shift).</p>"
        '<table><thead><tr><th>stage</th><th>series</th>'
        '<th class="num">mean A µs</th><th class="num">mean B µs</th>'
        '<th class="num">Δ%</th><th class="num">share</th><th>verdict</th>'
        f"</tr></thead><tbody>{body}</tbody></table>"
    )


def _fault_summary(status: SweepStatus) -> str:
    totals: Dict[str, int] = {}
    degradations = 0
    for record in status.records.values():
        measurements = record.get("measurements") or {}
        for name, count in (measurements.get("fault_counters") or {}).items():
            totals[name] = totals.get(name, 0) + int(count)
        degradations += len(measurements.get("degradation_events") or ())
    if not totals and not degradations:
        return '<p class="note">No faults fired across the matrix.</p>'
    rows = "".join(
        f'<tr><td>{_esc(name)}</td><td class="num">{count}</td></tr>'
        for name, count in sorted(totals.items())
    )
    extra = (
        f'<p class="note">{degradations} MFLOW degradation/readmission '
        "transition(s) across the matrix.</p>"
        if degradations else ""
    )
    return (
        '<table><thead><tr><th>fault</th><th class="num">count</th></tr>'
        f"</thead><tbody>{rows}</tbody></table>{extra}"
    )


def _bench_rows(point: Dict[str, Any]):
    """``(workload, metric, unit, per-set "median (spread)", failed reps)``
    for each end-to-end metric in a trajectory point's summary."""
    units = {m["name"]: m["unit"] for m in point.get("benchmark", {}).get("end_to_end", [])}
    for workload, data in point.get("summary", {}).items():
        for metric, row in data.get("end_to_end", {}).items():
            sets = " / ".join(
                f"{s['median']:.5g} ({s['spread']:.1%})" for s in row.get("sets", [])
            )
            yield workload, metric, units.get(metric, ""), sets, data.get("failed", 0)


def _bench_section(point: Dict[str, Any]) -> str:
    rows = "".join(
        "<tr>" + "".join(f"<td>{_esc(cell)}</td>" for cell in row[:4])
        + f'<td class="num">{_esc(row[4])}</td></tr>'
        for row in _bench_rows(point)
    )
    return (
        f'<p class="note">e2e trajectory point sha {_esc(point.get("sha", "?"))}, '
        f'{_esc(point.get("created", "?"))}, {_esc(point.get("platform", "?"))}.</p>'
        "<table><thead><tr><th>workload</th><th>metric</th><th>unit</th>"
        "<th>median per set (quartile spread)</th>"
        '<th class="num">failed reps</th></tr></thead>'
        f"<tbody>{rows}</tbody></table>"
    )


def _band_text(band: Any) -> str:
    """A scoreboard band ``[lo, hi]``; an open (``null``) side reads as ∞."""
    if not (isinstance(band, list) and len(band) == 2):
        return str(band)
    lo, hi = (None if b is None else f"{b:.2f}" for b in band)
    return f"[{lo or '−∞'}, {hi or '∞'}]"


def _fidelity_section(payload: Dict[str, Any]) -> str:
    checks = payload.get("checks")
    if not isinstance(checks, list):
        return '<p class="note">Unrecognized fidelity payload layout.</p>'
    rows = []
    for check in checks:
        if not isinstance(check, dict):
            continue
        name = check.get("name", "?")
        band = _band_text(check.get("band", check.get("status", "?")))
        rows.append(
            "<tr>"
            f"<td>{_esc(name)}</td>"
            f"<td>{_esc(band)}</td>"
            f'<td class="num">{_esc(check.get("observed", "-"))}</td>'
            f'<td class="num">{_esc(check.get("expected", check.get("paper", "-")))}</td>'
            "</tr>"
        )
    return (
        "<table><thead><tr><th>check</th><th>band</th>"
        '<th class="num">measured</th><th class="num">expected</th>'
        f'</tr></thead><tbody>{"".join(rows)}</tbody></table>'
    )


def build_html(
    statuses: Sequence[SweepStatus],
    bench: Optional[Dict[str, Any]] = None,
    fidelity: Optional[Dict[str, Any]] = None,
    diff: Optional[Dict[str, Any]] = None,
    title: str = "repro run report",
) -> str:
    """The self-contained HTML document."""
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        f'<p class="note">report schema v{REPORT_SCHEMA_VERSION} · '
        f"{len(statuses)} sweep(s)</p>",
    ]
    for status in statuses:
        state = "finished" if status.finished else "in progress"
        parts.append(
            f"<h2>{_esc(status.experiment)} <small>({state}, journal schema "
            f"v{status.journal_schema})</small></h2>"
        )
        parts.append(_summary_tiles(status))
        parts.append("<h3>Run matrix</h3>")
        parts.append(_matrix_table(status))
        parts.append("<h3>Timeline</h3>")
        parts.append(_timeline(status))
        parts.append("<h3>Latency decomposition</h3>")
        parts.append(_decomposition_sections(status))
        parts.append("<h3>Stage histograms</h3>")
        parts.append(_hist_sections(status))
        parts.append("<h3>Fault summary</h3>")
        parts.append(_fault_summary(status))
    if diff is not None:
        trajectory = _trajectory_diff(diff)
        if trajectory is None:
            parts.append("<h2>Stage latency diff</h2>")
            parts.append(_diff_section(diff))
        else:
            title, rows, verdict = trajectory
            parts.append(f"<h2>{_esc(title)}</h2>")
            parts.append(_trajectory_diff_section(rows, verdict))
    if bench is not None:
        parts.append("<h2>Benchmark trajectory point</h2>")
        parts.append(_bench_section(bench))
    if fidelity is not None:
        parts.append("<h2>Paper-fidelity scoreboard</h2>")
        parts.append(_fidelity_section(fidelity))
    parts.append("</body></html>")
    return "\n".join(parts)


def build_markdown(
    statuses: Sequence[SweepStatus],
    bench: Optional[Dict[str, Any]] = None,
    fidelity: Optional[Dict[str, Any]] = None,
    diff: Optional[Dict[str, Any]] = None,
    title: str = "repro run report",
) -> str:
    """The same report as GitHub-flavored markdown."""
    lines = [f"# {title}", ""]
    for status in statuses:
        counts = status.counts()
        state = "finished" if status.finished else "in progress"
        lines += [
            f"## {status.experiment} ({state})",
            "",
            f"- cells: {status.n_specs} — "
            + ", ".join(f"{k}={v}" for k, v in counts.items() if v),
            f"- retries: {status.retries_total}, checkpoint restores: "
            f"{status.checkpoint_restores_total}",
            f"- cache hit ratio: {status.cache_hit_ratio * 100:.0f}%",
            f"- wall time: {status.wall_time_total_s:.1f}s, aggregate "
            f"{status.events_per_sec_aggregate / 1e3:.0f}k events/sec",
            "",
            "| cell | phase | att | retry | wall s | ev/s | Gbps | p99 µs |",
            "| --- | --- | ---: | ---: | ---: | ---: | ---: | ---: |",
        ]
        for cell in status.cells:
            lines.append(
                f"| {cell.label} | {cell.phase} | {cell.attempts} | "
                f"{cell.retries} | "
                f"{_num(cell.wall_time_s if not cell.cached else None)} | "
                f"{_num(cell.events_per_sec / 1e3 if cell.events_per_sec else None, '{:.0f}k')} | "
                f"{_num(cell.throughput_gbps)} | {_num(cell.p99_us, '{:.1f}')} |"
            )
        lines.append("")
        hist_lines = _hist_markdown(status)
        if hist_lines:
            lines += ["### Stage histograms", ""] + hist_lines + [""]
    if diff is not None:
        rows = diff.get("rows")
        trajectory = _trajectory_diff(diff)
        lines += [f"## {trajectory[0] if trajectory else 'Stage latency diff'}", ""]
        if trajectory is not None:
            _, by_workload, verdict = trajectory
            for workload, workload_rows in by_workload.items():
                lines += [
                    f"### {workload}",
                    "",
                    "| metric | old | new | new/old | |",
                    "| --- | ---: | ---: | ---: | --- |",
                ]
                lines += [f"| {' | '.join(row)} |" for row in workload_rows]
                lines.append("")
            lines += [verdict, ""]
        elif isinstance(rows, list):
            lines += [
                "| stage | series | mean A µs | mean B µs | Δ% | share | verdict |",
                "| --- | --- | ---: | ---: | ---: | ---: | --- |",
            ]
            for r in rows:
                if isinstance(r, dict):
                    lines.append(
                        f"| {r.get('stage', '?')} | {r.get('series', '?')} | "
                        f"{r.get('mean_a_ns', 0.0) / 1e3:.2f} | "
                        f"{r.get('mean_b_ns', 0.0) / 1e3:.2f} | "
                        f"{r.get('delta_pct', 0.0):+.1f}% | "
                        f"{r.get('share_pct', 0.0):.1f}% | "
                        f"{r.get('status', '?')} |"
                    )
            lines.append("")
    if bench is not None:
        lines += [
            "## Benchmark trajectory point",
            "",
            f"sha `{bench.get('sha', '?')}`, {bench.get('created', '?')}",
            "",
            "| workload | metric | unit | median per set (quartile spread) | failed reps |",
            "| --- | --- | --- | --- | ---: |",
        ]
        lines += [f"| {' | '.join(map(str, row))} |" for row in _bench_rows(bench)]
        lines.append("")
    if fidelity is not None:
        lines += ["## Paper-fidelity scoreboard", ""]
        checks = fidelity.get("checks")
        if isinstance(checks, list):
            lines += [
                "| check | band |",
                "| --- | --- |",
            ]
            for check in checks:
                if isinstance(check, dict):
                    lines.append(
                        f"| {check.get('name', '?')} | "
                        f"{_band_text(check.get('band', check.get('status', '?')))} |"
                    )
            lines.append("")
    return "\n".join(lines) + "\n"


def _hist_markdown(status: SweepStatus) -> list:
    """Sparkline rows for every cell carrying a hist payload (markdown)."""
    from repro.obs.hist import stage_rollup

    lines: list = []
    for cell in status.cells:
        record = status.records.get(cell.spec_key) or {}
        hist = (record.get("measurements") or {}).get("hist")
        if not hist:
            continue
        try:
            rows = _hist_rows(stage_rollup(hist))
        except ValueError:
            continue
        if not rows:
            continue
        lines += [
            f"**{cell.label}**",
            "",
            "| stage | visits | queue p99 µs | service distribution | p50 µs | p99 µs |",
            "| --- | ---: | ---: | --- | ---: | ---: |",
        ]
        for r in rows:
            q = (
                f"{r['queue_p99_ns'] / 1e3:.1f}"
                if r["queue_p99_ns"] is not None else "-"
            )
            lines.append(
                f"| {r['stage']} | {r['count']} | {q} | `{r['spark']}` | "
                f"{r['p50_ns'] / 1e3:.2f} | {r['p99_ns'] / 1e3:.2f} |"
            )
        lines.append("")
    return lines


def write_report(path: Path, text: str) -> Path:
    from repro.resilience.atomic import atomic_write_text

    return atomic_write_text(path, text)


def load_json_artifact(path: Path) -> Dict[str, Any]:
    """Best-effort load of an optional side artifact (bench/fidelity)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data
