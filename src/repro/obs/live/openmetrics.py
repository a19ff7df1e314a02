"""OpenMetrics (Prometheus textfile) export of sweep telemetry.

``repro metrics <sweep-dir>`` renders the :class:`SweepStatus` model to
the `OpenMetrics text format
<https://github.com/prometheus/OpenMetrics/blob/main/specification/OpenMetrics.md>`_,
suitable for the node-exporter textfile collector or any Prometheus
scrape pipeline.  Two metric tiers:

* **sweep counters** — cells by state, retries, quarantines, checkpoint
  restores, cache-hit ratio, summed wall time, aggregate simulator
  events/sec, finished flag;
* **per-run headlines** (once ``runs/*.json`` records exist) — wall
  time, events/sec, throughput, p99 latency, fault-injection and
  MFLOW-degradation counters, labeled ``{experiment, cell}``;
* **per-stage histograms** (records carrying a ``hist`` payload —
  :mod:`repro.obs.hist`) — visit counts and exact mean / p99 queueing
  and service latencies, labeled ``{experiment, cell, stage}``.

The exposition is schema-versioned: a
``repro_telemetry_info`` gauge carries ``schema_version`` so dashboards
can gate on layout changes.  :func:`parse_openmetrics` is a strict
structural validator (used by CI and the tests) — it checks TYPE
declarations, sample/label syntax, counter ``_total`` suffixes,
duplicate series, and the mandatory ``# EOF`` trailer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.obs.live.status import SweepStatus

__all__ = [
    "OPENMETRICS_SCHEMA_VERSION",
    "Family",
    "OpenMetricsError",
    "parse_openmetrics",
    "render_openmetrics",
    "sweep_families",
]

#: bump when metric names/labels change incompatibly
OPENMETRICS_SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(
    r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)


class OpenMetricsError(ValueError):
    """The text is not a valid OpenMetrics exposition."""


@dataclass
class Family:
    """One metric family: TYPE + HELP + its samples."""

    name: str
    type: str                     # "gauge" | "counter"
    help: str = ""
    samples: List[Tuple[Dict[str, str], float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise OpenMetricsError(f"bad metric name {self.name!r}")
        if self.type not in ("gauge", "counter"):
            raise OpenMetricsError(f"bad metric type {self.type!r}")

    @property
    def sample_name(self) -> str:
        """Counters expose samples as ``<name>_total`` per the spec."""
        return f"{self.name}_total" if self.type == "counter" else self.name

    def add(self, value: float, **labels: str) -> "Family":
        self.samples.append(({k: str(v) for k, v in labels.items()}, float(value)))
        return self


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _fmt_value(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise OpenMetricsError(f"non-finite sample value {value!r}")
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.10g}"


def render_openmetrics(families: Sequence[Family]) -> str:
    """Serialize families to the OpenMetrics text exposition."""
    lines: List[str] = []
    for family in families:
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.type}")
        for labels, value in family.samples:
            for key in labels:
                if not _LABEL_NAME_RE.match(key):
                    raise OpenMetricsError(f"bad label name {key!r}")
            label_str = ",".join(
                f'{k}="{_escape(v)}"' for k, v in sorted(labels.items())
            )
            label_part = f"{{{label_str}}}" if label_str else ""
            lines.append(f"{family.sample_name}{label_part} {_fmt_value(value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- building
def _cell_label(cell) -> str:
    return cell.label or cell.spec_key[:16]


def sweep_families(statuses: Sequence[SweepStatus]) -> List[Family]:
    """The full family list for one or more sweeps."""
    info = Family(
        "repro_telemetry_info", "gauge",
        "Sweep-telemetry exposition identity; schema_version gates layout.",
    ).add(1, schema_version=str(OPENMETRICS_SCHEMA_VERSION))

    cells = Family(
        "repro_sweep_cells", "gauge", "Sweep cells currently in each lifecycle state."
    )
    specs = Family("repro_sweep_specs", "gauge", "Total cells in the sweep matrix.")
    finished = Family(
        "repro_sweep_finished", "gauge", "1 once the sweep journaled sweep_end."
    )
    retries = Family(
        "repro_sweep_retries", "counter", "Cell retries scheduled after crash/timeout/exception."
    )
    restores = Family(
        "repro_sweep_checkpoint_restores", "counter",
        "Cells resumed from a simulator checkpoint instead of from scratch.",
    )
    hit_ratio = Family(
        "repro_sweep_cache_hit_ratio", "gauge",
        "Cached cells over finished cells (content-addressed result cache).",
    )
    wall = Family(
        "repro_sweep_wall_seconds", "gauge", "Summed wall time of executed cells."
    )
    events = Family(
        "repro_sweep_events", "counter", "Simulator events executed across live cells."
    )
    rate = Family(
        "repro_sweep_events_per_second", "gauge",
        "Aggregate simulator event throughput over executed cells.",
    )
    torn = Family(
        "repro_sweep_journal_torn_lines", "gauge",
        "Unparseable journal lines skipped by the tailing reader.",
    )
    runners = Family(
        "repro_sweep_runners", "gauge",
        "Pool runners by state (socket executor: live/lost/unreachable).",
    )
    redispatches = Family(
        "repro_sweep_redispatches", "counter",
        "Cells re-dispatched to a surviving runner after losing theirs.",
    )
    degraded = Family(
        "repro_sweep_degraded", "gauge",
        "1 once the pool drained to zero runners and fell back to local execution.",
    )

    run_wall = Family("repro_run_wall_seconds", "gauge", "One cell's wall time.")
    run_rate = Family(
        "repro_run_events_per_second", "gauge", "One cell's simulator event rate."
    )
    run_tput = Family(
        "repro_run_throughput_gbps", "gauge", "One cell's measured goodput."
    )
    run_p99 = Family(
        "repro_run_p99_latency_microseconds", "gauge",
        "One cell's p99 message latency.",
    )
    run_faults = Family(
        "repro_run_fault_injections", "counter",
        "Fault injections fired during one cell's run.",
    )
    run_degraded = Family(
        "repro_run_degradation_events", "counter",
        "MFLOW degradation/readmission transitions during one cell's run.",
    )
    stage_visits = Family(
        "repro_run_stage_visits", "counter",
        "Packets that executed one datapath stage during one cell's run.",
    )
    stage_queue_mean = Family(
        "repro_run_stage_queue_mean_nanoseconds", "gauge",
        "Exact mean run-queue wait before one stage (stage histograms).",
    )
    stage_queue_p99 = Family(
        "repro_run_stage_queue_p99_nanoseconds", "gauge",
        "p99 run-queue wait before one stage (bucket-midpoint resolution).",
    )
    stage_service_mean = Family(
        "repro_run_stage_service_mean_nanoseconds", "gauge",
        "Exact mean execution span of one stage (stage histograms).",
    )
    stage_service_p99 = Family(
        "repro_run_stage_service_p99_nanoseconds", "gauge",
        "p99 execution span of one stage (bucket-midpoint resolution).",
    )

    for status in statuses:
        exp = status.experiment
        counts = status.counts()
        for state, count in counts.items():
            cells.add(count, experiment=exp, state=state)
        specs.add(status.n_specs, experiment=exp)
        finished.add(1 if status.finished else 0, experiment=exp)
        retries.add(status.retries_total, experiment=exp)
        restores.add(status.checkpoint_restores_total, experiment=exp)
        hit_ratio.add(round(status.cache_hit_ratio, 6), experiment=exp)
        wall.add(round(status.wall_time_total_s, 6), experiment=exp)
        events.add(status.events_total, experiment=exp)
        rate.add(round(status.events_per_sec_aggregate, 3), experiment=exp)
        torn.add(status.torn_lines, experiment=exp)
        if status.runners:
            by_state: Dict[str, int] = {}
            for info_dict in status.runners.values():
                state = str(info_dict.get("state", "unknown"))
                by_state[state] = by_state.get(state, 0) + 1
            for state, count in sorted(by_state.items()):
                runners.add(count, experiment=exp, state=state)
        if status.redispatches_total:
            redispatches.add(status.redispatches_total, experiment=exp)
        if status.degraded:
            degraded.add(1, experiment=exp)
        for cell in status.cells:
            if not cell.terminal or cell.cached:
                continue
            labels = {"experiment": exp, "cell": _cell_label(cell)}
            run_wall.add(round(cell.wall_time_s, 6), **labels)
            run_rate.add(round(cell.events_per_sec, 3), **labels)
            if cell.throughput_gbps is not None:
                run_tput.add(round(cell.throughput_gbps, 6), **labels)
            if cell.p99_us is not None:
                run_p99.add(round(cell.p99_us, 6), **labels)
            if cell.fault_injections:
                run_faults.add(cell.fault_injections, **labels)
            if cell.degradation_events:
                run_degraded.add(cell.degradation_events, **labels)
            record = status.records.get(cell.spec_key) or {}
            hist = (record.get("measurements") or {}).get("hist")
            if hist:
                _add_stage_samples(
                    hist, labels, stage_visits,
                    stage_queue_mean, stage_queue_p99,
                    stage_service_mean, stage_service_p99,
                )

    families = [
        info, cells, specs, finished, retries, restores, hit_ratio, wall,
        events, rate, torn, runners, redispatches, degraded,
        run_wall, run_rate, run_tput, run_p99,
        run_faults, run_degraded, stage_visits,
        stage_queue_mean, stage_queue_p99,
        stage_service_mean, stage_service_p99,
    ]
    return [f for f in families if f.samples]


def _add_stage_samples(
    hist: Dict[str, Any],
    labels: Dict[str, str],
    visits: Family,
    queue_mean: Family,
    queue_p99: Family,
    service_mean: Family,
    service_p99: Family,
) -> None:
    """One record's hist payload -> per-stage samples (rollup over
    cores and flow classes; core-tag system work rides along as
    pseudo-stages with no queue series)."""
    from repro.obs.hist import series_mean_ns, series_quantile_ns, stage_rollup

    try:
        rollup = stage_rollup(hist)
    except ValueError:
        return  # foreign geometry: skip rather than mislabel
    for stage in sorted(rollup):
        kinds = rollup[stage]
        service = kinds.get("service") or {}
        if not service.get("count"):
            continue
        stage_labels = dict(labels, stage=stage)
        visits.add(int(service["count"]), **stage_labels)
        service_mean.add(round(series_mean_ns(service), 3), **stage_labels)
        service_p99.add(series_quantile_ns(service, 0.99), **stage_labels)
        queue = kinds.get("queue") or {}
        if queue.get("count"):
            queue_mean.add(round(series_mean_ns(queue), 3), **stage_labels)
            queue_p99.add(series_quantile_ns(queue, 0.99), **stage_labels)


# -------------------------------------------------------------------- parsing
def parse_openmetrics(text: str) -> Dict[str, Dict[str, Any]]:
    """Validate an exposition; returns ``{family: {type, samples}}``.

    Strict on structure (this is the CI gate): unknown line shapes,
    samples without a preceding TYPE, counter samples missing the
    ``_total`` suffix, duplicate series, non-float values, or a missing
    ``# EOF`` trailer all raise :class:`OpenMetricsError`.
    """
    lines = text.splitlines()
    if not lines or lines[-1].strip() != "# EOF":
        raise OpenMetricsError("exposition must end with '# EOF'")
    families: Dict[str, Dict[str, Any]] = {}
    seen_series = set()
    for lineno, line in enumerate(lines[:-1], start=1):
        if not line.strip():
            raise OpenMetricsError(f"line {lineno}: blank line")
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                raise OpenMetricsError(f"line {lineno}: malformed HELP")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not _NAME_RE.match(parts[2]):
                raise OpenMetricsError(f"line {lineno}: malformed TYPE")
            name, mtype = parts[2], parts[3]
            if mtype not in ("gauge", "counter", "info"):
                raise OpenMetricsError(f"line {lineno}: unknown type {mtype!r}")
            if name in families:
                raise OpenMetricsError(f"line {lineno}: duplicate TYPE for {name}")
            families[name] = {"type": mtype, "samples": []}
            continue
        if line.startswith("#"):
            raise OpenMetricsError(f"line {lineno}: unknown comment {line!r}")
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise OpenMetricsError(f"line {lineno}: unparseable sample {line!r}")
        sample_name = match.group("name")
        family_name = sample_name
        if sample_name.endswith("_total"):
            family_name = sample_name[: -len("_total")]
        if sample_name in families:
            family_name = sample_name
        family = families.get(family_name)
        if family is None:
            raise OpenMetricsError(
                f"line {lineno}: sample {sample_name!r} has no TYPE declaration"
            )
        if family["type"] == "counter" and not sample_name.endswith("_total"):
            raise OpenMetricsError(
                f"line {lineno}: counter sample {sample_name!r} must end in _total"
            )
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            for pair in _split_label_pairs(raw_labels, lineno):
                pair_match = _LABEL_PAIR_RE.match(pair)
                if pair_match is None:
                    raise OpenMetricsError(f"line {lineno}: bad label pair {pair!r}")
                labels[pair_match.group("key")] = pair_match.group("value")
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise OpenMetricsError(f"line {lineno}: bad value") from exc
        series = (sample_name, tuple(sorted(labels.items())))
        if series in seen_series:
            raise OpenMetricsError(f"line {lineno}: duplicate series {series}")
        seen_series.add(series)
        family["samples"].append({"labels": labels, "value": value})
    return families


def _split_label_pairs(raw: str, lineno: int) -> List[str]:
    """Split ``a="x",b="y"`` respecting escaped quotes inside values."""
    pairs, buf, in_quotes, escaped = [], [], False, False
    for ch in raw:
        if escaped:
            buf.append(ch)
            escaped = False
            continue
        if ch == "\\" and in_quotes:
            buf.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            buf.append(ch)
            continue
        if ch == "," and not in_quotes:
            pairs.append("".join(buf))
            buf = []
            continue
        buf.append(ch)
    if in_quotes:
        raise OpenMetricsError(f"line {lineno}: unterminated label value")
    if buf:
        pairs.append("".join(buf))
    return pairs
