"""``repro diff`` — differential regression attribution over exact
stage histograms.

Given two histogram sources (a run record, a sweep directory, or a bare
``StageHistograms`` payload), compute a stage-by-stage latency-delta
attribution: which pipeline stages' queueing or service time moved, by
how much, whether the move is statistically significant, and how much
of the end-to-end shift each stage contributes.

Because the histograms are *exact* (every hop counted, fixed bucket
geometry, lossless merge algebra — :mod:`repro.obs.hist`), the diff is a
complete accounting rather than a sampled estimate: the per-stage
``sum_ns`` deltas add up to the total simulated latency shift, so the
``share`` column genuinely partitions the regression.

Significance uses :mod:`repro.perf.stats`: bucket-midpoint samples are
reconstructed deterministically from each side's histogram, bootstrap
95% CIs are computed for both means, and a stage is flagged only when
the intervals are disjoint *and* the relative mean delta exceeds the
tolerance.

Exit semantics: :meth:`StageDiff.exit_code` returns 1 iff at least one
significant *regression* (mean moved up) survived, so CI can gate on a
diff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.hist import (
    merge_payloads,
    series_mean_ns,
    series_quantile_ns,
    series_samples,
    stage_rollup,
)
from repro.perf.stats import SampleStats

#: a mean shift below this fraction never counts, even with disjoint CIs
DEFAULT_TOLERANCE = 0.02

#: cap on reconstructed samples per side per series (systematic sampling)
DEFAULT_SAMPLE_CAP = 2000


# ------------------------------------------------------------------- loading
@dataclass
class HistSource:
    """One side of a diff: a merged histogram payload plus provenance."""

    label: str                 # what the user pointed at
    kind: str                  # "run" | "sweep" | "hist"
    payload: Dict[str, Any]    # merged StageHistograms.to_dict() payload
    n_merged: int              # payloads merged into this side


def _extract_hist(doc: Mapping[str, Any]) -> Optional[Mapping[str, Any]]:
    """The hist payload inside one JSON document, wherever it lives."""
    if "stages" in doc and "geometry" in doc:
        return doc                                   # bare hist payload
    measurements = doc.get("measurements")
    if isinstance(measurements, Mapping):            # RunRecord dict
        return measurements.get("hist")
    if doc.get("kind") == "scenario":                # bare measurement dict
        return doc.get("hist")
    return None


def load_hist_source(path: Path) -> HistSource:
    """Load and merge the histograms behind ``path``.

    Accepts, by inspection rather than flag:

    * a sweep output directory (``runs/*.json`` run records — all
      scenario hists merged);
    * a single run-record JSON (or bare scenario measurement dict);
    * a bare ``StageHistograms`` payload.
    """
    path = Path(path)
    if path.is_dir():
        runs = path / "runs"
        records = sorted((runs if runs.is_dir() else path).glob("*.json"))
        hists = []
        for rec in records:
            if rec.name in ("sweep.json", "manifest.json"):
                continue
            try:
                doc = json.loads(rec.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            h = _extract_hist(doc)
            if h:
                hists.append(h)
        if not hists:
            raise ValueError(
                f"{path}: no histogram payloads found in sweep records "
                f"(memcached and webserving records carry none)"
            )
        return HistSource(str(path), "sweep", merge_payloads(hists), len(hists))

    doc = json.loads(path.read_text())
    h = _extract_hist(doc)
    if not h:
        raise ValueError(f"{path}: no histogram payload found")
    kind = "hist" if h is doc else "run"
    return HistSource(str(path), kind, merge_payloads([h]), 1)


# ----------------------------------------------------------------- diff rows
@dataclass
class DiffRow:
    """One (stage, queue|service) series compared across the two sides."""

    stage: str
    series: str                  # "queue" | "service"
    count_a: int
    count_b: int
    mean_a_ns: float
    mean_b_ns: float
    delta_ns: float              # mean_b - mean_a (+ means slower)
    delta_pct: float             # relative to mean_a (0 when mean_a == 0)
    sum_delta_ns: int            # sum_b - sum_a: contribution to total shift
    share_pct: float             # |sum_delta| share of Σ|sum_delta|
    p99_a_ns: int
    p99_b_ns: int
    significant: bool
    status: str                  # "ok" | "regression" | "improvement"
    ci_a: Tuple[float, float] = (0.0, 0.0)
    ci_b: Tuple[float, float] = (0.0, 0.0)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "series": self.series,
            "count_a": self.count_a,
            "count_b": self.count_b,
            "mean_a_ns": self.mean_a_ns,
            "mean_b_ns": self.mean_b_ns,
            "delta_ns": self.delta_ns,
            "delta_pct": self.delta_pct,
            "sum_delta_ns": self.sum_delta_ns,
            "share_pct": self.share_pct,
            "p99_a_ns": self.p99_a_ns,
            "p99_b_ns": self.p99_b_ns,
            "significant": self.significant,
            "status": self.status,
            "ci_a": list(self.ci_a),
            "ci_b": list(self.ci_b),
        }


@dataclass
class StageDiff:
    """Outcome of ``repro diff A B``: ranked stage attribution."""

    label_a: str
    label_b: str
    tolerance: float
    total_shift_ns: int = 0          # Σ (sum_b - sum_a), signed
    rows: List[DiffRow] = field(default_factory=list)

    @property
    def regressions(self) -> List[DiffRow]:
        return [r for r in self.rows if r.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def exit_code(self) -> int:
        return 0 if self.ok else 1

    # ------------------------------------------------------------- rendering
    def report(self) -> str:
        """Markdown attribution table, ranked by contribution."""
        lines = [
            f"## Stage latency diff: B = `{self.label_b}` vs A = `{self.label_a}`",
            "",
            f"Total simulated-latency shift: **{_fmt_ns(self.total_shift_ns)}** "
            f"(Σ per-stage busy-time delta; tolerance "
            f"{self.tolerance * 100:.0f}% beyond CI overlap)",
            "",
            "| stage | series | count A→B | mean A | mean B | Δ mean | Δ% "
            "| Σ shift | share | verdict |",
            "|---|---|---|---:|---:|---:|---:|---:|---:|---|",
        ]
        for r in self.rows:
            mark = {"ok": "·", "regression": "⚠ regression",
                    "improvement": "✓ improvement"}[r.status]
            counts = (
                f"{r.count_a}" if r.count_a == r.count_b
                else f"{r.count_a}→{r.count_b}"
            )
            lines.append(
                f"| {r.stage} | {r.series} | {counts} "
                f"| {_fmt_ns(r.mean_a_ns)} | {_fmt_ns(r.mean_b_ns)} "
                f"| {_fmt_ns(r.delta_ns, signed=True)} | {r.delta_pct:+.1f}% "
                f"| {_fmt_ns(r.sum_delta_ns, signed=True)} | {r.share_pct:.1f}% "
                f"| {mark} |"
            )
        n_sig = len([r for r in self.rows if r.significant])
        lines += [
            "",
            f"{len(self.regressions)} significant regression(s), "
            f"{n_sig} significant change(s) across {len(self.rows)} "
            f"stage series.",
        ]
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "kind": "repro-diff",
            "label_a": self.label_a,
            "label_b": self.label_b,
            "tolerance": self.tolerance,
            "total_shift_ns": self.total_shift_ns,
            "ok": self.ok,
            "rows": [r.to_json_dict() for r in self.rows],
        }


def _fmt_ns(v: float, signed: bool = False) -> str:
    """Human latency: ns below 1µs, µs below 1ms, else ms."""
    sign = "+" if signed and v > 0 else ("-" if v < 0 else "")
    a = abs(v)
    if a < 1_000:
        return f"{sign}{a:.0f}ns"
    if a < 1_000_000:
        return f"{sign}{a / 1_000:.2f}µs"
    return f"{sign}{a / 1_000_000:.3f}ms"


# --------------------------------------------------------------- computation
def _significance(
    ser_a: Mapping[str, Any],
    ser_b: Mapping[str, Any],
    mean_a: float,
    mean_b: float,
    tolerance: float,
    seed: int,
    cap: int,
) -> Tuple[bool, Tuple[float, float], Tuple[float, float]]:
    """CI-overlap + tolerance test."""
    count_a = int(ser_a.get("count", 0))
    count_b = int(ser_b.get("count", 0))
    if count_a == 0 or count_b == 0:
        # a stage that appeared or vanished outright is always significant
        return (count_a != count_b, (mean_a, mean_a), (mean_b, mean_b))
    rel = abs(mean_b - mean_a) / mean_a if mean_a > 0 else float("inf")
    if rel <= tolerance:
        return (False, (mean_a, mean_a), (mean_b, mean_b))
    stats_a = SampleStats.from_samples(series_samples(ser_a, cap), seed=seed)
    stats_b = SampleStats.from_samples(series_samples(ser_b, cap), seed=seed)
    return (not stats_a.overlaps(stats_b), stats_a.ci, stats_b.ci)


def diff_payloads(
    payload_a: Mapping[str, Any],
    payload_b: Mapping[str, Any],
    label_a: str = "A",
    label_b: str = "B",
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int = 0,
    sample_cap: int = DEFAULT_SAMPLE_CAP,
) -> StageDiff:
    """Stage-by-stage attribution of the latency shift from A to B.

    Rows are ranked by ``|sum_b - sum_a|`` — absolute contribution to the
    end-to-end busy-time shift — so the first row is where the regression
    (or win) actually lives, regardless of how small that stage's
    per-packet mean is.
    """
    rollup_a = stage_rollup(payload_a)
    rollup_b = stage_rollup(payload_b)
    empty: Dict[str, Any] = {
        "count": 0, "sum_ns": 0, "min_ns": 0, "max_ns": 0, "buckets": []
    }
    rows: List[DiffRow] = []
    for stage in sorted(set(rollup_a) | set(rollup_b)):
        kinds_a = rollup_a.get(stage, {})
        kinds_b = rollup_b.get(stage, {})
        for series in ("queue", "service"):
            ser_a = kinds_a.get(series) or empty
            ser_b = kinds_b.get(series) or empty
            count_a = int(ser_a.get("count", 0))
            count_b = int(ser_b.get("count", 0))
            if count_a == 0 and count_b == 0:
                continue
            mean_a = series_mean_ns(ser_a)
            mean_b = series_mean_ns(ser_b)
            delta = mean_b - mean_a
            delta_pct = (delta / mean_a * 100.0) if mean_a > 0 else 0.0
            significant, ci_a, ci_b = _significance(
                ser_a, ser_b, mean_a, mean_b, tolerance, seed, sample_cap
            )
            if not significant:
                status = "ok"
            elif delta > 0:
                status = "regression"
            else:
                status = "improvement"
            rows.append(
                DiffRow(
                    stage=stage,
                    series=series,
                    count_a=count_a,
                    count_b=count_b,
                    mean_a_ns=mean_a,
                    mean_b_ns=mean_b,
                    delta_ns=delta,
                    delta_pct=delta_pct,
                    sum_delta_ns=int(ser_b.get("sum_ns", 0)) - int(ser_a.get("sum_ns", 0)),
                    share_pct=0.0,   # filled after ranking
                    p99_a_ns=series_quantile_ns(ser_a, 0.99),
                    p99_b_ns=series_quantile_ns(ser_b, 0.99),
                    significant=significant,
                    status=status,
                    ci_a=ci_a,
                    ci_b=ci_b,
                )
            )
    rows.sort(key=lambda r: (-abs(r.sum_delta_ns), r.stage, r.series))
    total_abs = sum(abs(r.sum_delta_ns) for r in rows)
    for r in rows:
        r.share_pct = (abs(r.sum_delta_ns) / total_abs * 100.0) if total_abs else 0.0
    return StageDiff(
        label_a=label_a,
        label_b=label_b,
        tolerance=tolerance,
        total_shift_ns=sum(r.sum_delta_ns for r in rows),
        rows=rows,
    )


def diff_sources(
    source_a: HistSource,
    source_b: HistSource,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int = 0,
    sample_cap: int = DEFAULT_SAMPLE_CAP,
) -> StageDiff:
    return diff_payloads(
        source_a.payload,
        source_b.payload,
        label_a=source_a.label,
        label_b=source_b.label,
        tolerance=tolerance,
        seed=seed,
        sample_cap=sample_cap,
    )
