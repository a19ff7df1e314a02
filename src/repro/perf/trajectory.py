"""Compare two points of the end-to-end benchmark's trajectory.

A trajectory point is the ``BENCH_<sha>.json`` that
``benchmarks/e2e/agreement.py`` writes (``kind: e2e-bench-agreement``):
two sets of runs per workload, each set summarised by its median, and
one traced run per set with the per-layer values.  ``repro diff A B``
reads two such points and reports, per workload:

* each end-to-end metric's median (the median of the set medians),
  old -> new with the ratio, flagged when it is worse by more than the
  bound the point's own benchmark declares;
* the traced per-layer accounting: each layer's ``self_s`` and
  ``calls``, ``sim.events_per_pkt``, ``cpu.items_per_pkt`` and the
  ``model.*`` values (medians over the sets' traced runs).
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional

KIND = "e2e-bench-agreement"

#: per-layer values the diff lists, besides every ``*.self_s``/``*.calls``
_LAYER_EXTRA = ("sim.events_per_pkt", "cpu.items_per_pkt")


def load_point(path: Path) -> Optional[Dict[str, Any]]:
    """The trajectory point at ``path``, or None when it is not one."""
    if not path.is_file():
        return None
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) and doc.get("kind") == KIND else None


def _layer_named(name: str) -> bool:
    return (name.endswith((".self_s", ".calls")) or name in _LAYER_EXTRA
            or name.startswith("model."))


def _ratio(old: float, new: float) -> Optional[float]:
    return new / old if old else None


def _end_to_end(doc: Dict[str, Any], workload: str) -> Dict[str, float]:
    rows = doc["summary"].get(workload, {}).get("end_to_end", {})
    return {name: median(s["median"] for s in row["sets"]) for name, row in rows.items()}


def _layers(doc: Dict[str, Any], workload: str) -> Dict[str, float]:
    values: Dict[str, List[float]] = {}
    for run_set in doc["sets"]:
        traced = run_set.get("traced", {}).get(workload)
        if not traced:
            continue
        for name, metric in traced["metrics"].items():
            if _layer_named(name):
                values.setdefault(name, []).append(metric["value"])
    return {name: median(v) for name, v in values.items()}


def diff_points(old: Dict[str, Any], new: Dict[str, Any]) -> Dict[str, Any]:
    """Per-workload end-to-end and per-layer rows, old -> new."""
    specs = {m["name"]: m for m in new["benchmark"]["end_to_end"]}
    workloads = [w for w in old["summary"] if w in new["summary"]]
    out: Dict[str, Any] = {
        "kind": "repro-trajectory-diff", "old": old.get("sha"), "new": new.get("sha"),
        "workloads": {},
    }
    for workload in workloads:
        e2e_old, e2e_new = _end_to_end(old, workload), _end_to_end(new, workload)
        e2e = {}
        for name, b in e2e_new.items():
            if name not in e2e_old:
                continue
            a = e2e_old[name]
            spec = specs.get(name, {})
            worse = (b - a if spec.get("better") == "lower" else a - b) / a if a else 0.0
            e2e[name] = {
                "old": a, "new": b, "ratio": _ratio(a, b), "bound": spec.get("bound"),
                "past_bound": spec.get("bound") is not None and worse > spec["bound"],
            }
        lay_old, lay_new = _layers(old, workload), _layers(new, workload)
        layers = {
            name: {"old": lay_old[name], "new": lay_new[name],
                   "ratio": _ratio(lay_old[name], lay_new[name])}
            for name in lay_new if name in lay_old
        }
        out["workloads"][workload] = {"end_to_end": e2e, "layers": layers}
    return out


def past_bound(diff: Dict[str, Any]) -> List[str]:
    """``workload.metric`` for each end-to-end median past its bound."""
    return [
        f"{workload}.{name}"
        for workload, rows in diff["workloads"].items()
        for name, row in rows["end_to_end"].items()
        if row["past_bound"]
    ]


def _fmt(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def report(diff: Dict[str, Any]) -> str:
    """The diff as a plain-text table per workload."""
    lines = [f"trajectory {diff['old']} -> {diff['new']}"]
    for workload, rows in diff["workloads"].items():
        lines.append(f"\n{workload}")
        lines.append(f"  {'metric':<26} {'old':>12} {'new':>12} {'new/old':>8}")
        for section in ("end_to_end", "layers"):
            for name, row in rows[section].items():
                if not (row["old"] or row["new"]):
                    continue  # a layer neither side reaches
                ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
                flag = "  PAST BOUND" if row.get("past_bound") else ""
                lines.append(f"  {name:<26} {_fmt(row['old']):>12} {_fmt(row['new']):>12} "
                             f"{ratio:>8}{flag}")
    flagged = past_bound(diff)
    lines.append("\n" + (f"past bound: {', '.join(flagged)}" if flagged
                         else "every end-to-end median within its bound"))
    return "\n".join(lines)
