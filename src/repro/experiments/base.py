"""Shared experiment plumbing.

Table rendering, CPU-tag grouping, and the glue between the per-figure
modules and :mod:`repro.runner`: every experiment module exposes

* ``specs(quick, ...) -> list[RunSpec]`` — the declarative sweep;
* ``reduce(records) -> <FigureResult>`` — a pure reduction of the
  engine's records into the figure's tables;
* ``run(...)`` — convenience ``reduce(execute(specs(...)))`` keeping the
  historical call signature (serial and artifact-free by default; pass
  ``engine=RunEngine(...)`` to parallelize, cache, and emit artifacts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.runner import RunEngine, RunRecord, RunSpec, run_specs

#: measurement windows (ns) for full and quick runs
FULL_WARMUP_NS = 2_000_000.0
FULL_MEASURE_NS = 8_000_000.0
QUICK_WARMUP_NS = 1_000_000.0
QUICK_MEASURE_NS = 3_000_000.0


def windows(quick: bool) -> Dict[str, float]:
    """Warmup/measure windows keyed for ``Scenario.run(**windows(quick))``."""
    if quick:
        return {"warmup_ns": QUICK_WARMUP_NS, "measure_ns": QUICK_MEASURE_NS}
    return {"warmup_ns": FULL_WARMUP_NS, "measure_ns": FULL_MEASURE_NS}


def execute(
    experiment: str,
    specs: Sequence[RunSpec],
    engine: Optional[RunEngine] = None,
) -> List[RunRecord]:
    """Run a figure's specs (serial in-process unless an engine is given)."""
    return run_specs(experiment, specs, engine=engine)


def size_label(size: int) -> str:
    """The paper's axis labels: ``16B``, ``4KB``, ``64KB`` ..."""
    return f"{size // 1024}KB" if size >= 1024 else f"{size}B"


def ordered_unique(values: Sequence) -> List:
    """Order-preserving dedupe (used to recover sweep axes from records)."""
    return list(dict.fromkeys(values))


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table with right-aligned numeric columns."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


@dataclass
class ExperimentTable:
    """A titled table of results, the unit every figure module returns."""

    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *row: object) -> None:
        self.rows.append(list(row))

    def table(self) -> str:
        out = [self.title, "=" * len(self.title), format_table(self.headers, self.rows)]
        if self.notes:
            out.append("")
            out.extend(f"note: {n}" for n in self.notes)
        return "\n".join(out)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.table()


#: mapping of CPU work tags to the device groups of Figures 4b / 8b / 12
TAG_GROUPS: Dict[str, str] = {
    "skb_alloc": "skb_alloc",
    "gro": "gro",
    "ip_rcv": "protocol",
    "ip_outer": "vxlan_dev",
    "udp_outer": "vxlan_dev",
    "lb": "steering",
    "vxlan": "vxlan_dev",
    "bridge": "veth_dev",
    "veth_xmit": "veth_dev",
    "veth_rx": "veth_dev",
    "ip_inner": "protocol",
    "tcp_rcv": "protocol",
    "tcp_ooo": "protocol",
    "udp_rcv": "protocol",
    "tcp_deliver": "copy",
    "udp_deliver": "copy",
    "mflow_split": "steering",
    "mflow_merge": "steering",
    "mflow_merge_switch": "steering",
    "steer_dispatch": "steering",
    "pkt_reorder": "steering",
    "pkt_reorder_ooo": "steering",
    "send_syscall": "sender",
    "send_xmit": "sender",
    "fault_stall": "faults",
}


def group_breakdown(breakdown: Dict[str, float]) -> Dict[str, float]:
    """Collapse a per-tag utilization dict into the figure's device groups."""
    grouped: Dict[str, float] = {}
    for tag, frac in breakdown.items():
        base = tag.split(":", 1)[0]
        if base in ("irq", "driver_poll", "softirq"):
            group = "driver"
        else:
            group = TAG_GROUPS.get(base, base)
        grouped[group] = grouped.get(group, 0.0) + frac
    return grouped


def breakdown_row(core_idx: int, breakdown: Dict[str, float]) -> str:
    """One printable per-core utilization line, sorted by share."""
    grouped = sorted(group_breakdown(breakdown).items(), key=lambda kv: -kv[1])
    parts = [f"{g}={v * 100:.0f}%" for g, v in grouped if v >= 0.005]
    total = sum(v for _, v in grouped)
    return f"core{core_idx}: {total * 100:5.1f}% [{' '.join(parts)}]"
