"""Sweep status: a live model of one sweep, rebuilt from its journal.

The RunEngine appends a ``journal.jsonl`` entry at every cell lifecycle
transition (see ``JOURNAL_SCHEMA_VERSION`` in :mod:`repro.runner.engine`).
:class:`SweepStatus` folds those entries — plus ``sweep.json`` for the
spec list and any ``runs/*.json`` records for headline measurements —
into per-cell :class:`CellStatus` rows and sweep-level aggregates
(phase counts, retries, cache-hit ratio, throughput, ETA).

The model is pull-based and crash-tolerant: every refresh re-reads the
journal through :func:`repro.resilience.atomic.read_jsonl`, whose
torn-tail tolerance means a reader polling a *live* journal never
crashes on the half-written final line — it simply sees that entry on
the next poll.  v1 journals (no ``seq``/``ts``/``phase``) degrade
gracefully: phases are derived from the ``ok``/``cached`` flags and the
timeline/ETA columns stay empty.

This module is also the home of the status-*line* helpers
(:class:`StatusLine`, :class:`SweepProgress`) shared by every CLI that
renders a one-line refreshing progress readout (``repro.experiments``,
``repro migrate``, ``repro resume``), so sweep progress
looks the same everywhere it is printed.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, List, Optional

from repro.resilience.atomic import read_jsonl
from repro.runner.engine import CELL_PHASES, JOURNAL_SCHEMA_VERSION, SWEEP_KIND

__all__ = [
    "CELL_PHASES",
    "JOURNAL_SCHEMA_VERSION",
    "TOP_SCHEMA_VERSION",
    "CellStatus",
    "StatusError",
    "StatusLine",
    "SweepProgress",
    "SweepStatus",
    "find_sweep_dirs",
    "load_statuses",
]

#: schema of the ``repro top --json`` document
TOP_SCHEMA_VERSION = 1

#: phases that mean a cell will not change again this sweep
TERMINAL_PHASES = frozenset(("done", "cached", "quarantined"))


class StatusError(RuntimeError):
    """The directory holds nothing a status reader can work with."""


@dataclass
class CellStatus:
    """One sweep cell's current lifecycle state and headline numbers."""

    spec_key: str
    label: str = ""
    factory: str = ""
    phase: str = "queued"          # one of CELL_PHASES
    attempts: int = 0
    retries: int = 0
    cached: bool = False
    ok: Optional[bool] = None
    wall_time_s: float = 0.0
    events_executed: int = 0
    events_per_sec: float = 0.0
    sim_ns: float = 0.0
    checkpoint_restores: int = 0
    #: pool runner executing (or last to execute) this cell, if any
    runner: Optional[str] = None
    #: times this cell was re-dispatched after losing its runner
    redispatches: int = 0
    started_ts: Optional[float] = None    # wall clock, v2 journals only
    finished_ts: Optional[float] = None
    # headline measurements, filled from runs/*.json when present
    throughput_gbps: Optional[float] = None
    p99_us: Optional[float] = None
    fault_injections: int = 0
    degradation_events: int = 0

    @property
    def terminal(self) -> bool:
        return self.phase in TERMINAL_PHASES

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "spec_key": self.spec_key,
            "label": self.label,
            "factory": self.factory,
            "phase": self.phase,
            "attempts": self.attempts,
            "retries": self.retries,
            "cached": self.cached,
            "ok": self.ok,
            "wall_time_s": self.wall_time_s,
            "events_executed": self.events_executed,
            "events_per_sec": self.events_per_sec,
            "sim_ns": self.sim_ns,
            "checkpoint_restores": self.checkpoint_restores,
            "runner": self.runner,
            "redispatches": self.redispatches,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
            "throughput_gbps": self.throughput_gbps,
            "p99_us": self.p99_us,
            "fault_injections": self.fault_injections,
            "degradation_events": self.degradation_events,
        }


class SweepStatus:
    """The live state of one sweep directory; see the module docstring."""

    def __init__(self, experiment: str, sweep_dir: Path):
        self.experiment = experiment
        self.sweep_dir = Path(sweep_dir)
        self.n_specs = 0
        self.jobs: Optional[int] = None
        self.executor: Optional[str] = None
        #: pool fleet state keyed on runner id (socket-executor sweeps)
        self.runners: Dict[str, Dict[str, Any]] = {}
        self.degraded = False
        self.redispatches_total = 0
        self.global_seed = 0
        self.journal_schema = 1        # until a v2 sweep_start says otherwise
        self.torn_lines = 0
        self.journal_entries = 0
        self.started_ts: Optional[float] = None
        self.finished_ts: Optional[float] = None
        self.finished = False
        self.cells: List[CellStatus] = []
        self._by_key: Dict[str, CellStatus] = {}
        #: raw run-record dicts keyed on spec_key (report enrichment)
        self.records: Dict[str, Dict[str, Any]] = {}

    # --------------------------------------------------------------- loading
    @classmethod
    def load(cls, sweep_dir: Path) -> "SweepStatus":
        """Build the status of ``sweep_dir`` (must hold ``sweep.json``)."""
        sweep_dir = Path(sweep_dir)
        sweep_path = sweep_dir / "sweep.json"
        try:
            with open(sweep_path, "r", encoding="utf-8") as fh:
                sweep = json.load(fh)
        except (OSError, ValueError) as exc:
            raise StatusError(f"{sweep_path}: {exc}") from exc
        if not isinstance(sweep, dict) or sweep.get("kind") != SWEEP_KIND:
            raise StatusError(f"{sweep_path}: not a {SWEEP_KIND} file")
        status = cls(str(sweep.get("experiment", sweep_dir.name)), sweep_dir)
        status.global_seed = int(sweep.get("global_seed", 0))
        status.jobs = sweep.get("jobs")
        executor = sweep.get("executor")
        status.executor = str(executor) if executor else None
        for spec_data in sweep.get("specs", []):
            status._cell_for_spec(spec_data)
        status.n_specs = len(status.cells)
        entries, torn = read_jsonl(sweep_dir / "journal.jsonl")
        status.torn_lines = torn
        status.journal_entries = len(entries)
        for entry in entries:
            if isinstance(entry, dict):
                status.apply(entry)
        status._enrich_from_records()
        return status

    def _cell_for_spec(self, spec_data: Dict[str, Any]) -> None:
        from repro.runner.spec import RunSpec

        try:
            spec = RunSpec.from_json_dict(spec_data)
        except (TypeError, ValueError, KeyError):
            return
        cell = CellStatus(
            spec_key=spec.key, label=spec.describe(), factory=spec.factory
        )
        self.cells.append(cell)
        self._by_key[cell.spec_key] = cell

    def _cell(self, spec_key: str) -> CellStatus:
        cell = self._by_key.get(spec_key)
        if cell is None:
            # journal mentions a spec the sweep.json does not list (e.g. a
            # sweep re-run with a narrowed matrix): surface it anyway
            cell = CellStatus(spec_key=spec_key, label=spec_key[:16])
            self.cells.append(cell)
            self._by_key[spec_key] = cell
        return cell

    # ------------------------------------------------------------ journaling
    def apply(self, entry: Dict[str, Any]) -> None:
        """Fold one journal entry (v1 or v2) into the model."""
        kind = entry.get("kind")
        ts = entry.get("ts")
        ts = float(ts) if isinstance(ts, (int, float)) else None
        if kind == "sweep_start":
            schema = entry.get("journal_schema")
            self.journal_schema = int(schema) if isinstance(schema, int) else 1
            self.finished = False
            executor = entry.get("executor")
            if executor:
                self.executor = str(executor)
            if ts is not None:
                self.started_ts = ts
        elif kind == "spec_start":
            cell = self._cell(str(entry.get("spec_key", "")))
            cell.phase = "running"
            cell.attempts = max(cell.attempts, int(entry.get("attempt", 0)) + 1)
            runner = entry.get("runner")
            if isinstance(runner, str):
                cell.runner = runner
            if ts is not None and cell.started_ts is None:
                cell.started_ts = ts
        elif kind == "runner":
            self._apply_runner_event(entry)
        elif kind == "event":
            cell = self._cell(str(entry.get("spec_key", "")))
            event = entry.get("event")
            if event == "retry":
                cell.phase = "retrying"
                cell.retries += 1
            elif event == "failed":
                cell.phase = "quarantined"
                cell.ok = False
        elif kind == "spec":
            cell = self._cell(str(entry.get("spec_key", "")))
            ok = entry.get("ok")
            cached = bool(entry.get("cached", False))
            phase = entry.get("phase")
            if phase not in CELL_PHASES:       # v1 journals carry no phase
                phase = "cached" if cached else ("done" if ok else "quarantined")
            cell.phase = phase
            cell.ok = bool(ok) if ok is not None else None
            cell.cached = cached
            cell.attempts = max(cell.attempts, int(entry.get("attempts", 0)))
            cell.checkpoint_restores = int(entry.get("checkpoint_restores", 0))
            cell.wall_time_s = float(entry.get("wall_time_s", 0.0))
            runner = entry.get("runner")
            if isinstance(runner, str):
                cell.runner = runner
            if ts is not None:
                cell.finished_ts = ts
            progress = entry.get("progress")
            if isinstance(progress, dict):
                cell.events_executed = int(progress.get("events_executed", 0))
                cell.events_per_sec = float(progress.get("events_per_sec", 0.0))
                cell.sim_ns = float(progress.get("sim_ns", 0.0))
        elif kind == "sweep_end":
            self.finished = True
            if ts is not None:
                self.finished_ts = ts

    def _apply_runner_event(self, entry: Dict[str, Any]) -> None:
        """Fold one executor-fleet journal entry (``kind: runner``)."""
        event = entry.get("event")
        runner_id = entry.get("runner")
        if event == "registered" and isinstance(runner_id, str):
            self.runners[runner_id] = {
                "state": "live",
                "addr": entry.get("addr"),
                "slots": entry.get("slots"),
            }
        elif event == "lost" and isinstance(runner_id, str):
            info = self.runners.setdefault(runner_id, {})
            info["state"] = "lost"
            info["reason"] = entry.get("reason")
            info["lost_inflight"] = entry.get("inflight")
        elif event == "unreachable":
            addr = str(entry.get("addr", "?"))
            self.runners.setdefault(addr, {})["state"] = "unreachable"
        elif event == "redispatch":
            self.redispatches_total += 1
            spec_key = entry.get("spec_key")
            if isinstance(spec_key, str) and spec_key:
                cell = self._cell(spec_key)
                cell.redispatches += 1
                target = entry.get("runner")
                if isinstance(target, str):
                    cell.runner = target
        elif event == "degraded":
            self.degraded = True

    def _enrich_from_records(self) -> None:
        """Headline measurements from ``runs/*.json`` (each written as
        its cell finishes; a live tail has only the finished cells')."""
        for path in sorted((self.sweep_dir / "runs").glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    record = json.load(fh)
            except (OSError, ValueError):
                continue
            key = record.get("spec_key")
            if not isinstance(key, str) or key not in self._by_key:
                continue
            self.records[key] = record
            cell = self._by_key[key]
            measurements = record.get("measurements") or {}
            if "throughput_gbps" in measurements:
                cell.throughput_gbps = float(measurements["throughput_gbps"])
            latency = measurements.get("latency") or {}
            if "p99_us" in latency:
                cell.p99_us = float(latency["p99_us"])
            cell.fault_injections = sum(
                int(v) for v in (measurements.get("fault_counters") or {}).values()
            )
            cell.degradation_events = len(
                measurements.get("degradation_events") or ()
            )

    # ------------------------------------------------------------ aggregates
    def counts(self) -> Dict[str, int]:
        counts = {phase: 0 for phase in CELL_PHASES}
        for cell in self.cells:
            counts[cell.phase] = counts.get(cell.phase, 0) + 1
        return counts

    @property
    def retries_total(self) -> int:
        return sum(c.retries for c in self.cells)

    @property
    def quarantined_total(self) -> int:
        return sum(1 for c in self.cells if c.phase == "quarantined")

    @property
    def cache_hits(self) -> int:
        return sum(1 for c in self.cells if c.phase == "cached")

    @property
    def cache_hit_ratio(self) -> float:
        terminal = sum(1 for c in self.cells if c.terminal)
        return self.cache_hits / terminal if terminal else 0.0

    @property
    def checkpoint_restores_total(self) -> int:
        return sum(c.checkpoint_restores for c in self.cells)

    @property
    def wall_time_total_s(self) -> float:
        """Summed wall time of executed (non-cached) finished cells."""
        return sum(c.wall_time_s for c in self.cells if c.terminal and not c.cached)

    @property
    def events_total(self) -> int:
        return sum(c.events_executed for c in self.cells if not c.cached)

    @property
    def events_per_sec_aggregate(self) -> float:
        wall = self.wall_time_total_s
        return self.events_total / wall if wall > 0 else 0.0

    @property
    def runners_live(self) -> int:
        return sum(1 for r in self.runners.values() if r.get("state") == "live")

    @property
    def runners_lost(self) -> int:
        return sum(1 for r in self.runners.values() if r.get("state") == "lost")

    @property
    def remaining(self) -> int:
        return sum(1 for c in self.cells if not c.terminal)

    def eta_s(self) -> Optional[float]:
        """Remaining wall time, from completed live cells' mean wall time
        spread over the sweep's worker count.  None until one terminal
        cell exists (there is nothing to extrapolate from)."""
        if self.finished or self.remaining == 0:
            return 0.0
        walls = [
            c.wall_time_s
            for c in self.cells
            if c.terminal and not c.cached and c.wall_time_s > 0
        ]
        if not walls:
            # every terminal cell so far was cache-served: cache hits are
            # effectively instant, so the honest estimate is "done", not
            # "unknown" — a fully-warmed resweep should read eta 0s
            if self.cache_hits and self.cache_hits == sum(
                1 for c in self.cells if c.terminal
            ):
                return 0.0
            return None
        jobs = max(1, int(self.jobs or 1))
        mean = sum(walls) / len(walls)
        return mean * self.remaining / jobs

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "kind": "repro-sweep-status",
            "experiment": self.experiment,
            "sweep_dir": str(self.sweep_dir),
            "journal_schema": self.journal_schema,
            "journal_entries": self.journal_entries,
            "torn_lines": self.torn_lines,
            "finished": self.finished,
            "n_specs": self.n_specs,
            "jobs": self.jobs,
            "executor": self.executor,
            "runners": self.runners,
            "degraded": self.degraded,
            "redispatches": self.redispatches_total,
            "global_seed": self.global_seed,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
            "counts": self.counts(),
            "retries": self.retries_total,
            "quarantined": self.quarantined_total,
            "cache_hits": self.cache_hits,
            "cache_hit_ratio": round(self.cache_hit_ratio, 4),
            "checkpoint_restores": self.checkpoint_restores_total,
            "wall_time_s": round(self.wall_time_total_s, 4),
            "events_executed": self.events_total,
            "events_per_sec": round(self.events_per_sec_aggregate, 1),
            "eta_s": self.eta_s(),
            "cells": [c.to_json_dict() for c in self.cells],
        }


# ----------------------------------------------------------------- discovery
def find_sweep_dirs(path: Path) -> List[Path]:
    """Sweep directories under ``path``: itself if it holds a
    ``sweep.json``, else every ``<path>/*/sweep.json`` parent (the
    layout ``repro.experiments`` leaves under a results root)."""
    path = Path(path)
    if (path / "sweep.json").exists():
        return [path]
    return sorted(
        p.parent
        for p in path.glob("*/sweep.json")
        if p.parent.name not in (".cache", "checkpoints")
    )


def load_statuses(path: Path) -> List[SweepStatus]:
    """Every sweep's status under ``path``; raises :class:`StatusError`
    when there is nothing to watch."""
    dirs = find_sweep_dirs(path)
    if not dirs:
        raise StatusError(f"{path}: no sweep.json found — nothing to watch")
    return [SweepStatus.load(d) for d in dirs]


# ---------------------------------------------------------------- status line
class StatusLine:
    """A ``\\r``-rewriting one-line status readout.

    The single formatting path for every CLI progress line (sweeps,
    migration runs, resumes): ``[label] text``, rewritten in
    place, padded so a shrinking line leaves no stale tail, closed with
    one newline.  Writes to ``stream`` (default stderr) unconditionally —
    callers gate on ``isatty`` where pollution matters.
    """

    def __init__(self, label: str, stream: Optional[IO[str]] = None):
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self._width = 0

    def update(self, text: str) -> None:
        line = f"[{self.label}] {text}"
        pad = max(0, self._width - len(line))
        self._width = len(line)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()

    def done(self, text: Optional[str] = None) -> None:
        """Finish the line (optionally rewriting it one last time)."""
        if text is not None:
            self.update(text)
        if self._width:
            self.stream.write("\n")
            self.stream.flush()
            self._width = 0


@dataclass
class SweepProgress:
    """A RunEngine ``progress`` callback rendering the shared status line:
    ``[fig8] 12/40 cached=3 last 0.82s 131k ev/s eta 18s``."""

    label: str
    stream: Optional[IO[str]] = None
    line: StatusLine = field(init=False)
    _started: float = field(init=False)
    _cached: int = field(init=False, default=0)
    _last_done: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.line = StatusLine(self.label, self.stream)
        self._started = time.monotonic()

    def __call__(self, done: int, total: int, record) -> None:
        if done <= self._last_done:  # reused across sweeps (repro resume)
            self._cached = 0
            self._started = time.monotonic()
        self._last_done = done
        if record.cached:
            self._cached += 1
        elapsed = time.monotonic() - self._started
        live_done = done - self._cached
        if live_done > 0 and done < total:
            eta = f"eta {elapsed / live_done * (total - done):4.0f}s"
        elif done < total:
            # all completions so far were cache hits: remaining cells are
            # almost certainly cached too, so report 0s rather than ?
            eta = "eta    0s" if done > 0 else "eta    ?"
        else:
            eta = f"{elapsed:5.1f}s"
        text = f"{done}/{total}"
        if self._cached:
            text += f" cached={self._cached}"
        if not record.cached and record.wall_time_s > 0:
            text += f" last {record.wall_time_s:.2f}s"
            if record.events_per_sec > 0:
                text += f" {record.events_per_sec / 1e3:.0f}k ev/s"
        self.line.update(f"{text} {eta}")
        if done == total:
            self.line.done()
