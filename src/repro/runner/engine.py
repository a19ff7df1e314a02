"""Parallel, fault-tolerant execution of :class:`RunSpec` lists.

The :class:`RunEngine` shards a sweep's independent cells across an
:class:`~repro.runner.executors.base.Executor` — in-process
(``jobs=1``), a local process pool, or a socket runner pool
(:mod:`repro.runner.executors.socketpool`).  The engine owns
*supervision*; the executor owns only *placement and transport*.
Guarantees:

* **Determinism** — every spec's scenario seed is derived from
  ``(global_seed, spec key)``, never from scheduling order or placement,
  so serial, parallel, and pooled sweeps produce bit-identical
  measurements.
* **Supervision** — a cell that crashes, raises, or exceeds the
  per-spec timeout is retried (default: once) on a fresh worker with
  bounded exponential backoff; a spec that exhausts its retry budget is
  *quarantined* — recorded as failed, listed in the manifest, and the
  rest of the matrix keeps running.  Under ``strict`` the quarantined
  specs still surface as a :class:`RunFailure` once the sweep finishes —
  never silently dropped, never aborting sibling cells.  Losing a pool
  *runner* is not a cell failure: the socket executor re-dispatches the
  lost cells internally without touching the retry budget.
* **Crash safety** — with a ``results_dir``, workers run inside a
  checkpoint scope: the simulator periodically snapshots its full state
  (:mod:`repro.resilience.checkpoint`) and a retried, resumed, or
  re-dispatched spec restarts from the latest snapshot instead of from
  scratch.  A ``sweep.json`` (the spec list) and an append-only
  ``journal.jsonl`` (per-spec status) are written up front so
  ``repro resume`` can reconstruct and finish an interrupted sweep.  The
  journal has exactly one writer, asserted with an exclusive lockfile
  (``journal.jsonl.lock``): a second engine pointed at the same sweep
  directory fails fast with :class:`JournalLockError` instead of
  interleaving ``seq`` numbers.  The lock is advisory and dies with the
  process, so a SIGKILLed sweep never wedges ``repro resume``.
* **Artifacts & cache** — when given a ``results_dir``, every spec is
  written (atomically: tmp + fsync + rename) as a compact JSON record
  under ``results/<experiment>/runs/`` as soon as its cell finishes, and
  a successful one is memoized, as the same bytes, in a
  content-addressed cache keyed on ``(spec, code version)``, so
  re-running a sweep only executes changed cells.  A sweep
  ``manifest.json`` follows the last cell.  A file whose bytes would not
  change is never rewritten: a cache hit reads its entry and the
  existing ``runs/`` file, and writes nothing when the bytes match.
* **Honesty** — records carry ``timeout_enforced``: in-process execution
  (the local executor, or a drained socket pool) has no hang protection,
  and a cell that outlives its nominal timeout there emits a
  ``timeout_overrun`` warning event instead of silently pretending the
  cap was real.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.resilience.atomic import (
    append_jsonl,
    atomic_write_bytes,
    atomic_write_json,
    read_jsonl,
)
from repro.runner.cache import ResultCache, code_version
from repro.runner.executors.base import (
    CellTask,
    Executor,
    LocalExecutor,
    execute_spec,
)
from repro.runner.executors.process import ProcessExecutor
from repro.runner.records import RunRecord
from repro.runner.spec import RunSpec

__all__ = [
    "CELL_PHASES",
    "DEFAULT_TIMEOUT_S",
    "JOURNAL_SCHEMA_VERSION",
    "EngineEvent",
    "JournalLockError",
    "RunEngine",
    "RunFailure",
    "execute_spec",
    "run_specs",
]

#: default hard cap on one spec's wall time before the worker is killed
DEFAULT_TIMEOUT_S = 900.0
#: retry backoff: min(cap, base * 2**(attempt-1)) seconds before attempt N
DEFAULT_BACKOFF_BASE_S = 0.5
DEFAULT_BACKOFF_CAP_S = 30.0

#: sweep.json schema
SWEEP_SCHEMA_VERSION = 1
SWEEP_KIND = "repro-sweep"

#: journal.jsonl schema.  v2 adds to every entry a monotone ``seq`` (so a
#: tailing reader can detect gaps and order entries without trusting file
#: position), a wall-clock ``ts`` (epoch seconds), a lifecycle ``phase``
#: (``queued/running/retrying/quarantined/done/cached``), ``spec_start``
#: entries when a cell begins executing, and a ``progress`` payload on
#: completion entries (events executed, sim-time, events/sec).  v1 journals
#: (no seq/ts/phase) remain readable by every consumer.  Pool-executed
#: sweeps additionally journal ``runner`` entries (fleet lifecycle:
#: registered/lost/redispatch/degraded) and stamp a ``runner`` identity
#: on ``spec_start``/``spec`` entries; non-pool consumers ignore both.
JOURNAL_SCHEMA_VERSION = 2

#: lifecycle phases a sweep cell moves through (journal ``phase`` values)
CELL_PHASES = ("queued", "running", "retrying", "quarantined", "done", "cached")

ProgressFn = Callable[[int, int, RunRecord], None]


def _next_journal_seq(path: Path) -> int:
    """First unused ``seq`` for a journal — continues the monotone
    sequence across resumed sweeps (v1 entries without ``seq`` count as
    position-only and are simply skipped over)."""
    if not path.exists():
        return 0
    entries, _ = read_jsonl(path)
    highest = -1
    for entry in entries:
        if isinstance(entry, dict) and isinstance(entry.get("seq"), int):
            highest = max(highest, entry["seq"])
    return highest + 1


def _write_if_changed(path: Path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data`` unless it already holds
    exactly these bytes, so a re-run that changes nothing leaves the file
    (inode and mtime included) alone."""
    try:
        with open(path, "rb") as fh:
            if fh.read() == data:
                return
    except OSError:
        pass
    atomic_write_bytes(path, data)


class JournalLockError(RuntimeError):
    """A second engine tried to write a sweep's journal concurrently."""


def _acquire_journal_lock(path: Path) -> Optional[int]:
    """Take the exclusive advisory lock asserting single-writer journal
    ownership; returns the held fd.

    Uses ``flock``, so the lock evaporates when the holding process dies
    — a SIGKILLed sweep leaves a stale ``journal.jsonl.lock`` *file* but
    no held lock, and ``repro resume`` acquires it without ceremony.  On
    platforms without ``fcntl`` the lockfile is created but exclusion is
    best-effort only.
    """
    fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-Unix
        return fd
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        try:
            holder = os.read(fd, 64).decode("ascii", "replace").strip()
        except OSError:
            holder = ""
        os.close(fd)
        raise JournalLockError(
            f"{path}: held by pid {holder or 'unknown'} — another engine is "
            "already writing this sweep's journal; two writers would "
            "interleave seq numbers. Wait for it or point this run at a "
            "different --results-dir."
        ) from None
    os.ftruncate(fd, 0)
    os.write(fd, f"{os.getpid()}\n".encode())
    return fd


class RunFailure(RuntimeError):
    """A sweep had specs that failed even after retry."""

    def __init__(self, records: List[RunRecord]):
        self.records = records
        lines = [f"{len(records)} spec(s) failed after retries:"]
        lines += [
            f"  {'/'.join(r.tags) or r.factory} [{r.spec_key[:16]}]: {r.error}"
            for r in records
        ]
        super().__init__("\n".join(lines))


@dataclass
class EngineEvent:
    """One noteworthy execution event (crash, timeout, retry, failure,
    timeout-overrun warning)."""

    spec_key: str
    kind: str          # "crash" | "exception" | "timeout" | "retry" | "failed" | "timeout_overrun"
    attempt: int
    detail: str = ""
    backoff_s: float = 0.0


class RunEngine:
    """Executes spec lists; see the module docstring for the contract."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        global_seed: int = 0,
        timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
        retries: int = 1,
        results_dir: Optional[os.PathLike] = None,
        use_cache: bool = True,
        strict: bool = True,
        progress: Optional[ProgressFn] = None,
        backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
        backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
        checkpoint_sim_ns: Optional[float] = None,
        checkpoint_wall_s: Optional[float] = None,
        executor: Optional[Executor] = None,
    ):
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.global_seed = global_seed
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.results_dir = Path(results_dir) if results_dir is not None else None
        self.use_cache = use_cache and self.results_dir is not None
        self.strict = strict
        self.progress = progress
        self.backoff_base_s = max(0.0, backoff_base_s)
        self.backoff_cap_s = max(0.0, backoff_cap_s)
        self.checkpoint_sim_ns = checkpoint_sim_ns
        self.checkpoint_wall_s = checkpoint_wall_s
        #: explicit execution backend; None picks local (jobs=1) or a
        #: process pool (jobs>1), which is the pre-executor behaviour
        self.executor = executor
        self.events: List[EngineEvent] = []
        #: spec keys quarantined (failed after full retry budget) last run
        self.quarantined: List[str] = []
        #: executor-level fleet events (runner registered/lost/...) last run
        self.runner_events: List[Dict[str, Any]] = []
        self._retry_hist: Dict[int, List[Dict[str, Any]]] = {}
        self._journal_path: Optional[Path] = None
        self._runs_dir: Optional[Path] = None
        self._journal_seq = 0
        self._journal_lock_fd: Optional[int] = None
        self._executor_name = ""

    # ----------------------------------------------------------------- API
    def run(self, experiment: str, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Execute every spec; records come back in spec order."""
        self.events = []
        self.quarantined = []
        self.runner_events = []
        self._retry_hist = {}
        executor = self._resolve_executor()
        self._executor_name = executor.name
        version = code_version()
        cache = ResultCache(self.results_dir) if self.use_cache else None
        self._begin_artifacts(experiment, specs, version)
        try:
            records: List[Optional[RunRecord]] = [None] * len(specs)
            done_count = 0
            pending: List[int] = []

            for i, spec in enumerate(specs):
                hit = cache.get(spec.key, version) if cache is not None else None
                if hit is not None:
                    record = RunRecord.from_json_dict(hit)
                    record.tags = list(spec.tags)   # tags are not part of the key
                    record.experiment = experiment
                    record.cached = True
                    records[i] = record
                    done_count += 1
                    self._write_record(record)
                    self._journal("spec", record)
                    self._emit_progress(done_count, len(specs), record)
                else:
                    pending.append(i)

            def finish(i: int, record: RunRecord) -> None:
                nonlocal done_count
                record.retries = list(self._retry_hist.get(i, []))
                record.timeout_s = self._effective_timeout(specs[i])
                records[i] = record
                done_count += 1
                if not record.ok:
                    record.quarantined = True
                    self.quarantined.append(record.spec_key)
                # the record lands in runs/ before its cache entry, so an
                # interrupted sweep leaves a record for every cached cell
                data = self._write_record(record)
                if record.ok:
                    if cache is not None:
                        cache.put(specs[i].key, version, data)
                    self._discard_checkpoints(specs[i])
                self._journal("spec", record)
                self._emit_progress(done_count, len(specs), record)

            if pending:
                self._run_pending(experiment, specs, pending, version, executor, finish)

            final = [r for r in records if r is not None]
            assert len(final) == len(specs)
            self._write_artifacts(experiment, specs, final)
            failed = [r for r in final if not r.ok]
            if failed and self.strict:
                raise RunFailure(failed)
            return final
        finally:
            self._release_journal_lock()

    # ---------------------------------------------------------- supervision
    def _resolve_executor(self) -> Executor:
        if self.executor is not None:
            return self.executor
        return LocalExecutor() if self.jobs == 1 else ProcessExecutor(self.jobs)

    def _effective_timeout(self, spec: RunSpec) -> Optional[float]:
        return spec.timeout_s if spec.timeout_s is not None else self.timeout_s

    def _backoff_s(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based): bounded exponential."""
        if self.backoff_base_s <= 0.0 or attempt < 1:
            return 0.0
        return min(self.backoff_cap_s, self.backoff_base_s * 2 ** (attempt - 1))

    def _note_retry(self, index: int, spec: RunSpec, attempt: int, cause: str) -> float:
        """Record a scheduled retry; returns its backoff delay."""
        backoff = self._backoff_s(attempt)
        self._retry_hist.setdefault(index, []).append(
            {"attempt": attempt, "cause": cause, "backoff_s": backoff}
        )
        self._note(spec, "retry", attempt, backoff_s=backoff)
        return backoff

    def _checkpoint_cfg(self) -> Optional[Dict[str, Any]]:
        """The checkpoint policy passed to workers (None = no scope)."""
        if self.results_dir is None:
            return None
        ckpt_dir = self.results_dir / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        return {
            "dir": str(ckpt_dir),
            "sim_ns": self.checkpoint_sim_ns,
            "wall_s": self.checkpoint_wall_s,
        }

    def _discard_checkpoints(self, spec: RunSpec) -> None:
        """A spec completed: its snapshots (all slots) are spent."""
        if self.results_dir is None:
            return
        ckpt_dir = self.results_dir / "checkpoints"
        for path in ckpt_dir.glob(f"{spec.short_key}.*.ckpt"):
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------ execution loop
    def _run_pending(
        self,
        experiment: str,
        specs: Sequence[RunSpec],
        pending: List[int],
        version: str,
        executor: Executor,
        finish: Callable[[int, RunRecord], None],
    ) -> None:
        """Drive the executor until every pending cell has a record.

        The engine journals cell starts, applies the retry/backoff/
        quarantine policy to non-ok outcomes, and stamps execution
        provenance (runner identity, timeout honesty) on records; the
        executor decides where each cell runs.
        """
        ckpt = self._checkpoint_cfg()
        executor.start(self._on_executor_event)
        # (spec index, attempt, not-before monotonic time) — backoff keeps
        # a retried spec out of the launch loop without stalling siblings
        todo: List[Tuple[int, int, float]] = [(i, 0, 0.0) for i in pending]
        inflight: Dict[int, Tuple[int, int]] = {}    # task_id -> (index, attempt)
        next_task_id = 0

        def fail_or_retry(index: int, attempt: int, kind: str, detail: str) -> None:
            spec = specs[index]
            self._note(spec, kind, attempt, detail)
            if attempt < self.retries:
                backoff = self._note_retry(index, spec, attempt + 1, kind)
                todo.append((index, attempt + 1, time.monotonic() + backoff))  # wallclock-ok: retry backoff
            else:
                record = RunRecord.for_spec(spec, self.global_seed, experiment, version)
                record.attempts = attempt + 1
                record.error = f"failed after {attempt + 1} attempt(s): {kind}"
                record.timeout_enforced = executor.enforces_timeouts
                self._note(spec, "failed", attempt, record.error)
                finish(index, record)

        try:
            while todo or inflight:
                now = time.monotonic()  # wallclock-ok: retry backoff
                while todo and executor.free_slots() > 0:
                    slot = next(
                        (j for j, t in enumerate(todo) if t[2] <= now), None
                    )
                    if slot is None:
                        break  # everything launchable is backing off
                    index, attempt, _ = todo.pop(slot)
                    spec = specs[index]
                    task = CellTask(
                        task_id=next_task_id,
                        index=index,
                        spec=spec,
                        seed=spec.derived_seed(self.global_seed),
                        attempt=attempt,
                        ckpt=ckpt,
                        timeout_s=self._effective_timeout(spec),
                    )
                    next_task_id += 1
                    placement = executor.submit(task)
                    inflight[task.task_id] = (index, attempt)
                    self._journal_spec_start(spec, attempt, runner=placement)

                for out in executor.poll(0.05):
                    if out.task_id not in inflight:
                        continue  # duplicate / stale outcome
                    index, attempt = inflight.pop(out.task_id)
                    spec = specs[index]
                    if out.status == "ok":
                        if out.timeout_overrun_s > 0.0:
                            timeout = self._effective_timeout(spec)
                            self._note(
                                spec, "timeout_overrun", attempt,
                                f"cell ran {out.timeout_overrun_s:.1f}s past its "
                                f"unenforced {timeout:.1f}s timeout",
                            )
                        record = RunRecord.for_spec(
                            spec, self.global_seed, experiment, version
                        )
                        record.runner = out.runner
                        record.timeout_enforced = (
                            out.enforced if out.enforced is not None
                            else executor.enforces_timeouts
                        )
                        finish(
                            index,
                            self._complete(
                                record, out.measurements, out.wall_time_s,
                                attempt + 1, out.checkpoint_restores,
                            ),
                        )
                    else:
                        fail_or_retry(index, attempt, out.status, out.detail)
        finally:
            executor.close()

    def _on_executor_event(self, payload: Dict[str, Any]) -> None:
        """Executor-level fleet event (runner registered/lost/redispatch/
        degraded): journal it and keep it for the manifest."""
        self.runner_events.append(dict(payload))
        self._journal_emit({"kind": "runner", **payload}, durable=False)

    # ------------------------------------------------------------- helpers
    def _complete(
        self, record: RunRecord, measurements: Dict[str, Any],
        wall_time_s: float, attempts: int, checkpoint_restores: int = 0,
    ) -> RunRecord:
        record.measurements = measurements
        record.wall_time_s = wall_time_s
        record.attempts = attempts
        record.checkpoint_restores = checkpoint_restores
        record.events_executed = int(measurements.get("events_executed", 0))
        if wall_time_s > 0:
            record.events_per_sec = record.events_executed / wall_time_s
        return record

    def _note(
        self, spec: RunSpec, kind: str, attempt: int,
        detail: str = "", backoff_s: float = 0.0,
    ) -> None:
        event = EngineEvent(spec.key, kind, attempt, detail, backoff_s)
        self.events.append(event)
        entry = {
            "kind": "event",
            "spec_key": event.spec_key,
            "event": event.kind,
            "attempt": event.attempt,
            "backoff_s": event.backoff_s,
        }
        phase = {"retry": "retrying", "failed": "quarantined"}.get(kind)
        if phase is not None:
            entry["phase"] = phase
        self._journal_emit(entry, durable=False)

    def _write_record(self, record: RunRecord) -> Optional[bytes]:
        """Serialise ``record`` once and persist it as
        ``runs/<key16>.json``; returns the bytes (None without a
        ``results_dir``).  A cache hit whose file already holds them
        leaves it untouched."""
        if self._runs_dir is None:
            return None
        data = record.to_json_bytes()
        _write_if_changed(self._runs_dir / f"{record.spec_key[:16]}.json", data)
        return data

    def _emit_progress(self, done: int, total: int, record: RunRecord) -> None:
        if self.progress is not None:
            self.progress(done, total, record)

    # ------------------------------------------------------------ artifacts
    def _begin_artifacts(
        self, experiment: str, specs: Sequence[RunSpec], version: str
    ) -> None:
        """Persist the sweep definition *before* running anything, so an
        interrupted sweep can be reconstructed by ``repro resume``."""
        if self.results_dir is None:
            self._journal_path = None
            self._runs_dir = None
            return
        out_dir = self.results_dir / experiment
        out_dir.mkdir(parents=True, exist_ok=True)
        # single-writer assertion first: refuse to touch a sweep another
        # live engine is writing
        self._journal_lock_fd = _acquire_journal_lock(out_dir / "journal.jsonl.lock")
        self._runs_dir = out_dir / "runs"
        sweep = {
            "kind": SWEEP_KIND,
            "schema_version": SWEEP_SCHEMA_VERSION,
            "experiment": experiment,
            "global_seed": self.global_seed,
            "jobs": self.jobs,
            "executor": self._executor_name,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "checkpoint_sim_ns": self.checkpoint_sim_ns,
            "checkpoint_wall_s": self.checkpoint_wall_s,
            "specs": [s.to_json_dict() for s in specs],
        }
        _write_if_changed(
            out_dir / "sweep.json", json.dumps(sweep, indent=1).encode("utf-8")
        )
        self._journal_path = out_dir / "journal.jsonl"
        self._journal_seq = _next_journal_seq(self._journal_path)
        self._journal_emit(
            {
                "kind": "sweep_start",
                "experiment": experiment,
                "n_specs": len(specs),
                "global_seed": self.global_seed,
                "code_version": version,
                "executor": self._executor_name,
                "journal_schema": JOURNAL_SCHEMA_VERSION,
            },
        )

    def _release_journal_lock(self) -> None:
        """Drop journal ownership (the lock *file* stays — see
        :func:`_acquire_journal_lock`)."""
        if self._journal_lock_fd is not None:
            try:
                os.close(self._journal_lock_fd)
            except OSError:
                pass
            self._journal_lock_fd = None

    def _journal_emit(self, entry: Dict[str, Any], durable: bool = True) -> None:
        """Append one journal entry, stamping the v2 ``seq``/``ts`` pair.

        The engine is the journal's only writer (workers report over
        pipes or sockets; the lockfile enforces one engine per sweep
        dir), so the in-process counter is globally monotone; appends
        go through :func:`append_jsonl` so tailing readers never see a
        torn line except, transiently, the very last one.
        """
        if self._journal_path is None:
            return
        entry["seq"] = self._journal_seq
        entry["ts"] = round(time.time(), 6)
        self._journal_seq += 1
        append_jsonl(self._journal_path, entry, durable=durable)

    def _journal_spec_start(
        self, spec: RunSpec, attempt: int, runner: Optional[str] = None
    ) -> None:
        entry = {
            "kind": "spec_start",
            "spec_key": spec.key,
            "attempt": attempt,
            "phase": "running",
        }
        if runner is not None:
            entry["runner"] = runner
        self._journal_emit(entry, durable=False)

    def _journal(self, kind: str, record: RunRecord) -> None:
        if record.cached:
            phase = "cached"
        elif record.ok:
            phase = "done"
        else:
            phase = "quarantined"
        entry = {
            "kind": kind,
            "spec_key": record.spec_key,
            "phase": phase,
            "ok": record.ok,
            "cached": record.cached,
            "attempts": record.attempts,
            "checkpoint_restores": record.checkpoint_restores,
            "wall_time_s": round(record.wall_time_s, 6),
            "progress": record.progress_payload(),
        }
        if record.runner is not None:
            entry["runner"] = record.runner
        self._journal_emit(entry, durable=False)

    def _write_artifacts(
        self, experiment: str, specs: Sequence[RunSpec], records: List[RunRecord]
    ) -> None:
        if self.results_dir is None:
            return
        out_dir = self.results_dir / experiment
        manifest = {
            "experiment": experiment,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "jobs": self.jobs,
            "executor": self._executor_name,
            "global_seed": self.global_seed,
            "code_version": code_version(),
            "n_specs": len(specs),
            "cached": sum(1 for r in records if r.cached),
            "failed": sum(1 for r in records if not r.ok),
            "quarantined": list(self.quarantined),
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "runner_events": list(self.runner_events),
            "events": [
                {
                    "spec": e.spec_key[:16],
                    "kind": e.kind,
                    "attempt": e.attempt,
                    "backoff_s": e.backoff_s,
                }
                for e in self.events
            ],
            "runs": [
                {
                    "spec_key": r.spec_key,
                    "record": f"runs/{r.spec_key[:16]}.json",
                    "factory": r.factory,
                    "tags": r.tags,
                    "ok": r.ok,
                    "cached": r.cached,
                    "attempts": r.attempts,
                    "retries": r.retries,
                    "checkpoint_restores": r.checkpoint_restores,
                    "runner": r.runner,
                    "wall_time_s": round(r.wall_time_s, 6),
                    "events_per_sec": round(r.events_per_sec, 1),
                }
                for r in records
            ],
        }
        atomic_write_json(out_dir / "manifest.json", manifest)
        self._journal_emit(
            {
                "kind": "sweep_end",
                "n_specs": len(specs),
                "failed": sum(1 for r in records if not r.ok),
                "quarantined": len(self.quarantined),
            },
        )


def run_specs(
    experiment: str,
    specs: Sequence[RunSpec],
    engine: Optional[RunEngine] = None,
    **engine_kwargs,
) -> List[RunRecord]:
    """Convenience wrapper: run ``specs`` on ``engine`` (default: serial,
    artifact-free, cache-free — the library/testing configuration)."""
    if engine is None:
        engine_kwargs.setdefault("jobs", 1)
        engine_kwargs.setdefault("results_dir", None)
        engine = RunEngine(**engine_kwargs)
    return engine.run(experiment, specs)
