"""Deterministic simulator checkpoints.

A checkpoint captures the *entire* simulator object graph mid-run — the
event heap (with callback closures as bound methods), per-core backlogs,
NIC rings, RNG substream positions, steering/MFLOW/reassembly state,
fault-injector and observability counters — by pickling the root object
(normally a :class:`~repro.workloads.scenario.Scenario`).  Because the
simulation is a pure function of that graph, restoring the pickle and
continuing the event loop is **bit-identical** to never having stopped:
the derived-seed and inert-plan guarantees from the runner make that
property testable, and ``tests/test_resilience.py`` tests it.

File format (schema-versioned, torn-write-proof)::

    line 1: JSON header {"kind": "repro-checkpoint", "schema_version",
            "code_version", "key", "slot", "sim_ns", "events_executed",
            "payload_len", "payload_sha256"}
    rest:   pickle payload (verified against the digest before loading)

Checkpoints are an *optimization*: a missing, stale (code changed) or
corrupt file is silently discarded and the run restarts from scratch,
which is always correct.

``sim.checkpointer = ckpt`` attaches, ``None`` (the default) detaches.
:meth:`Simulator.run` — the one event loop — offers the checkpointer a
snapshot after every callback; a save only reads the graph, so a
checkpointed run measures exactly what an uncheckpointed one does.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.resilience.atomic import atomic_write_bytes

CHECKPOINT_SCHEMA_VERSION = 1
CHECKPOINT_KIND = "repro-checkpoint"
CHECKPOINT_SUFFIX = ".ckpt"


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, torn, or from a different build."""


def _current_code_version() -> str:
    # imported lazily: runner.cache hashes the installed package sources
    from repro.runner.cache import code_version

    return code_version()


# ----------------------------------------------------------------- file format
def freeze_blob(root: Any, meta: Optional[Dict[str, Any]] = None) -> bytes:
    """Serialize ``root`` to a self-verifying in-memory snapshot blob.

    Same format as a checkpoint file (JSON header line + pickle payload,
    digest in the header) but never touches disk — this is what the
    migration controller "ships" when it freezes a container: the blob's
    byte length drives the transfer-delay model and :func:`thaw_blob`
    verifies the digest before unpickling, exactly like a CRIU image.
    """
    payload = pickle.dumps(root, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "kind": CHECKPOINT_KIND,
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "code_version": _current_code_version(),
        "payload_len": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    if meta:
        header.update(meta)
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload


def thaw_blob(blob: bytes) -> Tuple[Dict[str, Any], Any]:
    """Verify and unpickle a :func:`freeze_blob` snapshot.

    Returns ``(header, root)``; raises :class:`CheckpointError` on any
    damage (torn payload, digest mismatch, wrong schema).
    """
    fh = io.BufferedReader(io.BytesIO(blob))
    header = _read_header(fh, Path("<blob>"))
    payload = fh.read()
    if len(payload) != header.get("payload_len"):
        raise CheckpointError(
            f"<blob>: torn payload ({len(payload)} of "
            f"{header.get('payload_len')} bytes)"
        )
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise CheckpointError("<blob>: payload digest mismatch")
    try:
        root = pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of types
        raise CheckpointError(f"<blob>: payload does not unpickle: {exc}") from exc
    return header, root


def write_checkpoint(
    path: Union[str, Path], root: Any, meta: Optional[Dict[str, Any]] = None
) -> Path:
    """Serialize ``root`` to ``path`` atomically with a verifiable header."""
    return atomic_write_bytes(path, freeze_blob(root, meta))


def _read_header(fh: io.BufferedReader, path: Path) -> Dict[str, Any]:
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise CheckpointError(f"{path}: unparseable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_KIND} file")
    if header.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint schema {header.get('schema_version')!r} "
            f"unsupported (expected {CHECKPOINT_SCHEMA_VERSION})"
        )
    return header


def verify_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Validate header + payload digest *without* unpickling (fsck-safe).

    Returns the header; raises :class:`CheckpointError` on any damage.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            header = _read_header(fh, path)
            payload = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: unreadable: {exc}") from exc
    if len(payload) != header.get("payload_len"):
        raise CheckpointError(
            f"{path}: torn payload ({len(payload)} of "
            f"{header.get('payload_len')} bytes)"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise CheckpointError(f"{path}: payload digest mismatch")
    return header


def load_checkpoint(path: Union[str, Path]) -> Tuple[Dict[str, Any], Any]:
    """Verify and unpickle a checkpoint; returns ``(header, root)``."""
    path = Path(path)
    header = verify_checkpoint(path)
    with open(path, "rb") as fh:
        _read_header(fh, path)
        payload = fh.read()
    try:
        root = pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of types
        raise CheckpointError(f"{path}: payload does not unpickle: {exc}") from exc
    return header, root


# ----------------------------------------------------------------- checkpointer
class Checkpointer:
    """Periodic snapshot hook driven by :meth:`Simulator.run`.

    Snapshots fire between events whenever ``every_sim_ns`` of simulated
    time or ``every_wall_s`` of wall-clock time has elapsed since the
    last save.  Saving only *reads* the object graph, so a checkpointed
    run's measurements are bit-identical to an uncheckpointed one.
    """

    def __init__(
        self,
        path: Union[str, Path],
        root: Any = None,
        every_sim_ns: Optional[float] = None,
        every_wall_s: Optional[float] = None,
        meta: Optional[Dict[str, Any]] = None,
    ):
        if every_sim_ns is not None and every_sim_ns <= 0:
            raise ValueError("every_sim_ns must be positive")
        if every_wall_s is not None and every_wall_s <= 0:
            raise ValueError("every_wall_s must be positive")
        self.path = Path(path)
        self.root = root
        self.every_sim_ns = every_sim_ns
        self.every_wall_s = every_wall_s
        self.meta = dict(meta or {})
        self.saves = 0
        self._next_sim_ns: Optional[float] = None
        self._next_wall: Optional[float] = None

    # wall-clock deadlines are meaningless in another process/life: drop
    # them from snapshots so a restored run re-bases on its own clock
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_next_sim_ns"] = None
        state["_next_wall"] = None
        return state

    def begin(self, sim: Any) -> None:
        """Re-base the periodic deadlines at the start of a run loop."""
        if self.every_sim_ns is not None:
            self._next_sim_ns = sim.now + self.every_sim_ns
        if self.every_wall_s is not None:
            self._next_wall = time.monotonic() + self.every_wall_s

    def due(self, now_ns: float) -> bool:
        if self._next_sim_ns is not None and now_ns >= self._next_sim_ns:
            return True
        if self._next_wall is not None and time.monotonic() >= self._next_wall:
            return True
        return False

    def save(self, sim: Any) -> None:
        """Snapshot the root graph; advances both deadlines."""
        meta = dict(self.meta)
        meta["sim_ns"] = sim.now
        meta["events_executed"] = sim.events_executed
        write_checkpoint(self.path, self.root if self.root is not None else sim, meta)
        self.saves += 1
        if self.every_sim_ns is not None:
            self._next_sim_ns = sim.now + self.every_sim_ns
        if self.every_wall_s is not None:
            self._next_wall = time.monotonic() + self.every_wall_s


# ------------------------------------------------------------- worker context
@dataclass
class CheckpointSlot:
    """One checkpointable run inside a spec (factories may run several).

    Self-contained (plain paths and floats) so it survives being pickled
    as part of the scenario graph and still works after a restore in a
    fresh process.
    """

    path: Path
    key: str
    slot: int
    every_sim_ns: Optional[float] = None
    every_wall_s: Optional[float] = None
    restored: bool = field(default=False, compare=False)

    def try_restore(self) -> Optional[Any]:
        """The checkpointed root if a usable snapshot exists, else None.

        Corrupt or stale (different code version / spec) files are
        deleted so they are never consulted again.
        """
        if not self.path.exists():
            return None
        try:
            header, root = load_checkpoint(self.path)
        except CheckpointError:
            self.path.unlink(missing_ok=True)
            return None
        if (
            header.get("code_version") != _current_code_version()
            or header.get("key") != self.key
        ):
            self.path.unlink(missing_ok=True)
            return None
        self.restored = True
        return root

    def checkpointer_for(self, root: Any) -> Optional[Checkpointer]:
        """A configured :class:`Checkpointer`, or None when no interval is set
        (restore-only mode: leftover checkpoints are consumed, none written)."""
        if self.every_sim_ns is None and self.every_wall_s is None:
            return None
        return Checkpointer(
            self.path,
            root=root,
            every_sim_ns=self.every_sim_ns,
            every_wall_s=self.every_wall_s,
            meta={"key": self.key, "slot": self.slot},
        )

    def complete(self) -> None:
        """The run finished: its checkpoint is spent."""
        try:
            self.path.unlink()
        except OSError:
            pass


class CheckpointContext:
    """Per-spec checkpoint policy, active while a worker executes a factory."""

    def __init__(
        self,
        directory: Union[str, Path],
        key: str,
        every_sim_ns: Optional[float] = None,
        every_wall_s: Optional[float] = None,
    ):
        self.directory = Path(directory)
        self.key = key
        self.every_sim_ns = every_sim_ns
        self.every_wall_s = every_wall_s
        self.slots = 0
        self.restores = 0

    def claim(self) -> CheckpointSlot:
        """The next run's slot (slot numbers follow factory call order,
        which is deterministic, so resumes line up with the original run)."""
        slot = self.slots
        self.slots += 1
        path = self.directory / f"{self.key[:16]}.{slot}{CHECKPOINT_SUFFIX}"
        return CheckpointSlot(
            path=path,
            key=self.key,
            slot=slot,
            every_sim_ns=self.every_sim_ns,
            every_wall_s=self.every_wall_s,
        )

    def note_restore(self) -> None:
        self.restores += 1


_CONTEXT: Optional[CheckpointContext] = None


def current_context() -> Optional[CheckpointContext]:
    return _CONTEXT


def claim_slot() -> Optional[CheckpointSlot]:
    """Called by :meth:`Scenario.run`; None unless a scope is active."""
    return _CONTEXT.claim() if _CONTEXT is not None else None


@contextmanager
def checkpoint_scope(
    directory: Union[str, Path],
    key: str,
    every_sim_ns: Optional[float] = None,
    every_wall_s: Optional[float] = None,
) -> Iterator[CheckpointContext]:
    """Activate checkpointing for the factory calls made inside the scope."""
    global _CONTEXT
    prev = _CONTEXT
    ctx = CheckpointContext(
        directory, key, every_sim_ns=every_sim_ns, every_wall_s=every_wall_s
    )
    _CONTEXT = ctx
    try:
        yield ctx
    finally:
        _CONTEXT = prev
