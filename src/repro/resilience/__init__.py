"""Crash-safety layer: checkpoints, atomic artifacts, resume, fsck.

Three cooperating pieces keep long experiment matrices preemption-proof:

* :mod:`repro.resilience.atomic` — every JSON/bytes artifact is written
  tmp + fsync + rename, so a SIGKILL mid-dump can never leave a torn
  file behind;
* :mod:`repro.resilience.checkpoint` — deterministic pickled snapshots
  of the full simulator graph, schema-versioned and digest-verified,
  taken periodically by :meth:`Simulator.run` while ``sim.checkpointer``
  is set;
* :mod:`repro.resilience.resume` / :mod:`~repro.resilience.fsck` —
  ``repro resume`` salvages a killed sweep from its ``sweep.json``,
  result cache and checkpoints; ``repro fsck`` audits a results tree
  and reports salvageable vs corrupt artifacts.
"""

from repro.resilience.atomic import (
    append_jsonl,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    read_jsonl,
)
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    Checkpointer,
    checkpoint_scope,
    claim_slot,
    current_context,
    freeze_blob,
    load_checkpoint,
    thaw_blob,
    verify_checkpoint,
    write_checkpoint,
)

__all__ = [
    "append_jsonl",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "read_jsonl",
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "Checkpointer",
    "checkpoint_scope",
    "claim_slot",
    "current_context",
    "freeze_blob",
    "load_checkpoint",
    "thaw_blob",
    "verify_checkpoint",
    "write_checkpoint",
]
