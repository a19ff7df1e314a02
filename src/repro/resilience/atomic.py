"""Torn-write-proof file emission.

Every artifact the harness leaves on disk (run records, manifests,
cache entries, scoreboards, traces, checkpoints) goes through the
helpers here: write to a temp file in the destination directory, flush
and ``fsync`` it, then ``os.replace`` over the target.  A crash — even a
SIGKILL or power loss mid-write — leaves either the old complete file
or the new complete file, never a truncated hybrid that would poison
the content-addressed cache or strand a resume.

The repo-wide rule (enforced by a grep test in ``tests/test_resilience.py``)
is that no production code calls ``json.dump`` or ``Path.write_text``
on an artifact path directly; serialization to caller-owned streams is
exempt and marked ``atomic-ok: stream``.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional, Union

PathLike = Union[str, os.PathLike]


def fsync_dir(path: PathLike) -> None:
    """Flush a directory entry so a just-renamed file survives power loss.

    Best-effort: some filesystems (and all of Windows) refuse to open
    directories, in which case the rename alone is still crash-atomic.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes, durable: bool = True) -> Path:
    """Atomically replace ``path`` with ``data`` (tmp + fsync + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            if durable:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if durable:
        fsync_dir(path.parent)
    return path


def atomic_write_text(
    path: PathLike, text: str, encoding: str = "utf-8", durable: bool = True
) -> Path:
    """Atomically replace ``path`` with ``text``."""
    return atomic_write_bytes(path, text.encode(encoding), durable=durable)


def atomic_write_json(
    path: PathLike,
    obj: Any,
    indent: Optional[int] = 1,
    trailing_newline: bool = False,
    durable: bool = True,
) -> Path:
    """Atomically replace ``path`` with ``obj`` serialized as JSON."""
    text = json.dumps(obj, indent=indent)
    if trailing_newline:
        text += "\n"
    return atomic_write_text(path, text, durable=durable)


def append_jsonl(path: PathLike, obj: Any, durable: bool = True) -> None:
    """Append one JSON object as a single line (journal entries).

    Appends are not rename-atomic: a crash can tear the *last* line.
    Readers (:func:`read_jsonl`) therefore tolerate a torn tail; every
    fully written line before it is durable thanks to the fsync.  A torn
    tail has no newline, so this append ends it first: otherwise the new
    entry would join the torn line and be lost with it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")
    with open(path, "a+b") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                line = b"\n" + line
        fh.write(line)
        fh.flush()
        if durable:
            os.fsync(fh.fileno())


def read_jsonl(path: PathLike) -> "tuple[list, int]":
    """Parse a journal; returns ``(entries, torn_lines)``.

    Unparseable lines are skipped and counted — by construction only the
    final line of a journal can be torn, but the reader is permissive
    about any corruption so a damaged journal never blocks a resume.
    """
    entries = []
    torn = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except ValueError:
                    torn += 1
    except OSError:
        return [], 0
    return entries, torn
