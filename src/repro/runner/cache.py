"""Content-addressed result cache.

Cache entries are keyed on ``(spec key, code version)`` where the code
version is a content hash of every ``*.py`` file in the installed
``repro`` package — editing any simulator source invalidates every
cached cell automatically, so re-running a sweep only executes changed
or new cells and never serves stale physics.

A damaged entry (truncated write, corrupted JSON, wrong payload shape)
is treated as a **miss**: it is logged, evicted from disk, and the spec
re-executes.  The cache never raises on bad bytes and never serves
anything it cannot fully parse.
"""

from __future__ import annotations

import json
import hashlib
import logging
from pathlib import Path
from typing import Any, Dict, Optional

from repro.resilience.atomic import atomic_write_bytes

logger = logging.getLogger("repro.runner.cache")

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Content hash of the repro package sources (cached per process)."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:20]
    return _CODE_VERSION


def cache_key(spec_key: str, version: str) -> str:
    return hashlib.sha256(f"{spec_key}:{version}".encode("utf-8")).hexdigest()


class ResultCache:
    """One-JSON-file-per-entry cache under ``<results_root>/.cache/``."""

    def __init__(self, root: Path):
        self.dir = Path(root) / ".cache"
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _path(self, spec_key: str, version: str) -> Path:
        return self.dir / f"{cache_key(spec_key, version)}.json"

    def _evict(self, path: Path, reason: str) -> None:
        self.evictions += 1
        logger.warning("evicting corrupt cache entry %s: %s", path.name, reason)
        try:
            path.unlink()
        except OSError:
            pass

    def get(self, spec_key: str, version: str) -> Optional[Dict[str, Any]]:
        """The cached record dict for ``(spec, code version)``, or None.

        A missing file is a plain miss; an unreadable, truncated, or
        structurally invalid one is a miss that also evicts the entry.
        """
        path = self._path(spec_key, version)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError) as exc:
            self._evict(path, f"unparseable: {exc}")
            self.misses += 1
            return None
        if not isinstance(data, dict) or data.get("spec_key", spec_key) != spec_key:
            self._evict(path, "payload is not a record for this spec")
            self.misses += 1
            return None
        self.hits += 1
        return data

    def put(self, spec_key: str, version: str, data: bytes) -> None:
        """Durably persist a record's serialised bytes
        (:meth:`RunRecord.to_json_bytes`; tmp file + fsync + rename)."""
        atomic_write_bytes(self._path(spec_key, version), data)
