"""Atomic, digest-framed artifact store for fabric task results.

One file per task result under ``<root>/artifacts/``, named by the task's
content-addressed key.  Payloads are canonical JSON wrapped in the trace
cache's integrity frame (magic + truncated sha256), written
write-temp-fsync-rename so concurrent campaigns can share one root.  A
frame that fails verification — truncated write, bit rot, a chaos-harness
bit flip — is quarantined to ``<root>/quarantine/`` and reads as a miss,
so the fabric recomputes the task instead of serving garbage: the same
self-healing discipline as :mod:`repro.harness.trace_cache`.

Artifacts are keyed by task parameters plus the code fingerprint (see
:func:`repro.fabric.task.task_key`), so a source edit orphans every entry
written before it instead of letting the store serve it;
``repro-cli fabric gc --all`` reclaims the orphans.  The store is
**opt-in**: set ``REPRO_FABRIC_STORE`` to a directory (or to
``1``/``on``/``auto`` for a ``fabric/`` subdirectory of the trace-cache
root) to enable cross-campaign dedupe.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from repro.errors import CacheCorruptionError
from repro.harness.trace_cache import (
    default_cache_root,
    frame_payload,
    unframe_payload,
)
from repro.telemetry import get_logger
from repro.telemetry import registry as _telemetry

logger = get_logger(__name__)

#: Bump when the artifact payload layout changes.
STORE_SCHEMA = 1

_ENV_VAR = "REPRO_FABRIC_STORE"
_DISABLED_VALUES = ("0", "off", "none", "no", "false")
_ENABLED_VALUES = ("1", "on", "yes", "true", "auto")


class ArtifactStore:
    """Content-addressed result store under one root directory."""

    def __init__(self, root):
        self.root = Path(root)
        self._artifacts = self.root / "artifacts"
        self._quarantine_dir = self.root / "quarantine"

    def path(self, key: str) -> Path:
        return self._artifacts / f"{key}.json"

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def _write_atomic(self, path: Path, data: bytes):
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass

    def quarantine(self, path: Path, reason):
        """Move a corrupt artifact aside so the task is recomputed."""
        try:
            self._quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self._quarantine_dir / path.name)
            _telemetry.counter("fabric.store.quarantined").inc()
            logger.warning(
                "quarantined corrupt fabric artifact %s (%s); the task "
                "will be recomputed", path.name, reason,
            )
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def get(self, key: str):
        """The stored result for ``key``, or ``None`` on miss/corruption."""
        path = self.path(key)
        try:
            data = path.read_bytes()
        except OSError:
            _telemetry.counter("fabric.store.misses").inc()
            return None
        try:
            payload = json.loads(unframe_payload(data).decode("utf-8"))
            if payload.get("schema") != STORE_SCHEMA:
                raise CacheCorruptionError(
                    f"artifact schema {payload.get('schema')!r}; this "
                    f"build writes {STORE_SCHEMA}"
                )
            result = payload["result"]
        except (CacheCorruptionError, ValueError, KeyError,
                UnicodeDecodeError) as exc:
            self.quarantine(path, exc)
            _telemetry.counter("fabric.store.misses").inc()
            return None
        _telemetry.counter("fabric.store.hits").inc()
        return result

    def put(self, key: str, result):
        """Persist one task result (canonical JSON, framed, atomic)."""
        payload = json.dumps(
            {"schema": STORE_SCHEMA, "key": key, "result": result},
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        self._write_atomic(self.path(key), frame_payload(payload))
        _telemetry.counter("fabric.store.stores").inc()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        out = {"root": str(self.root), "schema_version": STORE_SCHEMA}
        for kind, directory in (("artifacts", self._artifacts),
                                ("quarantined", self._quarantine_dir)):
            count = 0
            size = 0
            if directory.is_dir():
                for entry in directory.iterdir():
                    if entry.is_file():
                        count += 1
                        size += entry.stat().st_size
            out[kind] = {"entries": count, "bytes": size}
        return out

    def gc(self, everything: bool = False) -> int:
        """Delete quarantined entries (and, with ``everything``, all
        artifacts); returns the number of files removed."""
        removed = 0
        directories = [self._quarantine_dir]
        if everything:
            directories.append(self._artifacts)
        for directory in directories:
            if not directory.is_dir():
                continue
            for entry in directory.iterdir():
                if not entry.is_file():
                    continue
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


def default_store_root() -> Optional[Path]:
    """Resolve the store root from ``REPRO_FABRIC_STORE``.

    Returns ``None`` when the store is disabled, which is the default.
    """
    value = os.environ.get(_ENV_VAR)
    if value is None:
        return None
    value = value.strip()
    if not value or value.lower() in _DISABLED_VALUES:
        return None
    if value.lower() in _ENABLED_VALUES:
        cache_root = default_cache_root()
        return cache_root / "fabric" if cache_root is not None else None
    return Path(value).expanduser()


def resolve_store(store="auto") -> Optional[ArtifactStore]:
    """Normalise a store argument to an :class:`ArtifactStore` or ``None``.

    ``"auto"`` honours the environment (see :func:`default_store_root`);
    ``None``/``False`` disables; a path-like opens that directory; an
    :class:`ArtifactStore` passes through.
    """
    if store is None or store is False:
        return None
    if isinstance(store, ArtifactStore):
        return store
    if store == "auto":
        root = default_store_root()
        return ArtifactStore(root) if root is not None else None
    return ArtifactStore(store)
