"""A fingerprint of the code that computes every persisted result.

Trace-cache and fabric-store keys name their inputs; this digest names
the program that turned those inputs into the stored result.  It is a
sha256 over the ``repro`` package's ``.py`` sources, sorted by path
relative to the package, computed once per process.  Any edit to any
source file changes it, so the next run misses every entry written
before the edit and recomputes it: a stale entry is orphaned, never
served.

The digest fails closed: if the sources cannot be found or read (a
frozen or zipped install) it raises instead of falling back to a
constant that would let entries outlive the code that made them.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional

from repro.errors import HarnessError

_PACKAGE_ROOT = Path(__file__).resolve().parent
_fingerprint: Optional[str] = None


def _hash_sources(root: Path) -> str:
    try:
        paths = sorted((path.relative_to(root).as_posix(), path)
                       for path in root.rglob("*.py"))
        if not paths:
            raise HarnessError(f"no Python sources found under {root}")
        h = hashlib.sha256()
        for name, path in paths:
            h.update(name.encode())
            h.update(b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    except OSError as exc:
        raise HarnessError(
            f"cannot fingerprint the sources under {root}: {exc}") from exc
    return h.hexdigest()


def code_fingerprint() -> str:
    """sha256 of the ``repro`` package's sources, memoised per process."""
    global _fingerprint
    if _fingerprint is None:
        _fingerprint = _hash_sources(_PACKAGE_ROOT)
    return _fingerprint
