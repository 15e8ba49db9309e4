"""Persistent cache for functional traces and their timing replays.

Regenerating the paper's figures replays a handful of functional traces
under dozens of machine configurations.  A trace is a pure function of
its task: the code, the base program image, the task's recipe (the ACF
kind with its variant, compression options or composition scheme), the
DISE config and the step budget.  This module caches the traces — and
the per-config :class:`~repro.sim.cycle.CycleResult` replays — on disk,
keyed by a sha256 over exactly those inputs
(:func:`machine_trace_key`; a replay's key hashes its trace's key), so
repeated figure runs, CI jobs and parallel workers all warm-start.  The
key is computed before anything is built: a warm run fingerprints each
base image once and installs no ACF.

The code enters every key as :func:`repro.fingerprint.code_fingerprint`,
a digest of the package's sources, so any source edit makes the next run
cold.  Entries written before the edit are orphaned, never served;
``repro-cli cache clear`` (and ``repro-cli fabric gc --all`` for the
fabric store) reclaims them.

Layout (default root ``~/.cache/repro-dise``, override with the
``REPRO_TRACE_CACHE`` env var; set it to ``0``/``off`` to disable)::

    <root>/traces/<digest>.trc    zlib-compressed pickled trace payload
    <root>/cycles/<digest>.cyc    zlib-compressed pickled CycleResult

Entries are written atomically (tmp file + ``os.replace``) so concurrent
workers can share one cache directory.  Every entry is framed with a magic
tag and a truncated sha256 of its payload; an entry that fails the check —
truncated write, bit rot, a stray file — is *quarantined* (moved to
``<root>/quarantine/``) and reads as a miss, so the caller regenerates it
without user intervention.  Keys and payloads embed
:data:`SCHEMA_VERSION`, which versions the serialized form.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import pickle
import sys
import zlib
from array import array
from pathlib import Path
from typing import Optional

from repro.errors import CacheCorruptionError
from repro.fingerprint import code_fingerprint
from repro.program.image import ProgramImage
from repro.sim.memory import Memory
from repro.sim.trace import OpColumns, TraceResult
from repro.telemetry import get_logger
from repro.telemetry import registry as _telemetry

logger = get_logger(__name__)

#: Bump when the serialized trace or cycle payload changes shape (code
#: changes already move every key through the code fingerprint).
#: 2: entries gained the integrity frame (magic + content digest).
#: 3: structure-of-arrays payload — the five trace columns travel as raw
#:    ``array('Q')`` buffers (plus the recorder's byte order) instead of
#:    per-op pickled tuples.
SCHEMA_VERSION = 3

_ENV_VAR = "REPRO_TRACE_CACHE"
_DISABLED_VALUES = ("0", "off", "none", "no", "false")


class CacheError(CacheCorruptionError, RuntimeError):
    """Raised for malformed payloads (callers treat it as a miss).

    Part of the :mod:`repro.errors` taxonomy; keeps its historical
    ``RuntimeError`` base for existing ``except`` clauses.
    """


# ----------------------------------------------------------------------
# Integrity framing
# ----------------------------------------------------------------------
#: File header of a framed cache entry (version baked into the magic).
_MAGIC = b"RDTC3\n"
#: Truncated sha256 length — 64 bits of integrity is plenty for rot
#: detection (this is not an authentication boundary).
_DIGEST_BYTES = 16


def _frame_version(path: Path) -> Optional[int]:
    """Schema version baked into an entry's ``RDTC<n>`` magic.

    Returns ``None`` (never raises) for unreadable, truncated, or
    foreign files, so maintenance commands can walk a shared cache
    directory safely.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(16)
    except OSError:
        return None
    if not head.startswith(b"RDTC"):
        return None
    end = head.find(b"\n", 4)
    if end < 0:
        return None
    try:
        return int(head[4:end])
    except ValueError:
        return None


def frame_payload(payload: bytes) -> bytes:
    """Wrap payload bytes with the magic tag and their content digest."""
    return _MAGIC + hashlib.sha256(payload).digest()[:_DIGEST_BYTES] + payload


def unframe_payload(data: bytes) -> bytes:
    """Verify and strip the integrity frame; raises :class:`CacheError`."""
    header = len(_MAGIC) + _DIGEST_BYTES
    if len(data) < header or not data.startswith(_MAGIC):
        raise CacheError("cache entry has no integrity header")
    digest = data[len(_MAGIC):header]
    payload = data[header:]
    if hashlib.sha256(payload).digest()[:_DIGEST_BYTES] != digest:
        raise CacheError("cache entry failed its content digest")
    return payload


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def image_fingerprint(image: ProgramImage) -> str:
    """Stable digest of everything execution or an ACF installation can
    observe in an image.

    Trace keys name the *base* image and derive the installation from it,
    so the symbol table and the load-address pairs that rewriting and
    compression read are covered along with what execution reads.
    Memoised on the image: transformations build *new* images rather than
    mutating, so the digest of a given object never changes.

    The fields (ints, strings and None) are serialized in one
    ``marshal`` call at format version 2, which writes each value by
    type and content and never back-references a shared object, so equal
    images give equal bytes in every process.  It is about three times
    cheaper than ``repr`` over the same values.
    """
    cached = getattr(image, "_cached_fingerprint", None)
    if cached is not None:
        return cached
    fields = (
        [(instr.opcode.code, instr.ra, instr.rb, instr.rc, instr.imm,
          instr.target) for instr in image.instructions],
        tuple(image.addresses), tuple(image.sizes),
        tuple(image.target_index),
        (image.entry_index, image.text_base, image.data_base,
         image.data_size),
        sorted(image.data_words.items()),
        list(image.symbols.items()),
        list(image.load_addresses.items()),
    )
    digest = hashlib.sha256(marshal.dumps(fields, 2)).hexdigest()
    try:
        image._cached_fingerprint = digest
    except AttributeError:
        pass
    return digest


def machine_trace_key(image: ProgramImage, recipe: str,
                      dise_config_repr: str, max_steps: int) -> str:
    """The cache key of one functional run, computed before anything is
    built: the schema, the code fingerprint, the base ``image``, the
    task's ``recipe`` (how the installation is derived from the image),
    the DISE config and the step budget.

    Keying the recipe instead of the built installation relies on
    installation being deterministic — the same image and recipe give
    the same productions and initial state in every process, whatever
    its hash seed — which the test suite pins for every task kind.
    """
    h = hashlib.sha256()
    for part in (f"schema={SCHEMA_VERSION}", f"code={code_fingerprint()}",
                 f"image={image_fingerprint(image)}", f"recipe={recipe}",
                 f"dise={dise_config_repr}", f"max_steps={max_steps}"):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def trace_fingerprint(trace: TraceResult) -> str:
    """A stable content digest for an in-memory trace.

    Uses the cache key when the trace came from (or went into) the
    persistent cache; otherwise hashes the serialized content once and
    memoises it on the trace.  Replaces identity-based memo keys, whose
    ids can be recycled after garbage collection.
    """
    if trace.cache_key is not None:
        return trace.cache_key
    if trace._fingerprint is None:
        h = hashlib.sha256()
        h.update(b"content:")
        h.update(serialize_trace(trace))
        trace._fingerprint = h.hexdigest()
    return trace._fingerprint


def cycle_key(trace_digest: str, config_repr: str, warm_start: bool) -> str:
    """The cache key for one timing replay of a cached trace; hashing the
    trace's key, it inherits the code fingerprint."""
    h = hashlib.sha256()
    h.update(f"schema={SCHEMA_VERSION}".encode())
    h.update(trace_digest.encode())
    h.update(config_repr.encode())
    h.update(repr(warm_start).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Trace serialization
# ----------------------------------------------------------------------
def serialize_trace(trace: TraceResult) -> bytes:
    """Compact bytes for a trace: raw column buffers, zlib'd.

    The five structure-of-arrays columns travel as ``array('Q').tobytes()``
    blobs tagged with the recorder's byte order; the sparse expansion map
    stays a plain dict.  Output is deterministic for a given trace — the
    parallel harness compares serialized bytes across workers.
    """
    cols = trace.columns
    payload = {
        "schema": SCHEMA_VERSION,
        "byteorder": sys.byteorder,
        "cols": {
            "pc": cols.pc.tobytes(),
            "meta": cols.meta.tobytes(),
            "mem": cols.mem.tobytes(),
            "target": cols.target.tobytes(),
            "srcs": cols.srcs.tobytes(),
            "exp": dict(sorted(cols.exp.items())),
        },
        "outputs": list(trace.outputs),
        "fault_code": trace.fault_code,
        "halted": trace.halted,
        "instructions": trace.instructions,
        "app_instructions": trace.app_instructions,
        "expansions": trace.expansions,
        "final_regs": tuple(trace.final_regs),
        "final_memory": trace.final_memory.snapshot(),
    }
    return zlib.compress(pickle.dumps(payload, protocol=4), level=1)


def _column(blob: bytes, swap: bool) -> array:
    col = array("Q")
    col.frombytes(blob)
    if swap:
        col.byteswap()
    return col


def deserialize_trace(data: bytes) -> TraceResult:
    """Rebuild a :class:`TraceResult` from :func:`serialize_trace` bytes."""
    try:
        payload = pickle.loads(zlib.decompress(data))
    except Exception as exc:  # corrupt/truncated entry
        raise CacheError(f"undecodable trace payload: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA_VERSION:
        raise CacheError("trace payload schema mismatch")
    try:
        raw = payload["cols"]
        swap = payload["byteorder"] != sys.byteorder
        cols = OpColumns()
        cols.pc = _column(raw["pc"], swap)
        cols.meta = _column(raw["meta"], swap)
        cols.mem = _column(raw["mem"], swap)
        cols.target = _column(raw["target"], swap)
        cols.srcs = _column(raw["srcs"], swap)
        cols.exp = dict(raw["exp"])
        return TraceResult(
            columns=cols,
            outputs=payload["outputs"],
            fault_code=payload["fault_code"],
            halted=payload["halted"],
            instructions=payload["instructions"],
            app_instructions=payload["app_instructions"],
            expansions=payload["expansions"],
            final_regs=payload["final_regs"],
            final_memory=Memory(payload["final_memory"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheError(f"malformed trace payload: {exc}") from exc


class LazyTrace:
    """A cached trace that defers deserialization until it is needed.

    Warm figure runs usually need nothing from a trace beyond its cache
    key (the per-config cycle results are cached under it), so unpickling
    millions of :class:`~repro.sim.trace.Op` records up front would
    dominate the warm path.  This proxy carries the key; the first access
    to any real trace attribute materialises the underlying
    :class:`TraceResult` from the cache (or via ``recompute`` if the entry
    vanished or rotted in the meantime) and delegates from then on —
    including attribute writes, so the timing model's warm-state memo
    lands on the shared underlying trace.
    """

    _OWN = frozenset(("cache_key", "_cache", "_recompute", "_real"))

    def __init__(self, cache: "TraceCache", digest: str, recompute=None):
        object.__setattr__(self, "cache_key", digest)
        object.__setattr__(self, "_cache", cache)
        object.__setattr__(self, "_recompute", recompute)
        object.__setattr__(self, "_real", None)

    def materialize(self) -> TraceResult:
        trace = self._real
        if trace is None:
            trace = self._cache.load_trace(self.cache_key)
            if trace is None:
                if self._recompute is None:
                    raise CacheError(
                        f"cache entry {self.cache_key} disappeared and no "
                        "recompute fallback was provided"
                    )
                trace = self._recompute()
                self._cache.store_trace(self.cache_key, trace)
            trace.cache_key = self.cache_key
            object.__setattr__(self, "_real", trace)
        return trace

    def __getattr__(self, name):
        return getattr(self.materialize(), name)

    def __setattr__(self, name, value):
        if name in self._OWN:
            object.__setattr__(self, name, value)
        else:
            setattr(self.materialize(), name, value)


# ----------------------------------------------------------------------
# The on-disk cache
# ----------------------------------------------------------------------
class TraceCache:
    """Content-addressed trace + cycle-result store under one root dir."""

    def __init__(self, root):
        self.root = Path(root)
        self._traces = self.root / "traces"
        self._cycles = self.root / "cycles"
        self._quarantine_dir = self.root / "quarantine"

    # -- plumbing ------------------------------------------------------
    def _write_atomic(self, path: Path, data: bytes):
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass

    def _read(self, path: Path) -> Optional[bytes]:
        try:
            return path.read_bytes()
        except OSError:
            return None

    def quarantine(self, path: Path, reason):
        """Move a corrupt entry aside so the next lookup regenerates it."""
        try:
            self._quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self._quarantine_dir / path.name)
            _telemetry.counter("trace_cache.quarantined").inc()
            logger.warning(
                "quarantined corrupt cache entry %s (%s); it will be "
                "regenerated", path.name, reason,
            )
        except OSError:
            # Quarantine dir unwritable / entry raced away: best effort —
            # just drop the entry so it cannot be served again.
            try:
                path.unlink()
            except OSError:
                pass

    def _load_verified(self, path: Path) -> Optional[bytes]:
        """Read a framed entry; quarantines and misses on corruption."""
        data = self._read(path)
        if data is None:
            return None
        try:
            return unframe_payload(data)
        except CacheError as exc:
            self.quarantine(path, exc)
            return None

    # -- traces --------------------------------------------------------
    def trace_path(self, digest: str) -> Path:
        return self._traces / f"{digest}.trc"

    def has_trace(self, digest: str) -> bool:
        return self.trace_path(digest).is_file()

    def load_trace_bytes(self, digest: str) -> Optional[bytes]:
        """Verified trace payload bytes, or ``None`` on miss/corruption."""
        data = self._load_verified(self.trace_path(digest))
        _telemetry.counter(
            "trace_cache.trace.hits" if data is not None
            else "trace_cache.trace.misses"
        ).inc()
        return data

    def load_trace(self, digest: str) -> Optional[TraceResult]:
        data = self.load_trace_bytes(digest)
        if data is None:
            return None
        try:
            return deserialize_trace(data)
        except CacheError as exc:
            # Frame intact but payload undecodable (e.g. written by a
            # different pickle/zlib build): self-heal the same way.
            self.quarantine(self.trace_path(digest), exc)
            return None

    def store_trace_bytes(self, digest: str, data: bytes):
        self._write_atomic(self.trace_path(digest), frame_payload(data))
        _telemetry.counter("trace_cache.trace.stores").inc()

    def store_trace(self, digest: str, trace: TraceResult) -> bytes:
        data = serialize_trace(trace)
        self.store_trace_bytes(digest, data)
        return data

    # -- cycle results -------------------------------------------------
    def cycle_path(self, digest: str) -> Path:
        return self._cycles / f"{digest}.cyc"

    def load_cycles(self, digest: str):
        data = self._load_verified(self.cycle_path(digest))
        _telemetry.counter(
            "trace_cache.cycles.hits" if data is not None
            else "trace_cache.cycles.misses"
        ).inc()
        if data is None:
            return None
        try:
            return pickle.loads(zlib.decompress(data))
        except Exception as exc:
            self.quarantine(self.cycle_path(digest), exc)
            return None

    def store_cycles(self, digest: str, result):
        data = zlib.compress(pickle.dumps(result, protocol=4), level=1)
        self._write_atomic(self.cycle_path(digest), frame_payload(data))
        _telemetry.counter("trace_cache.cycles.stores").inc()

    # -- maintenance ---------------------------------------------------
    def stats(self) -> dict:
        """Entry counts, byte totals, and per-schema-version breakdown.

        ``by_schema`` maps the version parsed from each entry's frame
        magic (as a string key, ``"unknown"`` for unframed files) to the
        number of entries carrying it — a mixed cache directory shows up
        immediately instead of as silent misses.
        """
        out = {"root": str(self.root), "schema_version": SCHEMA_VERSION}
        for kind, directory, suffix in (
            ("traces", self._traces, ".trc"),
            ("cycles", self._cycles, ".cyc"),
            ("quarantined", self._quarantine_dir, None),
        ):
            count = 0
            size = 0
            versions: dict = {}
            if directory.is_dir():
                for entry in directory.iterdir():
                    if (suffix is None or entry.suffix == suffix) \
                            and entry.is_file():
                        count += 1
                        size += entry.stat().st_size
                        version = _frame_version(entry)
                        key = "unknown" if version is None else str(version)
                        versions[key] = versions.get(key, 0) + 1
            out[kind] = {
                "entries": count,
                "bytes": size,
                "by_schema": dict(sorted(versions.items())),
            }
        return out

    def clear(self) -> int:
        """Delete current- and older-schema entries; returns the count.

        Entries whose frame magic carries a schema version *newer* than
        this build's are left in place — in a cache directory shared with
        a newer tool they are live data, not garbage.  Unreadable files
        are skipped rather than crashing the sweep.
        """
        removed = 0
        for directory in (self._traces, self._cycles, self._quarantine_dir):
            if not directory.is_dir():
                continue
            for entry in directory.iterdir():
                if not entry.is_file():
                    continue
                if directory is not self._quarantine_dir:
                    version = _frame_version(entry)
                    if version is not None and version > SCHEMA_VERSION:
                        logger.info(
                            "cache clear: keeping %s (schema %d is newer "
                            "than this build's %d)",
                            entry.name, version, SCHEMA_VERSION,
                        )
                        continue
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


def default_cache_root() -> Optional[Path]:
    """Resolve the cache root from ``REPRO_TRACE_CACHE`` / XDG defaults.

    Returns ``None`` when caching is disabled.
    """
    value = os.environ.get(_ENV_VAR)
    if value is not None:
        if value.strip().lower() in _DISABLED_VALUES or not value.strip():
            return None
        return Path(value).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-dise"


def open_cache(cache="auto") -> Optional[TraceCache]:
    """Normalise a cache argument to a :class:`TraceCache` or ``None``.

    ``"auto"`` honours the environment (see :func:`default_cache_root`);
    ``None``/``False`` disables; a path-like opens that directory; a
    :class:`TraceCache` passes through.
    """
    if cache is None or cache is False:
        return None
    if isinstance(cache, TraceCache):
        return cache
    if cache == "auto":
        root = default_cache_root()
        return TraceCache(root) if root is not None else None
    return TraceCache(cache)
