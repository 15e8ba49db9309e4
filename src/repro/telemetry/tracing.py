"""Hierarchical trace contexts that cross process boundaries.

PR 3's spans are flat begin/end pairs with no identity; this module gives
every span a ``(trace_id, span_id, parent_id)`` triple so one campaign —
parent driver plus fabric worker processes — yields one coherent trace
tree instead of per-process fragments.

The design mirrors :mod:`repro.telemetry.registry`:

* collection is opt-in (``REPRO_TRACE``) and gated at *setup* time — with
  tracing off, span emission is byte-identical to PR 3 and the simulator
  dispatch path stays structurally unwrapped (``tests/test_tracing.py``
  pins this);
* the **trace id is the run id** — one run, one trace, no coordination;
* span ids are ``<pid>.<counter>`` strings: unique within a run without
  any cross-process allocation, and never compared for ordering;
* worker processes have no event log, so their spans land in a
  :class:`RemoteSession` buffer that rides back to the parent inside the
  task's return envelope (:func:`wrap_result`), together with a registry
  ``snapshot_delta`` — the same merge machinery the harness already uses
  for metrics.  The parent unwraps the envelope *before* the result
  reaches any store or checkpoint, so persisted bytes are unchanged.

A worker that dies mid-span simply never returns its buffer; the parent
synthesizes a ``span_begin`` with no ``span_end`` (a *truncated* span,
accepted by ``validate_log`` and reported as such by the critical-path
analysis) so crashes are visible in the tree rather than corrupting it.
"""

import os
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

_ENV_VAR = "REPRO_TRACE"
_TRUTHY = ("1", "on", "true", "yes", "enabled")

#: Marker key of the worker->parent trace envelope.
TRACE_ENVELOPE_KEY = "__repro_trace__"


class _State(object):
    __slots__ = ("enabled",)

    def __init__(self):
        self.enabled = (
            os.environ.get(_ENV_VAR, "").strip().lower() in _TRUTHY
        )


_STATE = _State()


def enabled() -> bool:
    """True when trace-context propagation is on (``REPRO_TRACE``)."""
    return _STATE.enabled


def configure(value: Optional[bool] = None) -> bool:
    """Set tracing on/off explicitly, or re-read ``REPRO_TRACE`` (None)."""
    if value is None:
        _STATE.enabled = (
            os.environ.get(_ENV_VAR, "").strip().lower() in _TRUTHY
        )
    else:
        _STATE.enabled = bool(value)
    return _STATE.enabled


@contextmanager
def trace_scope(value: bool):
    """Temporarily force tracing on/off (tests, benchmarks)."""
    previous = _STATE.enabled
    _STATE.enabled = bool(value)
    try:
        yield
    finally:
        _STATE.enabled = previous


# ----------------------------------------------------------------------
# Span-id allocation and the in-process context stack
# ----------------------------------------------------------------------
_COUNTER = 0

#: Innermost-active-span stack of the *parent* process (the one holding
#: the event log).  Each entry is {"trace_id": ..., "span_id": ...}.
_STACK: List[Dict[str, str]] = []


def _next_span_id() -> str:
    # The pid component is read per call, not at import: forked pool
    # workers share this module's state but must not share an id space.
    global _COUNTER
    _COUNTER += 1
    return f"{os.getpid()}.{_COUNTER}"


def push_span(trace_id: str) -> Dict[str, str]:
    """Open a span in the local context stack; returns its id fields.

    ``trace_id`` seeds the trace when the stack is empty (the event log
    passes its run id); nested spans inherit the parent's trace id and
    gain a ``parent_id`` link.
    """
    parent = _STACK[-1] if _STACK else None
    ids = {
        "trace_id": parent["trace_id"] if parent else trace_id,
        "span_id": _next_span_id(),
    }
    if parent is not None:
        ids["parent_id"] = parent["span_id"]
    _STACK.append({"trace_id": ids["trace_id"], "span_id": ids["span_id"]})
    return ids


def pop_span():
    if _STACK:
        _STACK.pop()


def current_context() -> Optional[Dict[str, str]]:
    """Propagation context for a worker task, or None.

    The returned dict is picklable and complete: a worker activates it
    with :func:`remote_session` and every span it records becomes a child
    of the span that was innermost here when the task was submitted.
    """
    if not _STATE.enabled:
        return None
    if _REMOTE is not None:
        if _REMOTE.stack:
            return dict(_REMOTE.stack[-1])
        if _REMOTE.parent_id is not None:
            return {"trace_id": _REMOTE.trace_id,
                    "span_id": _REMOTE.parent_id}
        return None
    if _STACK:
        return dict(_STACK[-1])
    return None


def reset_for_tests():
    """Drop all context state (test isolation only)."""
    global _REMOTE
    del _STACK[:]
    _REMOTE = None


# ----------------------------------------------------------------------
# Worker-side span capture
# ----------------------------------------------------------------------
class RemoteSession(object):
    """Span buffer for a process with no event log (a fabric worker).

    Spans are recorded as plain dicts with *worker-relative* ``start``
    offsets plus wall ``seconds``; the parent re-emits them into its own
    log at merge time (`repro.telemetry.events.emit_remote_spans`).
    """

    __slots__ = ("trace_id", "parent_id", "stack", "records", "t0", "pid")

    def __init__(self, context: Dict[str, str]):
        self.trace_id = context.get("trace_id")
        self.parent_id = context.get("span_id")
        self.stack: List[Dict[str, str]] = []
        self.records: List[dict] = []
        self.t0 = time.monotonic()
        self.pid = os.getpid()


_REMOTE: Optional[RemoteSession] = None


@contextmanager
def remote_session(context: Dict[str, str]):
    """Activate a propagated trace context in a worker process."""
    global _REMOTE
    previous = _REMOTE
    session = RemoteSession(context)
    _REMOTE = session
    try:
        yield session
    finally:
        _REMOTE = previous


def remote_active() -> bool:
    return _REMOTE is not None


@contextmanager
def remote_span(name: str, **fields):
    """Record one span into the active remote session (no-op without one).

    The record survives only if the worker returns normally; a crash
    mid-span loses the buffer, which is exactly the signal the parent
    turns into a truncated span.
    """
    session = _REMOTE
    if session is None:
        yield
        return
    parent = (session.stack[-1]["span_id"] if session.stack
              else session.parent_id)
    span_id = _next_span_id()
    session.stack.append({"trace_id": session.trace_id, "span_id": span_id})
    start = time.monotonic() - session.t0
    ok = True
    try:
        yield
    except BaseException:
        ok = False
        raise
    finally:
        session.stack.pop()
        record = {
            "name": name,
            "trace_id": session.trace_id,
            "span_id": span_id,
            "start": round(start, 6),
            "seconds": round(time.monotonic() - session.t0 - start, 6),
            "ok": ok,
            "pid": session.pid,
        }
        if parent is not None:
            record["parent_id"] = parent
        record.update(fields)
        session.records.append(record)


# ----------------------------------------------------------------------
# The worker->parent result envelope
# ----------------------------------------------------------------------
def wrap_result(result, session: RemoteSession, metrics=None) -> dict:
    """Bundle a task result with its span records and metrics delta."""
    return {
        TRACE_ENVELOPE_KEY: 1,
        "result": result,
        "spans": list(session.records),
        "metrics": metrics or {},
    }


def is_envelope(obj) -> bool:
    return isinstance(obj, dict) and obj.get(TRACE_ENVELOPE_KEY) == 1


def unwrap(obj):
    """Split an envelope into ``(result, spans, metrics)``.

    The caller stores/checkpoints the bare result — envelope framing must
    never reach persisted bytes.
    """
    return obj["result"], obj.get("spans") or [], obj.get("metrics") or {}
