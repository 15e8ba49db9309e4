"""Process-wide metric registry: counters, gauges, histograms, timers.

Design goals, in priority order:

1. **Zero cost when disabled.**  Telemetry is opt-in via the
   ``REPRO_TELEMETRY`` environment variable.  When it is off, the
   module-level accessors (:func:`counter`, :func:`gauge`,
   :func:`histogram`, :func:`timer`) return shared no-op singletons: no
   metric objects are allocated, no dict entries are created, and every
   recording method is a constant ``pass``.  Hot loops additionally gate
   their instrumentation at *setup* time (the functional simulator only
   installs its counting wrapper when telemetry is on), so the disabled
   dispatch path is byte-identical to the uninstrumented code.
2. **Lock-cheap when enabled.**  Metric objects are plain ``__slots__``
   records mutated with CPython-atomic operations; the registry takes a
   lock only on first creation of a name.  Counts may be off by a few
   events under free-threaded mutation — telemetry is diagnostic, not an
   accounting system — but single-threaded runs (ours) are exact.
3. **Deterministic values.**  Nothing here reads clocks except timers;
   counter and histogram values for a seeded run are a pure function of
   the work performed, which is what ``tests/test_telemetry.py`` pins.

Snapshots are plain JSON-compatible dicts (``name -> {"type": ..., ...}``)
so they can be embedded in event logs and harness reports, merged
across worker processes, and diffed between runs.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional

_ENV_VAR = "REPRO_TELEMETRY"
_TRUTHY = ("1", "on", "true", "yes", "enabled")


def _env_enabled() -> bool:
    value = os.environ.get(_ENV_VAR, "")
    return value.strip().lower() in _TRUTHY


class _State:
    __slots__ = ("enabled",)

    def __init__(self):
        self.enabled = _env_enabled()


_STATE = _State()


def enabled() -> bool:
    """True when telemetry collection is on for this process."""
    return _STATE.enabled


def configure(enabled: Optional[bool] = None) -> bool:
    """Override (or re-resolve) the enabled flag; returns the previous value.

    ``configure(None)`` re-reads ``REPRO_TELEMETRY`` from the environment.
    Call sites cache the flag at setup time (machine construction,
    production-set installation), so flip it *before* building the objects
    you want instrumented.
    """
    previous = _STATE.enabled
    _STATE.enabled = _env_enabled() if enabled is None else bool(enabled)
    return previous


class enabled_scope:
    """Context manager: force telemetry on/off within a block (tests)."""

    def __init__(self, value: bool):
        self.value = value
        self._previous = None

    def __enter__(self):
        self._previous = configure(self.value)
        return self

    def __exit__(self, *exc):
        configure(self._previous)
        return False


# ----------------------------------------------------------------------
# Metric types
# ----------------------------------------------------------------------
class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1):
        self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value):
        self.value = value


class Histogram:
    """Streaming count/total/min/max over observed values."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0


class _TimerContext:
    __slots__ = ("_timer", "_t0")

    def __init__(self, timer: "Timer"):
        self._timer = timer
        self._t0 = None

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._timer.observe(time.perf_counter() - self._t0)
        return False


class Timer(Histogram):
    """A histogram of elapsed seconds with a ``with timer.time():`` helper."""

    __slots__ = ()

    def time(self) -> _TimerContext:
        return _TimerContext(self)


# ----------------------------------------------------------------------
# No-op singletons (disabled mode)
# ----------------------------------------------------------------------
class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class NullMetric:
    """Absorbs every metric operation; shared singletons, zero allocation."""

    __slots__ = ()
    name = "<disabled>"
    value = 0
    count = 0
    total = 0
    min = None
    max = None
    mean = 0.0

    def inc(self, n: int = 1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass

    def time(self):
        return _NULL_CONTEXT


NULL_METRIC = NullMetric()

_TYPE_NAMES = {Counter: "counter", Gauge: "gauge",
               Histogram: "histogram", Timer: "timer"}
_TYPE_BY_NAME = {name: cls for cls, name in _TYPE_NAMES.items()}


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
class Registry:
    """Name-keyed store of metric objects with snapshot/merge/diff."""

    def __init__(self):
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = cls(name)
                    self._metrics[name] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{_TYPE_NAMES[type(metric)]}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def timer(self, name: str) -> Timer:
        return self._get(name, Timer)

    def __len__(self):
        return len(self._metrics)

    def __contains__(self, name):
        return name in self._metrics

    def reset(self):
        with self._lock:
            self._metrics.clear()

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """JSON-compatible dump of every metric's current state."""
        out = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            kind = _TYPE_NAMES[type(metric)]
            if kind in ("counter", "gauge"):
                out[name] = {"type": kind, "value": metric.value}
            else:
                out[name] = {
                    "type": kind, "count": metric.count,
                    "total": metric.total, "min": metric.min,
                    "max": metric.max,
                }
        return out

    def merge(self, snapshot: Dict[str, dict]):
        """Fold another process's snapshot into this registry.

        Counters and histogram count/total add; gauges take the incoming
        value; histogram min/max widen.  Used to absorb worker-process
        metrics into the parent's registry after a parallel fan-out.
        """
        for name, entry in snapshot.items():
            kind = entry.get("type")
            if kind == "counter":
                self.counter(name).inc(entry.get("value", 0))
            elif kind == "gauge":
                self.gauge(name).set(entry.get("value", 0))
            elif kind in ("histogram", "timer"):
                metric = (self.timer(name) if kind == "timer"
                          else self.histogram(name))
                metric.count += entry.get("count", 0)
                metric.total += entry.get("total", 0)
                for bound, better in (("min", min), ("max", max)):
                    incoming = entry.get(bound)
                    if incoming is None:
                        continue
                    current = getattr(metric, bound)
                    setattr(metric, bound,
                            incoming if current is None
                            else better(current, incoming))


def snapshot_delta(before: Dict[str, dict],
                   after: Dict[str, dict]) -> Dict[str, dict]:
    """The work done between two snapshots of one registry.

    Counters and histogram count/total subtract; gauges and histogram
    min/max carry the ``after`` value (point-in-time semantics).  Entries
    that did not change are dropped.  This is what a worker sends back to
    the parent, so long-lived pool workers never double-report.
    """
    out = {}
    for name, entry in after.items():
        previous = before.get(name)
        kind = entry.get("type")
        if kind == "counter":
            delta = entry["value"] - (previous or {"value": 0})["value"]
            if delta:
                out[name] = {"type": "counter", "value": delta}
        elif kind == "gauge":
            if previous is None or previous.get("value") != entry["value"]:
                out[name] = dict(entry)
        else:
            prev_count = (previous or {}).get("count", 0)
            if entry.get("count", 0) != prev_count:
                out[name] = {
                    "type": kind,
                    "count": entry.get("count", 0) - prev_count,
                    "total": entry.get("total", 0)
                    - (previous or {}).get("total", 0),
                    "min": entry.get("min"), "max": entry.get("max"),
                }
    return out


_REGISTRY = Registry()


def get_registry() -> Registry:
    """The process-wide registry (real metrics, even when disabled)."""
    return _REGISTRY


# ----------------------------------------------------------------------
# Module-level accessors — the API instrumentation sites use
# ----------------------------------------------------------------------
def counter(name: str):
    """A :class:`Counter`, or the shared no-op when telemetry is off."""
    if not _STATE.enabled:
        return NULL_METRIC
    return _REGISTRY.counter(name)


def gauge(name: str):
    if not _STATE.enabled:
        return NULL_METRIC
    return _REGISTRY.gauge(name)


def histogram(name: str):
    if not _STATE.enabled:
        return NULL_METRIC
    return _REGISTRY.histogram(name)


def timer(name: str):
    if not _STATE.enabled:
        return NULL_METRIC
    return _REGISTRY.timer(name)


def snapshot() -> Dict[str, dict]:
    return _REGISTRY.snapshot()
