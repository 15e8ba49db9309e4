"""Parallel fan-out for the figure harness.

A figure regeneration decomposes into independent (benchmark,
transformation) functional simulations — by far the expensive part — plus
the timing replays of each trace.  This module runs a batch of such units,
each a picklable :class:`~repro.harness.runner.TraceTask` plus the base
image of its benchmark, across a ``concurrent.futures.ProcessPoolExecutor``;
the caller supplies the images (a :class:`~repro.harness.runner.Suite`
passes its own, overrides included) and each worker builds its task's
installation from the image it is sent.

Workers also run the timing replays their caller already knows it needs
(the per-figure :class:`~repro.sim.config.MachineConfig` lists), so the
serial aggregation phase afterwards is pure table arithmetic.  Workers and
the parent's warm check get traces and replays through the same helpers as
:class:`~repro.harness.runner.Suite` (``installation_trace`` and
``trace_replay``), so everything a worker produces goes through the
persistent :mod:`~repro.harness.trace_cache` when one is configured, and a
trace stored there comes back to the parent as a lazy cache reference
rather than through the pipe.  The warm check keys each task from its
image and recipe alone, so a fully cached batch builds nothing.

Pool supervision (watchdog timeouts, deterministic exponential backoff
between retries, circuit breaking on repeated worker deaths) comes from
:class:`repro.fabric.supervise.PoolSupervisor` — the same machinery behind
the campaign fabric.  Worker failures are non-fatal: a crashed task is
retried and then re-run serially in the parent with a logged warning, so
figures always complete.  A task that raises a *non-retryable*
:class:`~repro.errors.ReproError` fails fast instead — it would fail
identically on every attempt — and a task that keeps exceeding the
``task_timeout`` / ``REPRO_TASK_TIMEOUT`` watchdog is *skipped*; both land
as structured :class:`TaskFailure` records on the returned
:class:`TaskResults` (re-running a hanging task serially would hang the
parent too).

Worker count resolution: explicit argument, else the ``REPRO_JOBS``
environment variable, else 1 (serial).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import TaskError, TaskTimeoutError, WorkerCrashError
from repro.fabric.supervise import (
    PoolSupervisor,
    resolve_jobs,
    resolve_retries,
    resolve_task_timeout,
)
from repro.harness.runner import (
    FUNCTIONAL_DISE,
    MAX_STEPS,
    TraceTask,
    build_installation,
    installation_trace,
    trace_replay,
)
from repro.harness.trace_cache import (
    LazyTrace,
    TraceCache,
    deserialize_trace,
    serialize_trace,
)
from repro.program.image import ProgramImage
from repro.sim.config import MachineConfig
from repro.sim.cycle import CycleResult
from repro.telemetry import events as _events
from repro.telemetry import get_logger
from repro.telemetry import registry as _telemetry
from repro.telemetry import tracing as _tracing

logger = get_logger(__name__)

# ``resolve_jobs`` / ``resolve_task_timeout`` / ``resolve_retries`` are this
# module's historical public API; they now live with the rest of the
# supervision knobs in :mod:`repro.fabric.supervise` and are re-exported
# here unchanged, as are the task description and its installation builder
# from :mod:`repro.harness.runner`.
__all__ = [
    "FUNCTIONAL_DISE",
    "MAX_STEPS",
    "TaskFailure",
    "TaskResults",
    "TraceTask",
    "build_installation",
    "resolve_jobs",
    "resolve_retries",
    "resolve_task_timeout",
    "run_tasks",
]


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of a task the harness gave up on."""

    task: "TraceTask"
    error: TaskError
    attempts: int
    #: Wall seconds from the first attempt's submission to giving up.
    elapsed: float = 0.0
    #: Wall-clock (``time.time``) start stamp of each attempt, so fault
    #: reports and telemetry agree on retry timing.
    attempt_times: Tuple[float, ...] = ()

    def details(self) -> dict:
        out = self.error.details()
        out["task"] = repr(self.task)
        out["attempts"] = self.attempts
        out["elapsed"] = round(self.elapsed, 6)
        out["attempt_times"] = list(self.attempt_times)
        return out


class TaskResults(dict):
    """``run_tasks``'s return value: a plain task->result dict, plus the
    structured failure records of any tasks that were skipped."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.failures: List[TaskFailure] = []


def _task_result(task: TraceTask, image: ProgramImage,
                 configs: Sequence[MachineConfig],
                 cache: Optional[TraceCache], max_steps: int):
    """(trace, {config_repr: CycleResult}) for one task over its base
    ``image``, computed in this process through ``cache``."""
    trace = installation_trace(task, image, cache, max_steps)
    cycles = {repr(config): trace_replay(trace, config, cache)
              for config in configs}
    return trace, cycles


def _run_task(task: TraceTask, image: ProgramImage,
              configs: Sequence[MachineConfig],
              cache_root: Optional[str], max_steps: int, trace_ctx=None):
    """Pool worker entry point: (digest, trace_bytes, {config_repr:
    CycleResult}, metrics, spans) for one task over its base ``image``.

    ``trace_bytes`` is ``None`` when the trace is in the persistent cache
    (a hit, or stored by this call): the parent reads it from there lazily
    (:func:`_worker_trace`) instead of taking it through the pipe.

    ``metrics`` is the registry *delta* this call produced (or ``None``
    with telemetry off), for the parent to merge into its registry.

    ``trace_ctx`` is an optional propagated trace context
    (:mod:`repro.telemetry.tracing`); when tracing is on, the task runs
    under a ``harness.task`` child span and ``spans`` carries the
    worker-side span records for the parent to merge into its event log
    (``None`` otherwise).
    """
    if trace_ctx is not None and _tracing.enabled():
        with _tracing.remote_session(trace_ctx) as session:
            with _tracing.remote_span("harness.task",
                                      task=_task_label(task)):
                out = _run_task(task, image, configs, cache_root,
                                max_steps)
        return out[:4] + (list(session.records),)
    tm_before = _telemetry.snapshot() if _telemetry.enabled() else None
    cache = TraceCache(cache_root) if cache_root else None
    trace, cycles = _task_result(task, image, configs, cache, max_steps)
    stored = cache is not None and trace.cache_key is not None
    tm_delta = (_telemetry.snapshot_delta(tm_before, _telemetry.snapshot())
                if tm_before is not None else None)
    return (trace.cache_key, None if stored else serialize_trace(trace),
            cycles, tm_delta, None)


def _worker_trace(task: TraceTask, image: ProgramImage,
                  digest: Optional[str], trace_bytes: Optional[bytes],
                  cache: Optional[TraceCache], max_steps: int):
    """The trace a worker produced: the bytes it sent, or a lazy reference
    to the cache entry it stored under ``digest``."""
    if trace_bytes is None:
        return LazyTrace(cache, digest, recompute=lambda: installation_trace(
            task, image, None, max_steps))
    trace = deserialize_trace(trace_bytes)
    trace.cache_key = digest
    return trace


def _cached_replays(trace, configs: Sequence[MachineConfig],
                    cache: TraceCache) -> Optional[Dict[str, CycleResult]]:
    """Every requested replay of ``trace`` from the cache, or ``None`` on
    the first miss."""
    cycles: Dict[str, CycleResult] = {}
    for config in configs:
        result = trace_replay(trace, config, cache, compute=False)
        if result is None:
            return None
        cycles[repr(config)] = result
    return cycles


def _task_label(task: TraceTask) -> str:
    """Compact, stable task label for events and logs."""
    return "/".join(str(part) for part in task.suite_key())


def _record_task(task: TraceTask, seconds: float, attempts: int,
                 status: str):
    """One task finished: event-log record plus harness metrics."""
    _events.emit_task(_task_label(task), seconds, attempts, status)
    _telemetry.counter("harness.tasks").inc()
    _telemetry.histogram("harness.task_seconds").observe(round(seconds, 6))


def run_tasks(plan: Iterable[Tuple[TraceTask, Sequence[MachineConfig]]],
              images: Mapping[str, ProgramImage],
              jobs: Optional[int] = None,
              cache: Optional[TraceCache] = None,
              max_steps: int = MAX_STEPS,
              executor_factory=None,
              task_timeout: Optional[float] = None,
              retries: Optional[int] = None,
              backoff: float = 0.5,
              ) -> "TaskResults":
    """Run a batch of trace tasks, fanning out across worker processes.

    ``plan`` pairs each task with the machine configurations whose timing
    replays the caller will need; ``images`` maps each task's ``bench`` to
    the base image its installation is built from.  Returns a
    :class:`TaskResults` mapping
    each task to the cache digest (``None`` for uncacheable runs), the
    trace, and the replay results keyed by ``repr(config)``.

    Resilience: a task whose worker raises a retryable error is retried in
    the pool up to ``retries`` times (exponential backoff from ``backoff``
    seconds, deterministically jittered per task), then recomputed serially
    in the parent; a non-retryable :class:`~repro.errors.ReproError` fails
    fast and is recorded on ``results.failures`` instead.  With a
    ``task_timeout`` watchdog, a task that exceeds it is likewise retried;
    if it *keeps* exceeding it, the task is skipped and recorded on
    ``results.failures`` — re-running a hanging task serially would hang
    the parent too.

    ``executor_factory`` is a test hook: a zero-argument callable returning
    a ``ProcessPoolExecutor``-compatible context manager.
    """
    merged: Dict[TraceTask, List[MachineConfig]] = {}
    for task, configs in plan:
        bucket = merged.setdefault(task, [])
        seen = {repr(c) for c in bucket}
        for config in configs:
            if repr(config) not in seen:
                bucket.append(config)
                seen.add(repr(config))

    jobs = resolve_jobs(jobs)
    task_timeout = resolve_task_timeout(task_timeout)
    retries = resolve_retries(retries)
    cache_root = str(cache.root) if cache is not None else None
    results = TaskResults()

    # Per-task timing, kept regardless of telemetry: TaskFailure records
    # carry the elapsed time and attempt stamps either way.
    first_start: Dict[TraceTask, float] = {}   # monotonic, first attempt
    attempt_log: Dict[TraceTask, List[float]] = {}  # wall-clock stamps

    def begin_attempt(task):
        attempt_log.setdefault(task, []).append(time.time())
        first_start.setdefault(task, time.monotonic())

    def task_elapsed(task):
        start = first_start.get(task)
        return time.monotonic() - start if start is not None else 0.0

    # Warm check: a task whose trace and every requested replay are in the
    # cache is answered here, lazily, without a worker and without
    # building its installation.
    if cache is not None:
        for task, configs in list(merged.items()):
            t0 = time.monotonic()
            trace = installation_trace(task, images[task.bench], cache,
                                       max_steps, compute=False)
            cycles = (None if trace is None
                      else _cached_replays(trace, configs, cache))
            if cycles is None:
                continue
            results[task] = (trace.cache_key, trace, cycles)
            del merged[task]
            _record_task(task, time.monotonic() - t0, 1, "cached")
        if not merged:
            return results

    if jobs <= 1 or len(merged) <= 1:
        for task, configs in merged.items():
            begin_attempt(task)
            trace, cycles = _task_result(task, images[task.bench], configs,
                                         cache, max_steps)
            results[task] = (trace.cache_key, trace, cycles)
            _record_task(task, task_elapsed(task), 1, "ok")
        return results

    supervisor = PoolSupervisor(
        jobs, task_timeout=task_timeout, retries=retries,
        backoff_base=backoff, executor_factory=executor_factory,
        label_of=_task_label, counter_prefix="harness",
    )
    trace_ctx = _tracing.current_context()
    specs = {
        task: (lambda attempt, task=task, configs=configs:
               (_run_task, (task, images[task.bench], configs, cache_root,
                            max_steps, trace_ctx)))
        for task, configs in merged.items()
    }
    outcomes = supervisor.run(specs)

    failed: List[Tuple[TraceTask, List[MachineConfig]]] = []
    for task, configs in merged.items():
        outcome = outcomes[task]
        if outcome.status == "ok":
            digest, trace_bytes, cycles, tm_delta, spans = outcome.value
            if tm_delta:
                _telemetry.get_registry().merge(tm_delta)
            if spans:
                _events.emit_remote_spans(spans)
            results[task] = (digest, _worker_trace(
                task, images[task.bench], digest, trace_bytes, cache,
                max_steps), cycles)
            _record_task(task, outcome.elapsed, outcome.attempts, "ok")
        elif outcome.status == "timeout":
            error = TaskTimeoutError(
                f"task exceeded its {task_timeout:.3g}s watchdog "
                f"{outcome.attempts} times",
                task=repr(task), attempts=outcome.attempts,
                timeout=task_timeout,
            )
            results.failures.append(
                TaskFailure(task, error, outcome.attempts,
                            elapsed=outcome.elapsed,
                            attempt_times=outcome.attempt_times)
            )
            _record_task(task, outcome.elapsed, outcome.attempts,
                         "timeout")
        elif outcome.status == "fatal":
            # Non-retryable model/configuration error: it would fail
            # identically serially, so record it without burning the
            # fallback on it.
            results.failures.append(
                TaskFailure(task, outcome.error, outcome.attempts,
                            elapsed=outcome.elapsed,
                            attempt_times=outcome.attempt_times)
            )
            _record_task(task, outcome.elapsed, outcome.attempts,
                         "failed")
        else:
            # gave_up: safe to recompute serially in the parent.  Seed the
            # local timing state with the pool attempts so the fallback's
            # failure records cover the whole history.
            attempt_log[task] = list(outcome.attempt_times)
            first_start[task] = time.monotonic() - outcome.elapsed
            failed.append((task, configs))

    for task, configs in failed:
        begin_attempt(task)
        try:
            trace, cycles = _task_result(task, images[task.bench], configs,
                                         cache, max_steps)
        except Exception as exc:
            error = WorkerCrashError(
                f"serial fallback failed: {type(exc).__name__}: {exc}",
                task=repr(task), attempts=retries + 2,
            )
            seconds = task_elapsed(task)
            results.failures.append(
                TaskFailure(task, error, retries + 2, elapsed=seconds,
                            attempt_times=tuple(attempt_log.get(task, ())))
            )
            _record_task(task, seconds, retries + 2, "failed")
            logger.warning(
                "serial fallback for %s failed (%s: %s); skipping it "
                "(see results.failures)", task, type(exc).__name__, exc,
            )
            continue
        results[task] = (trace.cache_key, trace, cycles)
        _record_task(task, task_elapsed(task), retries + 2, "fallback")
    return results
