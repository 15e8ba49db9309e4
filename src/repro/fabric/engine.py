"""The fabric engine: one crash-tolerant work-queue for every campaign.

:class:`Fabric` is what the faults and verify drivers share instead of
hand-rolled pool loops; the figure harness borrows only its
:class:`~repro.fabric.supervise.PoolSupervisor`.  A driver hands it a list of
content-addressed :class:`~repro.fabric.task.Task`\\ s plus its config
fingerprint; the engine owns everything between "planned" and "in the
report":

1. **Duplicate coalescing** — a task delivered twice (driver bug, chaos
   injection) executes once; the first result wins
   (``fabric.duplicates``).
2. **Global resume** — completed results load from one schema-versioned
   checkpoint (:mod:`repro.fabric.checkpoint`) that works across executor
   kinds: checkpoint under a pool, resume serially, same report bytes.
3. **Cross-campaign dedupe** — with an artifact store enabled
   (``REPRO_FABRIC_STORE``), results land keyed by content address, so a
   later campaign that plans the same subtask reuses it
   (``fabric.dedupe.hits``).
4. **Supervised execution** — with ``jobs > 1`` the remaining tasks run
   under :class:`~repro.fabric.supervise.PoolSupervisor` (watchdogs,
   deterministic exponential backoff, circuit breaking); tasks the pool
   gives up on degrade to serial in-parent execution
   (``fabric.degradations``) so campaigns always complete.  Non-retryable
   errors fail fast; exhausted watchdogs raise *after* checkpointing, so
   nothing already computed is lost.
5. **Checkpoint ticks** — every ``checkpoint_every`` fresh results, and
   on *any* exception (including a driver's deliberate interruption from
   its progress callback), the checkpoint is written before the error
   propagates.

Fresh results stream to the driver's ``on_result`` callback in completion
order; restored results do not (drivers print progress only for new
work).  Reports stay deterministic because drivers build them from the
full result table, sorted — never from arrival order.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import TaskTimeoutError, backoff_delay, is_retryable
from repro.fabric.checkpoint import load_checkpoint, write_checkpoint
from repro.fabric.store import resolve_store
from repro.fabric.supervise import (
    PoolSupervisor,
    _env_number,
    resolve_jobs,
    resolve_retries,
    resolve_task_timeout,
)
from repro.fabric.task import Task, execute_task, get_recipe
from repro.sim.batch import resolve_batch
from repro.telemetry import events as _events
from repro.telemetry import get_logger
from repro.telemetry import registry as _telemetry
from repro.telemetry import tracing as _tracing

logger = get_logger(__name__)


def resolve_fabric_backoff(backoff: Optional[float] = None) -> float:
    """Backoff base seconds: explicit > ``REPRO_FABRIC_BACKOFF`` > 0.5."""
    if backoff is not None:
        return backoff
    env = _env_number("REPRO_FABRIC_BACKOFF", float, 0.0)
    return 0.5 if env is None else env


def resolve_circuit_threshold(threshold: Optional[int] = None) -> int:
    """Circuit-breaker trip count: explicit > ``REPRO_FABRIC_CIRCUIT`` > 3."""
    if threshold is not None:
        return max(1, int(threshold))
    env = _env_number("REPRO_FABRIC_CIRCUIT", int, 1)
    return 3 if env is None else env


class Fabric:
    """A configured execution fabric for one driver run.

    ``driver`` and ``fingerprint`` identify the run for checkpoint
    matching; every other knob resolves explicit argument > environment >
    default (see the ``resolve_*`` helpers here and in
    :mod:`repro.fabric.supervise`, which the figure harness shares).
    """

    def __init__(self, driver: str, fingerprint: Dict[str, object], *,
                 store="auto",
                 checkpoint_path: Optional[str] = None,
                 resume: bool = False,
                 jobs: Optional[int] = None,
                 task_timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 backoff: Optional[float] = None,
                 checkpoint_every: int = 25,
                 chaos=None,
                 executor_factory: Optional[Callable] = None,
                 circuit_threshold: Optional[int] = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.driver = driver
        self.fingerprint = fingerprint
        self.store = resolve_store(store)
        self.checkpoint_path = checkpoint_path
        self.resume = resume
        self.jobs = resolve_jobs(jobs)
        self.task_timeout = resolve_task_timeout(task_timeout)
        self.retries = resolve_retries(retries)
        self.backoff = resolve_fabric_backoff(backoff)
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.chaos = chaos
        self.executor_factory = executor_factory
        self.circuit_threshold = resolve_circuit_threshold(circuit_threshold)
        self.sleep = sleep

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Task],
            on_result: Optional[Callable[[str, object, int, int],
                                         None]] = None,
            batch: Optional[int] = None) -> Dict[str, object]:
        """Drive every task to a result; returns ``{task_id: result}``.

        ``on_result(task_id, result, done, total)`` fires once per *fresh*
        result (computed or dedupe-served; never for checkpoint-restored
        ones); ``done`` counts every completed task including restored
        ones, so drivers can print ``done/total`` progress directly.
        ``batch`` feeds :func:`~repro.sim.batch.resolve_batch` on the
        serial path, running same-recipe waves through the recipe's
        ``batch_fn`` — a pure accelerator, bit-identical to per-task
        execution and deliberately absent from checkpoint fingerprints.
        """
        ordered: List[Task] = []
        seen = set()
        duplicates = 0
        queue = list(tasks)
        if self.chaos is not None and self.chaos.duplicates:
            dup_ids = set(self.chaos.duplicates)
            queue += [t for t in tasks if t.task_id in dup_ids]
        for task in queue:
            if task.task_id in seen:
                duplicates += 1
                continue
            seen.add(task.task_id)
            ordered.append(task)
        if duplicates:
            _telemetry.counter("fabric.duplicates").inc(duplicates)

        results: Dict[str, object] = {}
        if self.resume and self.checkpoint_path:
            results = load_checkpoint(self.checkpoint_path, self.driver,
                                      self.fingerprint)
        total = len(ordered)
        fresh = 0

        def checkpoint():
            if self.checkpoint_path:
                write_checkpoint(self.checkpoint_path, self.driver,
                                 self.fingerprint, results)
                _events.event("checkpoint_write", driver=self.driver,
                              completed=len(results))

        def finish(task: Task, result, computed: bool):
            nonlocal fresh
            if _tracing.is_envelope(result):
                # Pool workers running under a propagated trace context
                # return an envelope: unwrap *before* anything persists,
                # so stored/checkpointed bytes never see trace framing.
                result, spans, metrics = _tracing.unwrap(result)
                if metrics:
                    _telemetry.get_registry().merge(metrics)
                _events.emit_remote_spans(spans)
            results[task.task_id] = result
            if computed and self.store is not None:
                self.store.put(task.key, result)
            fresh += 1
            if on_result is not None:
                on_result(task.task_id, result, len(results), total)
            if fresh % self.checkpoint_every == 0:
                checkpoint()

        pending = [t for t in ordered if t.task_id not in results]
        with _events.span("fabric.run", driver=self.driver,
                          tasks=len(ordered), pending=len(pending),
                          jobs=self.jobs):
            try:
                if self.store is not None and pending:
                    remaining = []
                    for task in pending:
                        hit = self.store.get(task.key)
                        if hit is not None:
                            _telemetry.counter("fabric.dedupe.hits").inc()
                            finish(task, hit, computed=False)
                        else:
                            _telemetry.counter("fabric.dedupe.misses").inc()
                            remaining.append(task)
                    pending = remaining

                if self.jobs > 1 and len(pending) > 1:
                    self._run_pool(pending, finish)
                elif pending:
                    self._run_serial(pending, finish, batch)
            except BaseException:
                # Deliberate driver interruptions and fatal errors alike:
                # persist what completed before propagating.
                checkpoint()
                raise
        checkpoint()
        return results

    # ------------------------------------------------------------------
    # Supervised pool execution
    # ------------------------------------------------------------------
    def _run_pool(self, pending: List[Task], finish):
        by_id = {t.task_id: t for t in pending}
        chaos = self.chaos
        # Propagate the driver's trace context (the fabric.run span) into
        # every worker task, so worker spans join the parent's trace tree.
        trace = _tracing.current_context()

        def spec_for(task):
            return lambda attempt: (
                execute_task,
                (task.recipe, task.params, task.task_id, attempt, chaos,
                 trace),
            )

        supervisor = PoolSupervisor(
            self.jobs, task_timeout=self.task_timeout,
            retries=self.retries, backoff_base=self.backoff,
            executor_factory=self.executor_factory,
            counter_prefix="fabric",
            circuit_threshold=self.circuit_threshold, sleep=self.sleep,
        )
        outcomes = supervisor.run(
            {t.task_id: spec_for(t) for t in pending},
            on_ok=lambda key, value: finish(by_id[key], value, True),
        )

        fatal = None
        timed_out = None
        gave_up: List[Task] = []
        for task in pending:
            outcome = outcomes.get(task.task_id)
            status = outcome.status if outcome is not None else "gave_up"
            if status != "ok":
                # The worker died/hung before returning its span buffer:
                # record the loss as a truncated span (span_begin, no
                # span_end) so the trace tree shows the crash instead of
                # silently dropping the subtree.
                _events.emit_truncated_span(
                    "fabric.task", trace, task=task.task_id, status=status,
                    attempts=outcome.attempts if outcome else 0,
                )
            if outcome is None:
                gave_up.append(task)
            elif outcome.status == "fatal" and fatal is None:
                fatal = outcome
            elif outcome.status == "timeout" and timed_out is None:
                timed_out = (task, outcome)
            elif outcome.status == "gave_up":
                gave_up.append(task)
        if fatal is not None:
            raise fatal.error
        if timed_out is not None:
            task, outcome = timed_out
            raise TaskTimeoutError(
                f"fabric task {task.task_id} exceeded its "
                f"{self.task_timeout:.3g}s watchdog {outcome.attempts} "
                "times; completed work is checkpointed",
                task=task.task_id, attempts=outcome.attempts,
                timeout=self.task_timeout,
            )
        if gave_up:
            _telemetry.counter("fabric.degradations").inc(len(gave_up))
            logger.warning(
                "fabric: pool gave up on %d task(s); completing them "
                "serially in the parent", len(gave_up),
            )
            self._run_serial(gave_up, finish, batch=1)

    # ------------------------------------------------------------------
    # Serial (and batched-serial) execution
    # ------------------------------------------------------------------
    def _execute_with_retries(self, task: Task):
        attempt = 1
        while True:
            try:
                # In-parent execution: the event log is local, so the task
                # span is opened directly (no envelope round-trip).
                with _events.span("fabric.task", task=task.task_id,
                                  attempt=attempt):
                    return execute_task(task.recipe, task.params,
                                        task.task_id, attempt, self.chaos)
            except Exception as exc:
                if not is_retryable(exc) or attempt > self.retries:
                    raise
                _telemetry.counter("fabric.retries").inc()
                _events.event("task_retry", task=task.task_id,
                              attempt=attempt + 1,
                              error=type(exc).__name__)
                logger.warning(
                    "fabric task %s failed (%s: %s); retrying (attempt "
                    "%d of %d)", task.task_id, type(exc).__name__, exc,
                    attempt + 1, self.retries + 1,
                )
                self.sleep(backoff_delay(attempt, base=self.backoff,
                                         key=task.task_id))
                attempt += 1

    def _run_serial(self, pending: List[Task], finish,
                    batch: Optional[int] = None):
        width = resolve_batch(batch)
        index = 0
        while index < len(pending):
            task = pending[index]
            batch_fn = get_recipe(task.recipe)[1] if width >= 2 else None
            if batch_fn is None:
                finish(task, self._execute_with_retries(task), True)
                index += 1
                continue
            wave = [task]
            while (len(wave) < width and index + len(wave) < len(pending)
                   and pending[index + len(wave)].recipe == task.recipe):
                wave.append(pending[index + len(wave)])
            with _events.span("fabric.batch", recipe=task.recipe,
                              tasks=len(wave)):
                wave_results = batch_fn([t.params for t in wave])
            for wave_task, result in zip(wave, wave_results):
                finish(wave_task, result, True)
            index += len(wave)
