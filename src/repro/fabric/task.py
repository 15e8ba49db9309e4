"""Content-addressed task recipes for the execution fabric.

A fabric task is a *recipe reference*: the dotted name of a registered,
deterministic function plus a JSON-canonical parameter dict.  Nothing
heavyweight crosses a process boundary — workers re-import the recipe's
module (which re-registers the recipe) and rebuild whatever state the
parameters describe, the same trick :class:`repro.harness.runner
.TraceTask` uses for figure tasks.

Because the recipe name and parameters *completely determine* the result
for a given build of the code, the pair plus the code fingerprint
(:func:`repro.fingerprint.code_fingerprint`) serves as the task's
identity: :func:`task_key` digests them, as the trace cache keys a
figure task by its recipe.  Two campaigns that plan the same subtask —
a 30-fault and a 45-fault campaign over the same seed, two verify sweeps
sharing a (benchmark, oracle) cell — produce the same key and dedupe
against one shared artifact store; after any source edit every key
changes, so a store never serves a result an older build computed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.errors import FabricError
from repro.fingerprint import code_fingerprint
from repro.telemetry import registry as _tm_registry
from repro.telemetry import tracing as _tracing

#: Bump when task-key semantics change; baked into every digest so stale
#: store entries silently miss instead of serving wrong-schema payloads.
KEY_SCHEMA = 1


def canonical_params(params: dict) -> str:
    """The JSON-canonical form of a parameter dict (sorted, no spaces).

    Raises :class:`~repro.errors.FabricError` for parameters JSON cannot
    express — task identity must never depend on ``repr`` of arbitrary
    objects.
    """
    try:
        return json.dumps(params, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise FabricError(
            f"task parameters are not JSON-canonical: {exc}"
        ) from exc


def task_key(recipe: str, params: dict) -> str:
    """Content address of one task: sha256 over (schema, code fingerprint,
    recipe, params)."""
    h = hashlib.sha256()
    h.update(f"fabric-key-schema={KEY_SCHEMA}\n".encode())
    h.update(f"code={code_fingerprint()}\n".encode())
    h.update(recipe.encode())
    h.update(b"\n")
    h.update(canonical_params(params).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class Task:
    """One unit of fabric work.

    ``task_id`` is the driver-visible label (``f0011``, ``gzip:roundtrip``)
    used in checkpoints, progress callbacks, and reports; ``key`` is the
    content address used by the artifact store.  Both are deterministic.
    """

    recipe: str
    params: dict = field(compare=False)
    task_id: str = ""
    key: str = field(default="", compare=False)

    def __post_init__(self):
        if not self.task_id:
            object.__setattr__(self, "task_id", task_key(self.recipe,
                                                         self.params)[:16])
        if not self.key:
            object.__setattr__(self, "key", task_key(self.recipe,
                                                     self.params))

    def __hash__(self):
        return hash((self.recipe, self.task_id, self.key))


# ----------------------------------------------------------------------
# Recipe registry
# ----------------------------------------------------------------------
#: name -> (fn(params) -> result, batch_fn([params, ...]) -> [result] | None)
_RECIPES: Dict[str, Tuple[Callable, Optional[Callable]]] = {}


def register_recipe(name: str, fn: Callable,
                    batch_fn: Optional[Callable] = None):
    """Register a deterministic recipe under a dotted name.

    ``name`` must be ``"<module>:<label>"`` — workers import ``<module>``
    to trigger registration, so recipes must be registered at module
    import time.  ``fn(params)`` computes one result (a picklable,
    JSON-compatible value); the optional ``batch_fn(params_list)`` computes
    a whole wave at once and must return exactly ``fn``'s results, in
    order (the faults driver uses this for cohort-stepped waves).
    """
    if ":" not in name:
        raise FabricError(
            f"recipe name {name!r} must be '<module>:<label>' so workers "
            "can import its defining module"
        )
    _RECIPES[name] = (fn, batch_fn)
    return fn


def recipe(name: str, batch_fn: Optional[Callable] = None):
    """Decorator form of :func:`register_recipe`."""

    def wrap(fn):
        return register_recipe(name, fn, batch_fn)

    return wrap


def get_recipe(name: str) -> Tuple[Callable, Optional[Callable]]:
    """Resolve a recipe, importing its defining module if needed."""
    entry = _RECIPES.get(name)
    if entry is None:
        module = name.split(":", 1)[0]
        try:
            importlib.import_module(module)
        except ImportError as exc:
            raise FabricError(
                f"cannot import module {module!r} for recipe {name!r}: "
                f"{exc}"
            ) from exc
        entry = _RECIPES.get(name)
    if entry is None:
        raise FabricError(f"unknown recipe {name!r} (module imported but "
                          "nothing registered under that name)")
    return entry


def execute_task(recipe_name: str, params: dict, task_id: str = "",
                 attempt: int = 1, chaos=None, trace=None):
    """Top-level (picklable) worker entry point: run one task.

    ``chaos`` is an optional :class:`repro.fabric.chaos.ChaosPlan`; its
    injections fire *before* the recipe runs so a retried attempt
    recomputes the genuine result.

    ``trace`` is an optional propagated trace context (see
    :mod:`repro.telemetry.tracing`).  When present and tracing is enabled
    in this process, the task runs under a ``fabric.task`` child span of
    the submitting driver's context, and the return value is a *trace
    envelope* bundling the bare result with the worker's span records and
    a telemetry registry delta.  The engine unwraps the envelope before
    the result reaches any store, checkpoint, or report — persisted bytes
    are identical with tracing on or off.  A worker that dies mid-task
    never returns the envelope; the parent synthesizes a truncated span.
    """
    if trace is not None and _tracing.enabled():
        with _tracing.remote_session(trace) as session:
            before = (_tm_registry.snapshot()
                      if _tm_registry.enabled() else None)
            with _tracing.remote_span("fabric.task", task=task_id,
                                      attempt=attempt):
                if chaos is not None:
                    chaos.perturb(task_id, attempt)
                fn, _ = get_recipe(recipe_name)
                result = fn(params)
            metrics = {}
            if before is not None:
                metrics = _tm_registry.snapshot_delta(
                    before, _tm_registry.snapshot())
            return _tracing.wrap_result(result, session, metrics)
    if chaos is not None:
        chaos.perturb(task_id, attempt)
    fn, _ = get_recipe(recipe_name)
    return fn(params)
