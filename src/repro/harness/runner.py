"""Workload/trace management for the experiment harness.

A :class:`Suite` lazily generates benchmark programs and caches the
functional traces of each (benchmark, transformation) pair.  Timing replays
(many per trace: cache sizes, widths, placements, RT geometries) then reuse
the cached traces, which is what makes regenerating all of Figures 6-8
tractable.

One (benchmark, transformation) pair is a :class:`TraceTask`;
:func:`build_installation` is the one map from a task and its base image
to an installation, :func:`installation_trace` the one way to get its
functional trace (from the persistent cache or by running the machine),
and :func:`trace_replay` the one way to get a timing replay (from the
cache or by simulating).  The suite, the pool workers and the parent's
warm check all go through them.  A trace is keyed by its task's recipe
and base image before anything is built, so a cache hit installs no ACF.

Two accelerators sit underneath (see :mod:`repro.harness.parallel` and
:mod:`repro.harness.trace_cache`):

* :meth:`Suite.prefetch` runs a figure's functional simulations — and the
  timing replays the figure is known to need — across worker processes;
* a persistent cache, keyed by the code, the base image and the task's
  recipe, makes repeat runs warm-start, for serial and parallel
  execution alike.  ``REPRO_TRACE_CACHE`` points it at
  a directory (or disables it with ``0``/``off``); ``REPRO_JOBS`` sets the
  default worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.acf.base import AcfInstallation, plain_installation
from repro.acf.composition import build_composition
from repro.acf.compression import (
    CompressionOptions,
    CompressionResult,
    compress_image,
)
from repro.acf.mfi import attach_mfi, rewrite_mfi
from repro.core.config import DiseConfig
from repro.fabric.supervise import resolve_jobs
from repro.harness.trace_cache import (
    LazyTrace,
    TraceCache,
    cycle_key,
    machine_trace_key,
    open_cache,
    trace_fingerprint,
)
from repro.program.image import ProgramImage
from repro.sim.config import MachineConfig
from repro.sim.cycle import CycleResult, resolve_cycle_engine, simulate_trace
from repro.sim.trace import TraceResult
from repro.telemetry import events as _events
from repro.workloads.generator import generate_benchmark
from repro.workloads.specint import BENCHMARK_NAMES, get_profile

#: Functional runs use a perfect RT: RT behaviour is replayed inside the
#: timing model, so the functional pass should not burn time there.
FUNCTIONAL_DISE = DiseConfig(rt_perfect=True)

#: Generous dynamic-instruction budget for transformed binaries.
MAX_STEPS = 30_000_000

_KINDS = ("plain", "mfi", "rewrite", "compressed", "composed")


@dataclass(frozen=True)
class TraceTask:
    """One (benchmark, transformation) functional simulation."""

    bench: str
    scale: float
    kind: str
    variant: Optional[str] = None              # mfi
    label: Optional[str] = None                # compressed
    options: Optional[CompressionOptions] = None  # compressed
    scheme: Optional[str] = None               # composed

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown trace kind: {self.kind!r}")

    def recipe(self) -> str:
        """How the installation derives from the base image: everything
        but the benchmark and scale, which the image itself carries."""
        return repr((self.kind, self.variant, self.label, self.options,
                     self.scheme))

    def suite_key(self) -> Tuple:
        """The :class:`Suite` trace-dict key."""
        if self.kind == "mfi":
            return (self.bench, "mfi", self.variant)
        if self.kind == "compressed":
            return (self.bench, "compressed", self.label)
        if self.kind == "composed":
            return (self.bench, "composed", self.scheme)
        return (self.bench, self.kind)


def build_installation(task: TraceTask, image: ProgramImage,
                       compress=None) -> AcfInstallation:
    """Deterministically build the task's installation over its base
    ``image``.

    ``compress(image, options)`` produces a compressed task's
    :class:`CompressionResult` (default :func:`compress_image`), so a
    caller that memoises compressions can share them.
    """
    if task.kind == "plain":
        return plain_installation(image)
    if task.kind == "mfi":
        return attach_mfi(image, task.variant)
    if task.kind == "rewrite":
        return rewrite_mfi(image)
    if task.kind == "compressed":
        return (compress or compress_image)(image, task.options).installation()
    _, installation = build_composition(image, task.scheme)
    return installation


def installation_trace(task: TraceTask, image: ProgramImage,
                       cache: Optional[TraceCache],
                       max_steps: int = MAX_STEPS,
                       compute: bool = True,
                       compress=None) -> Optional[TraceResult]:
    """The functional trace of ``task`` over its base ``image`` under
    :data:`FUNCTIONAL_DISE`.

    The task key (:func:`machine_trace_key`) is computed before anything
    is built.  A trace-cache hit returns a :class:`LazyTrace`: neither the
    installation nor the trace's ops are built until a timing replay needs
    them, so a warm figure run whose replays are all cached installs no
    ACF.  A miss builds the installation (``compress`` as for
    :func:`build_installation`), runs the machine and stores the trace —
    or, with ``compute`` false, returns ``None``.  A machine with control
    handlers runs arbitrary Python the key cannot name, so its trace is
    returned but not stored, and its ``cache_key`` is ``None``; otherwise
    the trace's ``cache_key`` is the task key.
    """
    digest = machine_trace_key(image, task.recipe(), repr(FUNCTIONAL_DISE),
                               max_steps)

    def run():
        installation = build_installation(task, image, compress)
        machine = installation.make_machine(FUNCTIONAL_DISE)
        trace = machine.run(max_steps=max_steps)
        trace.cache_key = None if machine.control_handlers else digest
        return trace

    if cache is not None and cache.has_trace(digest):
        return LazyTrace(cache, digest, recompute=run)
    if not compute:
        return None
    trace = run()
    if cache is not None and trace.cache_key is not None:
        cache.store_trace(digest, trace)
    return trace


def trace_replay(trace: TraceResult, config: Optional[MachineConfig],
                 cache: Optional[TraceCache], engine: Optional[str] = None,
                 compute: bool = True) -> Optional[CycleResult]:
    """The warm-start timing replay of ``trace`` on ``config``.

    Steady-state measurement: our runs are shorter than the paper's
    complete-input runs, so cold misses are warmed away.  A cycle-cache hit
    is returned as stored; a miss runs :func:`simulate_trace` and stores
    the result — or, with ``compute`` false, returns ``None``.
    """
    key = None
    if cache is not None and trace.cache_key is not None:
        key = cycle_key(trace.cache_key, repr(config), True)
        result = cache.load_cycles(key)
        if result is not None:
            return result
    if not compute:
        return None
    result = simulate_trace(trace, config, warm_start=True, engine=engine)
    if key is not None:
        cache.store_cycles(key, result)
    return result


class Suite:
    """Lazily generated benchmarks + cached functional traces.

    ``jobs`` sets the default parallel worker count (``None`` defers to the
    ``REPRO_JOBS`` environment variable); ``cache`` configures the
    persistent trace cache: ``"auto"`` (the default) honours
    ``REPRO_TRACE_CACHE``, ``None`` disables, and a path or
    :class:`~repro.harness.trace_cache.TraceCache` selects a directory.
    """

    def __init__(self, benchmarks: Optional[Sequence[str]] = None,
                 scale: float = 1.0, jobs: Optional[int] = None,
                 cache="auto", cycle_engine: Optional[str] = None):
        self.benchmarks = tuple(benchmarks or BENCHMARK_NAMES)
        self.scale = scale
        self.jobs = jobs
        #: Timing-replay engine (None honours ``REPRO_CYCLE``).  Both
        #: engines are bit-identical, so the persistent cycle cache and the
        #: in-memory memo are engine-agnostic.
        self.cycle_engine = resolve_cycle_engine(cycle_engine)
        self.cache = open_cache(cache)
        self._images: Dict[str, ProgramImage] = {}
        self._traces: Dict[Tuple, TraceResult] = {}
        self._compressions: Dict[Tuple, CompressionResult] = {}
        self._cycles: Dict[Tuple, CycleResult] = {}

    # ------------------------------------------------------------------
    def image(self, bench: str) -> ProgramImage:
        if bench not in self._images:
            self._images[bench] = generate_benchmark(
                get_profile(bench), scale=self.scale
            )
        return self._images[bench]

    def compression(self, bench: str,
                    options: CompressionOptions,
                    label: str) -> CompressionResult:
        key = (bench, "compress", label)
        if key not in self._compressions:
            self._compressions[key] = compress_image(
                self.image(bench), options
            )
        return self._compressions[key]

    # ------------------------------------------------------------------
    # Traces per transformation
    # ------------------------------------------------------------------
    def _trace(self, task: TraceTask) -> TraceResult:
        key = task.suite_key()
        if key not in self._traces:
            self._traces[key] = installation_trace(
                task, self.image(task.bench), self.cache,
                compress=lambda image, options: self.compression(
                    task.bench, options, task.label),
            )
        return self._traces[key]

    def trace_plain(self, bench: str) -> TraceResult:
        return self._trace(self.task("plain", bench))

    def trace_mfi(self, bench: str, variant: str) -> TraceResult:
        return self._trace(self.task("mfi", bench, variant=variant))

    def trace_rewrite(self, bench: str) -> TraceResult:
        return self._trace(self.task("rewrite", bench))

    def trace_compressed(self, bench: str, options: CompressionOptions,
                         label: str) -> TraceResult:
        return self._trace(self.task("compressed", bench, label=label,
                                     options=options))

    def trace_composition(self, bench: str, scheme: str) -> TraceResult:
        return self._trace(self.task("composed", bench, scheme=scheme))

    # ------------------------------------------------------------------
    def cycles(self, trace: TraceResult,
               config: Optional[MachineConfig] = None) -> CycleResult:
        # Results are memoised — figures share many (trace, config)
        # replays.  The key is a content fingerprint: id(trace) could be
        # recycled by the allocator after a trace is garbage-collected,
        # silently returning another trace's results.
        key = (trace_fingerprint(trace), repr(config))
        if key not in self._cycles:
            self._cycles[key] = trace_replay(trace, config, self.cache,
                                             self.cycle_engine)
        return self._cycles[key]

    # ------------------------------------------------------------------
    # Parallel execution
    # ------------------------------------------------------------------
    def task(self, kind: str, bench: str, **fields) -> TraceTask:
        """Build a :class:`TraceTask` for this suite's scale."""
        return TraceTask(bench=bench, scale=self.scale, kind=kind, **fields)

    def prefetch(self, plan: Iterable, jobs: Optional[int] = None) -> int:
        """Fan a figure's functional simulations (and known timing replays)
        out across worker processes, populating the in-memory memos.

        ``plan`` entries are ``TraceTask`` or ``(TraceTask, configs)``.
        Tasks whose traces are already in memory are skipped.  Each task
        runs over this suite's :meth:`image` of its benchmark, which
        crosses the pipe to the worker.  With an effective worker count
        of 1 this is a no-op (the serial path will compute everything on
        demand, through the persistent cache).  Returns the number of
        tasks executed.
        """
        # Imported here: repro.harness.parallel imports this module.
        from repro.harness.parallel import run_tasks

        jobs = resolve_jobs(self.jobs if jobs is None else jobs)
        if jobs <= 1:
            return 0
        normalized = []
        for entry in plan:
            task, configs = (entry if isinstance(entry, tuple)
                             else (entry, ()))
            if task.suite_key() in self._traces:
                continue
            normalized.append((task, tuple(configs)))
        if not normalized:
            return 0
        images = {task.bench: self.image(task.bench)
                  for task, _ in normalized}
        with _events.span("suite.prefetch", tasks=len(normalized),
                          jobs=jobs):
            results = run_tasks(normalized, images=images, jobs=jobs,
                                cache=self.cache)
        for task, (digest, trace, cycle_results) in results.items():
            self._traces.setdefault(task.suite_key(), trace)
            fingerprint = trace_fingerprint(trace)
            for config_repr, result in cycle_results.items():
                self._cycles.setdefault((fingerprint, config_repr), result)
        return len(results)
