"""Per-layer self time for a traced benchmark pass.

The wrappers go around the public entry points of each layer, at the
bindings the callers use: most modules import with ``from x import y``, so
patching the defining module alone would miss them.  A span stack gives
each layer its *self* time (a span's duration minus the time its child
spans cover), so nested calls such as ``compress_image`` inside
``build_composition`` or ``replay_hierarchy`` inside ``simulate_trace`` are
never counted twice.  Over one traced window the layer self times plus the
unattributed remainder equal the window's wall-clock exactly.

Spans are kept in memory as ``(id, name, start, end, parent)`` tuples and
handed back when the pass ends; nothing is written while the work runs.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

#: The layers whose self time is reported, as ``<layer>_s``.
LAYERS = (
    "workloads.generate",
    "acf.mfi",
    "acf.compression",
    "acf.composition",
    "acf.make_machine",
    "sim.functional.run",
    "sim.functional.checkpoint",
    "sim.functional.restore",
    "sim.cycle.phase_b",
    "sim.cycle.phase_a.mem",
    "sim.cycle.phase_a.ctrl",
    "sim.cycle.phase_a.rt",
    "sim.batch.run",
    "harness.trace_cache.key",
    "harness.trace_cache.io",
    "fabric.self",
    "fabric.checkpoint",
    "faults.scalar",
    "faults.inject",
    "faults.profile_sites",
    "serve.codec",
    "serve.handle",
    "serve.session.build",
    "serve.catalog",
)


class Tracer:
    """Span stack plus per-layer self time and counters for one process."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = []
        self._stack = []
        self._next_id = 0

    def wrap(self, layer, fn, after=None):
        """``fn`` timed as a span of ``layer``; ``after(args, kwargs,
        result)`` runs once the span has closed, for counters."""
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_s[layer] += elapsed - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
                spans.append((span_id, layer, start, end, parent))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, name, layer, after=None):
        setattr(owner, name, self.wrap(layer, getattr(owner, name), after))

    # ------------------------------------------------------------------
    def install(self):
        """Wrap every layer entry point the benchmark attributes."""
        import repro.acf.composition as composition
        import repro.fabric.engine as engine
        import repro.faults.campaign as campaign
        import repro.harness.runner as runner
        import repro.serve.protocol as protocol
        import repro.serve.session as session
        import repro.sim.cycle as cycle
        import repro.workloads.generator as generator
        from repro.acf.base import AcfInstallation
        from repro.fabric.engine import Fabric
        from repro.harness.trace_cache import TraceCache
        from repro.serve.server import ServerCore
        from repro.serve.session import ImageCatalog, Session
        from repro.sim.batch import BatchMachine
        from repro.sim.functional import Machine

        counts = self.counts

        self.patch(generator, "generate_benchmark", "workloads.generate")
        for module in (campaign, session):
            self.patch(module, "generate_by_name", "workloads.generate")

        for module in (runner, campaign, session):
            self.patch(module, "attach_mfi", "acf.mfi")
        self.patch(runner, "rewrite_mfi", "acf.mfi")
        for module in (runner, composition):
            self.patch(module, "compress_image", "acf.compression")
        self.patch(runner, "build_composition", "acf.composition")
        self.patch(AcfInstallation, "make_machine", "acf.make_machine")

        # Machine.run either starts a fresh machine or continues a served
        # one, so retirements are the counter's delta, not the trace length.
        original_run = Machine.run

        def counted_run(machine, *args, **kwargs):
            before = machine.instructions
            try:
                return original_run(machine, *args, **kwargs)
            finally:
                counts["sim.functional.instrs"] += \
                    machine.instructions - before

        Machine.run = self.wrap("sim.functional.run",
                                functools.wraps(original_run)(counted_run))
        self.patch(Machine, "checkpoint", "sim.functional.checkpoint")
        self.patch(Machine, "restore", "sim.functional.restore")

        self.patch(runner, "simulate_trace", "sim.cycle.phase_b")
        self.patch(cycle, "replay_hierarchy", "sim.cycle.phase_a.mem")
        self.patch(cycle, "replay_control", "sim.cycle.phase_a.ctrl")
        self.patch(cycle, "replay_rt", "sim.cycle.phase_a.rt")
        self.patch(BatchMachine, "run", "sim.batch.run")

        for name in ("trace_fingerprint", "machine_trace_key"):
            self.patch(runner, name, "harness.trace_cache.key")

        def lookup(args, kwargs, result):
            # has_trace answers a bool, load_cycles a result or None.
            hit = result if isinstance(result, bool) else result is not None
            counts["harness.trace_cache.lookups"] += 1
            counts["harness.trace_cache.hits"] += hit

        def written(path_of):
            def after(args, kwargs, result):
                cache, digest = args[0], args[1]
                counts["harness.trace_cache.bytes_written"] += \
                    getattr(cache, path_of)(digest).stat().st_size
            return after

        self.patch(TraceCache, "has_trace", "harness.trace_cache.io", lookup)
        self.patch(TraceCache, "load_cycles", "harness.trace_cache.io",
                   lookup)
        self.patch(TraceCache, "load_trace", "harness.trace_cache.io")
        self.patch(TraceCache, "store_trace", "harness.trace_cache.io",
                   written("trace_path"))
        self.patch(TraceCache, "store_cycles", "harness.trace_cache.io",
                   written("cycle_path"))

        def tasks(args, kwargs, result):
            counts["fabric.tasks"] += len(result)

        self.patch(Fabric, "run", "fabric.self", tasks)
        self.patch(engine, "write_checkpoint", "fabric.checkpoint")
        # The serial drive of a fault (per-step Machine.step plus
        # classification) runs inside the recipe functions the engine
        # calls: execute_task per task, or the batch function per wave.
        self.patch(engine, "execute_task", "faults.scalar")
        get_recipe = engine.get_recipe

        def traced_recipe(name):
            fn, batch_fn = get_recipe(name)
            if batch_fn is not None:
                batch_fn = self.wrap("faults.scalar", batch_fn)
            return fn, batch_fn

        engine.get_recipe = traced_recipe
        self.patch(campaign, "mutate_image", "faults.inject")
        self.patch(campaign, "profile_sites", "faults.profile_sites")

        self.patch(protocol, "encode_message", "serve.codec")
        self.patch(protocol, "decode_message", "serve.codec")

        def response(args, kwargs, result):
            counts["serve.errors"] += not result.get("ok")

        self.patch(ServerCore, "handle", "serve.handle", response)
        self.patch(Session, "build_machine", "serve.session.build")
        self.patch(ImageCatalog, "resolve_installation", "serve.catalog")

    # ------------------------------------------------------------------
    def summary(self, window_s):
        """Self times, call counts and counters of this process's window."""
        return {
            "window_s": window_s,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def layer_metrics(summaries, extra_counts, untraced_window_s):
    """Per-layer metrics from the traced processes of one pass.

    ``summaries`` are :meth:`Tracer.summary` dicts (one per traced
    process), ``extra_counts`` counters the workload read from the program
    (pool statistics), and ``untraced_window_s`` the same windows measured
    with tracing off.  Every metric is reported; a layer that does not
    run on a workload reads 0.
    """
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    window = 0.0
    for summary in summaries:
        window += summary["window_s"]
        for key, value in summary["self_s"].items():
            self_s[key] += value
        for key, value in summary["calls"].items():
            calls[key] += value
        for key, value in summary["counts"].items():
            counts[key] += value
    for key, value in extra_counts.items():
        counts[key] += value

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {f"{layer}_s": (self_s[layer], "s") for layer in LAYERS}
    replays = calls["sim.cycle.phase_b"]
    instrs = counts["sim.functional.instrs"]
    metrics.update({
        "acf.compression.calls": (calls["acf.compression"], "count"),
        "acf.make_machine.calls": (calls["acf.make_machine"], "count"),
        "sim.functional.instrs": (instrs, "count"),
        "sim.functional.mips": (
            ratio(instrs, self_s["sim.functional.run"]) / 1e6, "Minstr/s"),
        "sim.cycle.replays": (replays, "count"),
        "sim.batch.calls": (calls["sim.batch.run"], "count"),
        "harness.trace_cache.hit_ratio": (
            ratio(counts["harness.trace_cache.hits"],
                  counts["harness.trace_cache.lookups"]), "ratio"),
        "harness.trace_cache.bytes_written": (
            counts["harness.trace_cache.bytes_written"], "bytes"),
        "fabric.tasks": (counts["fabric.tasks"], "count"),
        "fabric.checkpoint.writes": (calls["fabric.checkpoint"], "count"),
        "faults.inject.calls": (calls["faults.inject"], "count"),
        "serve.requests": (calls["serve.handle"], "count"),
        "serve.errors": (counts["serve.errors"], "count"),
        "serve.warm_build_ratio": (
            ratio(counts["serve.pool.warm_builds"],
                  counts["serve.pool.builds"]), "ratio"),
        "serve.pool.evictions": (counts["serve.pool.evictions"], "count"),
    })
    for component in ("mem", "ctrl", "rt"):
        layer = f"sim.cycle.phase_a.{component}"
        hit = 1 - ratio(calls[layer], replays) if replays else 0.0
        metrics[f"{layer}.hit_ratio"] = (hit, "ratio")
    metrics["traced_wall_s"] = (window, "s")
    metrics["unattributed_s"] = (window - sum(self_s.values()), "s")
    metrics["tracing_overhead"] = (
        ratio(window, untraced_window_s) - 1 if untraced_window_s else 0.0,
        "ratio")
    return metrics
