"""Parallel figure harness: fan-out, fallback, and Suite integration."""

import collections
import dataclasses
import logging
import pickle
from concurrent.futures import Future

import pytest

from repro.harness import Suite, fig6_top, fig6_width, fig7_perf, fig8_rt
from repro.harness import parallel as parallel_mod
from repro.harness import runner
from repro.harness.parallel import (
    TraceTask,
    build_installation,
    resolve_jobs,
    run_tasks,
)
from repro.harness.trace_cache import (
    LazyTrace,
    TraceCache,
    serialize_trace,
    trace_fingerprint,
)
from repro.sim.config import MachineConfig
from repro.workloads.generator import generate_benchmark
from repro.workloads.specint import get_profile

SCALE = 0.2
BENCHES = ("mcf", "gzip")


@pytest.fixture(scope="module")
def images():
    """The base image of each benchmark, as a Suite would pass them."""
    return {bench: generate_benchmark(get_profile(bench), scale=SCALE)
            for bench in BENCHES}


def _plan(configs=None):
    configs = configs if configs is not None else [MachineConfig()]
    return [
        (TraceTask(bench="mcf", scale=SCALE, kind="plain"), configs),
        (TraceTask(bench="mcf", scale=SCALE, kind="mfi", variant="dise3"),
         configs),
        (TraceTask(bench="gzip", scale=SCALE, kind="rewrite"), configs),
    ]


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_garbage_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        assert resolve_jobs() == 1

    def test_floor_is_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


class TestTraceTask:
    def test_suite_keys(self):
        assert TraceTask("mcf", 1.0, "plain").suite_key() == ("mcf", "plain")
        assert TraceTask("mcf", 1.0, "mfi", variant="dise4").suite_key() == \
            ("mcf", "mfi", "dise4")
        assert TraceTask("mcf", 1.0, "rewrite").suite_key() == \
            ("mcf", "rewrite")
        assert TraceTask("mcf", 1.0, "compressed", label="DISE").suite_key() \
            == ("mcf", "compressed", "DISE")
        assert TraceTask("mcf", 1.0, "composed", scheme="mfi+comp") \
            .suite_key() == ("mcf", "composed", "mfi+comp")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceTask("mcf", 1.0, "nonsense")

    def test_build_installation_is_deterministic(self):
        task = TraceTask("mcf", SCALE, "mfi", variant="dise3")
        a = build_installation(
            task, generate_benchmark(get_profile("mcf"), scale=SCALE))
        b = build_installation(
            task, generate_benchmark(get_profile("mcf"), scale=SCALE))
        assert [repr(i) for i in a.image.instructions] == \
            [repr(i) for i in b.image.instructions]


class TestRunTasks:
    def test_parallel_is_bit_identical_to_serial(self, images):
        serial = run_tasks(_plan(), images, jobs=1)
        parallel = run_tasks(_plan(), images, jobs=2)
        assert set(serial) == set(parallel)
        for task in serial:
            _, trace_s, cycles_s = serial[task]
            _, trace_p, cycles_p = parallel[task]
            assert serialize_trace(trace_s) == serialize_trace(trace_p)
            assert cycles_s == cycles_p

    def test_results_populate_cache(self, images, tmp_path):
        cache = TraceCache(tmp_path)
        run_tasks(_plan(), images, jobs=2, cache=cache)
        stats = cache.stats()
        assert stats["traces"]["entries"] == 3
        assert stats["cycles"]["entries"] == 3

    def test_cached_rerun_matches(self, images, tmp_path):
        cache = TraceCache(tmp_path)
        first = run_tasks(_plan(), images, jobs=1, cache=cache)
        second = run_tasks(_plan(), images, jobs=2, cache=cache)
        for task in first:
            assert serialize_trace(first[task][1]) == \
                serialize_trace(second[task][1])
            assert first[task][2] == second[task][2]

    def test_fully_cached_rerun_stays_lazy(self, images, tmp_path):
        cache = TraceCache(tmp_path)
        run_tasks(_plan(), images, jobs=1, cache=cache)
        warm = run_tasks(_plan(), images, jobs=2, cache=cache)
        for task, (digest, trace, cycles) in warm.items():
            assert isinstance(trace, LazyTrace)
            assert trace._real is None      # ops never deserialized
            assert digest is not None and cycles
        # Materializing still yields the stored trace.
        reference = run_tasks(_plan(), images, jobs=1)
        for task in reference:
            assert serialize_trace(warm[task][1]) == \
                serialize_trace(reference[task][1])

    def test_worker_failure_falls_back_to_serial(self, images, caplog):
        class FailingExecutor:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_exception(RuntimeError("worker exploded"))
                return future

        with caplog.at_level(logging.WARNING, logger="repro.harness.parallel"):
            results = run_tasks(_plan(), images, jobs=2,
                                executor_factory=FailingExecutor)
        assert len(results) == 3
        assert any("falling back to serial" in rec.message
                   for rec in caplog.records)
        reference = run_tasks(_plan(), images, jobs=1)
        for task in reference:
            assert serialize_trace(results[task][1]) == \
                serialize_trace(reference[task][1])

    def test_broken_pool_completes_serially(self, images, caplog):
        def broken_factory():
            raise OSError("fork failed")

        with caplog.at_level(logging.WARNING, logger="repro.harness.parallel"):
            results = run_tasks(_plan(), images, jobs=2,
                                executor_factory=broken_factory)
        assert len(results) == 3
        assert any("completing serially" in rec.message
                   for rec in caplog.records)

    def test_config_lists_are_merged_per_task(self, images):
        task = TraceTask("mcf", SCALE, "plain")
        wide = MachineConfig(width=8)
        plan = [(task, [MachineConfig()]), (task, [MachineConfig(), wide])]
        results = run_tasks(plan, images, jobs=1)
        assert len(results) == 1
        assert set(results[task][2]) == {repr(MachineConfig()), repr(wide)}


class TestSuiteIntegration:
    def test_prefetch_populates_traces_and_cycles(self):
        suite = Suite(benchmarks=BENCHES, scale=SCALE, jobs=2, cache=None)
        config = MachineConfig()
        plan = [
            (suite.task("plain", "mcf"), [config]),
            (suite.task("mfi", "gzip", variant="dise3"), [config]),
        ]
        count = suite.prefetch(plan)
        assert count == 2
        assert ("mcf", "plain") in suite._traces
        assert ("gzip", "mfi", "dise3") in suite._traces
        trace = suite._traces[("mcf", "plain")]
        assert (trace_fingerprint(trace), repr(config)) in suite._cycles
        # A second prefetch of the same plan is a no-op.
        assert suite.prefetch(plan) == 0

    def test_prefetch_serial_jobs_is_noop(self):
        suite = Suite(benchmarks=BENCHES, scale=SCALE, jobs=1, cache=None)
        plan = [(suite.task("plain", "mcf"), [MachineConfig()])]
        assert suite.prefetch(plan) == 0
        assert ("mcf", "plain") not in suite._traces

    def test_parallel_cached_figures_match_serial(self, tmp_path):
        serial = Suite(benchmarks=BENCHES, scale=SCALE, jobs=1, cache=None)
        fast = Suite(benchmarks=BENCHES, scale=SCALE, jobs=2,
                     cache=tmp_path / "cache")
        for experiment in (fig6_top, fig6_width):
            assert experiment(serial).render() == experiment(fast).render()
        # Warm rerun out of the cache in a fresh suite: still identical.
        warm = Suite(benchmarks=BENCHES, scale=SCALE, jobs=2,
                     cache=tmp_path / "cache")
        for experiment in (fig6_top, fig6_width):
            assert experiment(serial).render() == experiment(warm).render()

    def test_suite_cycles_usage_hits_persistent_cache(self, tmp_path):
        config = MachineConfig()
        first = Suite(benchmarks=("mcf",), scale=SCALE, jobs=1,
                      cache=tmp_path / "cache")
        trace = first.trace_plain("mcf")
        result = first.cycles(trace, config)
        second = Suite(benchmarks=("mcf",), scale=SCALE, jobs=1,
                       cache=tmp_path / "cache")
        trace2 = second.trace_plain("mcf")
        assert trace2.cache_key is not None
        assert second.cycles(trace2, config) == result

    @pytest.mark.parametrize("experiment,kind", [(fig7_perf, "compressed"),
                                                 (fig8_rt, "composed")])
    def test_pool_path_for_every_task_kind(self, tmp_path, monkeypatch,
                                           experiment, kind):
        def table_bytes(table):
            return table.render() + repr(sorted(table.as_dict().items()))

        seen = []
        real = parallel_mod.run_tasks

        def recording(plan, **kwargs):
            plan = list(plan)
            results = real(plan, **kwargs)
            seen.append(({task.kind for task, _ in plan}, results))
            return results

        monkeypatch.setattr(parallel_mod, "run_tasks", recording)
        reference = table_bytes(experiment(
            Suite(benchmarks=("mcf",), scale=0.05, jobs=1, cache=None)))
        assert not seen
        for phase in ("cold", "warm"):
            suite = Suite(benchmarks=("mcf",), scale=0.05, jobs=2,
                          cache=tmp_path / "cache")
            assert table_bytes(experiment(suite)) == reference, phase
        (cold_kinds, _), (warm_kinds, warm) = seen
        assert cold_kinds == warm_kinds == {"plain", kind}
        for _, trace, _ in warm.values():
            assert isinstance(trace, LazyTrace) and trace._real is None


class SeededSuite(Suite):
    """A Suite over images whose profile seeds are offset by ``seed``."""

    def __init__(self, seed, **kwargs):
        super().__init__(**kwargs)
        self.seed = seed

    def image(self, bench):
        if bench not in self._images:
            profile = get_profile(bench)
            profile = dataclasses.replace(profile,
                                          seed=profile.seed + self.seed)
            self._images[bench] = generate_benchmark(profile,
                                                     scale=self.scale)
        return self._images[bench]


class TestImagesCrossThePipe:
    """The pool path builds every task from the Suite's own images."""

    def test_image_override_holds_at_jobs_2(self, tmp_path):
        def table(jobs, cache, seed=7):
            suite = SeededSuite(seed, benchmarks=("mcf",), scale=0.05,
                                jobs=jobs, cache=cache)
            return fig6_top(suite).render()

        serial = table(1, None)
        assert serial != table(1, None, seed=0)   # the override matters
        assert table(2, None) == serial
        for phase in ("cold", "warm"):
            assert table(2, tmp_path / "cache") == serial, phase

    def test_image_that_ran_in_the_parent_still_crosses(self):
        # A machine run leaves compiled translations on its image, which
        # cannot be pickled; a later prefetch must still send the image.
        image = generate_benchmark(get_profile("mcf"), scale=0.05)
        build_installation(TraceTask("mcf", 0.05, "plain"), image) \
            .make_machine().run(max_steps=10_000)
        assert image._translation_store
        sent = pickle.loads(pickle.dumps(image))
        assert not hasattr(sent, "_translation_store")
        assert sent.instructions == image.instructions
        assert sent.data_words == image.data_words
        assert sent.index_of_addr == image.index_of_addr

    def test_warm_parent_builds_nothing(self, tmp_path, monkeypatch):
        benches = ("mcf", "gzip")
        cache = tmp_path / "cache"
        cold = fig6_top(Suite(benchmarks=benches, scale=0.05, jobs=2,
                              cache=cache)).render()
        calls = collections.Counter()

        def counted(name):
            real = getattr(runner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(runner, name, wrapper)

        for name in ("build_installation", "attach_mfi", "rewrite_mfi",
                     "generate_benchmark"):
            counted(name)
        warm = Suite(benchmarks=benches, scale=0.05, jobs=2, cache=cache)
        assert fig6_top(warm).render() == cold
        assert calls == {"generate_benchmark": len(benches)}
