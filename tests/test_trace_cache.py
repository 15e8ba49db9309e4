"""Persistent trace cache: keys, serialization round-trips, store/load."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro import fingerprint
from repro.acf.base import AcfInstallation
from repro.acf.compression import DISE_OPTIONS
from repro.acf.mfi import attach_mfi
from repro.core.config import DiseConfig
from repro.errors import HarnessError
from repro.fabric import ArtifactStore
from repro.harness import Suite, fig6_top, runner
from repro.harness.runner import TraceTask, installation_trace
from repro.harness.trace_cache import (
    SCHEMA_VERSION,
    LazyTrace,
    TraceCache,
    cycle_key,
    default_cache_root,
    deserialize_trace,
    image_fingerprint,
    machine_trace_key,
    open_cache,
    serialize_trace,
    trace_fingerprint,
    CacheError,
)
from repro.sim.config import MachineConfig
from repro.sim.cycle import simulate_trace
from repro.verify.campaign import VerifyConfig, run_verification
from repro.workloads.generator import generate_benchmark
from repro.workloads.specint import get_profile

FUNCTIONAL = DiseConfig(rt_perfect=True)
MAX_STEPS = 5_000_000


@pytest.fixture(scope="module")
def image():
    return generate_benchmark(get_profile("mcf"), scale=0.2)


@pytest.fixture(scope="module")
def installation(image):
    return attach_mfi(image, "dise3")


@pytest.fixture(scope="module")
def trace(installation):
    return installation.make_machine(FUNCTIONAL).run(max_steps=MAX_STEPS)


def _ops_equal(a, b):
    if len(a.ops) != len(b.ops):
        return False
    for x, y in zip(a.ops, b.ops):
        for slot in type(x).__slots__:
            if getattr(x, slot) != getattr(y, slot):
                return False
    return True


class TestSerialization:
    def test_round_trip_preserves_everything(self, trace):
        restored = deserialize_trace(serialize_trace(trace))
        assert _ops_equal(trace, restored)
        assert restored.outputs == trace.outputs
        assert restored.fault_code == trace.fault_code
        assert restored.halted == trace.halted
        assert restored.instructions == trace.instructions
        assert restored.app_instructions == trace.app_instructions
        assert restored.expansions == trace.expansions
        assert tuple(restored.final_regs) == tuple(trace.final_regs)
        assert restored.final_memory.snapshot() == \
            trace.final_memory.snapshot()

    def test_round_trip_replays_identically(self, trace):
        restored = deserialize_trace(serialize_trace(trace))
        config = MachineConfig()
        assert simulate_trace(restored, config, warm_start=True) == \
            simulate_trace(trace, config, warm_start=True)

    def test_corrupt_payload_raises_cache_error(self, trace):
        data = serialize_trace(trace)
        with pytest.raises(CacheError):
            deserialize_trace(data[: len(data) // 2])
        with pytest.raises(CacheError):
            deserialize_trace(b"definitely not zlib")

    def test_serialization_is_deterministic(self, trace):
        assert serialize_trace(trace) == serialize_trace(trace)


def _task_key(image, task, dise=FUNCTIONAL, max_steps=MAX_STEPS):
    return machine_trace_key(image, task.recipe(), repr(dise), max_steps)


class TestKeys:
    """Trace keys name the code, the base image and the task's recipe."""

    TASK = TraceTask("mcf", 0.2, "mfi", variant="dise3")

    def test_key_is_stable_across_rebuilds(self, image):
        rebuilt = generate_benchmark(get_profile("mcf"), scale=0.2)
        assert rebuilt is not image
        assert _task_key(image, self.TASK) == _task_key(rebuilt, self.TASK)

    def test_key_changes_with_image(self, image):
        other = generate_benchmark(get_profile("gzip"), scale=0.2)
        assert _task_key(image, self.TASK) != _task_key(other, self.TASK)

    def test_key_changes_with_each_recipe_field(self, image):
        tasks = [
            TraceTask("mcf", 0.2, "plain"),
            TraceTask("mcf", 0.2, "rewrite"),
            TraceTask("mcf", 0.2, "mfi", variant="dise3"),
            TraceTask("mcf", 0.2, "mfi", variant="dise4"),
            TraceTask("mcf", 0.2, "compressed", label="DISE",
                      options=DISE_OPTIONS),
            TraceTask("mcf", 0.2, "compressed", label="other",
                      options=DISE_OPTIONS),
            TraceTask("mcf", 0.2, "compressed", label="DISE",
                      options=DISE_OPTIONS.with_changes(min_seq_len=3)),
            TraceTask("mcf", 0.2, "composed", scheme="dise+dise"),
            TraceTask("mcf", 0.2, "composed", scheme="rewrite+dise"),
        ]
        keys = {_task_key(image, task) for task in tasks}
        assert len(keys) == len(tasks)

    def test_key_changes_with_config_and_budget(self, image):
        base = _task_key(image, self.TASK)
        other_cfg = _task_key(image, self.TASK, dise=DiseConfig())
        other_steps = _task_key(image, self.TASK, max_steps=MAX_STEPS + 1)
        assert len({base, other_cfg, other_steps}) == 3

    def test_key_changes_with_code_fingerprint(self, image, monkeypatch):
        before = _task_key(image, self.TASK)
        monkeypatch.setattr(fingerprint, "_fingerprint", "0" * 64)
        assert _task_key(image, self.TASK) != before
        monkeypatch.undo()
        assert _task_key(image, self.TASK) == before

    def test_ctrl_handlers_are_uncacheable(self, tmp_path, monkeypatch):
        # A control handler is arbitrary Python the key cannot name: the
        # run still happens, but its trace is neither keyed nor stored.
        image = generate_benchmark(get_profile("mcf"), scale=0.05)

        def with_handler(task, image, compress=None):
            def init(machine):
                machine.control_handlers[99] = lambda m: None
            return AcfInstallation(image=image, init_machine=init)

        monkeypatch.setattr(runner, "build_installation", with_handler)
        cache = TraceCache(tmp_path)
        task = TraceTask("mcf", 0.05, "plain")
        trace = installation_trace(task, image, cache)
        assert trace.halted and trace.cache_key is None
        assert cache.stats()["traces"]["entries"] == 0
        assert installation_trace(task, image, cache, compute=False) is None

    def test_image_fingerprint_sensitive_to_content(self, image):
        other = generate_benchmark(get_profile("gzip"), scale=0.2)
        assert image_fingerprint(image) != image_fingerprint(other)
        assert image_fingerprint(image) == image_fingerprint(
            generate_benchmark(get_profile("mcf"), scale=0.2)
        )

    def test_image_fingerprint_covers_what_installation_reads(self, image):
        # Rewriting and compression read the symbol table and the
        # load-address pairs, so a base-image key must cover them.
        assert image.symbols and image.load_addresses
        for changed in (
            dataclasses.replace(image, symbols={}),
            dataclasses.replace(image, load_addresses={}),
        ):
            assert image_fingerprint(changed) != image_fingerprint(image)

    def test_image_fingerprint_depends_on_values_not_objects(self, image):
        # Equal symbol names held in distinct string objects (and fresh
        # big ints) serialize to the same bytes.
        rebuilt = dataclasses.replace(
            image,
            symbols={"".join(list(name)): index
                     for name, index in image.symbols.items()},
            data_words={int(str(addr)): int(str(value))
                        for addr, value in image.data_words.items()},
        )
        assert image_fingerprint(rebuilt) == image_fingerprint(image)

    def test_cycle_key_separates_configs(self):
        a = cycle_key("digest", repr(MachineConfig()), True)
        b = cycle_key("digest", repr(MachineConfig(width=8)), True)
        c = cycle_key("digest", repr(MachineConfig()), False)
        assert len({a, b, c}) == 3

    def test_trace_fingerprint_memoised_and_stable(self, trace):
        trace.cache_key = None
        trace._fingerprint = None
        first = trace_fingerprint(trace)
        assert trace_fingerprint(trace) == first
        trace.cache_key = "explicit-digest"
        assert trace_fingerprint(trace) == "explicit-digest"
        trace.cache_key = None
        trace._fingerprint = None


class TestTraceCacheStore:
    def test_store_load_round_trip(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        loaded = cache.load_trace("d1")
        assert loaded is not None and _ops_equal(trace, loaded)
        assert cache.load_trace("missing") is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        cache.trace_path("d1").write_bytes(b"garbage")
        assert cache.load_trace("d1") is None

    def test_cycle_results_round_trip(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        result = simulate_trace(trace, MachineConfig(), warm_start=True)
        cache.store_cycles("c1", result)
        assert cache.load_cycles("c1") == result
        assert cache.load_cycles("missing") is None

    def test_stats_and_clear(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        cache.store_cycles(
            "c1", simulate_trace(trace, MachineConfig(), warm_start=True)
        )
        stats = cache.stats()
        assert stats["traces"]["entries"] == 1
        assert stats["cycles"]["entries"] == 1
        assert stats["traces"]["bytes"] > 0
        assert cache.clear() == 2
        stats = cache.stats()
        assert stats["traces"]["entries"] == 0
        assert stats["cycles"]["entries"] == 0


class TestLazyTrace:
    def test_defers_until_attribute_access(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        lazy = LazyTrace(cache, "d1")
        assert lazy.cache_key == "d1"
        assert trace_fingerprint(lazy) == "d1"
        assert lazy._real is None           # nothing deserialized yet
        assert lazy.instructions == trace.instructions
        assert lazy._real is not None
        assert _ops_equal(trace, lazy.materialize())

    def test_replays_identically_to_eager_trace(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        lazy = LazyTrace(cache, "d1")
        config = MachineConfig()
        assert simulate_trace(lazy, config, warm_start=True) == \
            simulate_trace(trace, config, warm_start=True)

    def test_attribute_writes_reach_the_real_trace(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        lazy = LazyTrace(cache, "d1")
        lazy._warm_states = {"sig": "state"}
        assert lazy.materialize()._warm_states == {"sig": "state"}

    def test_missing_entry_uses_recompute_fallback(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        lazy = LazyTrace(cache, "gone", recompute=lambda: trace)
        assert _ops_equal(trace, lazy.materialize())
        # The recomputed trace was re-stored under the key.
        assert cache.has_trace("gone")

    def test_missing_entry_without_fallback_raises(self, tmp_path):
        lazy = LazyTrace(TraceCache(tmp_path), "gone")
        with pytest.raises(CacheError):
            lazy.materialize()


class TestEnvironment:
    def test_disabled_values(self, monkeypatch):
        for value in ("0", "off", "none", "  "):
            monkeypatch.setenv("REPRO_TRACE_CACHE", value)
            assert default_cache_root() is None
            assert open_cache("auto") is None

    def test_env_path_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "tc"))
        root = default_cache_root()
        assert root == tmp_path / "tc"
        cache = open_cache("auto")
        assert cache is not None and cache.root == root

    def test_explicit_path_and_passthrough(self, tmp_path):
        cache = open_cache(tmp_path)
        assert isinstance(cache, TraceCache)
        assert open_cache(cache) is cache
        assert open_cache(None) is None

    def test_schema_version_guards_payloads(self, trace):
        import pickle
        import zlib

        payload = pickle.loads(zlib.decompress(serialize_trace(trace)))
        assert payload["schema"] == SCHEMA_VERSION
        payload["schema"] = SCHEMA_VERSION + 1
        stale = zlib.compress(pickle.dumps(payload, protocol=4), level=1)
        with pytest.raises(CacheError):
            deserialize_trace(stale)


class TestSelfHealing:
    """Corrupt entries are quarantined and regenerated, not served."""

    def test_frame_round_trip_and_detection(self):
        from repro.harness.trace_cache import frame_payload, unframe_payload

        payload = b"some cached payload"
        framed = frame_payload(payload)
        assert unframe_payload(framed) == payload
        with pytest.raises(CacheError):
            unframe_payload(framed[:-3])            # truncated payload
        with pytest.raises(CacheError):
            unframe_payload(b"not a cache entry")   # no header
        flipped = bytearray(framed)
        flipped[len(flipped) // 2] ^= 0x10
        with pytest.raises(CacheError):
            unframe_payload(bytes(flipped))         # bit rot

    def test_truncated_entry_quarantined(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        path = cache.trace_path("d1")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.load_trace("d1") is None
        assert not path.exists()                    # moved aside, not served
        assert cache.stats()["quarantined"]["entries"] == 1

    def test_bitflipped_entry_quarantined(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        path = cache.trace_path("d1")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x40
        path.write_bytes(bytes(data))
        assert cache.load_trace("d1") is None
        assert cache.stats()["quarantined"]["entries"] == 1

    def test_corrupt_cycles_entry_quarantined(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_cycles(
            "c1", simulate_trace(trace, MachineConfig(), warm_start=True)
        )
        path = cache.cycle_path("c1")
        path.write_bytes(b"rotten")
        assert cache.load_cycles("c1") is None
        assert cache.stats()["quarantined"]["entries"] == 1

    def test_regeneration_matches_cold_run(self, tmp_path):
        """End to end: corrupting a cache entry must not change results."""
        from repro.harness.parallel import run_tasks

        cache = TraceCache(tmp_path)
        task = TraceTask("mcf", 0.05, "plain")
        plan = [(task, [MachineConfig()])]
        images = {"mcf": generate_benchmark(get_profile("mcf"), scale=0.05)}
        cold = run_tasks(plan, images, jobs=1, cache=cache)
        digest = cold[task][0]
        path = cache.trace_path(digest)
        data = bytearray(path.read_bytes())
        data[len(data) // 3] ^= 0x01
        path.write_bytes(bytes(data))
        healed = run_tasks(plan, images, jobs=1, cache=cache)
        assert serialize_trace(healed[task][1]) == \
            serialize_trace(cold[task][1])
        assert healed[task][2] == cold[task][2]
        assert cache.has_trace(digest)              # re-stored after healing
        assert cache.stats()["quarantined"]["entries"] == 1

    def test_cache_error_is_structured(self):
        from repro.errors import CacheCorruptionError, HarnessError

        assert issubclass(CacheError, CacheCorruptionError)
        assert issubclass(CacheError, HarnessError)
        assert issubclass(CacheError, RuntimeError)   # legacy base


class TestSchemaMigration:
    """Entries from other schema versions are never misread.

    Older entries (pre-SoA ``RDTC2`` frames) read as misses and are
    quarantined so the caller regenerates them; entries from a *newer*
    tool survive ``clear()`` and show up in ``stats()`` instead of being
    treated as garbage.
    """

    @staticmethod
    def _write_framed(path, magic, payload=b"foreign schema payload"):
        import hashlib

        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            magic + hashlib.sha256(payload).digest()[:16] + payload
        )

    def test_v2_entry_quarantined_and_regenerated(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        path = cache.trace_path("d1")
        self._write_framed(path, b"RDTC2\n")
        assert cache.load_trace("d1") is None      # miss, never misread
        assert not path.exists()                   # moved aside
        assert cache.stats()["quarantined"]["entries"] == 1
        cache.store_trace("d1", trace)             # regenerated entry wins
        loaded = cache.load_trace("d1")
        assert loaded is not None and _ops_equal(trace, loaded)

    def test_future_entry_survives_clear(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("now", trace)
        future = cache.trace_path("future")
        self._write_framed(future, b"RDTC9\n")
        assert cache.clear() == 1                  # current entry only
        assert future.exists(), "newer-schema entry is live data, not garbage"
        assert not cache.trace_path("now").exists()

    def test_stats_break_down_by_schema_version(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        self._write_framed(cache.trace_path("old"), b"RDTC2\n")
        (cache.root / "traces" / "junk.trc").write_bytes(b"not framed")
        stats = cache.stats()
        assert stats["schema_version"] == SCHEMA_VERSION
        assert stats["traces"]["by_schema"] == {
            "2": 1, str(SCHEMA_VERSION): 1, "unknown": 1,
        }


class TestCodeFingerprint:
    """Entries one build of the code wrote are never served to another."""

    def test_fingerprint_follows_every_source_byte(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "b.py").write_text("y = 2\n")
        before = fingerprint._hash_sources(tmp_path)
        assert len(before) == 64
        assert fingerprint._hash_sources(tmp_path) == before
        (tmp_path / "pkg" / "b.py").write_text("y = 3\n")
        assert fingerprint._hash_sources(tmp_path) != before
        assert fingerprint.code_fingerprint() == \
            fingerprint.code_fingerprint()

    def test_unreadable_sources_fail_closed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fingerprint, "_fingerprint", None)
        monkeypatch.setattr(fingerprint, "_PACKAGE_ROOT", tmp_path)
        with pytest.raises(HarnessError):       # no sources at all
            fingerprint.code_fingerprint()
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").mkdir()             # a source read fails
        with pytest.raises(HarnessError):
            fingerprint.code_fingerprint()
        assert fingerprint._fingerprint is None  # nothing memoised

    def test_code_change_misses_every_entry(self, tmp_path, monkeypatch):
        cache = TraceCache(tmp_path / "cache")
        store = ArtifactStore(tmp_path / "store")
        config = VerifyConfig(benchmarks=("mcf",), scale=0.05,
                              oracles=("roundtrip",))

        def run():
            suite = Suite(benchmarks=("mcf",), scale=0.05, jobs=1,
                          cache=cache)
            report = run_verification(config,
                                      fabric_options={"store": store})
            return (fig6_top(suite).render(),
                    json.dumps(report, sort_keys=True))

        cold = run()
        lookups = []

        def record(owner, name):
            real = getattr(owner, name)

            def lookup(self, key):
                result = real(self, key)
                lookups.append((name, result not in (None, False)))
                return result
            monkeypatch.setattr(owner, name, lookup)

        record(TraceCache, "has_trace")
        record(TraceCache, "load_cycles")
        record(ArtifactStore, "get")
        assert run() == cold
        assert {name for name, _ in lookups} == \
            {"has_trace", "load_cycles", "get"}
        assert all(hit for _, hit in lookups)   # warm: everything hits
        lookups.clear()
        monkeypatch.setattr(fingerprint, "_fingerprint", "0" * 64)
        assert run() == cold
        assert {name for name, _ in lookups} == \
            {"has_trace", "load_cycles", "get"}
        assert not any(hit for _, hit in lookups)


#: Builds every figure task's installation and prints what its trace key
#: stands for: the installed image, the production sets and the state
#: the installation leaves in a fresh machine.
_INSTALLATION_DIGESTS = r"""
import hashlib
import json

from repro.acf.compression import FIGURE7_VARIANTS
from repro.harness.runner import FUNCTIONAL_DISE, TraceTask, build_installation
from repro.harness.trace_cache import image_fingerprint
from repro.workloads.generator import generate_benchmark
from repro.workloads.specint import get_profile


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def production_set(pset):
    return ((pset.name, pset.scope), [repr(p) for p in pset.productions],
            [(seq_id, pset.replacements[seq_id])
             for seq_id in sorted(pset.replacements)])


out = {}
for bench in ("mcf", "gzip"):
    image = generate_benchmark(get_profile(bench), scale=0.05)
    tasks = [TraceTask(bench, 0.05, "plain"),
             TraceTask(bench, 0.05, "mfi", variant="dise3"),
             TraceTask(bench, 0.05, "mfi", variant="dise4"),
             TraceTask(bench, 0.05, "rewrite")]
    tasks += [TraceTask(bench, 0.05, "compressed", label=label,
                        options=options)
              for label, options in FIGURE7_VARIANTS]
    tasks += [TraceTask(bench, 0.05, "composed", scheme=scheme)
              for scheme in ("rewrite+dedicated", "rewrite+dise",
                             "dise+dise")]
    out[bench] = image_fingerprint(image)
    for task in tasks:
        installation = build_installation(task, image)
        machine = installation.make_machine(FUNCTIONAL_DISE)
        out[f"{bench}/{task.recipe()}"] = [
            image_fingerprint(installation.image),
            digest([production_set(p) for p in installation.production_sets]),
            digest(tuple(machine.regs)),
            digest(sorted(machine.mem.snapshot().items())),
            sorted(machine.control_handlers),
        ]
print(json.dumps(out, sort_keys=True))
"""


def test_installations_independent_of_hash_seed():
    """Trace keys name a task's recipe instead of its built installation,
    which is sound only if building it is deterministic in every process."""
    src = os.path.dirname(os.path.dirname(fingerprint.__file__))
    procs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        procs.append(subprocess.Popen(
            [sys.executable, "-c", _INSTALLATION_DIGESTS], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    outputs = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=600)
        assert proc.returncode == 0, stderr
        outputs.append(json.loads(stdout))
    assert len(outputs[0]) == 2 + 2 * 13
    assert outputs[0] == outputs[1]
