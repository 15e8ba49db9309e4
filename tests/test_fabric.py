"""The execution fabric: task keys, artifact store, checkpoint, engine,
supervision.  Chaos-driven end-to-end convergence lives in
test_fabric_chaos.py."""

import os
from concurrent.futures import Future

import pytest

from repro.errors import (
    CampaignError,
    CheckpointError,
    FabricError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.fabric import (
    ArtifactStore,
    ChaosPlan,
    Fabric,
    PoolSupervisor,
    Task,
    bitflip_file,
    load_checkpoint,
    read_checkpoint_header,
    register_recipe,
    task_key,
    truncate_file,
    write_checkpoint,
)
from repro.fabric.chaos import pick_targets
from repro.fabric.checkpoint import quarantine_checkpoint
from repro.fabric.engine import (
    resolve_circuit_threshold,
    resolve_fabric_backoff,
)
from repro.fabric.store import default_store_root, resolve_store
from repro.fabric.task import canonical_params
from repro.telemetry import enabled_scope
from repro.telemetry import registry as registry_mod


# ----------------------------------------------------------------------
# Test recipes (module-level so they are registered at import time)
# ----------------------------------------------------------------------
def _double(params):
    return {"value": params["x"] * 2}


def _double_batch(params_list):
    return [{"value": p["x"] * 2} for p in params_list]


register_recipe("tests.test_fabric:double", _double, _double_batch)

_FLAKY_FAILURES = {}


def _flaky(params):
    """Fails ``params['failures']`` times per distinct x, then succeeds."""
    count = _FLAKY_FAILURES.get(params["x"], 0)
    if count < params["failures"]:
        _FLAKY_FAILURES[params["x"]] = count + 1
        raise WorkerCrashError("induced", task=str(params["x"]))
    return {"value": params["x"]}


register_recipe("tests.test_fabric:flaky", _flaky)


def _fatal(params):
    raise CampaignError("deterministic model error")


register_recipe("tests.test_fabric:fatal", _fatal)


def _tasks(n, recipe="tests.test_fabric:double", **extra):
    return [Task(recipe=recipe, params=dict({"x": i}, **extra),
                 task_id=f"t{i:03d}") for i in range(n)]


class _InlineFuture(Future):
    def __init__(self, fn, args):
        super().__init__()
        try:
            self.set_result(fn(*args))
        except Exception as exc:
            self.set_exception(exc)


class InlineExecutor:
    """Runs submissions synchronously in-process; doubles as its factory."""

    def __call__(self):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        return _InlineFuture(fn, args)


class CrashingExecutor(InlineExecutor):
    """Fails the first ``crashes`` submissions with a crashed future."""

    def __init__(self, crashes):
        self.crashes = crashes
        self.submissions = 0

    def submit(self, fn, *args):
        self.submissions += 1
        if self.submissions <= self.crashes:
            future = Future()
            future.set_exception(RuntimeError("worker killed"))
            return future
        return _InlineFuture(fn, args)


class HangingExecutor(InlineExecutor):
    def submit(self, fn, *args):
        return Future()

    def shutdown(self, **kwargs):
        pass


# ----------------------------------------------------------------------
# Task identity
# ----------------------------------------------------------------------
class TestTaskKeys:
    def test_key_is_order_independent(self):
        a = task_key("m:r", {"x": 1, "y": 2})
        b = task_key("m:r", {"y": 2, "x": 1})
        assert a == b and len(a) == 64

    def test_key_separates_recipe_and_params(self):
        assert task_key("m:r", {"x": 1}) != task_key("m:r", {"x": 2})
        assert task_key("m:r", {"x": 1}) != task_key("m:s", {"x": 1})

    def test_key_names_the_code(self, monkeypatch):
        from repro import fingerprint

        before = task_key("m:r", {"x": 1})
        monkeypatch.setattr(fingerprint, "_fingerprint", "0" * 64)
        assert task_key("m:r", {"x": 1}) != before
        assert Task(recipe="m:r", params={"x": 1}, task_id="lbl").key \
            == task_key("m:r", {"x": 1})

    def test_task_id_defaults_to_key_prefix(self):
        task = Task(recipe="m:r", params={"x": 1})
        assert task.task_id == task.key[:16]
        labeled = Task(recipe="m:r", params={"x": 1}, task_id="lbl")
        assert labeled.task_id == "lbl" and labeled.key == task.key

    def test_non_json_params_refused(self):
        with pytest.raises(FabricError):
            canonical_params({"x": object()})

    def test_recipe_name_needs_module(self):
        with pytest.raises(FabricError):
            register_recipe("nomodule", _double)


# ----------------------------------------------------------------------
# Artifact store
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("k" * 64, {"a": [1, 2]})
        assert store.get("k" * 64) == {"a": [1, 2]}
        assert store.get("m" * 64) is None

    def test_corrupt_artifact_quarantined_and_missed(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = "k" * 64
        store.put(key, {"a": 1})
        bitflip_file(str(store.path(key)), bit=40)
        assert store.get(key) is None          # quarantine-and-recompute
        assert not store.path(key).exists()
        assert store.stats()["quarantined"]["entries"] == 1
        store.put(key, {"a": 1})               # recompute heals the store
        assert store.get(key) == {"a": 1}

    def test_truncated_artifact_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = "q" * 64
        store.put(key, {"a": 1})
        truncate_file(str(store.path(key)), keep=4)
        assert store.get(key) is None
        assert store.stats()["quarantined"]["entries"] == 1

    def test_gc(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("a" * 64, 1)
        store.put("b" * 64, 2)
        truncate_file(str(store.path("a" * 64)))
        assert store.get("a" * 64) is None
        assert store.gc() == 1                 # quarantined only
        assert store.stats()["artifacts"]["entries"] == 1
        assert store.gc(everything=True) == 1
        assert store.stats()["artifacts"]["entries"] == 0

    def test_store_is_opt_in(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_FABRIC_STORE", raising=False)
        assert default_store_root() is None
        assert resolve_store("auto") is None
        monkeypatch.setenv("REPRO_FABRIC_STORE", str(tmp_path / "s"))
        assert default_store_root() == tmp_path / "s"
        assert resolve_store("auto").root == tmp_path / "s"
        assert resolve_store(None) is None

    def test_store_enable_keyword_uses_cache_root(self, monkeypatch,
                                                  tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_FABRIC_STORE", "1")
        assert default_store_root() == tmp_path / "cache" / "fabric"
        monkeypatch.setenv("REPRO_FABRIC_STORE", "0")
        assert default_store_root() is None


# ----------------------------------------------------------------------
# Unified checkpoint
# ----------------------------------------------------------------------
class TestCheckpoint:
    FP = {"seed": 1, "benchmarks": ["gzip"]}

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "faults", self.FP, {"f0001": {"r": 1}})
        assert load_checkpoint(path, "faults", self.FP) == \
            {"f0001": {"r": 1}}
        header = read_checkpoint_header(path)
        assert header["driver"] == "faults"
        assert header["completed"] == 1
        assert header["verified"]

    def test_missing_starts_empty(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "no.json"), "faults",
                               self.FP) == {}

    @pytest.mark.parametrize("damage", [
        lambda p: truncate_file(p, keep=10),
        lambda p: bitflip_file(p, bit=100),
        lambda p: open(p, "w").write("{not json"),
    ])
    def test_corruption_quarantined(self, tmp_path, damage):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "faults", self.FP, {"f0001": {"r": 1}})
        damage(path)
        assert load_checkpoint(path, "faults", self.FP) == {}
        assert not os.path.exists(path)
        assert os.path.exists(path + ".quarantined")

    def test_wrong_driver_or_fingerprint_refused(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "faults", self.FP, {})
        with pytest.raises(CheckpointError):
            load_checkpoint(path, "verify", self.FP)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, "faults", {"seed": 2})
        assert os.path.exists(path)            # user error: kept, not eaten

    def test_quarantine_helper_tolerates_missing_file(self, tmp_path):
        quarantine_checkpoint(str(tmp_path / "absent.json"), "test")


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class TestEngineSerial:
    def test_runs_everything_with_progress(self):
        fabric = Fabric("test", {"v": 1}, store=None, jobs=1)
        seen = []
        results = fabric.run(
            _tasks(5),
            on_result=lambda tid, res, done, total:
                seen.append((tid, done, total)),
        )
        assert results == {f"t{i:03d}": {"value": i * 2} for i in range(5)}
        assert [s[1] for s in seen] == [1, 2, 3, 4, 5]
        assert all(s[2] == 5 for s in seen)

    def test_batched_serial_matches_per_task(self):
        fabric = Fabric("test", {"v": 1}, store=None, jobs=1)
        assert fabric.run(_tasks(7), batch=3) == fabric.run(_tasks(7),
                                                            batch=1)

    def test_duplicate_delivery_coalesced(self):
        chaos = ChaosPlan(duplicates=("t001", "t003"))
        fabric = Fabric("test", {"v": 1}, store=None, jobs=1, chaos=chaos)
        computed = []
        results = fabric.run(
            _tasks(4),
            on_result=lambda tid, res, done, total: computed.append(tid),
        )
        assert len(results) == 4
        assert sorted(computed) == ["t000", "t001", "t002", "t003"]

    def test_serial_retry_recovers(self):
        _FLAKY_FAILURES.clear()
        fabric = Fabric("test", {"v": 1}, store=None, jobs=1, retries=2,
                        backoff=0.0)
        tasks = _tasks(3, recipe="tests.test_fabric:flaky", failures=2)
        assert fabric.run(tasks) == {f"t{i:03d}": {"value": i}
                                     for i in range(3)}

    def test_serial_fatal_fails_fast(self):
        _FLAKY_FAILURES.clear()
        fabric = Fabric("test", {"v": 1}, store=None, jobs=1, retries=5,
                        backoff=0.0)
        with pytest.raises(CampaignError):
            fabric.run(_tasks(2, recipe="tests.test_fabric:fatal"))

    def test_checkpoint_and_resume(self, tmp_path):
        path = str(tmp_path / "ck.json")

        class Stop(BaseException):
            pass

        def interrupt(tid, res, done, total):
            if done == 3:
                raise Stop()

        fabric = Fabric("test", {"v": 1}, store=None, jobs=1,
                        checkpoint_path=path, checkpoint_every=100)
        with pytest.raises(Stop):
            fabric.run(_tasks(6), on_result=interrupt)
        # The interrupt checkpointed what completed.
        assert len(load_checkpoint(path, "test", {"v": 1})) == 3

        resumed = Fabric("test", {"v": 1}, store=None, jobs=1,
                         checkpoint_path=path, resume=True)
        computed = []
        results = resumed.run(
            _tasks(6),
            on_result=lambda tid, res, done, total: computed.append(tid),
        )
        assert len(results) == 6
        assert len(computed) == 3              # only the missing half ran
        assert results == Fabric("test", {"v": 1}, store=None,
                                 jobs=1).run(_tasks(6))

    def test_cross_campaign_dedupe(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = Fabric("test", {"v": 1}, store=store, jobs=1)
        baseline = first.run(_tasks(4))
        recomputed = []
        second = Fabric("test", {"v": 2}, store=store, jobs=1)
        with enabled_scope(True):
            registry_mod.get_registry().reset()
            results = second.run(
                _tasks(4),
                on_result=lambda tid, res, done, total:
                    recomputed.append(tid),
            )
            snap = registry_mod.snapshot()
        assert results == baseline
        assert len(recomputed) == 4            # served fresh, via the store
        assert snap["fabric.dedupe.hits"]["value"] == 4

    def test_corrupt_store_entry_recomputed(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        fabric = Fabric("test", {"v": 1}, store=store, jobs=1)
        baseline = fabric.run(_tasks(2))
        task = _tasks(2)[0]
        truncate_file(str(store.path(task.key)), keep=3)
        again = Fabric("test", {"v": 1}, store=store, jobs=1).run(_tasks(2))
        assert again == baseline
        assert store.get(task.key) is not None   # healed by the recompute


class TestEnginePool:
    def test_pool_crash_retries_to_identical_results(self):
        serial = Fabric("test", {"v": 1}, store=None, jobs=1).run(_tasks(4))
        fabric = Fabric("test", {"v": 1}, store=None, jobs=2, retries=1,
                        backoff=0.0,
                        executor_factory=CrashingExecutor(crashes=2))
        assert fabric.run(_tasks(4)) == serial

    def test_pool_exhaustion_degrades_to_serial(self):
        serial = Fabric("test", {"v": 1}, store=None, jobs=1).run(_tasks(3))
        fabric = Fabric("test", {"v": 1}, store=None, jobs=2, retries=1,
                        backoff=0.0,
                        executor_factory=CrashingExecutor(crashes=100))
        with enabled_scope(True):
            registry_mod.get_registry().reset()
            results = fabric.run(_tasks(3))
            snap = registry_mod.snapshot()
        assert results == serial
        assert snap["fabric.degradations"]["value"] == 3

    def test_pool_fatal_raises_original_error(self):
        fabric = Fabric("test", {"v": 1}, store=None, jobs=2, retries=3,
                        backoff=0.0, executor_factory=InlineExecutor())
        with pytest.raises(CampaignError):
            fabric.run(_tasks(2, recipe="tests.test_fabric:fatal"))

    def test_pool_timeout_raises_after_checkpointing(self, tmp_path):
        path = str(tmp_path / "ck.json")
        fabric = Fabric("test", {"v": 1}, store=None, jobs=2, retries=0,
                        backoff=0.0, task_timeout=0.05,
                        checkpoint_path=path,
                        executor_factory=HangingExecutor())
        with pytest.raises(TaskTimeoutError):
            fabric.run(_tasks(3))
        assert os.path.exists(path)


class TestEngineKnobs:
    def test_fabric_env_fallbacks(self, monkeypatch):
        for var in ("REPRO_TASK_TIMEOUT", "REPRO_TASK_RETRIES",
                    "REPRO_FABRIC_BACKOFF", "REPRO_FABRIC_CIRCUIT"):
            monkeypatch.delenv(var, raising=False)
        fabric = Fabric("test", {"v": 1}, store=None)
        assert fabric.task_timeout is None
        assert fabric.retries == 1
        assert resolve_fabric_backoff(None) == 0.5
        assert resolve_circuit_threshold(None) == 3

        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "9")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "5")
        fabric = Fabric("test", {"v": 1}, store=None)
        assert fabric.task_timeout == 9.0
        assert fabric.retries == 5
        fabric = Fabric("test", {"v": 1}, store=None, task_timeout=2.0,
                        retries=2)
        assert fabric.task_timeout == 2.0
        assert fabric.retries == 2

        monkeypatch.setenv("REPRO_FABRIC_BACKOFF", "0")
        assert resolve_fabric_backoff(None) == 0.0
        monkeypatch.setenv("REPRO_FABRIC_CIRCUIT", "7")
        assert resolve_circuit_threshold(None) == 7


# ----------------------------------------------------------------------
# Supervision
# ----------------------------------------------------------------------
def _ret(value):
    return value


def _raise(exc):
    raise exc


class TestPoolSupervisor:
    def _specs(self, n):
        return {f"k{i}": (lambda attempt, i=i: (_ret, (i,)))
                for i in range(n)}

    def test_ok_outcomes_stream(self):
        supervisor = PoolSupervisor(2, executor_factory=InlineExecutor(),
                                    backoff_base=0.0)
        landed = []
        outcomes = supervisor.run(self._specs(3),
                                  on_ok=lambda k, v: landed.append((k, v)))
        assert {k: o.value for k, o in outcomes.items()} == \
            {"k0": 0, "k1": 1, "k2": 2}
        assert all(o.status == "ok" and o.attempts == 1
                   for o in outcomes.values())
        assert sorted(landed) == [("k0", 0), ("k1", 1), ("k2", 2)]

    def test_fatal_fails_fast_without_retries(self):
        supervisor = PoolSupervisor(2, executor_factory=InlineExecutor(),
                                    retries=5, backoff_base=0.0)
        specs = {"bad": lambda attempt: (_raise,
                                         (CampaignError("no retry"),))}
        outcomes = supervisor.run(specs)
        assert outcomes["bad"].status == "fatal"
        assert outcomes["bad"].attempts == 1     # satellite: no burn
        assert isinstance(outcomes["bad"].error, CampaignError)

    def test_retryable_exhaustion_gives_up(self):
        supervisor = PoolSupervisor(
            2, executor_factory=CrashingExecutor(crashes=100),
            retries=1, backoff_base=0.0,
        )
        outcomes = supervisor.run(self._specs(2))
        assert all(o.status == "gave_up" and o.attempts == 2
                   for o in outcomes.values())

    def test_timeout_not_safe_for_serial(self):
        supervisor = PoolSupervisor(2, executor_factory=HangingExecutor(),
                                    task_timeout=0.02, retries=1,
                                    backoff_base=0.0)
        outcomes = supervisor.run(self._specs(1))
        assert outcomes["k0"].status == "timeout"
        assert outcomes["k0"].attempts == 2

    def test_broken_factory_marks_everything_gave_up(self):
        def broken():
            raise OSError("fork failed")

        supervisor = PoolSupervisor(2, executor_factory=broken,
                                    backoff_base=0.0)
        outcomes = supervisor.run(self._specs(3))
        assert all(o.status == "gave_up" for o in outcomes.values())

    def test_callback_exception_propagates_unwrapped(self):
        class Deliberate(BaseException):
            pass

        supervisor = PoolSupervisor(2, executor_factory=InlineExecutor(),
                                    backoff_base=0.0)

        def boom(key, value):
            raise Deliberate()

        with pytest.raises(Deliberate):
            supervisor.run(self._specs(2), on_ok=boom)


# ----------------------------------------------------------------------
# Chaos plumbing (determinism of the injector itself)
# ----------------------------------------------------------------------
class TestChaosPlan:
    def test_pick_targets_is_deterministic(self):
        ids = [f"t{i:03d}" for i in range(10)]
        first = pick_targets(7, ids, 3)
        assert first == pick_targets(7, list(reversed(ids)), 3)
        assert len(first) == 3
        assert set(first) <= set(ids)

    def test_in_parent_kill_raises_instead_of_sigkill(self):
        plan = ChaosPlan(kills=(("t000", 1),))
        with pytest.raises(WorkerCrashError):
            plan.perturb("t000", 1)
        plan.perturb("t000", 2)                # other attempts untouched
        plan.perturb("t001", 1)

    def test_in_parent_hang_surfaces_as_crash(self):
        plan = ChaosPlan(hangs=(("t000", 1),), hang_seconds=99.0)
        with pytest.raises(WorkerCrashError):
            plan.perturb("t000", 1)
