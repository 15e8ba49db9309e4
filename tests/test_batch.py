"""Batched cohort execution: equality with the scalar tiers, divergence
handling, campaign wiring, and the ``REPRO_BATCH`` knob."""

import json

import pytest

from repro.acf.base import AcfInstallation
from repro.acf.mfi import attach_mfi
from repro.errors import ExecutionTimeout
from repro.faults.campaign import (
    CampaignConfig,
    CampaignInterrupted,
    run_campaign,
)
from repro.harness.trace_cache import serialize_trace
from repro.sim.batch import (
    DEFAULT_COHORT,
    BatchMachine,
    resolve_batch,
    run_cohort,
)
from repro.telemetry import registry as registry_mod
from repro.verify.observe import Observer
from repro.workloads import BENCHMARK_NAMES, get_profile
from repro.workloads.generator import generate_benchmark, reseed_data

from repro.harness.parallel import FUNCTIONAL_DISE

SCALE = 0.02
MAX_STEPS = 5_000_000


def _installation(name, scale=SCALE):
    image = generate_benchmark(get_profile(name), scale=scale)
    return attach_mfi(image, "dise3")


def _machine(installation, record=False, observe=False):
    machine = installation.make_machine(
        FUNCTIONAL_DISE, record_trace=record, dispatch="translated"
    )
    obs = None
    if observe:
        obs = Observer("full")
        machine._install_observer(obs)
    return machine, obs


class TestResolveBatch:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "16")
        assert resolve_batch(4) == 4
        assert resolve_batch(0) == 0

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "6")
        assert resolve_batch() == 6

    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        assert resolve_batch() == 0

    @pytest.mark.parametrize("raw", ["", "0", "off", "false", "no"])
    def test_off_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BATCH", raw)
        assert resolve_batch() == 0

    @pytest.mark.parametrize("raw", ["1", "on", "true", "yes"])
    def test_on_spellings_mean_default_width(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BATCH", raw)
        assert resolve_batch() == DEFAULT_COHORT

    def test_width_one_means_default(self):
        assert resolve_batch(1) == DEFAULT_COHORT

    def test_negative_disables(self):
        assert resolve_batch(-3) == 0

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "lots")
        with pytest.raises(ValueError):
            resolve_batch()


class TestCohortEquality:
    """Batched lanes are bit-identical to serial translated runs."""

    @pytest.mark.parametrize("bench", BENCHMARK_NAMES)
    def test_profile_equality(self, bench):
        installation = _installation(bench)

        serial = []
        for _ in range(2):
            machine, obs = _machine(installation, record=True, observe=True)
            result = machine.run(max_steps=MAX_STEPS)
            serial.append((machine, obs, result))

        cohort = BatchMachine()
        batched = []
        for _ in range(2):
            machine, obs = _machine(installation, record=True, observe=True)
            cohort.add_lane(machine, max_steps=MAX_STEPS)
            batched.append((machine, obs))
        cohort.run()
        results = [o.raise_or_result(MAX_STEPS) for o in cohort.outcomes()]

        for (sm, sobs, sres), (bm, bobs), bres in zip(serial, batched,
                                                      results):
            assert sm.halted == bm.halted
            assert sm.fault_code == bm.fault_code
            assert sm.outputs == bm.outputs
            assert sm.instructions == bm.instructions
            assert sm.app_instructions == bm.app_instructions
            assert sm.expansions == bm.expansions
            assert sm.regs == bm.regs
            assert sm.mem._words == bm.mem._words
            assert serialize_trace(sres) == serialize_trace(bres)
            assert sobs.count == bobs.count
            assert sobs.hexdigest() == bobs.hexdigest()

    def test_mixed_seed_cohort_drains_and_readmits(self):
        """Data-seed variants diverge, drain to scalar, and re-admit —
        and still match their serial references exactly."""
        installation = _installation("gzip", scale=0.05)
        profile = get_profile("gzip")
        seeds = (None, 1, 2, 3)

        def lane(seed):
            target = installation
            if seed is not None:
                target = AcfInstallation(
                    image=reseed_data(installation.image, profile, seed),
                    production_sets=installation.production_sets,
                    init_machine=installation.init_machine,
                    name=installation.name,
                )
            return _machine(target, observe=True)

        serial = []
        for seed in seeds:
            machine, obs = lane(seed)
            machine.run(max_steps=MAX_STEPS)
            serial.append((machine, obs))

        cohort = BatchMachine()
        batched = []
        for seed in seeds:
            machine, obs = lane(seed)
            cohort.add_lane(machine, max_steps=MAX_STEPS)
            batched.append((machine, obs))
        cohort.run()
        for outcome in cohort.outcomes():
            outcome.raise_or_result(MAX_STEPS)

        assert sum(cohort.stats["drains"].values()) > 0
        assert cohort.stats["readmitted"] > 0
        for (sm, sobs), (bm, bobs) in zip(serial, batched):
            assert (sm.halted, sm.fault_code) == (bm.halted, bm.fault_code)
            assert sm.outputs == bm.outputs
            assert sm.instructions == bm.instructions
            assert sobs.hexdigest() == bobs.hexdigest()

        occupancy = cohort.occupancy()
        assert occupancy["lanes"] == len(seeds)
        assert occupancy["done"] == len(seeds)
        assert occupancy["retired"] == sum(m.instructions
                                           for m, _ in batched)

    def test_run_cohort_helper(self):
        installation = _installation("mcf")
        reference, _ = _machine(installation)
        reference.run(max_steps=MAX_STEPS)
        machines = [_machine(installation)[0] for _ in range(3)]
        outcomes = run_cohort(machines, max_steps=MAX_STEPS)
        for outcome in outcomes:
            assert outcome.status == "halted"
            result = outcome.raise_or_result(MAX_STEPS)
            assert result.instructions == reference.instructions
            assert result.outputs == reference.outputs


class TestCheckpointRestore:
    def test_mid_cohort_stop_matches_serial_checkpoint(self):
        """A lane stopped at retirement count N checkpoints exactly the
        state a serial run interrupted at N would."""
        installation = _installation("gzip")
        probe, _ = _machine(installation)
        probe.run(max_steps=MAX_STEPS)
        half = probe.instructions // 2
        assert half > 0

        serial, _ = _machine(installation)
        with pytest.raises(ExecutionTimeout):
            serial.run(max_steps=half)
        assert serial.instructions == half

        cohort = BatchMachine()
        stopped, _ = _machine(installation)
        full, _ = _machine(installation)
        cohort.add_lane(stopped, max_steps=MAX_STEPS, stop_at=half)
        cohort.add_lane(full, max_steps=MAX_STEPS)
        cohort.run()
        by_status = {o.machine: o for o in cohort.outcomes()}
        assert by_status[stopped].status == "stopped"
        assert by_status[full].status == "halted"
        assert stopped.instructions == half
        assert stopped.checkpoint() == serial.checkpoint()

        # Restoring the mid-cohort checkpoint resumes to the same end
        # state as an uninterrupted run.
        resumed, _ = _machine(installation)
        resumed.restore(stopped.checkpoint())
        resumed.run(max_steps=MAX_STEPS)
        assert resumed.halted == probe.halted
        assert resumed.outputs == probe.outputs
        assert resumed.regs == probe.regs
        assert resumed.mem._words == probe.mem._words

    def test_timeout_is_precise(self):
        installation = _installation("bzip2")
        probe, _ = _machine(installation)
        probe.run(max_steps=MAX_STEPS)
        budget = probe.instructions // 3
        cohort = BatchMachine()
        machine, _ = _machine(installation)
        cohort.add_lane(machine, max_steps=budget)
        cohort.run()
        outcome = cohort.outcomes()[0]
        assert outcome.status == "timeout"
        assert machine.instructions == budget
        with pytest.raises(ExecutionTimeout) as err:
            outcome.raise_or_result(budget)
        assert err.value.steps == budget


class TestCampaignBatch:
    CONFIG = CampaignConfig(seed=9, faults=16, benchmarks=("bzip2", "gzip"),
                            scale=0.05, checkpoint_every=5)

    def test_batched_campaign_report_matches_serial(self):
        serial = run_campaign(self.CONFIG, batch=0)
        batched = run_campaign(self.CONFIG, batch=4)
        assert json.dumps(batched, sort_keys=True) == \
            json.dumps(serial, sort_keys=True)

    def test_interrupted_batched_campaign_resumes_identically(self, tmp_path):
        reference = run_campaign(self.CONFIG, batch=0)
        ckpt = str(tmp_path / "campaign.json")
        with pytest.raises(CampaignInterrupted):
            run_campaign(self.CONFIG, checkpoint_path=ckpt, stop_after=7,
                         batch=4)
        resumed = run_campaign(self.CONFIG, checkpoint_path=ckpt,
                               resume=True, batch=4)
        assert json.dumps(resumed, sort_keys=True) == \
            json.dumps(reference, sort_keys=True)


class TestGeneratorDataSeed:
    def test_reseed_is_deterministic_and_shares_stores(self):
        profile = get_profile("mcf")
        image = generate_benchmark(profile, scale=SCALE)
        one = reseed_data(image, profile, 7)
        two = reseed_data(image, profile, 7)
        other = reseed_data(image, profile, 8)
        assert one.data_words == two.data_words
        assert one.data_words != other.data_words
        assert one.data_words != image.data_words
        assert one.instructions is image.instructions
        assert one._translation_store is image._translation_store

    def test_generate_with_data_seed_matches_reseed(self):
        profile = get_profile("gzip")
        base = generate_benchmark(profile, scale=SCALE)
        direct = generate_benchmark(profile, scale=SCALE, data_seed=3)
        derived = reseed_data(base, profile, 3)
        assert direct.data_words == derived.data_words


class TestTelemetry:
    def test_counters_register_when_enabled(self):
        registry_mod.configure(True)
        registry_mod.get_registry().reset()
        try:
            installation = _installation("bzip2")
            cohort = BatchMachine()
            for _ in range(2):
                machine, _ = _machine(installation)
                cohort.add_lane(machine, max_steps=MAX_STEPS)
            cohort.run()
            snapshot = registry_mod.snapshot()
        finally:
            registry_mod.configure(None)
            registry_mod.get_registry().reset()
        drains = [name for name in snapshot
                  if name.startswith("sim.batch.drain.")]
        assert drains, snapshot.keys()

    def test_stats_collected_with_telemetry_off(self):
        installation = _installation("bzip2")
        cohort = BatchMachine()
        machine, _ = _machine(installation)
        cohort.add_lane(machine, max_steps=MAX_STEPS)
        cohort.run()
        assert cohort.stats["rounds"] > 0
        assert registry_mod.snapshot() == {}
