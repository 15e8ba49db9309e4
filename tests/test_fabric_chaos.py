"""Chaos harness: every fabric recovery path must converge byte-for-byte
to the serial-oracle report.

Each test tortures a real (miniature) campaign — worker kills, hangs past
the watchdog, corrupted artifacts and checkpoints, duplicate delivery,
interrupted runs — and asserts the final report is *bit-identical* to an
undisturbed serial run.  Reports carry no timestamps and are built from
sorted result tables, so any divergence is a real determinism bug.
"""

import json

import pytest

from repro.fabric import ArtifactStore, ChaosPlan, bitflip_file, truncate_file
from repro.faults.campaign import (
    CampaignConfig,
    CampaignInterrupted,
    run_campaign,
)
from repro.telemetry import enabled_scope, snapshot, snapshot_delta
from repro.verify.campaign import VerifyConfig, run_verification

FAULTS = CampaignConfig(seed=11, faults=6, benchmarks=("gzip",),
                        scale=0.03, checkpoint_every=2)
VERIFY = VerifyConfig(benchmarks=("gzip",), scale=0.02,
                      oracles=("roundtrip", "acf_transparency"),
                      checkpoint_every=1)


def _bytes(report):
    return json.dumps(report, sort_keys=True).encode()


@pytest.fixture(scope="module")
def faults_oracle():
    """The undisturbed serial faults report."""
    return run_campaign(FAULTS)


@pytest.fixture(scope="module")
def verify_oracle():
    """The undisturbed serial verify report."""
    return run_verification(VERIFY)


# ----------------------------------------------------------------------
# Worker kills and hangs
# ----------------------------------------------------------------------
class TestCrashConvergence:
    def test_injected_kill_retries_to_oracle(self, faults_oracle):
        # Serial in-parent execution: the kill surfaces as a
        # WorkerCrashError (never a SIGKILL of the driver) and the retry
        # recomputes the genuine record.
        chaos = ChaosPlan(kills=(("f0002", 1), ("f0004", 1)))
        report = run_campaign(
            FAULTS,
            fabric_options={"chaos": chaos, "retries": 1, "backoff": 0.0},
        )
        assert _bytes(report) == _bytes(faults_oracle)

    def test_kill_under_real_pool_degrades_to_oracle(self, verify_oracle):
        # A genuine SIGKILL in a worker breaks the process pool; the
        # supervisor opens the circuit and the engine completes serially
        # in the parent — where the retried injection raises instead.
        chaos = ChaosPlan(kills=(("gzip:roundtrip", 1),))
        report = run_verification(
            VERIFY, jobs=2,
            fabric_options={"chaos": chaos, "retries": 1, "backoff": 0.0},
        )
        assert _bytes(report) == _bytes(verify_oracle)

    def test_hang_past_watchdog_recovers_to_oracle(self, verify_oracle):
        # The hung attempt is timed out by the supervisor; the retry (a
        # different attempt number) computes the genuine result.
        chaos = ChaosPlan(hangs=(("gzip:roundtrip", 1),),
                          hang_seconds=12.0)
        report = run_verification(
            VERIFY, jobs=2,
            fabric_options={"chaos": chaos, "retries": 1, "backoff": 0.0,
                            "task_timeout": 6.0},
        )
        assert _bytes(report) == _bytes(verify_oracle)

    def test_exhausted_kills_degrade_serially_to_oracle(self, faults_oracle):
        # Kill every attempt the pool budget allows: the task degrades to
        # serial in-parent execution and still completes.
        chaos = ChaosPlan(kills=(("f0001", 1), ("f0001", 2)))
        report = run_campaign(
            FAULTS,
            fabric_options={"chaos": chaos, "retries": 3, "backoff": 0.0},
        )
        assert _bytes(report) == _bytes(faults_oracle)


# ----------------------------------------------------------------------
# Duplicate delivery
# ----------------------------------------------------------------------
class TestDuplicateDelivery:
    def test_duplicates_coalesce_to_oracle(self, faults_oracle):
        chaos = ChaosPlan(duplicates=("f0000", "f0003"))
        report = run_campaign(FAULTS, fabric_options={"chaos": chaos})
        assert _bytes(report) == _bytes(faults_oracle)


# ----------------------------------------------------------------------
# Corrupted checkpoints: quarantine and clean restart
# ----------------------------------------------------------------------
class TestCheckpointCorruption:
    def _interrupt(self, config, path, **kwargs):
        with pytest.raises(CampaignInterrupted):
            run_campaign(config, checkpoint_path=path, stop_after=3,
                         **kwargs)

    def test_truncated_faults_checkpoint_restarts_cleanly(
            self, tmp_path, faults_oracle):
        path = str(tmp_path / "ck.json")
        self._interrupt(FAULTS, path)
        truncate_file(path, keep=25)
        report = run_campaign(FAULTS, checkpoint_path=path, resume=True)
        assert (tmp_path / "ck.json.quarantined").exists()
        assert _bytes(report) == _bytes(faults_oracle)

    def test_bitflipped_faults_checkpoint_restarts_cleanly(
            self, tmp_path, faults_oracle):
        path = str(tmp_path / "ck.json")
        self._interrupt(FAULTS, path)
        bitflip_file(path, bit=900)
        report = run_campaign(FAULTS, checkpoint_path=path, resume=True)
        assert (tmp_path / "ck.json.quarantined").exists()
        assert _bytes(report) == _bytes(faults_oracle)

    def test_corrupt_verify_checkpoint_restarts_cleanly(
            self, tmp_path, verify_oracle):
        path = str(tmp_path / "ck.json")
        run_verification(VERIFY, checkpoint_path=path)
        bitflip_file(path, bit=333)
        report = run_verification(VERIFY, checkpoint_path=path,
                                  resume=True)
        assert (tmp_path / "ck.json.quarantined").exists()
        assert _bytes(report) == _bytes(verify_oracle)


# ----------------------------------------------------------------------
# Corrupted artifacts: quarantine and recompute
# ----------------------------------------------------------------------
class TestArtifactCorruption:
    def test_corrupt_store_artifacts_recomputed_to_oracle(
            self, tmp_path, faults_oracle):
        store = ArtifactStore(tmp_path / "store")
        first = run_campaign(FAULTS, fabric_options={"store": store})
        assert _bytes(first) == _bytes(faults_oracle)
        artifacts = sorted((store.root / "artifacts").iterdir())
        assert len(artifacts) == FAULTS.faults
        truncate_file(str(artifacts[0]), keep=8)
        bitflip_file(str(artifacts[1]), bit=77)
        report = run_campaign(FAULTS, fabric_options={"store": store})
        assert _bytes(report) == _bytes(faults_oracle)
        assert store.stats()["quarantined"]["entries"] == 2

    def test_cross_campaign_dedupe_preserves_bytes(
            self, tmp_path, faults_oracle, verify_oracle):
        # A faults + verify pair against one store, cold then warm: the
        # warm pair serves every cell from the store, byte-identically.
        store = ArtifactStore(tmp_path / "store")
        options = {"store": store}

        def pair():
            with enabled_scope(True):
                before = snapshot()
                reports = (run_campaign(FAULTS, fabric_options=options),
                           run_verification(VERIFY, fabric_options=options))
                delta = snapshot_delta(before, snapshot())
            counts = {kind: delta.get(f"fabric.dedupe.{kind}",
                                      {}).get("value", 0)
                      for kind in ("hits", "misses")}
            return reports, counts

        cold_reports, cold = pair()
        warm_reports, warm = pair()
        cells = FAULTS.faults + len(VERIFY.cells())
        assert cold["hits"] == 0
        assert warm == {"hits": cells, "misses": 0}
        for reports in (cold_reports, warm_reports):
            assert _bytes(reports[0]) == _bytes(faults_oracle)
            assert _bytes(reports[1]) == _bytes(verify_oracle)


# ----------------------------------------------------------------------
# Interrupted chaos runs resume to the same bytes
# ----------------------------------------------------------------------
class TestInterruptedChaosResume:
    def test_interrupt_then_resume_under_chaos(self, tmp_path,
                                               faults_oracle):
        path = str(tmp_path / "ck.json")
        chaos = ChaosPlan(kills=(("f0005", 1),),
                          duplicates=("f0002",))
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                FAULTS, checkpoint_path=path, stop_after=3,
                fabric_options={"chaos": chaos, "retries": 1,
                                "backoff": 0.0},
            )
        report = run_campaign(
            FAULTS, checkpoint_path=path, resume=True,
            fabric_options={"chaos": chaos, "retries": 1, "backoff": 0.0},
        )
        assert _bytes(report) == _bytes(faults_oracle)

    def test_pool_checkpoint_resumes_serially(self, tmp_path,
                                              verify_oracle):
        # Executor-kind independence: checkpoint under a pool, resume
        # serially, identical bytes.
        path = str(tmp_path / "ck.json")
        run_verification(VERIFY, jobs=2, checkpoint_path=path)
        report = run_verification(VERIFY, jobs=1, checkpoint_path=path,
                                  resume=True)
        assert _bytes(report) == _bytes(verify_oracle)
