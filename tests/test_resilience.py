"""Harness resilience: watchdogs, retries, and report checkpoint/resume."""

import json
import logging
import os
import re
from concurrent.futures import Future

import pytest

from repro.errors import CheckpointError, TaskTimeoutError
from repro.fabric.checkpoint import load_checkpoint, write_checkpoint
from repro.harness import Suite
from repro.harness.parallel import (
    TaskResults,
    TraceTask,
    resolve_retries,
    resolve_task_timeout,
    run_tasks,
)
from repro.harness.report import (
    REPORT_DRIVER,
    build_report,
    report_fingerprint,
)
from repro.harness.trace_cache import serialize_trace
from repro.sim.config import MachineConfig
from repro.tools.cli import main
from repro.workloads.generator import generate_benchmark
from repro.workloads.specint import get_profile

SCALE = 0.05


def _plan():
    return [
        (TraceTask("mcf", SCALE, "plain"), [MachineConfig()]),
        (TraceTask("gzip", SCALE, "plain"), [MachineConfig()]),
    ]


@pytest.fixture(scope="module")
def images():
    """The base image of each benchmark in the plan."""
    return {bench: generate_benchmark(get_profile(bench), scale=SCALE)
            for bench in ("mcf", "gzip")}


class _InlineFuture(Future):
    """A future that ran its work synchronously at submit time."""

    def __init__(self, fn, args):
        super().__init__()
        try:
            self.set_result(fn(*args))
        except Exception as exc:
            self.set_exception(exc)


class FlakyExecutor:
    """Fails the first ``crashes`` submissions, then works inline —
    an induced worker crash that a retry recovers from."""

    def __init__(self, crashes=1):
        self.crashes = crashes
        self.submissions = 0

    def __call__(self):        # doubles as its own factory
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submissions += 1
        if self.submissions <= self.crashes:
            future = Future()
            future.set_exception(RuntimeError("worker killed"))
            return future
        return _InlineFuture(fn, args)


class HangingExecutor:
    """Every submitted future hangs forever."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        return Future()

    def shutdown(self, **kwargs):
        pass


class TestEnvResolution:
    def test_timeout_explicit_and_env(self, monkeypatch):
        assert resolve_task_timeout(2.5) == 2.5
        assert resolve_task_timeout(0) is None
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "7.5")
        assert resolve_task_timeout() == 7.5
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "junk")
        assert resolve_task_timeout() is None

    def test_retries_explicit_and_env(self, monkeypatch):
        assert resolve_retries(3) == 3
        assert resolve_retries(-1) == 0
        monkeypatch.setenv("REPRO_TASK_RETRIES", "4")
        assert resolve_retries() == 4
        monkeypatch.delenv("REPRO_TASK_RETRIES")
        assert resolve_retries() == 1


class TestRetries:
    def test_induced_crash_recovers_via_retry(self, images, caplog):
        executor = FlakyExecutor(crashes=1)
        with caplog.at_level(logging.WARNING,
                             logger="repro.harness.parallel"):
            results = run_tasks(_plan(), images, jobs=2,
                                executor_factory=executor,
                                retries=1, backoff=0.0)
        assert len(results) == 2
        assert not results.failures
        assert any("retrying" in rec.message for rec in caplog.records)
        # Retried results are the same as an undisturbed serial run.
        reference = run_tasks(_plan(), images, jobs=1)
        for task in reference:
            assert serialize_trace(results[task][1]) == \
                serialize_trace(reference[task][1])

    def test_exhausted_retries_fall_back_to_serial(self, images, caplog):
        executor = FlakyExecutor(crashes=100)     # never recovers in-pool
        with caplog.at_level(logging.WARNING,
                             logger="repro.harness.parallel"):
            results = run_tasks(_plan(), images, jobs=2,
                                executor_factory=executor,
                                retries=1, backoff=0.0)
        assert len(results) == 2                  # serial fallback saved it
        assert any("falling back to serial" in rec.message
                   for rec in caplog.records)


class TestWatchdog:
    def test_hung_tasks_are_skipped_with_structured_failures(self, images,
                                                            caplog):
        with caplog.at_level(logging.WARNING,
                             logger="repro.harness.parallel"):
            results = run_tasks(_plan(), images, jobs=2,
                                executor_factory=HangingExecutor,
                                task_timeout=0.05, retries=1, backoff=0.0)
        assert isinstance(results, TaskResults)
        assert len(results) == 0
        assert len(results.failures) == 2
        for failure in results.failures:
            assert isinstance(failure.error, TaskTimeoutError)
            assert failure.error.retryable
            assert failure.attempts == 2          # initial try + 1 retry
            details = failure.details()
            assert details["type"] == "TaskTimeoutError"
            assert details["timeout"] == 0.05
        assert any("skipping" in rec.message for rec in caplog.records)

    def test_no_watchdog_by_default(self, images, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        results = run_tasks(_plan(), images, jobs=2)
        assert len(results) == 2 and not results.failures


class TestReportCheckpoint:
    EXPS = ("fig6_top",)

    def _suite(self):
        return Suite(benchmarks=("mcf",), scale=SCALE, cache=None)

    def test_record_and_resume_round_trip(self, tmp_path):
        suite = self._suite()
        fingerprint = report_fingerprint(suite, self.EXPS)
        path = str(tmp_path / "ck.json")

        reference = build_report(suite, experiments=self.EXPS)

        first = build_report(suite, experiments=self.EXPS, checkpoint=path)
        assert first == reference
        assert os.path.exists(path) and \
            len(load_checkpoint(path, REPORT_DRIVER, fingerprint)) == 1

        # A "resumed" run replays the checkpointed section — even on a
        # suite that could not recompute it — and renders identically.
        broken = Suite(benchmarks=("nonsense",), scale=SCALE, cache=None)
        broken.benchmarks = ("mcf",)   # fingerprint-compatible, unusable
        restored = []
        resumed = build_report(broken, experiments=self.EXPS,
                               checkpoint=path, resume=True,
                               on_resume=restored.append)
        assert restored == [1]
        assert resumed == reference

    def test_fingerprint_mismatch_refuses(self, tmp_path):
        suite = self._suite()
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, REPORT_DRIVER,
                         report_fingerprint(suite, self.EXPS),
                         {"fig6_top": "## stale section"})
        with pytest.raises(CheckpointError):
            build_report(suite, experiments=("fig6_top", "fig6_width"),
                         checkpoint=path, resume=True)

    def test_corrupt_checkpoint_quarantined(self, tmp_path):
        # A truncated/bit-flipped checkpoint must not kill the resume:
        # it is renamed aside and the run restarts from empty.
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        checkpoint = load_checkpoint(str(path), REPORT_DRIVER,
                                     {"anything": 1})
        assert len(checkpoint) == 0
        assert not path.exists()
        assert (tmp_path / "ck.json.quarantined").exists()

    def test_malformed_checkpoint_quarantined(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"schema": 1, "fingerprint": {"x": 1},
                                    "sections": "oops"}))
        checkpoint = load_checkpoint(str(path), REPORT_DRIVER, {"x": 1})
        assert len(checkpoint) == 0
        assert (tmp_path / "ck.json.quarantined").exists()

    def test_missing_checkpoint_starts_empty(self, tmp_path):
        checkpoint = load_checkpoint(str(tmp_path / "absent.json"),
                                     REPORT_DRIVER, {"x": 1})
        assert len(checkpoint) == 0
        assert checkpoint.get("fig6_top") is None

    def test_clear_removes_the_file(self, tmp_path, capsys):
        # A report run that completes removes its checkpoint.
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, REPORT_DRIVER, {"x": 1}, {"a": "text"})
        assert os.path.exists(path)
        assert main(["report", "--benchmarks", "mcf", "--scale", "0.1",
                     "--no-cache", "--experiments", "fig7_ratio",
                     "--checkpoint", path]) == 0
        assert not os.path.exists(path)
        assert len(load_checkpoint(path, REPORT_DRIVER, {"x": 1})) == 0

    def test_edited_section_is_quarantined_and_recomputed(self, tmp_path):
        # A completed section edited in place, leaving valid JSON, fails
        # the checkpoint's content digest: it is quarantined and
        # recomputed, never served.
        suite = self._suite()
        path = tmp_path / "ck.json"
        reference = build_report(suite, experiments=self.EXPS,
                                 checkpoint=str(path))

        payload = json.loads(path.read_text())
        section = payload["completed"]["fig6_top"]
        row = next(line for line in section.splitlines()
                   if line.startswith("| mcf |"))
        cell = re.search(r"\d+\.\d+", row).group(0)
        edited = row.replace(cell, "9.99", 1)
        assert edited != row and edited not in reference
        payload["completed"]["fig6_top"] = section.replace(row, edited)
        path.write_text(json.dumps(payload, sort_keys=True, indent=2))

        restored = []
        resumed = build_report(self._suite(), experiments=self.EXPS,
                               checkpoint=str(path), resume=True,
                               on_resume=restored.append)
        assert restored == []
        assert (tmp_path / "ck.json.quarantined").exists()
        assert resumed == reference


class TestKilledWorkerResume:
    """The ISSUE acceptance scenario: a worker dies mid-figure; the run is
    interrupted; ``--resume`` completes with identical output."""

    def test_crash_interrupt_resume_identical(self, tmp_path, caplog):
        exps = ("fig6_top", "fig6_width")
        suite = Suite(benchmarks=("mcf",), scale=SCALE, cache=None,
                      jobs=2)
        fingerprint = report_fingerprint(suite, exps)
        path = str(tmp_path / "ck.json")
        reference = build_report(self._fresh(), experiments=exps)

        # Run 1 "dies" after the first experiment (simulated by an
        # exception from the second), leaving the checkpoint behind.
        from repro.harness import report as report_mod

        real = report_mod._render_section
        calls = []

        def dying(name, suite_):
            calls.append(name)
            if len(calls) == 2:
                raise KeyboardInterrupt("killed mid-figure")
            return real(name, suite_)

        report_mod._render_section = dying
        try:
            with pytest.raises(KeyboardInterrupt):
                build_report(self._fresh(), experiments=exps,
                             checkpoint=path)
        finally:
            report_mod._render_section = real
        assert len(load_checkpoint(path, REPORT_DRIVER, fingerprint)) == 1

        # Run 2 resumes: only the unfinished experiment is recomputed.
        resumed = build_report(self._fresh(), experiments=exps,
                               checkpoint=path, resume=True)
        assert resumed == reference

    @staticmethod
    def _fresh():
        return Suite(benchmarks=("mcf",), scale=SCALE, cache=None, jobs=2)
