"""Tests for :mod:`repro.telemetry` — registry, events, logging, and the
instrumentation hooks in the simulators and harness.

Covers the tentpole guarantees:

* disabled mode allocates nothing and shares one no-op singleton;
* registry semantics (kind safety, snapshots, cross-process merge/delta);
* JSONL run logs round-trip and ``validate_log`` rejects malformed logs;
* seeded runs produce byte-identical metric snapshots (determinism);
* :class:`TaskFailure` records elapsed time and per-attempt timestamps;
* ``get_logger`` namespacing and ``REPRO_LOG_LEVEL`` handling.
"""

import json
import logging

import pytest

from conftest import build_loop_program
from repro.acf.mfi import attach_mfi
from repro.errors import TaskError
from repro.harness.parallel import TaskFailure, TraceTask
from repro.telemetry import events as events_mod
from repro.telemetry import registry as registry_mod
from repro.telemetry import (
    NULL_METRIC,
    Registry,
    TelemetryError,
    enabled_scope,
    final_metrics,
    read_events,
    snapshot_delta,
    validate_log,
)
from repro.telemetry.log import get_logger, reset_for_tests


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Each test starts disabled with an empty registry and no open run."""
    registry_mod.configure(False)
    registry_mod.get_registry().reset()
    events_mod._CURRENT = events_mod._INERT_RUN
    yield
    registry_mod.configure(None)
    registry_mod.get_registry().reset()
    events_mod._CURRENT = events_mod._INERT_RUN


# ----------------------------------------------------------------------
# Disabled mode
# ----------------------------------------------------------------------
class TestDisabledMode:
    def test_accessors_return_shared_null_singleton(self):
        assert registry_mod.counter("x") is NULL_METRIC
        assert registry_mod.gauge("x") is NULL_METRIC
        assert registry_mod.histogram("x") is NULL_METRIC
        assert registry_mod.timer("x") is NULL_METRIC

    def test_disabled_accessors_do_not_touch_the_registry(self):
        registry_mod.counter("sim.instructions").inc(7)
        registry_mod.histogram("h").observe(3)
        assert len(registry_mod.get_registry()) == 0
        assert registry_mod.snapshot() == {}

    def test_null_metric_absorbs_every_operation(self):
        NULL_METRIC.inc()
        NULL_METRIC.inc(10)
        NULL_METRIC.set(99)
        NULL_METRIC.observe(1.5)
        with NULL_METRIC.time():
            pass
        assert NULL_METRIC.value == 0
        assert NULL_METRIC.count == 0

    def test_disabled_machine_installs_no_instrumentation(self):
        machine = attach_mfi(build_loop_program(), "dise3").make_machine()
        assert machine._opcode_counts is None
        assert machine.engine._tm is None

    def test_start_run_is_inert(self, tmp_path):
        run = events_mod.start_run(log_dir=tmp_path)
        assert not run.active
        assert run.path is None
        run.emit("event", name="ignored")
        with run.span("phase"):
            pass
        assert events_mod.finish_run() is None
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram_timer(self):
        reg = Registry()
        c = reg.counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        g = reg.gauge("g")
        g.set(3)
        g.set(1)
        assert g.value == 1
        h = reg.histogram("h")
        for v in (4, 2, 9):
            h.observe(v)
        assert (h.count, h.total, h.min, h.max) == (3, 15, 2, 9)
        assert h.mean == 5.0
        t = reg.timer("t")
        with t.time():
            pass
        assert t.count == 1 and t.total >= 0

    def test_same_name_returns_same_object(self):
        reg = Registry()
        assert reg.counter("c") is reg.counter("c")

    def test_kind_mismatch_raises(self):
        reg = Registry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered as counter"):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_snapshot_is_sorted_and_json_compatible(self):
        reg = Registry()
        reg.counter("b").inc(2)
        reg.gauge("a").set(7)
        reg.histogram("c").observe(3)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["a"] == {"type": "gauge", "value": 7}
        assert snap["b"] == {"type": "counter", "value": 2}
        assert snap["c"]["count"] == 1
        json.dumps(snap)  # must not raise

    def test_merge_folds_worker_snapshot(self):
        parent = Registry()
        parent.counter("c").inc(1)
        parent.histogram("h").observe(5)
        worker = Registry()
        worker.counter("c").inc(2)
        worker.gauge("g").set(4)
        worker.histogram("h").observe(1)
        worker.histogram("h").observe(9)
        parent.merge(worker.snapshot())
        snap = parent.snapshot()
        assert snap["c"]["value"] == 3
        assert snap["g"]["value"] == 4
        assert snap["h"]["count"] == 3
        assert snap["h"]["min"] == 1 and snap["h"]["max"] == 9

    def test_snapshot_delta_reports_only_growth(self):
        reg = Registry()
        reg.counter("stable").inc(5)
        reg.counter("hot").inc(1)
        before = reg.snapshot()
        reg.counter("hot").inc(3)
        reg.histogram("new").observe(2)
        delta = snapshot_delta(before, reg.snapshot())
        assert delta["hot"] == {"type": "counter", "value": 3}
        assert "stable" not in delta
        assert delta["new"]["count"] == 1

    def test_enabled_scope_restores_previous_state(self):
        assert not registry_mod.enabled()
        with enabled_scope(True):
            assert registry_mod.enabled()
            assert registry_mod.counter("c") is not NULL_METRIC
        assert not registry_mod.enabled()


# ----------------------------------------------------------------------
# JSONL run events
# ----------------------------------------------------------------------
class TestRunEvents:
    def test_round_trip_and_validation(self, tmp_path):
        with enabled_scope(True):
            run = events_mod.start_run(log_dir=tmp_path, run_id="run-test",
                                       argv=["experiment", "fig6_top"])
            assert run.active
            registry_mod.counter("sim.instructions").inc(42)
            with events_mod.span("experiment", experiment="fig6_top"):
                events_mod.event("task_retry", task="bzip2/plain", attempt=1)
                events_mod.emit_task("bzip2/plain", 1.25, 1, "ok")
            path = events_mod.finish_run("ok")
        assert path == tmp_path / "run-test.jsonl"
        assert validate_log(path) == 7
        events = read_events(path)
        kinds = [e["kind"] for e in events]
        assert kinds == ["run_begin", "span_begin", "event", "task",
                         "span_end", "metrics", "run_end"]
        assert events[0]["argv"] == ["experiment", "fig6_top"]
        assert events[3]["seconds"] == 1.25
        assert events[4]["ok"] is True
        assert events[-1]["status"] == "ok"
        assert final_metrics(events)["sim.instructions"]["value"] == 42

    def test_seq_and_t_are_monotonic(self, tmp_path):
        with enabled_scope(True):
            events_mod.start_run(log_dir=tmp_path)
            for i in range(5):
                events_mod.event(f"e{i}")
            path = events_mod.finish_run()
        events = read_events(path)
        assert [e["seq"] for e in events] == list(range(len(events)))
        ts = [e["t"] for e in events]
        assert ts == sorted(ts)

    def _write_log(self, tmp_path, records):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return path

    def _record(self, seq, kind, **fields):
        base = {"schema": 1, "run": "r", "seq": seq, "t": float(seq),
                "kind": kind}
        base.update(fields)
        return base

    def test_validate_rejects_seq_gap(self, tmp_path):
        path = self._write_log(tmp_path, [
            self._record(0, "run_begin", argv=[]),
            self._record(2, "run_end", status="ok"),
        ])
        with pytest.raises(TelemetryError, match="seq"):
            validate_log(path)

    def test_validate_rejects_unbalanced_spans(self, tmp_path):
        path = self._write_log(tmp_path, [
            self._record(0, "run_begin", argv=[]),
            self._record(1, "span_begin", name="outer"),
            self._record(2, "span_end", name="inner", seconds=0.1),
        ])
        with pytest.raises(TelemetryError, match="innermost"):
            validate_log(path)
        path = self._write_log(tmp_path, [
            self._record(0, "run_begin", argv=[]),
            self._record(1, "span_begin", name="outer"),
        ])
        with pytest.raises(TelemetryError, match="unclosed"):
            validate_log(path)

    def test_validate_rejects_bad_envelope_and_kind(self, tmp_path):
        path = self._write_log(tmp_path, [
            self._record(0, "run_begin", argv=[]),
            {"schema": 1, "run": "r", "seq": 1, "kind": "event", "name": "x"},
        ])
        with pytest.raises(TelemetryError, match="missing envelope key"):
            validate_log(path)
        path = self._write_log(tmp_path, [
            self._record(0, "run_begin", argv=[]),
            self._record(1, "warp_drive"),
        ])
        with pytest.raises(TelemetryError, match="unknown event kind"):
            validate_log(path)
        path = self._write_log(tmp_path, [
            self._record(0, "run_begin", argv=[]),
            self._record(1, "task", label="x"),
        ])
        with pytest.raises(TelemetryError, match="missing field"):
            validate_log(path)

    def test_validate_rejects_missing_run_begin_and_empty(self, tmp_path):
        path = self._write_log(tmp_path, [
            self._record(0, "event", name="x"),
        ])
        with pytest.raises(TelemetryError, match="run_begin"):
            validate_log(path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(TelemetryError, match="empty"):
            validate_log(empty)


# ----------------------------------------------------------------------
# Instrumentation determinism
# ----------------------------------------------------------------------
class TestInstrumentation:
    def _instrumented_run(self):
        registry_mod.get_registry().reset()
        with enabled_scope(True):
            machine = attach_mfi(build_loop_program(iterations=8),
                                 "dise3").make_machine()
            # Enabled telemetry installs the counting hooks at setup.
            assert machine._opcode_counts is not None
            assert machine.engine._tm is not None
            machine.run(max_steps=10_000)
            machine.result()
        return registry_mod.get_registry().snapshot()

    def test_engine_and_sim_metrics_are_recorded(self):
        snap = self._instrumented_run()
        assert snap["sim.instructions"]["value"] > 0
        assert snap["sim.expansions"]["value"] > 0
        assert snap["sim.mem.loads"]["value"] > 0
        assert snap["sim.mem.stores"]["value"] > 0
        assert snap["engine.replacement_length"]["count"] == \
            snap["sim.expansions"]["value"]
        production_hits = sum(
            entry["value"] for name, entry in snap.items()
            if name.startswith("engine.production.")
        )
        assert production_hits == snap["sim.expansions"]["value"]
        assert snap["engine.pt_occupancy"]["value"] > 0

    def test_result_does_not_double_count(self):
        registry_mod.get_registry().reset()
        with enabled_scope(True):
            machine = attach_mfi(build_loop_program(iterations=8),
                                 "dise3").make_machine()
            machine.run(max_steps=10_000)
            machine.result()
            first = registry_mod.snapshot()["sim.instructions"]["value"]
            machine.result()
            second = registry_mod.snapshot()["sim.instructions"]["value"]
        assert first == second

    def test_identical_runs_yield_identical_snapshots(self):
        assert self._instrumented_run() == self._instrumented_run()


# ----------------------------------------------------------------------
# TaskFailure timing fields
# ----------------------------------------------------------------------
class TestTaskFailure:
    def test_details_carry_elapsed_and_attempt_times(self):
        task = TraceTask("bzip2", 1.0, "plain")
        failure = TaskFailure(task, TaskError("boom", attempts=2), 2,
                              elapsed=3.5, attempt_times=(100.0, 102.5))
        details = failure.details()
        assert details["elapsed"] == 3.5
        assert details["attempt_times"] == [100.0, 102.5]
        assert details["attempts"] == 2
        json.dumps(details)  # report-embeddable

    def test_timing_fields_default_for_legacy_construction(self):
        task = TraceTask("bzip2", 1.0, "plain")
        failure = TaskFailure(task, TaskError("boom"), 1)
        assert failure.elapsed == 0.0
        assert failure.attempt_times == ()
        assert failure.details()["attempt_times"] == []


# ----------------------------------------------------------------------
# The profiling CLI, end to end
# ----------------------------------------------------------------------
class TestTelemetryCli:
    def test_experiment_run_then_summary_top_validate_diff(
            self, tmp_path, monkeypatch, capsys):
        from repro.tools.cli import main as cli_main

        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "logs"))
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        with enabled_scope(True):
            assert cli_main(["experiment", "fig6_top", "--benchmarks",
                             "bzip2", "--scale", "0.02"]) == 0
        capsys.readouterr()
        logs = sorted((tmp_path / "logs").glob("run-*.jsonl"))
        assert len(logs) == 1
        validate_log(logs[0])

        assert cli_main(["telemetry", "validate", str(logs[0])]) == 0
        assert "schema OK" in capsys.readouterr().out

        # A directory picks the newest run; the summary must report the
        # acceptance trio: expansion frequency, cache hit rates, and
        # per-task/phase timings.
        assert cli_main(["telemetry", "summary",
                         str(tmp_path / "logs")]) == 0
        out = capsys.readouterr().out
        assert "frequency" in out
        assert "hit" in out
        assert "Phases" in out

        assert cli_main(["telemetry", "top", str(logs[0]), "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "opcodes" in out and "productions" in out

        assert cli_main(["telemetry", "diff", str(logs[0]),
                         str(logs[0])]) == 0
        capsys.readouterr()

    def test_validate_flags_malformed_log(self, tmp_path, capsys):
        from repro.tools.cli import main as cli_main

        bad = tmp_path / "run-bad.jsonl"
        bad.write_text('{"schema": 1, "run": "r", "seq": 0, "t": 0.0, '
                       '"kind": "event", "name": "x"}\n')
        assert cli_main(["telemetry", "validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err


# ----------------------------------------------------------------------
# get_logger
# ----------------------------------------------------------------------
class TestGetLogger:
    @pytest.fixture(autouse=True)
    def _fresh_logging(self, monkeypatch):
        reset_for_tests()
        yield
        reset_for_tests()

    def test_namespaced_under_repro(self):
        assert get_logger("harness.parallel").name == "repro.harness.parallel"
        assert get_logger("repro.isa.build").name == "repro.isa.build"

    def test_default_level_is_warning(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
        get_logger("x")
        assert logging.getLogger("repro").level == logging.WARNING

    def test_honors_repro_log_level(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "debug")
        get_logger("x")
        assert logging.getLogger("repro").level == logging.DEBUG

    def test_single_handler_when_app_has_none(self, monkeypatch):
        # Simulate an unconfigured host application (pytest normally owns
        # root handlers, which suppresses our stderr handler by design).
        monkeypatch.setattr(logging.getLogger(), "handlers", [])
        get_logger("a")
        get_logger("b.c")
        assert len(logging.getLogger("repro").handlers) == 1

    def test_defers_to_app_configured_logging(self):
        root_handlers = list(logging.getLogger().handlers)
        assert root_handlers, "pytest should own root handlers here"
        get_logger("a")
        assert logging.getLogger("repro").handlers == []
        assert logging.getLogger().handlers == root_handlers
