"""Causal tracing, hot-path profiler, timeline export, critical path.

Covers the tentpole guarantees of the tracing layer:

* trace contexts propagate across fabric/harness worker processes, so a
  parallel campaign yields ONE trace tree under a single trace id;
* worker crashes leave well-formed *truncated* spans, never corrupt logs;
* ``chrome_trace`` emits valid Chrome trace-event JSON (Perfetto-loadable);
* ``critical_path`` tiles the run, so chain time matches wall-clock;
* the hot-path profiler attributes retirements deterministically on the
  translated, interpretive, and batch tiers;
* the telemetry CLI resolves concurrent-process run logs by header and
  refuses to diff across schema versions.
"""

import json
import os

import pytest

from conftest import build_loop_program
from repro.acf.mfi import attach_mfi, ensure_error_stub
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.harness.parallel import FUNCTIONAL_DISE
from repro.sim.batch import BatchMachine
from repro.sim.functional import Machine
from repro.telemetry import events as events_mod
from repro.telemetry import profile as profile_mod
from repro.telemetry import registry as registry_mod
from repro.telemetry import tracing
from repro.telemetry import (
    TelemetryError,
    enabled_scope,
    read_events,
    validate_log,
)
from repro.telemetry.export import (
    chrome_trace,
    collect_spans,
    critical_path,
    render_critical_path,
    trace_ids,
    validate_chrome_trace,
)
from repro.tools.cli import _resolve_run_log, main as cli_main


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Each test starts with every knob off and no leftover context."""
    registry_mod.configure(False)
    registry_mod.get_registry().reset()
    events_mod._CURRENT = events_mod._INERT_RUN
    tracing.configure(False)
    tracing.reset_for_tests()
    profile_mod.configure(False)
    yield
    registry_mod.configure(None)
    registry_mod.get_registry().reset()
    events_mod._CURRENT = events_mod._INERT_RUN
    tracing.configure(None)
    tracing.reset_for_tests()
    profile_mod.configure(None)


# ----------------------------------------------------------------------
# Knobs
# ----------------------------------------------------------------------
class TestKnobs:
    @pytest.mark.parametrize("raw,expect", [
        ("1", True), ("on", True), ("TRUE", True), ("yes", True),
        ("", False), ("0", False), ("off", False),
    ])
    def test_trace_env_spellings(self, monkeypatch, raw, expect):
        monkeypatch.setenv("REPRO_TRACE", raw)
        assert tracing.configure(None) is expect
        monkeypatch.setenv("REPRO_TRACE_PROFILE", raw)
        assert profile_mod.configure(None) is expect

    def test_scopes_restore_previous_state(self):
        assert not tracing.enabled() and not profile_mod.enabled()
        with tracing.trace_scope(True):
            assert tracing.enabled()
        with profile_mod.profile_scope(True):
            assert profile_mod.enabled()
        assert not tracing.enabled() and not profile_mod.enabled()

    def test_context_is_none_when_off_or_idle(self):
        assert tracing.current_context() is None
        with tracing.trace_scope(True):
            assert tracing.current_context() is None  # no span open


# ----------------------------------------------------------------------
# Local span identity
# ----------------------------------------------------------------------
class TestLocalSpans:
    def test_nested_spans_carry_ids_and_validate(self, tmp_path):
        with enabled_scope(True), tracing.trace_scope(True):
            events_mod.start_run(log_dir=tmp_path, run_id="run-ids")
            with events_mod.span("outer"):
                with events_mod.span("inner"):
                    pass
            path = events_mod.finish_run("ok")
        assert validate_log(path) == 7
        events = read_events(path)
        begins = {e["name"]: e for e in events if e["kind"] == "span_begin"}
        assert begins["outer"]["trace_id"] == "run-ids"
        assert "parent_id" not in begins["outer"]
        assert begins["inner"]["trace_id"] == "run-ids"
        assert begins["inner"]["parent_id"] == begins["outer"]["span_id"]
        assert trace_ids(events) == ["run-ids"]
        # span_end events echo the ids so pairs match in any order.
        ends = {e["name"]: e for e in events if e["kind"] == "span_end"}
        assert ends["inner"]["span_id"] == begins["inner"]["span_id"]

    def test_tracing_off_emits_v1_style_spans(self, tmp_path):
        with enabled_scope(True):
            events_mod.start_run(log_dir=tmp_path, run_id="run-v1")
            with events_mod.span("outer"):
                pass
            path = events_mod.finish_run("ok")
        events = read_events(path)
        begin = next(e for e in events if e["kind"] == "span_begin")
        assert "span_id" not in begin and "trace_id" not in begin
        assert validate_log(path) == 5

    def test_schema1_log_still_validates(self, tmp_path):
        path = tmp_path / "run-old.jsonl"
        rows = [
            {"schema": 1, "run": "run-old", "seq": 0, "t": 0.0,
             "kind": "run_begin", "argv": ["repro"]},
            {"schema": 1, "run": "run-old", "seq": 1, "t": 0.1,
             "kind": "span_begin", "name": "phase"},
            {"schema": 1, "run": "run-old", "seq": 2, "t": 0.4,
             "kind": "span_end", "name": "phase", "seconds": 0.3,
             "ok": True},
            {"schema": 1, "run": "run-old", "seq": 3, "t": 0.5,
             "kind": "run_end", "status": "ok"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert validate_log(path) == 4


# ----------------------------------------------------------------------
# Remote sessions and the result envelope
# ----------------------------------------------------------------------
class TestRemoteSpans:
    def test_remote_span_records_and_envelope_round_trip(self):
        with tracing.trace_scope(True):
            ctx = {"trace_id": "run-r", "span_id": "100.1"}
            with tracing.remote_session(ctx) as session:
                assert tracing.remote_active()
                with tracing.remote_span("fabric.task", task="t001"):
                    with tracing.remote_span("harness.task"):
                        pass
                envelope = tracing.wrap_result({"x": 1}, session,
                                               {"c": {"value": 2}})
        assert tracing.is_envelope(envelope)
        assert not tracing.is_envelope({"x": 1})
        result, spans, metrics = tracing.unwrap(envelope)
        assert result == {"x": 1}
        assert metrics == {"c": {"value": 2}}
        assert [s["name"] for s in spans] == ["harness.task", "fabric.task"]
        outer = spans[1]
        inner = spans[0]
        assert outer["trace_id"] == "run-r"
        assert outer["parent_id"] == "100.1"
        assert inner["parent_id"] == outer["span_id"]
        assert outer["pid"] == os.getpid()
        assert outer["task"] == "t001"
        assert outer["ok"] is True

    def test_remote_span_records_on_exception(self):
        with tracing.trace_scope(True):
            ctx = {"trace_id": "run-r", "span_id": "100.1"}
            with tracing.remote_session(ctx) as session:
                with pytest.raises(ValueError):
                    with tracing.remote_span("fabric.task"):
                        raise ValueError("boom")
        assert session.records[0]["ok"] is False

    def test_events_span_routes_to_remote_session(self, tmp_path):
        # Instrumented library code calls events.span(); inside a worker
        # (no event log) that must land in the remote buffer.
        with tracing.trace_scope(True):
            ctx = {"trace_id": "run-r", "span_id": "100.1"}
            with tracing.remote_session(ctx) as session:
                with events_mod.span("campaign.prepare_bench", bench="gzip"):
                    pass
        assert session.records[0]["name"] == "campaign.prepare_bench"
        assert session.records[0]["bench"] == "gzip"

    def test_emit_remote_spans_merges_validly(self, tmp_path):
        with tracing.trace_scope(True):
            ctx = {"trace_id": "run-m", "span_id": "1.1"}
            with tracing.remote_session(ctx) as session:
                with tracing.remote_span("fabric.task", task="t0"):
                    pass
        with enabled_scope(True), tracing.trace_scope(True):
            events_mod.start_run(log_dir=tmp_path, run_id="run-m")
            events_mod.emit_remote_spans(session.records)
            path = events_mod.finish_run("ok")
        assert validate_log(path) == 5
        events = read_events(path)
        begin = next(e for e in events if e["kind"] == "span_begin")
        assert begin["remote"] is True
        assert begin["pid"] == os.getpid()
        assert begin["parent_id"] == "1.1"
        spans = collect_spans(events)
        assert len(spans) == 1 and not spans[0].truncated


# ----------------------------------------------------------------------
# Truncated spans (worker crash mid-span)
# ----------------------------------------------------------------------
class TestTruncatedSpans:
    def _crashed_run(self, tmp_path):
        with enabled_scope(True), tracing.trace_scope(True):
            events_mod.start_run(log_dir=tmp_path, run_id="run-crash")
            with events_mod.span("fabric.run", driver="faults"):
                events_mod.emit_truncated_span(
                    "fabric.task", None, task="f0002", status="gave_up")
            return events_mod.finish_run("ok")

    def test_validate_log_accepts_spanend_less_record(self, tmp_path):
        path = self._crashed_run(tmp_path)
        assert validate_log(path) == 6
        events = read_events(path)
        begin = next(e for e in events if e["kind"] == "span_begin"
                     and e["name"] == "fabric.task")
        assert begin["truncated"] is True
        assert begin["parent_id"]  # child of fabric.run
        assert sum(1 for e in events if e["kind"] == "span_end") == 1

    def test_critical_path_reports_truncation_not_corruption(self, tmp_path):
        path = self._crashed_run(tmp_path)
        analysis = critical_path(read_events(path))
        assert [s.name for s in analysis["truncated"]] == ["fabric.task"]
        report = render_critical_path("run-crash", analysis)
        assert "truncated" in report
        # The chrome export places it too, flagged.
        doc = chrome_trace(read_events(path))
        validate_chrome_trace(doc)
        entry = next(e for e in doc["traceEvents"]
                     if e["name"] == "fabric.task")
        assert entry["args"]["truncated"] is True

    def test_truncated_emission_needs_tracing(self, tmp_path):
        # With tracing off an id-less unclosed span_begin would poison the
        # log, so emit_truncated_span must refuse to emit one.
        with enabled_scope(True):
            events_mod.start_run(log_dir=tmp_path, run_id="run-off")
            assert events_mod.emit_truncated_span("fabric.task", None) is None
            path = events_mod.finish_run("ok")
        assert validate_log(path) == 3


# ----------------------------------------------------------------------
# Cross-process: one campaign, one trace tree
# ----------------------------------------------------------------------
FAULTS = CampaignConfig(seed=11, faults=4, benchmarks=("gzip",),
                        scale=0.03, checkpoint_every=2)


def _bytes(report):
    return json.dumps(report, sort_keys=True).encode()


class TestCrossProcessTrace:
    def test_pool_campaign_yields_single_trace_tree(self, tmp_path):
        oracle = run_campaign(FAULTS)
        with enabled_scope(True), tracing.trace_scope(True):
            registry_mod.get_registry().reset()
            events_mod.start_run(log_dir=tmp_path, run_id="run-fab")
            report = run_campaign(FAULTS, jobs=2)
            path = events_mod.finish_run("ok")
        # Tracing never perturbs results: the envelope is unwrapped before
        # any store/checkpoint/report path.
        assert _bytes(report) == _bytes(oracle)
        assert validate_log(path) > 0
        events = read_events(path)
        # ONE trace id — the run id — across parent and worker processes.
        assert trace_ids(events) == ["run-fab"]
        remote = [e for e in events
                  if e["kind"] == "span_begin" and e.get("remote")]
        worker_pids = {e["pid"] for e in remote}
        assert worker_pids and os.getpid() not in worker_pids
        assert {e["name"] for e in remote} >= {"fabric.task"}
        # Every span parents into the same tree: no orphan chains.
        spans = collect_spans(events)
        known = {s.span_id for s in spans if s.span_id is not None}
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in known
        # The exported timeline is valid and shows per-worker tracks.
        doc = chrome_trace(events)
        validate_chrome_trace(doc)
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "driver" in names
        assert any(n.startswith("worker ") for n in names)
        # And the critical path tiles the run: chain == wall within 10%.
        analysis = critical_path(events)
        wall = analysis["wall_seconds"]
        assert wall > 0
        assert abs(analysis["chain_seconds"] - wall) <= 0.1 * wall


# ----------------------------------------------------------------------
# Critical path on synthetic trees
# ----------------------------------------------------------------------
def _ev(seq, kind, t, **fields):
    return dict({"schema": 2, "run": "run-s", "seq": seq, "t": t,
                 "kind": kind}, **fields)


class TestCriticalPath:
    def test_chain_tiles_wall_clock_with_slack(self):
        events = [
            _ev(0, "run_begin", 0.0, argv=["repro"]),
            _ev(1, "span_begin", 0.0, name="campaign", trace_id="run-s",
                span_id="1.1"),
            # Two children; the later-ending one gates.
            _ev(2, "span_begin", 0.1, name="task_a", trace_id="run-s",
                span_id="1.2", parent_id="1.1"),
            _ev(3, "span_end", 0.6, name="task_a", trace_id="run-s",
                span_id="1.2", seconds=0.5, ok=True),
            _ev(4, "span_begin", 0.2, name="task_b", trace_id="run-s",
                span_id="1.3", parent_id="1.1"),
            _ev(5, "span_end", 1.0, name="task_b", trace_id="run-s",
                span_id="1.3", seconds=0.8, ok=True),
            _ev(6, "span_end", 1.2, name="campaign", trace_id="run-s",
                span_id="1.1", seconds=1.2, ok=True),
            _ev(7, "run_end", 1.3, status="ok"),
        ]
        analysis = critical_path(events)
        assert analysis["wall_seconds"] == pytest.approx(1.3)
        assert analysis["chain_seconds"] == pytest.approx(1.3)
        assert analysis["coverage"] == pytest.approx(1.0)
        chain = [s.name for s in analysis["segments"] if s.seconds > 1e-6]
        # task_b (ends later) gates; task_a only covers the early gap.
        assert "task_b" in chain and "campaign" in chain
        gating = next(s for s in analysis["segments"] if s.name == "task_b")
        assert gating.slack is not None and gating.slack >= 0

    def test_empty_log_raises(self):
        with pytest.raises(TelemetryError):
            critical_path([])


# ----------------------------------------------------------------------
# Hot-path profiler
# ----------------------------------------------------------------------
def _loop_machine(**kwargs):
    installation = attach_mfi(build_loop_program(iterations=40), "dise3")
    return installation.make_machine(FUNCTIONAL_DISE, **kwargs)


class TestProfiler:
    def test_off_by_default_no_state(self):
        machine = _loop_machine()
        assert machine._profile is None
        assert machine._translated
        assert machine._execute.__func__ is Machine._execute_fast

    def test_translated_tier_attributes_blocks_and_triggers(self):
        with profile_mod.profile_scope(True):
            machine = _loop_machine()
            machine.run()
        # The translated tier's hooks live in the superblock runner, so
        # dispatch stays the unwrapped bound method.
        assert machine._execute.__func__ is Machine._execute_fast
        profile = machine._profile
        assert profile["tier"] == "translated"
        assert profile["block"] and profile["trigger"]
        assert sum(profile["block"].values()) > 0
        lines = profile_mod.collapsed_from_machine(machine)
        assert any(line.startswith("sim;translated;sb_0x") for line in lines)
        assert any(line.startswith("dise;trigger;0x") for line in lines)
        assert any(line.startswith("dise;production;seq") for line in lines)

    def test_ranking_deterministic_across_same_seed_runs(self):
        outputs = []
        for _ in range(2):
            with profile_mod.profile_scope(True):
                machine = _loop_machine()
                machine.run()
            outputs.append(profile_mod.collapsed_from_machine(machine))
        assert outputs[0] == outputs[1] and outputs[0]

    def test_interpretive_tier_publishes_registry_counters(self):
        # On the interpretive fast tier (requested explicitly — telemetry
        # no longer forces a translated machine off its tier) the profiler
        # must attribute to dynamic leaders and publish profile.* counters
        # so worker deltas merge like any other metric.
        with enabled_scope(True), profile_mod.profile_scope(True):
            registry_mod.get_registry().reset()
            machine = _loop_machine(dispatch="fast")
            assert machine._profile["tier"] == "fast"
            machine.run()
            snap = registry_mod.snapshot()
        blocks = [n for n in snap if n.startswith("profile.block.fast.")]
        assert blocks
        assert any(n.startswith("profile.trigger.") for n in snap)
        top = profile_mod.top_blocks(snap, n=3)
        assert top and top[0][0] == "fast"
        # Repeated publishes are delta-safe: a second result() call adds 0.
        with enabled_scope(True), profile_mod.profile_scope(True):
            machine.result()
            again = registry_mod.snapshot()
        assert again[blocks[0]] == snap[blocks[0]]

    def test_batch_lanes_attribute_compiled_calls(self):
        installation = attach_mfi(build_loop_program(iterations=60), "dise3")
        with profile_mod.profile_scope(True):
            bm = BatchMachine()
            for _ in range(2):
                machine = installation.make_machine(
                    FUNCTIONAL_DISE, record_trace=False,
                    dispatch="translated")
                bm.add_lane(machine)
            bm.run()
        assert bm._profile["tier"] == "batch"
        assert bm._profile["block"]
        assert sum(bm._profile["block"].values()) > 0


# ----------------------------------------------------------------------
# CLI satellites: run-log selection and schema-mismatch refusal
# ----------------------------------------------------------------------
def _write_log(path, run_id, t0, schema=2):
    rows = [
        {"schema": schema, "run": run_id, "seq": 0, "t": t0,
         "kind": "run_begin", "argv": ["repro"]},
        {"schema": schema, "run": run_id, "seq": 1, "t": t0 + 0.2,
         "kind": "metrics", "metrics": {"sim.instructions":
                                        {"type": "counter", "value": 7}}},
        {"schema": schema, "run": run_id, "seq": 2, "t": t0 + 0.3,
         "kind": "run_end", "status": "ok"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


class TestCliRunSelection:
    def test_picks_by_header_not_name_or_mtime(self, tmp_path):
        # run-zzz sorts (and is written) last but *started* first; the
        # resolver must pick run-aaa, whose header is newest.
        _write_log(tmp_path / "run-aaa.jsonl", "run-aaa", t0=100.0)
        _write_log(tmp_path / "run-zzz.jsonl", "run-zzz", t0=50.0)
        os.utime(tmp_path / "run-aaa.jsonl", (1, 1))
        assert _resolve_run_log(tmp_path).name == "run-aaa.jsonl"

    def test_warns_on_header_timestamp_tie(self, tmp_path, capsys):
        _write_log(tmp_path / "run-a.jsonl", "run-a", t0=10.0)
        _write_log(tmp_path / "run-b.jsonl", "run-b", t0=10.0)
        picked = _resolve_run_log(tmp_path)
        err = capsys.readouterr().err
        assert "warning" in err and "same timestamp" in err
        assert picked.name in ("run-a.jsonl", "run-b.jsonl")

    def test_skips_headerless_files(self, tmp_path):
        (tmp_path / "run-junk.jsonl").write_text("not json\n")
        _write_log(tmp_path / "run-ok.jsonl", "run-ok", t0=5.0)
        assert _resolve_run_log(tmp_path).name == "run-ok.jsonl"

    def test_errors_when_no_readable_header(self, tmp_path):
        (tmp_path / "run-junk.jsonl").write_text("not json\n")
        with pytest.raises(SystemExit, match="readable"):
            _resolve_run_log(tmp_path)


class TestCliSchemaMismatch:
    def test_diff_refuses_across_schemas(self, tmp_path, capsys):
        a = _write_log(tmp_path / "run-a.jsonl", "run-a", 1.0, schema=1)
        b = _write_log(tmp_path / "run-b.jsonl", "run-b", 2.0, schema=2)
        with pytest.raises(SystemExit, match="schema"):
            cli_main(["telemetry", "diff", str(a), str(b)])

    def test_escape_hatch_allows_it(self, tmp_path, capsys):
        a = _write_log(tmp_path / "run-a.jsonl", "run-a", 1.0, schema=1)
        b = _write_log(tmp_path / "run-b.jsonl", "run-b", 2.0, schema=2)
        assert cli_main(["telemetry", "diff", str(a), str(b),
                         "--allow-schema-mismatch"]) == 0
        assert "Telemetry diff" in capsys.readouterr().out

    def test_same_schema_unaffected(self, tmp_path, capsys):
        a = _write_log(tmp_path / "run-a.jsonl", "run-a", 1.0)
        b = _write_log(tmp_path / "run-b.jsonl", "run-b", 2.0)
        assert cli_main(["telemetry", "diff", str(a), str(b)]) == 0


# ----------------------------------------------------------------------
# CLI: trace / critical-path / profile actions
# ----------------------------------------------------------------------
class TestCliExport:
    def _traced_run(self, tmp_path):
        with enabled_scope(True), tracing.trace_scope(True):
            events_mod.start_run(log_dir=tmp_path, run_id="run-cli")
            with events_mod.span("experiment"):
                events_mod.emit_task("gzip/plain", 0.5, 1, "ok")
            return events_mod.finish_run("ok")

    def test_trace_action_writes_valid_chrome_json(self, tmp_path, capsys):
        path = self._traced_run(tmp_path)
        out = tmp_path / "chrome.json"
        assert cli_main(["telemetry", "trace", str(path),
                         "--chrome", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) > 0
        assert doc["otherData"]["run"] == "run-cli"

    def test_critical_path_action(self, tmp_path, capsys):
        path = self._traced_run(tmp_path)
        assert cli_main(["telemetry", "critical-path", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Critical path" in out and "wall-clock" in out

    def test_profile_action_renders_collapsed_stacks(self, tmp_path,
                                                     capsys):
        with enabled_scope(True), profile_mod.profile_scope(True):
            registry_mod.get_registry().reset()
            events_mod.start_run(log_dir=tmp_path, run_id="run-prof")
            machine = _loop_machine()
            machine.run()
            path = events_mod.finish_run("ok")
        assert cli_main(["telemetry", "profile", str(path)]) == 0
        out = capsys.readouterr().out
        # Telemetry no longer drops the machine off the translated tier,
        # so the profile attributes to translated superblocks.
        assert "sim;translated;sb_0x" in out

    def test_profile_action_without_counters_fails(self, tmp_path, capsys):
        path = self._traced_run(tmp_path)
        assert cli_main(["telemetry", "profile", str(path)]) == 1
        assert "REPRO_TRACE_PROFILE" in capsys.readouterr().err
