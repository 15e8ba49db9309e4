"""Tests for the differential conformance engine (:mod:`repro.verify`)."""

import hashlib
import json

import pytest

from repro.acf.base import plain_installation
from repro.acf.mfi import attach_mfi
from repro.core.language import parse_productions
from repro.errors import CheckpointError, DivergenceError
from repro.isa.build import Imm, addq, bis, halt, out, stq, subq, bne, ldq
from repro.program.builder import ProgramBuilder
from repro.sim.functional import Machine, run_program
from repro.sim.cycle import simulate_trace
from repro.verify import (
    ORACLES,
    Observer,
    VerifyConfig,
    bisect_divergence,
    run_oracle,
    run_verification,
)
from repro.verify.campaign import all_passed, load_report, save_report
from repro.verify.observe import (
    CapturingObserver,
    ChainedObserver,
    WindowedObserver,
    snapshot_digest,
    snapshot_state,
)
from repro.workloads import generate_by_name

from conftest import A0, A1, T0, ZERO, build_loop_program

SCALE = 0.02
BENCHMARKS = ("bzip2", "gzip", "mcf", "parser")


# ----------------------------------------------------------------------
# Observation streams
# ----------------------------------------------------------------------
class TestObserver:
    def test_disabled_machine_is_structurally_unwrapped(self, loop_image):
        machine = Machine(loop_image)
        assert machine._observer is None
        assert machine._execute.__func__ is Machine._execute_fast

    def test_observer_machine_wraps_dispatch(self, loop_image):
        machine = Machine(loop_image, observer=Observer("full"))
        assert machine._observer is not None
        assert getattr(machine._execute, "__func__", None) \
            is not Machine._execute_fast

    def test_observation_does_not_change_execution(self, loop_image):
        baseline = run_program(loop_image, record_trace=False)
        observed = run_program(loop_image, record_trace=False,
                               observer=Observer("full"))
        assert observed.outputs == baseline.outputs
        assert observed.final_regs == baseline.final_regs
        assert observed.instructions == baseline.instructions

    def test_same_run_same_digest(self, loop_image):
        digests = []
        for _ in range(2):
            obs = Observer("full")
            run_program(loop_image, record_trace=False, observer=obs)
            digests.append((obs.hexdigest(), obs.count))
        assert digests[0] == digests[1]
        assert digests[0][1] > 0

    def test_full_counts_every_retirement(self, loop_image):
        obs = Observer("full")
        trace = run_program(loop_image, record_trace=False, observer=obs)
        assert obs.count == trace.instructions

    def test_projections_filter(self, loop_image):
        counts = {}
        for projection in ("full", "app", "user", "retire"):
            obs = Observer(projection)
            run_program(loop_image, record_trace=False, observer=obs)
            counts[projection] = obs.count
        # No DISE controller: every retirement is an app-level trigger.
        assert counts["app"] == counts["full"] == counts["retire"]
        # ``user`` skips effect-free retirements (branches, halt).
        assert 0 < counts["user"] < counts["full"]

    def test_unknown_projection_rejected(self):
        with pytest.raises(ValueError):
            Observer("nope")

    def test_windowed_observer_brackets_stream(self, loop_image):
        obs = WindowedObserver("full", window=4)
        run_program(loop_image, record_trace=False, observer=obs)
        assert len(obs.window_digests) == obs.count // 4
        plain = Observer("full")
        run_program(loop_image, record_trace=False, observer=plain)
        assert obs.hexdigest() == plain.hexdigest()

    def test_capturing_observer_half_open_range(self, loop_image):
        obs = CapturingObserver("full", lo=3, hi=7)
        run_program(loop_image, record_trace=False, observer=obs)
        assert [r.index for r in obs.records] == [3, 4, 5, 6]
        record = obs.records[0]
        assert record.text  # disassembled
        assert len(record.regs) >= 32
        assert json.dumps(record.to_dict())  # JSON-serialisable

    def test_snapshot_digest_deterministic(self, loop_image):
        traces = [run_program(loop_image) for _ in range(2)]
        assert (snapshot_digest(traces[0]) == snapshot_digest(traces[1]))
        full = snapshot_state(traces[0], scope="full")
        user = snapshot_state(traces[0], scope="user")
        assert len(user["regs"]) == 32 < len(full["regs"])


def observation_streams_digest(installation, projection):
    """sha256 over everything each observer reports for one run."""
    def run(observer):
        installation.run(record_trace=False, observer=observer)
        return observer

    plain = run(Observer(projection))
    captured = run(CapturingObserver(projection, lo=100, hi=110))
    payload = {
        "observer": [plain.hexdigest(), plain.count],
        "chained": run(ChainedObserver(projection)).hexdigest(),
        "windows": run(WindowedObserver(projection,
                                        window=256)).window_digests,
        "captured": [record.to_dict() for record in captured.records],
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


#: sha256 of :func:`observation_streams_digest` on two committed profiles
#: at scale 0.05, plain and under DISE MFI, per projection.  Encoding
#: observations may only get faster: these bytes must not move.
PINNED_OBSERVATION_STREAMS = {
    ("gzip", "plain", "full"):
        "14eee4c19b55d21dc03cdc0c8fcb187530951f67a270cc9eaa49973846a5058a",
    ("gzip", "plain", "app"):
        "8ded858031e8e533f494c1d03aff4d60bd36584f1550213e56c1dc8a8d7cf77c",
    ("gzip", "plain", "user"):
        "4d1ff9f967b8aeb8a94e77437c7fc55c4c0769afabfef9af6cbd5321a7f70709",
    ("gzip", "plain", "retire"):
        "488de3d708f29b963ce5ee5323dac26c888b1c2491cccbb9d058be03f7d2e2d4",
    ("gzip", "dise3", "full"):
        "1f3efaece235819ecdf16146a27c0dfa2af5f84b6bbeeec528a5285e591180f1",
    ("gzip", "dise3", "app"):
        "3e6476874003d55d7dbc5b07df6831954f2d2857d537580b60b55bc7c94b3588",
    ("gzip", "dise3", "user"):
        "bfb2466f594dcbfda7bc30e25219888e9d1fce21964a5d662575f94d32f10f69",
    ("gzip", "dise3", "retire"):
        "5d75648bc26720398cbf908ac5050b3a5919110e98f125af302744e684ef8b55",
    ("mcf", "plain", "full"):
        "87d19c2901d7c4d851e90efb75bf722f24cc7ea77b1857fa49f4a86362878513",
    ("mcf", "plain", "app"):
        "51dfa36a24aac82f357b34ca8decc50a4f83499d267c80abe5c93a0d5a360501",
    ("mcf", "plain", "user"):
        "2588b1d3e1dfb8512c0256cc14b2b959d03ab205256c73bde4a9e89833c35b93",
    ("mcf", "plain", "retire"):
        "de4f0c261597183a2cd2551e2d5c5cf402067ac4b230813a7ca057192e6a21eb",
    ("mcf", "dise3", "full"):
        "02369e5827b4eb1895e66387fefe44fccaf3b4aa686fe6d10f2105c315cb8672",
    ("mcf", "dise3", "app"):
        "53999d1213466df0a833f758ea7adeb8291d7972b9e494b723b40ede0a297556",
    ("mcf", "dise3", "user"):
        "797c7980c4677e3e68b242b1d558247bf14f4a59c58da7239e0ac70778012609",
    ("mcf", "dise3", "retire"):
        "35fef912200bdad5f9d10d014694596ce422b5097e386b40e101f7e8f1297fb2",
}


@pytest.fixture(scope="module")
def pinned_installations():
    installations = {}
    for bench in ("gzip", "mcf"):
        image = generate_by_name(bench, scale=0.05)
        installations[bench, "plain"] = plain_installation(image)
        installations[bench, "dise3"] = attach_mfi(image, "dise3")
    return installations


@pytest.mark.parametrize("bench,acf,projection",
                         list(PINNED_OBSERVATION_STREAMS))
def test_observation_streams_pinned(pinned_installations, bench, acf,
                                    projection):
    installation = pinned_installations[bench, acf]
    assert observation_streams_digest(installation, projection) \
        == PINNED_OBSERVATION_STREAMS[(bench, acf, projection)]


# ----------------------------------------------------------------------
# Bisection
# ----------------------------------------------------------------------
def _counting_program(n=40, bug_at=None):
    """Sum 1..n into memory; with ``bug_at`` the addend is off by one on
    that iteration — a single divergent store retirement."""
    b = ProgramBuilder()
    b.alloc_data("acc", 4, init=[0])
    b.label("main")
    b.load_address(A1, "acc")
    b.emit(bis(ZERO, Imm(n), T0))
    b.label("loop")
    b.emit(ldq(A0, 0, A1))
    b.emit(addq(A0, T0, A0))
    if bug_at is not None:
        # Off-by-one exactly when T0 == bug_at (subq sets A0 back otherwise
        # the two programs would differ in instruction count).
        b.emit(addq(A0, Imm(1), A0))
    b.emit(stq(A0, 0, A1))
    b.emit(subq(T0, Imm(1), T0))
    b.emit(bne(T0, "loop"))
    b.emit(ldq(A0, 0, A1))
    b.emit(out(A0))
    b.emit(halt())
    b.set_entry("main")
    return b.build()


class TestBisect:
    def _runner(self, image):
        def run(observer=None):
            return run_program(image, record_trace=False, observer=observer)
        return run

    def test_identical_runs_return_none(self):
        image = _counting_program()
        report = bisect_divergence(self._runner(image), self._runner(image),
                                   "full", window=8)
        assert report is None

    def test_finds_first_divergent_retirement(self):
        left = _counting_program()
        right = _counting_program(bug_at=0)  # extra addq every iteration
        report = bisect_divergence(self._runner(left), self._runner(right),
                                   "user", window=8,
                                   left_label="good", right_label="bad")
        assert report is not None
        assert report.kind in ("stream", "length")
        assert report.index is not None
        # The first user-visible divergence is the first store's value.
        rendered = report.render()
        assert "good" in rendered and "bad" in rendered
        assert report.to_dict()["index"] == report.index

    def test_reg_delta_names_registers(self):
        left = _counting_program()
        right = _counting_program(bug_at=0)
        report = bisect_divergence(self._runner(left), self._runner(right),
                                   "full", window=8)
        assert report.kind == "stream"
        # The bugged run retires an extra addq: streams diverge at the
        # instruction after the shared addq, with A0 differing by 1 on the
        # right once the extra increment retires.
        assert report.left is not None and report.right is not None

    def test_length_divergence(self):
        short = _counting_program(n=5)
        long = _counting_program(n=9)
        report = bisect_divergence(self._runner(short), self._runner(long),
                                   "full", window=4)
        assert report is not None

    def test_divergence_error_carries_report(self):
        left = _counting_program()
        right = _counting_program(bug_at=0)
        report = bisect_divergence(self._runner(left), self._runner(right),
                                   "full", window=8)
        err = DivergenceError("diverged", report=report)
        assert err.details()["report"]["kind"] == report.kind


# ----------------------------------------------------------------------
# The intentionally broken production (acceptance fixture)
# ----------------------------------------------------------------------
BROKEN_SOURCE = """
# Deliberately wrong: increments the stored register before the store and
# never restores it, so the first store retirement diverges from plain
# execution at the trigger's own pc.
P1: T.OPCLASS == store -> R1
R1:
    addq  T.RT, #1, T.RT
    T.INSN
"""


class TestBrokenProduction:
    def test_divergence_names_first_store(self):
        from repro.acf.base import AcfInstallation
        from repro.core.config import DiseConfig

        image = build_loop_program()
        pset = parse_productions(BROKEN_SOURCE, name="broken",
                                 scope="kernel")
        broken = AcfInstallation(image=image, production_sets=[pset],
                                 name="broken")
        config = DiseConfig(rt_perfect=True)

        def run_plain(observer=None):
            return run_program(image, record_trace=False, observer=observer)

        def run_broken(observer=None):
            return broken.run(dise_config=config, record_trace=False,
                              observer=observer)

        report = bisect_divergence(run_plain, run_broken, "user", window=8,
                                   left_label="plain", right_label="broken")
        assert report is not None and report.kind == "stream"
        # First divergent observation is at the first store's pc, with the
        # exact instructions on both sides.
        store_index = next(
            i for i, instr in enumerate(image.instructions)
            if instr.opcode.is_store
        )
        store_pc = image.addresses[store_index]
        assert report.left.pc == store_pc
        assert report.right.pc == store_pc
        assert "stq" in report.left.text
        assert "addq" in report.right.text
        assert report.reg_delta  # the incremented register is named
        rendered = report.render()
        assert f"{store_pc:#x}" in rendered


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
class TestOracles:
    @pytest.mark.parametrize("bench", BENCHMARKS)
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_oracle_passes(self, oracle, bench):
        outcome = run_oracle(oracle, bench, scale=SCALE)
        assert outcome.status == "pass", outcome.detail
        assert outcome.checks > 0
        assert outcome.to_dict()["status"] == "pass"

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError):
            run_oracle("nope", "gzip")

    def test_transparency_catches_broken_acf(self, monkeypatch):
        """A production set that perturbs user state must diverge."""
        from repro.acf.base import AcfInstallation
        import repro.verify.oracles as oracles_mod

        def broken_acfs(image):
            pset = parse_productions(BROKEN_SOURCE, name="broken",
                                     scope="kernel")
            return (AcfInstallation(image=image, production_sets=[pset],
                                    name="broken"),)

        monkeypatch.setattr(oracles_mod, "_transparency_acfs", broken_acfs)
        outcome = run_oracle("acf_transparency", "gzip", scale=SCALE)
        assert outcome.status == "diverged"
        assert outcome.report is not None
        assert "broken" in outcome.detail


# ----------------------------------------------------------------------
# Cycle retirement observer
# ----------------------------------------------------------------------
class TestCycleRetireObserver:
    def test_sees_every_op_in_order(self, loop_image):
        trace = run_program(loop_image)
        seen = []
        simulate_trace(trace, retire_observer=lambda op, when:
                       seen.append((op, when)))
        assert [op for op, _ in seen] == trace.ops
        times = [when for _, when in seen]
        assert times == sorted(times)

    def test_default_is_no_observer(self, loop_image):
        trace = run_program(loop_image)
        result = simulate_trace(trace)
        assert result.cycles > 0


# ----------------------------------------------------------------------
# Campaign: sweep, checkpointing, resume
# ----------------------------------------------------------------------
class TestVerificationCampaign:
    CONFIG = VerifyConfig(benchmarks=("gzip",), scale=SCALE,
                          checkpoint_every=2)

    def test_sweep_passes_and_reports(self, tmp_path):
        out = tmp_path / "report.json"
        report = run_verification(self.CONFIG)
        assert all_passed(report)
        assert report["summary"]["cells"] == len(ORACLES)
        save_report(report, str(out))
        assert load_report(str(out)) == report

    def test_checkpoint_resume_skips_completed(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        calls = []
        run_verification(self.CONFIG, checkpoint_path=path,
                         progress=lambda c, s, d, t: calls.append(c))
        assert len(calls) == len(ORACLES)
        calls.clear()
        report = run_verification(self.CONFIG, checkpoint_path=path,
                                  resume=True,
                                  progress=lambda c, s, d, t:
                                  calls.append(c))
        assert calls == []  # everything restored from the checkpoint
        assert all_passed(report)

    def test_checkpoint_config_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        run_verification(self.CONFIG, checkpoint_path=path)
        other = VerifyConfig(benchmarks=("gzip",), scale=SCALE,
                             variant="dise4")
        with pytest.raises(CheckpointError):
            run_verification(other, checkpoint_path=path, resume=True)

    def test_resume_without_checkpoint_path_refused(self):
        with pytest.raises(CheckpointError):
            run_verification(self.CONFIG, resume=True)

    def test_invalid_configs_rejected(self):
        with pytest.raises(Exception):
            VerifyConfig(oracles=("nope",)).validate()
        with pytest.raises(Exception):
            VerifyConfig(benchmarks=()).validate()
        with pytest.raises(Exception):
            VerifyConfig(scale=0).validate()

    def test_parallel_matches_serial(self):
        config = VerifyConfig(benchmarks=("gzip", "mcf"),
                              oracles=("acf_transparency",
                                       "functional_vs_cycle"),
                              scale=SCALE)
        serial = run_verification(config, jobs=1)
        parallel = run_verification(config, jobs=2)
        assert serial["cells"] == parallel["cells"]

    def test_telemetry_counters(self):
        from repro.telemetry import registry as _telemetry

        with _telemetry.enabled_scope(True):
            _telemetry.get_registry().reset()
            run_verification(VerifyConfig(benchmarks=("gzip",),
                                          oracles=("functional_vs_cycle",),
                                          scale=SCALE))
            snap = _telemetry.snapshot()
        assert snap["verify.oracles.run"]["value"] == 1
        assert snap["verify.oracles.passed"]["value"] == 1
        assert "verify.oracles.diverged" not in snap


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestVerifyCli:
    def test_run_and_report(self, tmp_path, capsys):
        from repro.tools.cli import main

        out = str(tmp_path / "verify.json")
        code = main(["verify", "run", "--benchmarks", "gzip",
                     "--oracle", "roundtrip,functional_vs_cycle",
                     "--scale", str(SCALE), "--out", out])
        assert code == 0
        assert "passed" in capsys.readouterr().out
        assert main(["verify", "report", "--out", out]) == 0

    def test_bisect_single_cell(self, capsys):
        from repro.tools.cli import main

        code = main(["verify", "bisect", "--oracle", "roundtrip",
                     "--benchmarks", "gzip", "--scale", str(SCALE)])
        assert code == 0
        assert "gzip:roundtrip: pass" in capsys.readouterr().out

    def test_bisect_requires_single_cell(self):
        from repro.tools.cli import main

        with pytest.raises(SystemExit):
            main(["verify", "bisect", "--oracle", "all",
                  "--benchmarks", "gzip"])
