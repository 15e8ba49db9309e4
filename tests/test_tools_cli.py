"""Tests for the command-line tools."""

import pytest

from repro.tools.cli import build_parser, main

ASM = """
main:
    bis zero, #3, t0
loop:
    subq t0, #1, t0
    bne t0, loop
    out t0
    halt
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(ASM)
    return str(path)


class TestAsmDisasm:
    def test_asm_writes_binary(self, source_file, tmp_path, capsys):
        out = str(tmp_path / "prog.bin")
        assert main(["asm", source_file, "-o", out]) == 0
        data = open(out, "rb").read()
        assert len(data) == 5 * 4

    def test_disasm_round_trip(self, source_file, tmp_path, capsys):
        out = str(tmp_path / "prog.bin")
        main(["asm", source_file, "-o", out])
        capsys.readouterr()
        assert main(["disasm", out]) == 0
        text = capsys.readouterr().out
        assert "bis zero, #3, t0" in text
        assert "halt" in text

    def test_disasm_benchmark(self, capsys):
        assert main(["disasm", "--benchmark", "mcf", "--scale", "0.1"]) == 0
        text = capsys.readouterr().out
        assert "main:" in text and "f_hot0" in text


class TestRun:
    def test_run_source(self, source_file, capsys):
        assert main(["run", source_file]) == 0
        text = capsys.readouterr().out
        assert "halted: True" in text
        assert "outputs: [0]" in text

    def test_run_with_timing(self, source_file, capsys):
        assert main(["run", source_file, "--timing"]) == 0
        assert "cycles:" in capsys.readouterr().out

    def test_run_benchmark_with_mfi(self, capsys):
        code = main(["run", "--benchmark", "mcf", "--scale", "0.1",
                     "--mfi", "dise3"])
        assert code == 0
        assert "expansions" in capsys.readouterr().out

    def test_run_without_program_errors(self):
        with pytest.raises(SystemExit):
            main(["run"])


class TestCompress:
    def test_compress_benchmark(self, capsys):
        assert main(["compress", "--benchmark", "mcf", "--scale", "0.1",
                     "--verify"]) == 0
        text = capsys.readouterr().out
        assert "identical" in text

    def test_unknown_variant(self):
        with pytest.raises(SystemExit):
            main(["compress", "--benchmark", "mcf", "--variant", "magic"])


class TestExperiment:
    def test_single_experiment(self, capsys):
        assert main(["experiment", "fig7_ratio", "--benchmarks", "mcf",
                     "--scale", "0.1", "--config"]) == 0
        text = capsys.readouterr().out
        assert "Simulated machine" in text
        assert "Figure 7 (top)" in text
        assert "mcf" in text

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestParser:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--benchmark", "mcf"])
        assert args.benchmark == "mcf"


class TestReport:
    def test_report_to_file(self, tmp_path, capsys):
        out = str(tmp_path / "report.md")
        assert main(["report", "-o", out, "--benchmarks", "mcf",
                     "--scale", "0.1", "--experiments", "fig7_ratio"]) == 0
        text = open(out).read()
        assert "# DISE reproduction" in text
        assert "| mcf |" in text

    def test_report_to_stdout(self, capsys):
        assert main(["report", "--benchmarks", "mcf", "--scale", "0.1",
                     "--experiments", "fig7_ratio"]) == 0
        assert "Figure 7 (top)" in capsys.readouterr().out


class TestJsonOutput:
    """``--json`` variants of the inspection subcommands (scripting)."""

    def test_fabric_status_json(self, capsys, monkeypatch):
        import json

        monkeypatch.delenv("REPRO_FABRIC_STORE", raising=False)
        assert main(["fabric", "status", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"checkpoint": None, "store": None}

    def test_fabric_status_json_unreadable_checkpoint(self, tmp_path,
                                                      capsys):
        import json

        missing = str(tmp_path / "nope.ckpt")
        assert main(["fabric", "status", "--json",
                     "--checkpoint", missing]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["checkpoint"] == {"path": missing, "readable": False}

    def test_cache_stats_json(self, capsys, monkeypatch, tmp_path):
        import json

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        assert main(["cache", "stats", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["enabled"] is True
        for kind in ("traces", "cycles", "quarantined"):
            assert "entries" in doc[kind]

    def test_cache_stats_json_disabled(self, capsys, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_TRACE_CACHE", "")
        assert main(["cache", "stats", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["enabled"] is False


class TestServeParser:
    def test_serve_subcommand_parses(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "7337", "--pool", "4",
                                  "--retirements", "1000000",
                                  "--wall", "60", "--state-dir", "/tmp/x"])
        assert args.port == 7337 and args.pool == 4
        assert args.retirements == 1000000
        assert args.wall == 60.0 and args.state_dir == "/tmp/x"

    def test_run_digest_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--benchmark", "gzip", "--digest",
                                  "--projection", "app"])
        assert args.digest is True and args.projection == "app"
