"""Tests for the experiment harness: tables, suite caching, experiments."""

import math

import pytest

from repro.core.config import DiseConfig
from repro.harness import (
    ALL_EXPERIMENTS,
    CLAIMS,
    ResultTable,
    Suite,
    render_config_table,
    run_experiment,
)
from repro.harness.experiments import _machine
from repro.sim.config import KB, MachineConfig


class TestResultTable:
    def make(self):
        table = ResultTable("t", ["a", "b"])
        table.set("x", "a", 2.0)
        table.set("x", "b", 4.0)
        table.set("y", "a", 8.0)
        return table

    def test_get_set(self):
        table = self.make()
        assert table.get("x", "a") == 2.0
        assert table.get("y", "b") is None

    def test_unknown_column(self):
        with pytest.raises(KeyError):
            self.make().set("x", "zzz", 1.0)

    def test_geomean(self):
        table = self.make()
        assert table.geomean("a") == pytest.approx(4.0)
        assert table.geomean("b") == pytest.approx(4.0)

    def test_geomean_empty(self):
        table = ResultTable("t", ["a"])
        assert table.geomean("a") is None

    def test_render(self):
        text = self.make().render()
        assert "benchmark" in text and "geomean" in text
        assert "2.000" in text

    def test_render_missing_cells_as_dash(self):
        assert "-" in self.make().render()

    def test_as_dict(self):
        assert self.make().as_dict()["x"]["a"] == 2.0


class TestConfigTable:
    def test_reflects_defaults(self):
        text = render_config_table()
        assert "4-wide" in text
        assert "128-entry ROB" in text
        assert "32 KB" in text
        assert "16 KB" in text   # RT
        assert "flush + 30 cycles" in text
        assert "32 entries" in text   # PT
        # The paper's Section 4 parameters are the defaults.
        machine = MachineConfig()
        dise: DiseConfig = machine.dise
        assert machine.width == 4
        assert machine.pipeline_stages == 12
        assert machine.rob_entries == 128
        assert machine.rs_entries == 80
        assert machine.il1.size_bytes == 32 * KB
        assert machine.dl1.size_bytes == 32 * KB
        assert machine.l2.size_bytes == 1024 * KB
        assert dise.pt_entries == 32
        assert dise.rt_entries == 2048
        assert dise.rt_bytes == 16 * KB
        assert dise.simple_miss_cycles == 30
        assert dise.compose_miss_cycles == 150


class TestSuite:
    @pytest.fixture(scope="class")
    def suite(self):
        return Suite(benchmarks=("mcf",), scale=0.2)

    def test_images_cached(self, suite):
        assert suite.image("mcf") is suite.image("mcf")

    def test_traces_cached(self, suite):
        assert suite.trace_plain("mcf") is suite.trace_plain("mcf")

    def test_cycles_memoised(self, suite):
        trace = suite.trace_plain("mcf")
        a = suite.cycles(trace, _machine())
        b = suite.cycles(trace, _machine())
        assert a is b

    def test_compression_cached(self, suite):
        from repro.acf.compression import DISE_OPTIONS

        a = suite.compression("mcf", DISE_OPTIONS, "DISE")
        b = suite.compression("mcf", DISE_OPTIONS, "DISE")
        assert a is b

    def test_all_experiments_registry(self):
        assert set(ALL_EXPERIMENTS) == {
            "fig6_top", "fig6_cache", "fig6_width",
            "fig7_ratio", "fig7_perf", "fig7_rt",
            "fig8_perf", "fig8_rt",
            "ablation_predict", "ablation_placement", "ablation_rt_block",
        }


class TestExperimentsOnTinySuite:
    """Each experiment runs end-to-end on one scaled-down benchmark."""

    @pytest.fixture(scope="class")
    def suite(self):
        return Suite(benchmarks=("mcf",), scale=0.2)

    @pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
    def test_experiment_produces_full_table(self, suite, name):
        table = ALL_EXPERIMENTS[name](suite)
        assert table.rows == ["mcf"]
        for column in table.columns:
            value = table.get("mcf", column)
            assert value is not None and value > 0, (name, column)
        # Every claim check reads columns the table has and evaluates to
        # finite sides and margin (the verdict may differ on one profile).
        for check in CLAIMS[name].checks:
            assert set(check.columns) <= set(table.columns), check.id
            result = check.evaluate(table)
            assert all(math.isfinite(value) for value in
                       (result.left, result.right, result.margin)), result

    def test_run_experiment_wrapper(self):
        table = run_experiment("fig7_ratio", benchmarks=("mcf",), scale=0.2)
        assert 0 < table.get("mcf", "DISE") <= 1.0
