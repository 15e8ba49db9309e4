"""Tests for the markdown report generator and the claim table."""

from pathlib import Path

import pytest

from repro.harness import CLAIMS, Suite, build_report, table_to_markdown
from repro.harness.tables import ResultTable

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
CHECKS = [check for claim in CLAIMS.values() for check in claim.checks]


class TestTableMarkdown:
    def make(self):
        table = ResultTable("t", ["a", "b"])
        table.set("x", "a", 1.5)
        table.set("x", "b", 3.0)
        return table

    def test_structure(self):
        text = table_to_markdown(self.make())
        lines = text.splitlines()
        assert lines[0] == "| benchmark | a | b |"
        assert lines[1].startswith("|---")
        assert "| x | 1.500 | 3.000 |" in text
        assert "**geomean**" in text

    def test_missing_cells(self):
        table = ResultTable("t", ["a", "b"])
        table.set("x", "a", 1.0)
        assert "| x | 1.000 | - |" in table_to_markdown(table)


class TestReport:
    def test_claims_cover_all_experiments(self):
        from repro.harness import ALL_EXPERIMENTS

        assert set(CLAIMS) == set(ALL_EXPERIMENTS)
        for name, claim in CLAIMS.items():
            assert claim.text and claim.checks, name
            for check in claim.checks:
                assert check.id.startswith(f"{name}."), check.id
        ids = [check.id for check in CHECKS]
        assert len(ids) == len(set(ids))

    def test_every_check_named_in_experiments_md(self):
        text = EXPERIMENTS_MD.read_text()
        missing = [check.id for check in CHECKS
                   if f"`{check.id}`" not in text]
        assert not missing

    def test_report_contents(self):
        suite = Suite(benchmarks=("mcf",), scale=0.1)
        report = build_report(suite, experiments=("fig7_ratio",))
        assert "# DISE reproduction" in report
        assert "Simulated machine" in report
        assert "Figure 7 (top)" in report
        assert "*Paper:*" in report
        assert "| mcf |" in report
