"""Markdown report generation for the full evaluation.

``build_report`` runs every experiment on a suite and renders one markdown
document — the machinery behind regenerating EXPERIMENTS.md's raw data.
Its per-section progress is kept in a fabric checkpoint
(:mod:`repro.fabric.checkpoint`, driver ``"report"``), so a corrupt or
edited checkpoint is quarantined rather than served on resume.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Optional, Sequence

from repro.fabric.checkpoint import load_checkpoint, write_checkpoint
from repro.harness.claims import CLAIMS
from repro.harness.config import render_config_table
from repro.harness.experiments import ALL_EXPERIMENTS
from repro.harness.runner import Suite
from repro.harness.tables import ResultTable
from repro.telemetry import events as _events
from repro.telemetry import registry as _telemetry


def table_to_markdown(table: ResultTable) -> str:
    """Render a ResultTable as a GitHub-flavoured markdown table."""
    header = "| benchmark | " + " | ".join(table.columns) + " |"
    rule = "|" + "---|" * (len(table.columns) + 1)
    lines = [header, rule]
    for row in table.rows:
        cells = []
        for column in table.columns:
            value = table.get(row, column)
            cells.append(table.fmt.format(value) if value is not None else "-")
        lines.append(f"| {row} | " + " | ".join(cells) + " |")
    geocells = []
    for column in table.columns:
        value = table.geomean(column)
        geocells.append(table.fmt.format(value) if value is not None else "-")
    lines.append("| **geomean** | " + " | ".join(geocells) + " |")
    return "\n".join(lines)


def _render_section(name: str, suite: Suite) -> str:
    table = ALL_EXPERIMENTS[name](suite)
    parts = [f"## {table.title}", ""]
    claim = CLAIMS[name]
    parts.append(f"*{claim.source}:* {claim.text}")
    parts.append("")
    parts.append(table_to_markdown(table))
    parts.append("")
    return "\n".join(parts)


#: The fabric checkpoint driver name of report runs.
REPORT_DRIVER = "report"


def report_fingerprint(suite: Suite,
                       experiments: Optional[Sequence[str]] = None) -> dict:
    """Checkpoint identity of a report run: everything that changes its
    rendered content."""
    return {
        "benchmarks": list(suite.benchmarks),
        "scale": suite.scale,
        "experiments": list(experiments or ALL_EXPERIMENTS),
    }


def build_report(suite: Optional[Suite] = None,
                 experiments: Optional[Sequence[str]] = None,
                 title="DISE reproduction — measured results",
                 checkpoint: Optional[str] = None,
                 resume: bool = False,
                 on_resume: Optional[Callable[[int], None]] = None) -> str:
    """Run experiments and render one markdown report.

    With a ``checkpoint`` path, every freshly rendered section is saved
    there (:func:`~repro.fabric.checkpoint.write_checkpoint`, driver
    :data:`REPORT_DRIVER`) as soon as it completes, so an interrupted run
    can continue where it died.  With ``resume``, the sections the
    checkpoint holds are served instead of recomputed, and
    ``on_resume(count)`` is called when there is at least one; a
    checkpoint written for other benchmarks, scale or experiments raises
    :class:`~repro.errors.CheckpointError`, and an unreadable or edited
    one is quarantined and its sections recomputed.  The file stays
    behind; the caller removes it once the report is safely written.
    """
    suite = suite or Suite()
    names = list(experiments or ALL_EXPERIMENTS)
    fingerprint = report_fingerprint(suite, names)
    completed: Dict[str, str] = {}
    if checkpoint is not None and resume:
        completed = load_checkpoint(checkpoint, REPORT_DRIVER, fingerprint)
        if completed and on_resume is not None:
            on_resume(len(completed))
    parts = [f"# {title}", "", "```", render_config_table(), "```", ""]
    for name in names:
        section = completed.get(name)
        if section is None:
            with _events.span("experiment", experiment=name):
                section = _render_section(name, suite)
            if checkpoint is not None:
                completed[name] = section
                write_checkpoint(checkpoint, REPORT_DRIVER, fingerprint,
                                 completed)
        parts.append(section)
    if _telemetry.enabled():
        parts.append(render_telemetry_section())
    return "\n".join(parts)


def render_telemetry_section() -> str:
    """The embedded ``telemetry`` section of a harness report."""
    snapshot = _telemetry.snapshot()
    return "\n".join([
        "## Telemetry", "",
        "```json",
        json.dumps(snapshot, indent=2, sort_keys=True),
        "```", "",
    ])
