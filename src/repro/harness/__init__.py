"""Experiment harness: workload suites, per-figure experiments, tables."""

from repro.harness.claims import CLAIMS
from repro.harness.config import render_config_table
from repro.harness.experiments import (
    ALL_EXPERIMENTS,
    CACHE_LABELS,
    CACHE_SIZES,
    RT_CONFIGS,
    RT_CONFIGS_COMPOSED,
    WIDTHS,
    ablation_placement,
    ablation_predict,
    ablation_rt_block,
    fig6_cache,
    fig6_top,
    fig6_width,
    fig7_perf,
    fig7_ratio,
    fig7_rt,
    fig8_perf,
    fig8_rt,
    run_experiment,
)
from repro.harness.parallel import (
    TaskFailure,
    TaskResults,
    resolve_jobs,
    run_tasks,
)
from repro.harness.report import (
    build_report,
    report_fingerprint,
    table_to_markdown,
)
from repro.harness.runner import Suite, TraceTask
from repro.harness.tables import ResultTable
from repro.harness.trace_cache import (
    LazyTrace,
    TraceCache,
    deserialize_trace,
    open_cache,
    serialize_trace,
    trace_fingerprint,
)

__all__ = [
    "CLAIMS",
    "render_config_table",
    "ALL_EXPERIMENTS",
    "CACHE_LABELS",
    "CACHE_SIZES",
    "RT_CONFIGS",
    "RT_CONFIGS_COMPOSED",
    "WIDTHS",
    "ablation_placement",
    "ablation_predict",
    "ablation_rt_block",
    "fig6_cache",
    "fig6_top",
    "fig6_width",
    "fig7_perf",
    "fig7_ratio",
    "fig7_rt",
    "fig8_perf",
    "fig8_rt",
    "run_experiment",
    "build_report",
    "report_fingerprint",
    "table_to_markdown",
    "Suite",
    "ResultTable",
    "TaskFailure",
    "TaskResults",
    "TraceTask",
    "resolve_jobs",
    "run_tasks",
    "LazyTrace",
    "TraceCache",
    "open_cache",
    "serialize_trace",
    "deserialize_trace",
    "trace_fingerprint",
]
