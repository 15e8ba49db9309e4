"""Per-figure experiment definitions (the reproduction of Section 4).

Each ``fig*`` function regenerates the data behind one of the paper's
figures as a :class:`~repro.harness.tables.ResultTable` whose rows are the
SPECint benchmarks and whose columns are the figure's bars/series; each
``ablation_*`` function does the same for one of this model's own design
choices.  :mod:`repro.harness.claims` holds the checks over each table.

Conventions (matching Section 4):

* Execution times are normalized to the unmodified program on the baseline
  machine (4-wide, 32 KB I/D caches, 1 MB L2).
* After Section 4.1's design discussion, DISE runs use the elongated-pipe
  placement; the ``free``/``stall`` options appear only in Figure 6 (top)
  and the placement ablation.
* The dedicated decompressor baseline is modelled as a DISE engine with
  free placement and a perfect RT (its dictionary is dedicated on-chip
  SRAM), which is exactly how the two mechanisms correspond physically.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.acf.compression import DISE_OPTIONS, FIGURE7_VARIANTS
from repro.core.config import DiseConfig
from repro.harness.runner import Suite
from repro.harness.tables import ResultTable
from repro.sim.config import KB, MachineConfig

#: I-cache sweep points; ``None`` is the paper's "perfect" cache.
CACHE_SIZES = (8 * KB, 32 * KB, 128 * KB, None)
CACHE_LABELS = ("8K", "32K", "128K", "perf")

WIDTHS = (2, 4, 8)

#: RT geometries of the Figure 7 (bottom) sweep: the paper's actual points.
#: Our plain decompression dictionaries occupy 40-470 RT entries, so — as in
#: the paper — 512 entries hurt the large benchmarks while 2K (nearly)
#: matches a perfect RT.
RT_CONFIGS = (
    (512, 1, "512-DM"),
    (512, 2, "512-2way"),
    (2048, 1, "2K-DM"),
    (2048, 2, "2K-2way"),
)

#: Figure 8 (bottom) uses capacity-scaled points (4x down): composition
#: inflates our RT working sets to 90-1200 entries, about 4x less than the
#: paper's composed working sets, so scaling the RT by the same factor
#: preserves the occupancy ratios the figure is about.  See EXPERIMENTS.md.
RT_SCALE_COMPOSED = 4
RT_CONFIGS_COMPOSED = tuple(
    (entries // RT_SCALE_COMPOSED, assoc, label)
    for entries, assoc, label in RT_CONFIGS
)


def _machine(il1_size=32 * KB, width=4, placement="pipe",
             rt_entries=2048, rt_assoc=2, rt_perfect=True,
             simple_miss=30, compose_miss=150, rt_block=1,
             predict_replacement=True) -> MachineConfig:
    dise = DiseConfig(
        placement=placement, rt_entries=rt_entries, rt_assoc=rt_assoc,
        rt_perfect=rt_perfect, simple_miss_cycles=simple_miss,
        compose_miss_cycles=compose_miss, rt_block_size=rt_block,
    )
    return MachineConfig(
        width=width, dise=dise,
        predict_replacement_branches=predict_replacement,
    ).with_il1_size(il1_size)


def _baseline_cycles(suite: Suite, bench: str, il1_size=32 * KB,
                     width=4) -> int:
    trace = suite.trace_plain(bench)
    return suite.cycles(trace, _machine(il1_size=il1_size, width=width,
                                        placement="free")).cycles


# ----------------------------------------------------------------------
# Prefetch plans: the exact (trace task, machine configs) a figure needs,
# so Suite.prefetch can run the functional simulations — and the timing
# replays — across worker processes before the serial aggregation loop.
# ----------------------------------------------------------------------
def _plan_fig6_top(suite: Suite):
    for bench in suite.benchmarks:
        yield suite.task("plain", bench), [_machine(placement="free")]
        yield suite.task("rewrite", bench), [_machine(placement="free")]
        yield (suite.task("mfi", bench, variant="dise4"),
               [_machine(placement="free"), _machine(placement="stall"),
                _machine(placement="pipe")])
        yield (suite.task("mfi", bench, variant="dise3"),
               [_machine(placement="free")])


def _plan_fig6_cache(suite: Suite):
    sweep_free = [_machine(il1_size=size, placement="free")
                  for size in CACHE_SIZES]
    sweep_pipe = [_machine(il1_size=size) for size in CACHE_SIZES]
    for bench in suite.benchmarks:
        yield suite.task("plain", bench), sweep_free
        yield suite.task("rewrite", bench), sweep_free
        yield suite.task("mfi", bench, variant="dise3"), sweep_pipe


def _plan_fig6_width(suite: Suite):
    sweep_free = [_machine(width=width, placement="free")
                  for width in WIDTHS]
    sweep_pipe = [_machine(width=width) for width in WIDTHS]
    for bench in suite.benchmarks:
        yield suite.task("plain", bench), sweep_free
        yield suite.task("rewrite", bench), sweep_free
        yield suite.task("mfi", bench, variant="dise3"), sweep_pipe


def _plan_fig7_perf(suite: Suite):
    sweep_free = [_machine(il1_size=size, placement="free")
                  for size in CACHE_SIZES]
    sweep_pipe = [_machine(il1_size=size) for size in CACHE_SIZES]
    for bench in suite.benchmarks:
        yield (suite.task("plain", bench),
               sweep_free + [_machine(placement="free")])
        yield (suite.task("compressed", bench, label="DISE",
                          options=DISE_OPTIONS), sweep_pipe)


def _plan_fig7_rt(suite: Suite):
    rt_sweep = [_machine()] + [
        _machine(rt_entries=entries, rt_assoc=assoc, rt_perfect=False)
        for entries, assoc, _ in RT_CONFIGS
    ]
    for bench in suite.benchmarks:
        yield suite.task("plain", bench), [_machine(placement="free")]
        yield (suite.task("compressed", bench, label="DISE",
                          options=DISE_OPTIONS), rt_sweep)


def _plan_fig8_perf(suite: Suite):
    schemes = ("rewrite+dedicated", "rewrite+dise", "dise+dise")
    for bench in suite.benchmarks:
        yield suite.task("plain", bench), [_machine(placement="free")]
        for scheme in schemes:
            configs = [_composition_machine(scheme, il1_size=size)
                       for size in CACHE_SIZES]
            yield suite.task("composed", bench, scheme=scheme), configs


def _plan_fig8_rt(suite: Suite):
    configs = [
        _machine(rt_entries=entries, rt_assoc=assoc, rt_perfect=False,
                 compose_miss=latency)
        for entries, assoc, _ in RT_CONFIGS_COMPOSED
        for latency in (30, 150)
    ]
    for bench in suite.benchmarks:
        yield suite.task("plain", bench), [_machine(placement="free")]
        yield suite.task("composed", bench, scheme="dise+dise"), configs


# ----------------------------------------------------------------------
# Figure 6: memory fault isolation
# ----------------------------------------------------------------------
def fig6_top(suite: Suite) -> ResultTable:
    """MFI: rewriting vs DISE4/DISE3 and the engine placement options."""
    suite.prefetch(_plan_fig6_top(suite))
    table = ResultTable(
        "Figure 6 (top): MFI execution time, normalized to no-MFI",
        ["rewrite", "DISE4", "DISE4+stall", "DISE4+pipe", "DISE3"],
    )
    for bench in suite.benchmarks:
        base = _baseline_cycles(suite, bench)
        rw = suite.cycles(suite.trace_rewrite(bench),
                          _machine(placement="free"))
        table.set(bench, "rewrite", rw.cycles / base)
        tr4 = suite.trace_mfi(bench, "dise4")
        table.set(bench, "DISE4",
                  suite.cycles(tr4, _machine(placement="free")).cycles / base)
        table.set(bench, "DISE4+stall",
                  suite.cycles(tr4, _machine(placement="stall")).cycles / base)
        table.set(bench, "DISE4+pipe",
                  suite.cycles(tr4, _machine(placement="pipe")).cycles / base)
        tr3 = suite.trace_mfi(bench, "dise3")
        table.set(bench, "DISE3",
                  suite.cycles(tr3, _machine(placement="free")).cycles / base)
    return table


def fig6_cache(suite: Suite) -> ResultTable:
    """MFI: DISE3 vs rewriting across I-cache sizes."""
    suite.prefetch(_plan_fig6_cache(suite))
    columns = []
    for label in CACHE_LABELS:
        columns += [f"rewrite@{label}", f"DISE3@{label}"]
    table = ResultTable(
        "Figure 6 (middle): MFI vs I-cache size, normalized per size",
        columns,
    )
    for bench in suite.benchmarks:
        rw_trace = suite.trace_rewrite(bench)
        d3_trace = suite.trace_mfi(bench, "dise3")
        for size, label in zip(CACHE_SIZES, CACHE_LABELS):
            base = _baseline_cycles(suite, bench, il1_size=size)
            rw = suite.cycles(rw_trace, _machine(il1_size=size,
                                                 placement="free"))
            d3 = suite.cycles(d3_trace, _machine(il1_size=size))
            table.set(bench, f"rewrite@{label}", rw.cycles / base)
            table.set(bench, f"DISE3@{label}", d3.cycles / base)
    return table


def fig6_width(suite: Suite) -> ResultTable:
    """MFI: DISE3 vs rewriting across processor widths."""
    suite.prefetch(_plan_fig6_width(suite))
    columns = []
    for width in WIDTHS:
        columns += [f"rewrite@{width}w", f"DISE3@{width}w"]
    table = ResultTable(
        "Figure 6 (bottom): MFI vs processor width, normalized per width",
        columns,
    )
    for bench in suite.benchmarks:
        rw_trace = suite.trace_rewrite(bench)
        d3_trace = suite.trace_mfi(bench, "dise3")
        for width in WIDTHS:
            base = _baseline_cycles(suite, bench, width=width)
            rw = suite.cycles(rw_trace, _machine(width=width,
                                                 placement="free"))
            d3 = suite.cycles(d3_trace, _machine(width=width))
            table.set(bench, f"rewrite@{width}w", rw.cycles / base)
            table.set(bench, f"DISE3@{width}w", d3.cycles / base)
    return table


# ----------------------------------------------------------------------
# Figure 7: dynamic code decompression
# ----------------------------------------------------------------------
def fig7_ratio(suite: Suite) -> ResultTable:
    """Compression ratio stacks for the six feature variants."""
    columns = []
    for name, _ in FIGURE7_VARIANTS:
        columns += [name, f"{name}+d"]
    table = ResultTable(
        "Figure 7 (top): static code size / original (and +dictionary)",
        columns,
    )
    for bench in suite.benchmarks:
        for name, options in FIGURE7_VARIANTS:
            result = suite.compression(bench, options, name)
            table.set(bench, name, result.text_ratio)
            table.set(bench, f"{name}+d", result.total_ratio)
    return table


def fig7_perf(suite: Suite) -> ResultTable:
    """DISE decompression execution time vs I-cache size (perfect RT),
    normalized to the uncompressed 32 KB case."""
    suite.prefetch(_plan_fig7_perf(suite))
    columns = []
    for label in CACHE_LABELS:
        columns += [f"plain@{label}", f"DISE@{label}"]
    table = ResultTable(
        "Figure 7 (middle): decompression vs I-cache size "
        "(normalized to uncompressed 32K)",
        columns,
    )
    for bench in suite.benchmarks:
        ref = _baseline_cycles(suite, bench, il1_size=32 * KB)
        plain_trace = suite.trace_plain(bench)
        comp_trace = suite.trace_compressed(bench, DISE_OPTIONS, "DISE")
        for size, label in zip(CACHE_SIZES, CACHE_LABELS):
            plain = suite.cycles(plain_trace, _machine(il1_size=size,
                                                       placement="free"))
            comp = suite.cycles(comp_trace, _machine(il1_size=size))
            table.set(bench, f"plain@{label}", plain.cycles / ref)
            table.set(bench, f"DISE@{label}", comp.cycles / ref)
    return table


def fig7_rt(suite: Suite) -> ResultTable:
    """DISE decompression under realistic RT geometries (30-cycle miss)."""
    suite.prefetch(_plan_fig7_rt(suite))
    columns = ["perfect"] + [label for _, _, label in RT_CONFIGS]
    table = ResultTable(
        "Figure 7 (bottom): decompression vs RT configuration "
        "(normalized to uncompressed 32K)",
        columns,
    )
    for bench in suite.benchmarks:
        ref = _baseline_cycles(suite, bench)
        comp_trace = suite.trace_compressed(bench, DISE_OPTIONS, "DISE")
        table.set(bench, "perfect",
                  suite.cycles(comp_trace, _machine()).cycles / ref)
        for entries, assoc, label in RT_CONFIGS:
            config = _machine(rt_entries=entries, rt_assoc=assoc,
                              rt_perfect=False)
            table.set(bench, label,
                      suite.cycles(comp_trace, config).cycles / ref)
    return table


# ----------------------------------------------------------------------
# Figure 8: composing decompression and fault isolation
# ----------------------------------------------------------------------
def _composition_machine(scheme: str, **kwargs) -> MachineConfig:
    if scheme == "rewrite+dedicated":
        # Dedicated hardware: free decode placement, dedicated dictionary.
        kwargs.setdefault("placement", "free")
    return _machine(**kwargs)


def fig8_perf(suite: Suite) -> ResultTable:
    """The three composition schemes across I-cache sizes (perfect RT)."""
    suite.prefetch(_plan_fig8_perf(suite))
    schemes = ("rewrite+dedicated", "rewrite+dise", "dise+dise")
    columns = []
    for label in CACHE_LABELS:
        columns += [f"{scheme}@{label}" for scheme in schemes]
    table = ResultTable(
        "Figure 8 (top): decompression+MFI, normalized to unmodified 32K",
        columns, fmt="{:.2f}",
    )
    for bench in suite.benchmarks:
        ref = _baseline_cycles(suite, bench)
        for scheme in schemes:
            trace = suite.trace_composition(bench, scheme)
            for size, label in zip(CACHE_SIZES, CACHE_LABELS):
                config = _composition_machine(scheme, il1_size=size)
                table.set(bench, f"{scheme}@{label}",
                          suite.cycles(trace, config).cycles / ref)
    return table


def fig8_rt(suite: Suite) -> ResultTable:
    """DISE+DISE composition vs RT geometry and miss-handler latency."""
    suite.prefetch(_plan_fig8_rt(suite))
    columns = []
    for _, _, label in RT_CONFIGS_COMPOSED:
        columns += [f"{label}@30", f"{label}@150"]
    table = ResultTable(
        "Figure 8 (bottom): composed RT sensitivity, capacity-scaled RT "
        "(normalized to unmodified 32K)",
        columns, fmt="{:.2f}",
    )
    for bench in suite.benchmarks:
        ref = _baseline_cycles(suite, bench)
        trace = suite.trace_composition(bench, "dise+dise")
        for entries, assoc, label in RT_CONFIGS_COMPOSED:
            for latency in (30, 150):
                config = _machine(
                    rt_entries=entries, rt_assoc=assoc, rt_perfect=False,
                    compose_miss=latency,
                )
                table.set(bench, f"{label}@{latency}",
                          suite.cycles(trace, config).cycles / ref)
    return table


# ----------------------------------------------------------------------
# Ablations of this reproduction's own design choices (DESIGN.md): not
# figures of the paper, but the places where this model makes a choice
# the paper leaves open.  Each replays the DISE-decompressed trace under
# a few machine configurations, normalized to the uncompressed program.
# ----------------------------------------------------------------------
def _decompression_ablation(suite: Suite, title: str,
                            configs: Sequence[Tuple[str, MachineConfig]]
                            ) -> ResultTable:
    plan = [(suite.task("plain", bench), [_machine(placement="free")])
            for bench in suite.benchmarks]
    plan += [(suite.task("compressed", bench, label="DISE",
                         options=DISE_OPTIONS),
              [config for _, config in configs])
             for bench in suite.benchmarks]
    suite.prefetch(plan)
    table = ResultTable(title, [label for label, _ in configs])
    for bench in suite.benchmarks:
        base = _baseline_cycles(suite, bench)
        trace = suite.trace_compressed(bench, DISE_OPTIONS, "DISE")
        for label, config in configs:
            table.set(bench, label, suite.cycles(trace, config).cycles / base)
    return table


def ablation_predict(suite: Suite) -> ResultTable:
    """Replacement-branch prediction: the paper's conservative design
    treats non-trigger replacement branches as predicted not-taken; this
    model optionally lets the predictor learn them via the PC:DISEPC pair,
    which matters for decompressed code (compressed loop back-edges live
    inside replacement sequences)."""
    return _decompression_ablation(
        suite,
        "Ablation: predicting non-trigger replacement branches "
        "(decompressed execution, normalized to uncompressed)",
        [("predicted", _machine()),
         ("not-taken", _machine(predict_replacement=False))],
    )


def ablation_placement(suite: Suite) -> ResultTable:
    """Engine placement on decompression: the counterpart of Figure 6's
    MFI placement study."""
    return _decompression_ablation(
        suite,
        "Ablation: engine placement on decompression "
        "(normalized to uncompressed)",
        [(placement, _machine(placement=placement))
         for placement in ("free", "stall", "pipe")],
    )


def ablation_rt_block(suite: Suite) -> ResultTable:
    """Section 2.2's RT block coalescing: read ports vs fragmentation.

    At a constrained (512-entry, 2-way) RT, larger blocks fragment the
    short decompression sequences and cost effective capacity.  (2-way
    keeps direct-mapped conflict-hash luck from obscuring the capacity
    effect.)"""
    return _decompression_ablation(
        suite,
        "Ablation: RT block coalescing at 512 entries, 2-way "
        "(decompressed execution, normalized to uncompressed)",
        [(f"block={block}", _machine(rt_entries=512, rt_assoc=2,
                                     rt_perfect=False, rt_block=block))
         for block in (1, 2, 4)],
    )


#: Experiment id -> builder, for the CLI, reports and the claim checks
#: (:mod:`repro.harness.claims`).
ALL_EXPERIMENTS = {
    "fig6_top": fig6_top,
    "fig6_cache": fig6_cache,
    "fig6_width": fig6_width,
    "fig7_ratio": fig7_ratio,
    "fig7_perf": fig7_perf,
    "fig7_rt": fig7_rt,
    "fig8_perf": fig8_perf,
    "fig8_rt": fig8_rt,
    "ablation_predict": ablation_predict,
    "ablation_placement": ablation_placement,
    "ablation_rt_block": ablation_rt_block,
}


def run_experiment(name: str, benchmarks: Optional[Sequence[str]] = None,
                   scale: float = 1.0, suite: Optional[Suite] = None
                   ) -> ResultTable:
    """Build one figure's table (convenience for examples/CLI)."""
    if suite is None:
        suite = Suite(benchmarks=benchmarks, scale=scale)
    return ALL_EXPERIMENTS[name](suite)
