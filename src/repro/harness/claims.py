"""The paper's claims, and the checks that gate them.

Every experiment of :data:`~repro.harness.experiments.ALL_EXPERIMENTS`
has one :class:`Claim`: the one-line qualitative result of the paper
(or, for the ablations, of DESIGN.md) and the named checks
(:class:`Check`) that hold a measured table to it.  A check compares
two sides of one table, ``left OP tolerance x right``, where a side is
a column's geomean, the ratio of two geomeans, a constant, or the
smallest or largest geomean of the table.  Its result reports both
sides, the verdict and the relative margin: the slack of the
comparison over the larger side, negative when the check fails.

The claims hold for the paper's configuration — all twelve profiles at
scale 1.0, ``repro-cli experiment all --check`` — and several are
geomean trends that a single profile or a short run need not show, so
only that configuration is gated.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.harness.experiments import (
    CACHE_LABELS,
    RT_CONFIGS_COMPOSED,
    WIDTHS,
)
from repro.harness.tables import ResultTable

_OPS = {"<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


class Side(NamedTuple):
    """One side of a check: a label, the columns it reads and its value."""

    label: str
    columns: Tuple[str, ...]
    value: Callable[[ResultTable], Optional[float]]


def geo(column: str) -> Side:
    """The column's geomean."""
    return Side(column, (column,), lambda table: table.geomean(column))


def gap(num: str, den: str) -> Side:
    """The ratio of two columns' geomeans."""

    def value(table):
        a, b = table.geomean(num), table.geomean(den)
        return None if a is None or b is None else a / b

    return Side(f"{num}/{den}", (num, den), value)


def const(value: float) -> Side:
    return Side("", (), lambda table: value)


def _extreme(pick, label):
    def value(table):
        values = [table.geomean(column) for column in table.columns]
        return None if None in values else pick(values)

    return Side(label, (), value)


SMALLEST = _extreme(min, "smallest geomean")
LARGEST = _extreme(max, "largest geomean")


class CheckResult(NamedTuple):
    check: "Check"
    left: float
    right: float
    passed: bool
    margin: float

    def render(self) -> str:
        check = self.check
        scale = "" if check.tolerance == 1.0 else f"{check.tolerance:g} x "
        left = f"{check.left.label} {self.left:.4f}".strip()
        right = f"{check.right.label} {self.right:.4f}".strip()
        return (f"{'PASS' if self.passed else 'FAIL'} {check.id}: "
                f"{left} {check.op} {scale}{right}  "
                f"margin {self.margin:+.1%}")


class Check(NamedTuple):
    """``left OP tolerance x right`` over one experiment's table."""

    id: str
    left: Side
    op: str
    right: Side
    tolerance: float = 1.0

    @property
    def columns(self) -> Tuple[str, ...]:
        return self.left.columns + self.right.columns

    def evaluate(self, table: ResultTable) -> CheckResult:
        left = self.left.value(table)
        right = self.right.value(table)
        if left is None or right is None:
            return CheckResult(self, math.nan, math.nan, False, math.nan)
        bound = right * self.tolerance
        slack = bound - left if self.op in ("<", "<=") else left - bound
        scale = max(abs(left), abs(bound))
        return CheckResult(self, left, right, _OPS[self.op](left, bound),
                           slack / scale if scale else 0.0)


class Claim(NamedTuple):
    text: str
    checks: Tuple[Check, ...]
    #: Whose claim it is: the paper's, or this model's design (DESIGN.md).
    source: str = "Paper"


def _each(template: str, labels: Sequence, build) -> Tuple[Check, ...]:
    """One check per label: ``build(label)`` gives (left, op, right)."""
    return tuple(Check(template.format(label), *build(label))
                 for label in labels)


CLAIMS: Dict[str, Claim] = {
    "fig6_top": Claim(
        "DISE MFI beats binary rewriting; DISE3 beats DISE4; "
        "per-expansion stalls cost more than an extra pipe stage.",
        (
            Check("fig6_top.dise4_beats_rewrite",
                  geo("DISE4"), "<", geo("rewrite")),
            Check("fig6_top.dise3_beats_dise4",
                  geo("DISE3"), "<", geo("DISE4")),
            # MFI expands ~30% of instructions, so per-expansion stalls
            # must cost more than one extra pipe stage.
            Check("fig6_top.pipe_beats_stall",
                  geo("DISE4+pipe"), "<", geo("DISE4+stall")),
            Check("fig6_top.dise3_not_free",
                  geo("DISE3"), ">", const(1.0)),
            Check("fig6_top.dise3_beats_rewrite",
                  geo("DISE3"), "<", geo("rewrite")),
        ),
    ),
    "fig6_cache": Claim(
        "Rewriting's static (I-cache) cost grows as the cache "
        "shrinks; DISE only pays the dynamic cost.",
        (
            # Rewriting's disadvantage relative to DISE3 is at least as
            # large at 8K as with a perfect I-cache.
            Check("fig6_cache.gap_grows_as_cache_shrinks",
                  gap("rewrite@8K", "DISE3@8K"), ">=",
                  gap("rewrite@perf", "DISE3@perf"), 0.98),
        ) + _each("fig6_cache.dise3_beats_rewrite@{}", CACHE_LABELS,
                  lambda label: (geo(f"DISE3@{label}"), "<",
                                 geo(f"rewrite@{label}"))),
    ),
    "fig6_width": Claim(
        "Wider machines absorb DISE's dynamic cost; rewriting "
        "keeps its static cost.",
        (
            # DISE3's relative advantage must not collapse with width.
            # The growth is carried by the large-working-set benchmarks;
            # the small ones dilute it, hence the tolerance.
            Check("fig6_width.gap_holds_with_width",
                  gap("rewrite@8w", "DISE3@8w"), ">=",
                  gap("rewrite@2w", "DISE3@2w"), 0.95),
        ) + _each("fig6_width.dise3_beats_rewrite@{}w", WIDTHS,
                  lambda width: (geo(f"DISE3@{width}w"), "<",
                                 geo(f"rewrite@{width}w"))),
    ),
    "fig7_ratio": Claim(
        "Parameterization and branch compression let DISE "
        "out-compress the dedicated decompressor (65% vs 75%).",
        (
            # Removing the dedicated decompressor's features degrades
            # compression step by step...
            Check("fig7_ratio.no_single_insn_degrades",
                  geo("dedicated"), "<", geo("-1insn")),
            Check("fig7_ratio.no_2byte_codewords_degrades",
                  geo("-1insn"), "<", geo("-2byteCW")),
            Check("fig7_ratio.8byte_entries_degrade",
                  geo("-2byteCW"), "<", geo("+8byteDE")),
            # ...and DISE's features win it back.
            Check("fig7_ratio.parameterization_recovers",
                  geo("+3param"), "<", geo("+8byteDE")),
            Check("fig7_ratio.branch_compression_helps",
                  geo("DISE"), "<", geo("+3param")),
            Check("fig7_ratio.dise_beats_dedicated",
                  geo("DISE"), "<", geo("dedicated")),
            # Everything compresses: every ratio lies in (0, 1].
            Check("fig7_ratio.ratios_positive", SMALLEST, ">", const(0.0)),
            Check("fig7_ratio.ratios_at_most_1", LARGEST, "<=", const(1.0)),
        ),
    ),
    "fig7_perf": Claim(
        "Decompression is ~free at 32KB and compensates for "
        "small instruction caches.",
        (
            Check("fig7_perf.cheap_at_32K",
                  geo("DISE@32K"), "<", const(1.15)),
            # At 8K compression compensates for the smaller cache: it is
            # no further from 1.0 than the uncompressed program.
            Check("fig7_perf.compensates_at_8K",
                  geo("DISE@8K"), "<=", geo("plain@8K"), 1.05),
            Check("fig7_perf.perfect_cache_bounds_8K",
                  geo("DISE@perf"), "<=", geo("DISE@8K")),
        ),
    ),
    "fig7_rt": Claim(
        "A 2K 2-way RT (nearly) matches perfect; 512 entries hurt "
        "large production working sets.",
        (
            Check("fig7_rt.perfect_bounds_2K",
                  geo("perfect"), "<=", geo("2K-2way")),
            # Capacity helps at equal associativity, associativity at
            # equal capacity.
            Check("fig7_rt.capacity_helps",
                  geo("2K-2way"), "<=", geo("512-2way")),
            Check("fig7_rt.associativity_helps",
                  geo("512-2way"), "<=", geo("512-DM"), 1.02),
            Check("fig7_rt.2K_2way_near_perfect",
                  geo("2K-2way"), "<=", geo("perfect"), 1.35),
        ),
    ),
    "fig8_perf": Claim(
        "dise+dise wins; rewriting-based compositions suffer, "
        "especially at small caches.",
        _each("fig8_perf.dise_beats_rewrite+dedicated@{}", CACHE_LABELS,
              lambda label: (geo(f"dise+dise@{label}"), "<",
                             geo(f"rewrite+dedicated@{label}")))
        + _each("fig8_perf.dise_beats_rewrite+dise@{}", CACHE_LABELS,
                lambda label: (geo(f"dise+dise@{label}"), "<",
                               geo(f"rewrite+dise@{label}")))
        + (
            # DISE decompression reverses more of the rewriting bloat than
            # the dedicated compressor, so rewrite+dedicated suffers at
            # least as much cache pressure going perfect -> 8K (the small
            # working sets dilute the gap, hence the tolerance).
            Check("fig8_perf.dedicated_suffers_more_pressure",
                  gap("rewrite+dedicated@8K", "rewrite+dedicated@perf"),
                  ">=", gap("rewrite+dise@8K", "rewrite+dise@perf"), 0.99),
            # At 8K the full ordering holds up to placement noise.
            Check("fig8_perf.rewrite+dise_vs_dedicated@8K",
                  geo("rewrite+dise@8K"), "<=",
                  geo("rewrite+dedicated@8K"), 1.03),
        ),
    ),
    "fig8_rt": Claim(
        "Composition inflates RT working sets; the 150-cycle "
        "composing miss handler costs factors more (5x the norm at "
        "2K 2-way).",
        # The long (composing) miss handler costs at least as much as the
        # short one in every geometry...
        _each("fig8_rt.long_handler_costs@{}",
              [label for _, _, label in RT_CONFIGS_COMPOSED],
              lambda label: (geo(f"{label}@150"), ">=",
                             geo(f"{label}@30")))
        # ...and capacity plus associativity relieve the pressure.
        + _each("fig8_rt.geometry_relieves@{}", (30, 150),
                lambda latency: (geo(f"2K-2way@{latency}"), "<=",
                                 geo(f"512-DM@{latency}"))),
    ),
    "ablation_predict": Claim(
        "Letting the predictor learn replacement branches (PC:DISEPC) "
        "makes decompression nearly free; the conservative not-taken "
        "design pays a refill on every taken compressed back-edge.",
        (
            Check("ablation_predict.not_taken_slower",
                  geo("not-taken"), ">", geo("predicted")),
        ),
        source="Design",
    ),
    "ablation_placement": Claim(
        "Decompression orders the engine placements as Figure 6 does "
        "for MFI: free is cheapest.",
        (
            Check("ablation_placement.free_beats_pipe",
                  geo("free"), "<=", geo("pipe")),
            Check("ablation_placement.free_beats_stall",
                  geo("free"), "<=", geo("stall")),
        ),
        source="Design",
    ),
    "ablation_rt_block": Claim(
        "Coalescing RT blocks trades read ports for internal "
        "fragmentation, which costs capacity at a fixed RT size.",
        (
            Check("ablation_rt_block.fragmentation_costs",
                  geo("block=1"), "<=", geo("block=4"), 1.02),
        ),
        source="Design",
    ),
}


def check_table(name: str, table: ResultTable) -> List[CheckResult]:
    """Evaluate every check of experiment ``name`` on its table."""
    return [check.evaluate(table) for check in CLAIMS[name].checks]


def render_summary(results: Sequence[CheckResult], tightest=3) -> str:
    """The closing lines of a checked run: the count, any failures and
    the smallest margins."""
    failed = [result.check.id for result in results if not result.passed]
    lines = [f"checks: {len(results) - len(failed)}/{len(results)} passed"]
    if failed:
        lines.append("failed: " + ", ".join(failed))
    ranked = sorted(results, key=lambda result: (
        not math.isnan(result.margin), result.margin))
    lines.append("smallest margins:")
    lines += [f"  {result.render()}" for result in ranked[:tightest]]
    return "\n".join(lines)
