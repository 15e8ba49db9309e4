#!/usr/bin/env python
"""Regenerate any of the paper's evaluation figures as a table.

Usage:
    python examples/reproduce_figures.py                 # list experiments
    python examples/reproduce_figures.py fig6_top        # one figure
    python examples/reproduce_figures.py all             # everything
    python examples/reproduce_figures.py fig7_ratio bzip2,mcf,gcc 0.5

The optional second argument selects benchmarks (comma-separated); the
third scales the workloads' dynamic length.  Full runs over all twelve
benchmarks take several minutes; `repro-cli experiment all --check` runs
the same experiments and checks the paper's claims on each table.
"""

import sys

from repro.harness import ALL_EXPERIMENTS, Suite, render_config_table


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        print("available experiments:")
        for name in ALL_EXPERIMENTS:
            print(f"  {name}")
        return

    which = sys.argv[1]
    benchmarks = None
    if len(sys.argv) > 2:
        benchmarks = tuple(sys.argv[2].split(","))
    scale = float(sys.argv[3]) if len(sys.argv) > 3 else 1.0

    names = list(ALL_EXPERIMENTS) if which == "all" else [which]
    suite = Suite(benchmarks=benchmarks, scale=scale)

    print(render_config_table())
    for name in names:
        print()
        print(ALL_EXPERIMENTS[name](suite).render())


if __name__ == "__main__":
    main()
