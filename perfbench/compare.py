"""Compare two benchmark result files and name the layers that moved.

    python3 perfbench/compare.py base.jsonl new.jsonl

Both files are JSON lines appended by ``run.py --out``.  For each
workload this prints the median of every metric on both sides, and for
each end-to-end metric that moved by more than its bound in
BENCHMARK.json it lists the layers whose median self time (from the
traced runs) changed most.  ``cold_s`` and ``warm_s`` are attributed
from the self times of the cold or the warm processes alone, where the
workload runs them apart; everything else from the whole traced pass.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-layer metrics that are not one layer's self time.
NOT_LAYERS = {"traced_wall_s"}

#: How many layers are named for each metric that moved.
TOP_LAYERS = 3

#: The traced processes that time each end-to-end metric, where a
#: workload runs them as processes of their own.
PHASE_OF = {"cold_s": "cold", "warm_s": "warm"}


def load(path):
    """{(workload, trace): {metric: [values]}} from one results file.

    The self times of traced runs split by phase are kept under
    ``<phase>/<layer>_s``.
    """
    runs = defaultdict(lambda: defaultdict(list))
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            group = runs[(record["workload"], record["trace"])]
            for section in ("metrics", "extras"):
                for name, (value, unit) in record[section].items():
                    group[name].append(value)
            for phase, split in record.get("phases", {}).items():
                for layer, value in split["self_s"].items():
                    group[f"{phase}/{layer}_s"].append(value)
    return runs


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def median(values):
    return statistics.median(values) if values else None


def change(old, new):
    if old is None or new is None:
        return None
    return (new - old) / old if old else 0.0


def fmt(value):
    return "-" if value is None else f"{value:.4g}"


def compare(base, new):
    limits = bounds()
    lines = []
    for workload in sorted({w for w, _ in base} | {w for w, _ in new}):
        lines.append(f"== {workload}")
        old_runs, new_runs = base[(workload, 0)], new[(workload, 0)]
        old_layers, new_layers = base[(workload, 1)], new[(workload, 1)]
        lines.append(f"{'metric':32s} {'base':>12s} {'new':>12s} "
                     f"{'change':>9s}")
        for name in sorted(set(old_runs) | set(new_runs)):
            old, cur = median(old_runs.get(name)), median(new_runs.get(name))
            delta = change(old, cur)
            moved = ""
            if name in limits and delta is not None:
                better, bound = limits[name]
                worse = delta > bound if better == "lower" else -delta > bound
                improved = (-delta > bound if better == "lower"
                            else delta > bound)
                moved = " WORSE" if worse else " better" if improved else ""
            shown = "-" if delta is None else f"{delta:+.1%}"
            lines.append(f"{name:32s} {fmt(old):>12s} {fmt(cur):>12s} "
                         f"{shown:>9s}{moved}")
            if moved:
                lines.extend(movers(old_layers, new_layers, name))
    return "\n".join(lines)


def movers(old_layers, new_layers, metric):
    """The layers whose median self time changed most, in the processes
    that time ``metric``."""
    if not old_layers or not new_layers:
        return ["    (no traced runs on both sides to attribute it)"]
    prefix = f"{PHASE_OF[metric]}/" if metric in PHASE_OF else None
    if prefix is None or not all(
            any(name.startswith(prefix) for name in side)
            for side in (old_layers, new_layers)):
        prefix = ""
    deltas = []
    for name in set(old_layers) | set(new_layers):
        if prefix and not name.startswith(prefix):
            continue
        layer = name[len(prefix):]
        if not layer.endswith("_s") or "/" in layer or layer in NOT_LAYERS:
            continue
        old = median(old_layers.get(name)) or 0.0
        cur = median(new_layers.get(name)) or 0.0
        deltas.append((abs(cur - old), layer, old, cur))
    deltas.sort(reverse=True)
    where = f"{prefix[:-1]} processes" if prefix else "whole pass"
    return [f"    layer {layer} ({where}): {old:.4g}s -> {cur:.4g}s "
            f"({cur - old:+.4g}s)"
            for _, layer, old, cur in deltas[:TOP_LAYERS]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    print(compare(load(args.base), load(args.new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
