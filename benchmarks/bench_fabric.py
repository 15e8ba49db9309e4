"""Micro-benchmark for the execution fabric (repro.fabric).

Answers the two questions the fabric PR has to stay honest about:

* **overhead** — scheduling the warm figure sweep through the fabric
  (content-addressed task keys, duplicate coalescing, checkpoint ticks)
  versus calling the parallel harness's per-task work function in a bare
  loop.  Both sides run the *identical* warm-cache work; the delta is
  pure fabric machinery.  Soft budget: <= 5%.
* **dedupe** — the cross-campaign artifact store: a faults + verify
  back-to-back pair rerun against a warm store must serve every cell
  from the store (hit rate 1.0) and produce byte-identical reports.

Writes ``benchmarks/BENCH_fabric.json``.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_fabric.py [--scale 0.05]

or via pytest (``pytest benchmarks/bench_fabric.py``).  The 5% overhead
budget is timing-noise-sensitive, so it is asserted only under
``REPRO_BENCH_STRICT=1``; correctness (identical results, full warm hit
rate) is asserted always.
"""

import argparse
import json
import multiprocessing
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro.fabric import ArtifactStore, Fabric, Task, register_recipe
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.harness.parallel import MAX_STEPS, TraceTask, _run_task
from repro.sim.config import MachineConfig
from repro.telemetry.registry import enabled_scope, get_registry, snapshot
from repro.verify.campaign import VerifyConfig, run_verification

_BENCH_DIR = Path(__file__).parent

#: The figure-sweep shape used for the overhead measurement: every
#: benchmark x {plain, mfi, rewrite}, one default timing replay each.
_BENCHES = ("bzip2", "gzip", "mcf", "parser")
_KINDS = (("plain", None), ("mfi", "dise3"), ("rewrite", None))

_FAULTS = CampaignConfig(seed=7, faults=8, benchmarks=("gzip",), scale=0.03)
_VERIFY = VerifyConfig(benchmarks=("gzip",), scale=0.02,
                       oracles=("roundtrip", "acf_transparency"))


# ----------------------------------------------------------------------
# The overhead recipe: one warm figure-sweep cell
# ----------------------------------------------------------------------
def _sweep_cell(params):
    task = TraceTask(bench=params["bench"], scale=params["scale"],
                     kind=params["kind"], variant=params["variant"])
    digest, *_ = _run_task(task, [MachineConfig()], params["cache_root"],
                           MAX_STEPS)
    return digest


register_recipe(f"{__name__}:sweep_cell", _sweep_cell)


def _sweep_params(scale, cache_root):
    return [
        {"bench": bench, "kind": kind, "variant": variant,
         "scale": scale, "cache_root": cache_root}
        for bench in _BENCHES for kind, variant in _KINDS
    ]


def run_overhead_benchmark(scale=0.05, repeats=3):
    """Time the warm sweep: bare ``_run_task`` loop vs ``Fabric.run``."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-fabric-") as root:
        cells = _sweep_params(scale, root)
        tasks = [Task(recipe=f"{__name__}:sweep_cell", params=params)
                 for params in cells]

        def direct():
            return [_sweep_cell(params) for params in cells]

        def fabric():
            engine = Fabric("bench", {"bench": "fabric"}, store=None,
                            jobs=1, backoff=0.0)
            results = engine.run(tasks)
            return [results[task.task_id] for task in tasks]

        baseline = direct()     # warm the trace cache; untimed
        direct_seconds = []
        fabric_seconds = []
        fabric_digests = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            direct()
            direct_seconds.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            fabric_digests = fabric()
            fabric_seconds.append(time.perf_counter() - t0)

    direct_best = min(direct_seconds)
    fabric_best = min(fabric_seconds)
    return {
        "cells": len(cells),
        "scale": scale,
        "repeats": repeats,
        "direct_seconds": round(direct_best, 4),
        "fabric_seconds": round(fabric_best, 4),
        "overhead_ratio": round(fabric_best / direct_best - 1.0, 4),
    }, baseline == fabric_digests


# ----------------------------------------------------------------------
# Cross-campaign dedupe against a shared artifact store
# ----------------------------------------------------------------------
def _dedupe_counters():
    snap = snapshot()
    return {
        "hits": snap.get("fabric.dedupe.hits", {}).get("value", 0),
        "misses": snap.get("fabric.dedupe.misses", {}).get("value", 0),
    }


def _pair(store):
    options = {"store": store}
    return (run_campaign(_FAULTS, fabric_options=options),
            run_verification(_VERIFY, fabric_options=options))


def run_dedupe_benchmark():
    """Faults + verify back-to-back, cold then warm, one shared store."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as root:
        store = ArtifactStore(root)
        with enabled_scope(True):
            get_registry().reset()
            cold_reports = _pair(store)
            cold = _dedupe_counters()
            get_registry().reset()
            warm_reports = _pair(store)
            warm = _dedupe_counters()
        stats = store.stats()
    total_warm = warm["hits"] + warm["misses"]
    reports_identical = all(
        json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        for a, b in zip(cold_reports, warm_reports)
    )
    return {
        "campaigns": {"faults": _FAULTS.faults,
                      "verify_cells": len(_VERIFY.cells())},
        "cold": cold,
        "warm": warm,
        "warm_hit_rate": round(warm["hits"] / total_warm, 4)
        if total_warm else 0.0,
        "store_entries": stats["artifacts"]["entries"],
        "store_bytes": stats["artifacts"]["bytes"],
        "reports_identical": reports_identical,
    }


# ----------------------------------------------------------------------
# Payload plumbing
# ----------------------------------------------------------------------
def _merge_payload(section, data):
    """Fold one section into BENCH_fabric.json without clobbering the
    other (the pytest entries run independently)."""
    out = _BENCH_DIR / "BENCH_fabric.json"
    payload = {}
    if out.exists():
        try:
            payload = json.loads(out.read_text())
        except (OSError, ValueError):
            payload = {}
    payload["meta"] = {
        **payload.get("meta", {}),
        "cpu_count": multiprocessing.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    payload[section] = data
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_fabric_overhead_on_warm_sweep():
    overhead, identical = run_overhead_benchmark(
        scale=float(os.environ.get("REPRO_SCALE", "0.05"))
    )
    _merge_payload("overhead", overhead)
    assert identical, "fabric sweep produced different digests"
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert overhead["overhead_ratio"] <= 0.05, overhead


def test_cross_campaign_dedupe_hit_rate():
    dedupe = run_dedupe_benchmark()
    _merge_payload("dedupe", dedupe)
    assert dedupe["reports_identical"], \
        "store-served rerun changed a report"
    assert dedupe["cold"]["hits"] == 0
    assert dedupe["warm_hit_rate"] == 1.0, dedupe


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    overhead, identical = run_overhead_benchmark(scale=args.scale,
                                                 repeats=args.repeats)
    _merge_payload("overhead", overhead)
    dedupe = run_dedupe_benchmark()
    out = _merge_payload("dedupe", dedupe)
    print(json.dumps({"overhead": overhead, "dedupe": dedupe}, indent=2))
    print(f"wrote {out}")
    ok = (identical and dedupe["reports_identical"]
          and dedupe["warm_hit_rate"] == 1.0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
