"""The reproduction's benchmark: Figures 6-8, the fault campaign, serving.

    python3 perfbench/run.py --workload fig6 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --out results.jsonl

Run from the repository root.  One run measures one workload for
``--seconds`` (at least one full pass), checks every output, prints each
metric with its unit, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of BENCHMARK.json with
``--trace 1``.  A traced run alternates untraced and traced passes so
that it can report the tracing overhead.  ``--out`` appends the run, with
its environment and extra figures, to a JSON-lines file that
``perfbench/compare.py`` reads.  ``--workload all`` runs every workload
untraced and then traced.

Every phase runs in a fresh interpreter with ``REPRO_*`` variables
cleared, a pinned ``PYTHONHASHSEED``, and its own cache and store
directories under ``.perfbench-work/``, which the run removes when it ends
(the span files of traced runs stay in ``.perfbench-work/spans/``).
Times are scaled to a reference host speed by two calibrations timed
around every process, one for computing and one for importing; the raw
medians are reported beside them.  perfbench/README.md explains the
workloads, metrics and checks.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from plan import PYTHONHASHSEED, WORKLOADS  # noqa: E402
from tracer import layer_metrics  # noqa: E402

#: A run still going this long after ``--seconds`` have passed is stopped
#: and fails.  The longest pass, a traced fig6 pass, takes under a minute.
OVERRUN_LIMIT_S = 150.0

#: The calibration loop's length, and its time at the reference host
#: speed the reported seconds are scaled to.
CALIBRATION_ITERATIONS = 1_000_000
CALIBRATION_REF_S = 0.25

#: A fresh interpreter importing modules the program does not own, timed
#: from its first statement like a phase process's set-up; and its time at
#: the reference host speed.
IMPORT_CALIBRATION = """\
import time
start = time.perf_counter()
import argparse, asyncio, csv, dataclasses, decimal, email.message
import hashlib, http.client, json, logging, sqlite3, unittest
import xml.etree.ElementTree
try:
    import numpy
except ImportError:
    pass
print(time.perf_counter() - start)
"""
IMPORT_CALIBRATION_REF_S = 0.25

END_TO_END_UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s",
                    "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """A benchmark process failed; the run prints no result."""


def calibrate():
    """Seconds a fixed pure-Python loop takes now.

    The host's speed drifts by half between states lasting tens of
    seconds, and a drift moves this loop with everything else; the loop
    shares no code with the program, so a change to the program never
    moves it.  Imports drift apart from it, so set-up has a calibration
    of its own (``Runner.calibrate``).
    """
    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        table[i & 4095] = i
        total += (table.get((i * 7) & 4095, 0) ^ i) & 7
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
class Runner:
    """Starts the phase processes of one run and waits for each."""

    def __init__(self, root, workload, seed, work, deadline):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.calibrations = None
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        self.env.update(PYTHONHASHSEED=PYTHONHASHSEED,
                        PYTHONPATH=os.path.join(root, "src"),
                        XDG_CACHE_HOME=os.path.join(work, "xdg"))

    def remaining(self):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before a process started")
        return remaining

    def calibrate(self):
        """Seconds the calibration loop takes now, and seconds a fresh
        interpreter takes now to run the imports of IMPORT_CALIBRATION."""
        loop_s = calibrate()
        try:
            out = subprocess.run(
                [sys.executable, "-c", IMPORT_CALIBRATION], cwd=self.root,
                env=self.env, stdin=subprocess.DEVNULL, capture_output=True,
                text=True, timeout=self.remaining(),
            )
        except subprocess.TimeoutExpired:
            raise BenchError("time limit reached in the import calibration")
        if out.returncode != 0:
            raise BenchError(f"import calibration failed:\n{out.stderr}")
        return loop_s, float(out.stdout)

    def phase(self, phase, trace=False, directory=None, timed=True,
              **fields):
        """Run one phase process; its result dict plus ``peak_rss_mb`` and,
        if ``timed``, ``host_factor`` and ``import_factor``: the reference
        host speed over the speed that the calibrations just before and
        just after the process measured, for computing and for
        importing."""
        if timed:
            before = self.calibrations or self.calibrate()
        self.count += 1
        result_path = os.path.join(self.work, f"result-{self.count}.json")
        log_path = os.path.join(self.work, f"log-{self.count}.txt")
        job = dict(fields, workload=self.workload, seed=self.seed,
                   phase=phase, trace=trace, dir=directory)
        remaining = self.remaining()
        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py"),
                 json.dumps(job), result_path],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
            )
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                # wait4, not Popen.wait: it also returns the child's rusage.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not os.path.exists(result_path):
            with open(log_path) as log:
                tail = log.read()[-3000:]
            raise BenchError(f"{self.workload} {phase} process exited with "
                             f"{proc.returncode}:\n{tail}")
        with open(result_path) as handle:
            result = json.load(handle)
        result["phase"] = phase
        result["peak_rss_mb"] = usage.ru_maxrss / 1024
        if timed:
            after = self.calibrations = self.calibrate()
            result["host_factor"] = CALIBRATION_REF_S / (
                (before[0] + after[0]) / 2)
            result["import_factor"] = IMPORT_CALIBRATION_REF_S / (
                (before[1] + after[1]) / 2)
        return result


def run_pass(runner, plan, index, trace):
    """One pass: a cold process and ``warm_repeats`` warm processes
    sharing one cache or store directory (serve: one process holding
    both rounds).  Returns the processes' results, each with its phase."""
    directory = os.path.join(runner.work, f"pass-{index}")
    os.makedirs(directory)
    try:
        if plan["kind"] == "serve":
            return [runner.phase("pass", trace, directory)]
        phases = ["cold"] + ["warm"] * plan["warm_repeats"]
        procs = []
        for number, phase in enumerate(phases):
            extra = {}
            if plan["kind"] == "faults":
                extra["checkpoint"] = os.path.join(directory,
                                                   f"{number}.ckpt.json")
            procs.append(runner.phase(phase, trace,
                                      os.path.join(directory, "state"),
                                      **extra))
        return procs
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def samples(passes, phase, scaled=True):
    """Timed seconds of every ``phase`` (cold/warm) in ``passes``, scaled
    to the reference host speed unless ``scaled`` is false."""
    out = []
    for entry in passes:
        for proc in entry["procs"]:
            factor = proc["host_factor"] if scaled else 1.0
            if proc["phase"] == "pass":
                out.append(factor * (proc["work_s"] if phase == "cold"
                                     else proc["warm_s"]))
            elif proc["phase"] == phase:
                out.append(factor * proc["work_s"])
    return out


def setup_time(proc, scaled=True):
    """A process's set-up seconds: its imports scaled by the import
    calibration, the rest by the loop; raw unless ``scaled``."""
    if not scaled:
        return proc["import_s"] + proc["prepare_s"]
    return (proc["import_s"] * proc["import_factor"]
            + proc["prepare_s"] * proc["host_factor"])


def scaled_summary(proc):
    """A traced process's summary with its times scaled like the
    end-to-end metrics."""
    factor = proc["host_factor"]
    summary = dict(proc["trace"])
    summary["window_s"] *= factor
    summary["self_s"] = {layer: value * factor
                         for layer, value in summary["self_s"].items()}
    return summary


def serve_rounds(passes):
    return [served for entry in passes for proc in entry["procs"]
            for served in proc.get("rounds", ())]


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def load_golden(workload, seed):
    with open(os.path.join(HERE, "golden.json")) as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def check_figures(name, all_passes):
    """Every table of every phase must equal the golden digest for this
    seed (or, for seeds without one, the first cold render); a mismatched
    table fails all of its cells."""
    golden = load_golden(name, all_passes[0]["seed"])
    expected = golden or all_passes[0]["procs"][0]["digests"]
    attempted = failed = 0
    for entry in all_passes:
        for proc in entry["procs"]:
            for table, cells in proc["cells"].items():
                attempted += cells
                if proc["digests"][table] != expected.get(table):
                    failed += cells
    return attempted, failed


def check_faults(name, all_passes):
    """Every campaign report must match the golden digest (or the first
    cold report), contain every guarded fault and fire on no control."""
    golden = load_golden(name, all_passes[0]["seed"])
    expected = golden or all_passes[0]["procs"][0]["digest"]
    attempted = failed = 0
    for entry in all_passes:
        for proc in entry["procs"]:
            attempted += proc["faults"]
            if proc["digest"] != expected:
                failed += proc["faults"]
                continue
            guarded = proc["guarded"]
            failed += guarded["total"] - guarded["contained"]
            failed += proc["false_positives"]
    return attempted, failed


def check_serve(runner, all_passes):
    """Every request must succeed and every served digest must equal
    ``batch_digest`` of its spec, computed after timing."""
    specs = all_passes[0]["procs"][0]["specs"]
    distinct = sorted({json.dumps(spec, sort_keys=True) for spec in specs})
    verified = runner.phase("verify", timed=False,
                            specs=[json.loads(s) for s in distinct])
    oracle = dict(zip(distinct, verified["digests"]))
    attempted = failed = 0
    for served in serve_rounds(all_passes):
        attempted += served["requests"]
        failed += served["errors"]
        for index, digest in served["digests"]:
            key = json.dumps(specs[index], sort_keys=True)
            failed += digest != oracle[key]
    return attempted, failed


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def environment(root):
    def commit():
        head_path = os.path.join(root, ".git", "HEAD")
        try:
            with open(head_path) as handle:
                head = handle.read().strip()
            if head.startswith("ref: "):
                with open(os.path.join(root, ".git", head[5:])) as handle:
                    return handle.read().strip()
            return head
        except OSError:
            return "unknown"

    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"commit": commit(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy,
            "platform": platform.platform(),
            "pythonhashseed": PYTHONHASHSEED}


def percentile(values, fraction):
    """Nearest-rank percentile of a non-empty list.

    The same rule as ``repro.serve.loadgen.percentile``, kept here so that
    a change to the program cannot change how the benchmark summarizes it.
    """
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def run_workload(root, name, seed, seconds, trace):
    """Measure one workload; returns the run's record and, traced, its
    spans."""
    plan = WORKLOADS[name]
    started = time.monotonic()
    work_root = os.path.join(root, ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    runner = Runner(root, name, seed, work,
                    started + seconds + OVERRUN_LIMIT_S)
    try:
        all_passes = []
        while True:
            for traced in ((False, True) if trace else (False,)):
                procs = run_pass(runner, plan, len(all_passes), traced)
                all_passes.append({"seed": seed, "traced": traced,
                                   "procs": procs})
            untraced = [p for p in all_passes if not p["traced"]]
            steps = sum(len(r["latencies_ms"])
                        for r in serve_rounds(untraced))
            if time.monotonic() >= started + seconds and (trace or (
                    len(untraced) >= plan.get("min_passes", 1)
                    and steps >= plan.get("min_step_requests", 0))):
                break
        if plan["kind"] == "figures":
            attempted, failed = check_figures(name, all_passes)
        elif plan["kind"] == "faults":
            attempted, failed = check_faults(name, all_passes)
        else:
            attempted, failed = check_serve(runner, all_passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    procs = [proc for p in all_passes for proc in p["procs"]]
    setup_procs = [proc for p in untraced for proc in p["procs"]]
    cold = statistics.median(samples(untraced, "cold"))
    extras = {
        "error_rate": (failed / attempted, "ratio"),
        "elapsed_s": (time.monotonic() - started, "s"),
        "host_factor": (statistics.median(proc["host_factor"]
                                          for proc in procs), "ratio"),
        "import_factor": (statistics.median(proc["import_factor"]
                                            for proc in procs), "ratio"),
        "raw_cold_s": (statistics.median(
            samples(untraced, "cold", scaled=False)), "s"),
        "raw_warm_s": (statistics.median(
            samples(untraced, "warm", scaled=False)), "s"),
    }
    if plan["kind"] == "faults":
        extras["faults_per_s"] = (plan["faults"] / cold, "1/s")
    if plan["kind"] == "serve":
        rounds = serve_rounds(untraced)
        latencies = [lat * proc["host_factor"] for p in untraced
                     for proc in p["procs"] for r in proc["rounds"]
                     for lat in r["latencies_ms"]]
        p99 = percentile(latencies, 0.99)
        extras.update({
            "sessions_per_s": (
                sum(len(r["digests"]) for r in rounds)
                / sum(samples(untraced, "cold") + samples(untraced, "warm")),
                "1/s"),
            "step_p50_ms": (percentile(latencies, 0.5), "ms"),
            "step_p99_ms": (p99, "ms"),
            "step_requests": (len(latencies), "count"),
            "steps_beyond_p99": (sum(lat > p99 for lat in latencies),
                                 "count"),
        })
    first = all_passes[0]["procs"][0]
    record = {
        "workload": name, "seed": seed, "trace": int(trace),
        "seconds": seconds, "passes": len(untraced),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "extras": extras, "environment": environment(root),
        "digests": first.get("digests", first.get("digest")),
        "samples": {"cold": samples(untraced, "cold", scaled=False),
                    "warm": samples(untraced, "warm", scaled=False),
                    "setup": [setup_time(proc, scaled=False)
                              for proc in setup_procs],
                    "host_factor": [proc["host_factor"] for proc in procs],
                    "import_factor": [proc["import_factor"]
                                      for proc in procs]},
    }
    windows = [sum(proc["window_s"] * proc["host_factor"]
                   for proc in p["procs"]) for p in untraced]
    if not trace:
        extras["raw_setup_s"] = (statistics.median(
            setup_time(proc, scaled=False) for proc in setup_procs), "s")
        values = {
            "setup_s": statistics.median(setup_time(proc)
                                         for proc in setup_procs),
            "cold_s": cold,
            "warm_s": statistics.median(samples(untraced, "warm")),
            "peak_rss_mb": statistics.median(
                max(proc["peak_rss_mb"] for proc in p["procs"])
                for p in untraced),
        }
        record["metrics"] = {key: (value, END_TO_END_UNITS[key])
                             for key, value in values.items()}
        return record, None

    traced = [p for p in all_passes if p["traced"]]
    per_pass = []
    for entry in traced:
        pool = {}
        for proc in entry["procs"]:
            for key, value in proc.get("pool", {}).items():
                pool[key] = pool.get(key, 0) + value
        per_pass.append(layer_metrics(
            [scaled_summary(proc) for proc in entry["procs"]], pool,
            statistics.median(windows)))
    record["metrics"] = {
        key: (statistics.mean(m[key][0] for m in per_pass), unit)
        for key, (_, unit) in per_pass[0].items()
    }
    # The same self times split by phase, averaged per process.
    record["phases"] = {}
    for phase in dict.fromkeys(proc["phase"] for proc in traced[0]["procs"]):
        summaries = [scaled_summary(proc) for entry in traced
                     for proc in entry["procs"] if proc["phase"] == phase]
        layers = set().union(*(summary["self_s"] for summary in summaries))
        record["phases"][phase] = {
            "window_s": statistics.mean(s["window_s"] for s in summaries),
            "self_s": {layer: statistics.mean(
                s["self_s"].get(layer, 0.0) for s in summaries)
                for layer in sorted(layers)},
        }
    spans = [{"pass": number, "phase": proc["phase"], "spans": proc["spans"]}
             for number, entry in enumerate(traced)
             for proc in entry["procs"]]
    return record, spans


def print_record(record, out):
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} passes={record['passes']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    env = record["environment"]
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for section in ("metrics", "extras"):
        for key, (value, unit) in record[section].items():
            print(f"{key:40s} {value:14.6f} {unit}")
    if out:
        with open(out, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in record["metrics"].items()},
    }), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run to this JSON-lines "
                        "file")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)

    if args.workload == "all":
        runs = [(name, trace) for trace in (False, True)
                for name in WORKLOADS]
    else:
        runs = [(args.workload, bool(args.trace))]
    for name, trace in runs:
        try:
            record, spans = run_workload(root, name, args.seed, args.seconds,
                                         trace)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        if spans is not None:
            span_dir = os.path.join(root, ".perfbench-work", "spans")
            os.makedirs(span_dir, exist_ok=True)
            path = os.path.join(span_dir, f"{name}-seed{args.seed}.json")
            with open(path, "w") as handle:
                json.dump({"fields": ["id", "name", "start", "end",
                                      "parent"],
                           "processes": spans}, handle)
            print(f"# spans: {os.path.relpath(path, root)}")
        print_record(record, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
