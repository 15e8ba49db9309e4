"""Seeded fault-injection campaigns over the MFI production set.

A campaign plants ``config.faults`` single faults (drawn from the taxonomy
in :mod:`repro.faults.inject`) into synthetic benchmarks and runs every
faulted program twice — under plain simulation and under the DISE MFI
production set — then classifies each outcome:

``contained``
    the MFI run raised the MFI fault code: the check caught the fault
    before the unsafe access executed;
``escaped``
    neither run crashed the *model*, but some architectural outcome
    (fault code, outputs, final memory) diverged from the unfaulted
    baseline — the fault did damage MFI did not stop;
``benign``
    both runs match their unfaulted baselines bit-for-bit — the corrupted
    state was dead;
``crash`` / ``hang``
    the MFI run died in the simulator (architecturally impossible state)
    or exceeded its dynamic-instruction budget;
``skipped``
    the benchmark offered no viable site for the drawn class.

Everything is a pure function of ``config.seed``: each fault gets its own
``random.Random(f"{seed}:{fault_id}")``, so results are independent of
iteration order and identical across resumed and cold runs.  Campaigns
ride on the execution fabric (:mod:`repro.fabric`): each fault is a
content-addressed task, which supplies checkpoint/resume, optional
process-pool fan-out (``REPRO_JOBS``), crash supervision, and — with
``REPRO_FABRIC_STORE`` enabled — cross-campaign dedupe (a 500-fault
campaign reuses every record a 300-fault campaign over the same seed
already computed).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.acf.base import AcfInstallation, plain_installation
from repro.acf.mfi import MFI_FAULT_CODE, attach_mfi, ensure_error_stub
from repro.core.config import DiseConfig
from repro.errors import (
    CampaignError,
    CheckpointError,
    ExecutionError,
    ExecutionTimeout,
    ReproError,
)
from repro.fabric.engine import Fabric
from repro.fabric.task import Task, register_recipe
from repro.faults.inject import (
    FAULT_CLASSES,
    FaultSpec,
    OUTCOMES,
    make_fault,
    mutate_image,
    profile_sites,
    state_mutator,
)
from repro.sim.trace import META_FETCH
from repro.telemetry import events as _events
from repro.telemetry import registry as _telemetry
from repro.workloads.generator import generate_by_name

#: Version stamp on reports and checkpoints.
REPORT_SCHEMA = 1

#: Functional-run DISE configuration.  Containment is an architectural
#: property; RT behaviour only affects timing, so a perfect RT keeps the
#: campaign fast without changing any outcome.
_CAMPAIGN_DISE = DiseConfig(rt_perfect=True)


class CampaignInterrupted(ReproError):
    """The campaign stopped early (induced interruption / test hook).

    Progress up to the interruption is in the checkpoint; re-run with
    ``resume=True`` to finish.
    """


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign's results."""

    seed: int = 2003
    faults: int = 500
    benchmarks: Tuple[str, ...] = ("bzip2", "gzip", "mcf", "parser")
    #: Workload scale factor (fraction of the full synthetic trip counts).
    scale: float = 0.05
    classes: Tuple[str, ...] = FAULT_CLASSES
    #: MFI production-set variant (``dise3`` / ``dise4``).
    variant: str = "dise3"
    #: Absolute cap on dynamic instructions per run (the per-benchmark
    #: hang budget is derived from the baselines and clamped to this).
    max_steps: int = 2_000_000
    #: Checkpoint after this many newly computed faults.
    checkpoint_every: int = 50

    def validate(self):
        if self.faults < 1:
            raise CampaignError("campaign needs at least one fault")
        if not self.benchmarks:
            raise CampaignError("campaign needs at least one benchmark")
        if not self.classes:
            raise CampaignError("campaign needs at least one fault class")
        unknown = [c for c in self.classes if c not in FAULT_CLASSES]
        if unknown:
            raise CampaignError(
                f"unknown fault classes {unknown}; choose from "
                f"{list(FAULT_CLASSES)}"
            )
        if self.scale <= 0:
            raise CampaignError("scale must be positive")

    def fingerprint(self) -> Dict[str, object]:
        """JSON-stable identity used to match checkpoints to configs."""
        return {
            "seed": self.seed,
            "faults": self.faults,
            "benchmarks": list(self.benchmarks),
            "scale": self.scale,
            "classes": list(self.classes),
            "variant": self.variant,
            "max_steps": self.max_steps,
        }


# ----------------------------------------------------------------------
# Per-benchmark preparation
# ----------------------------------------------------------------------
def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _summarize(fault_code, halted, outputs, memory) -> Dict[str, object]:
    status = "fault" if fault_code is not None else "halt"
    return {
        "status": status,
        "fault_code": fault_code,
        "outputs": _digest(list(outputs)),
        "memory": _digest(sorted(memory._nonzero().items())),
    }


#: Keys that must match for two runs to count as the same outcome.
_COMPARE_KEYS = ("status", "fault_code", "outputs", "memory")


def _same_outcome(a: Dict[str, object], b: Dict[str, object]) -> bool:
    return all(a.get(k) == b.get(k) for k in _COMPARE_KEYS)


class _Bench:
    """A prepared benchmark: images, baselines, site pools, fault-site
    arrivals, hang budget."""

    def __init__(self, name: str, *, scale: float, variant: str,
                 max_steps: int):
        self.name = name
        try:
            image = generate_by_name(name, scale=scale)
        except KeyError:
            raise CampaignError(f"unknown benchmark {name!r}") from None
        # Both variants run the *same* stubbed image, so every instruction
        # has the same address under plain and MFI execution and one
        # FaultSpec applies identically to both.
        self.image = ensure_error_stub(image)
        self.plain = plain_installation(self.image)
        self.mfi = attach_mfi(self.image, variant=variant)

        plain_trace = self.plain.run(max_steps=max_steps)
        self.profile = profile_sites(self.image, plain_trace)
        #: Per variant (keyed by ``mfi``), the retirement index and pc of
        #: each app-level fetch in its unfaulted run.
        self._arrivals = {False: _fetch_arrivals(plain_trace)}
        self.plain_base = _summarize(
            plain_trace.fault_code, plain_trace.halted,
            plain_trace.outputs, plain_trace.final_memory,
        )
        mfi_trace = self.mfi.run(_CAMPAIGN_DISE, record_trace=False,
                                 max_steps=max_steps)
        self.mfi_base = _summarize(
            mfi_trace.fault_code, mfi_trace.halted,
            mfi_trace.outputs, mfi_trace.final_memory,
        )
        # Unfaulted control: MFI must neither fire nor perturb outputs.
        self.control = {
            "false_positive": mfi_trace.fault_code is not None,
            "outputs_match": list(mfi_trace.outputs) == list(plain_trace.outputs),
            "plain_instructions": plain_trace.instructions,
            "mfi_instructions": mfi_trace.instructions,
        }
        # Hang budget: generous multiple of the slower baseline, so a
        # corrupted loop counter is detected without a 2M-step wait.
        budget = max(plain_trace.instructions, mfi_trace.instructions) * 5
        self.max_steps = min(budget + 10_000, max_steps)

    def arrival(self, mfi: bool, site_pc: int, visit: int) -> Optional[int]:
        """Retirements before the *visit*-th app-level arrival at
        ``site_pc`` in the variant's unfaulted run, or None when control
        arrives there fewer times.  The MFI run is recorded on first use,
        so a process that only replays stored faults never pays for it."""
        arrivals = self._arrivals.get(mfi)
        if arrivals is None:
            trace = self.mfi.run(_CAMPAIGN_DISE, max_steps=self.max_steps)
            arrivals = self._arrivals[mfi] = _fetch_arrivals(trace)
        index, pcs = arrivals
        hits = index[pcs == site_pc]
        return int(hits[visit - 1]) if visit <= len(hits) else None


def _fetch_arrivals(trace) -> Tuple[np.ndarray, np.ndarray]:
    """Index and pc of every op that fetched its instruction: one per
    app-level arrival, a trigger's at DISEPC 0 of its replacement body."""
    pcs = np.frombuffer(trace.columns.pc, dtype=np.uint64)
    meta = np.frombuffer(trace.columns.meta, dtype=np.uint64)
    index = np.flatnonzero(meta & META_FETCH)
    return index, pcs[index]


#: Per-process memo of prepared benchmarks, keyed by everything a
#: :class:`_Bench` depends on.  Fabric workers fill it on demand (baseline
#: prep amortizes across the faults a worker handles); the parent reuses
#: it for the report's control section.
_BENCHES: Dict[Tuple[str, float, str, int], _Bench] = {}


def _bench_for(name: str, scale: float, variant: str,
               max_steps: int) -> _Bench:
    key = (name, scale, variant, max_steps)
    if key not in _BENCHES:
        with _events.span("campaign.prepare_bench", bench=name):
            _BENCHES[key] = _Bench(name, scale=scale, variant=variant,
                                   max_steps=max_steps)
    return _BENCHES[key]


# ----------------------------------------------------------------------
# Running one faulted program
# ----------------------------------------------------------------------
def _drive(machine, arrival: Optional[int], mutator: Optional[Callable],
           reg: Optional[int], max_steps: int):
    """Run to halt, applying the state corruption after ``arrival``
    retirements (``None``: never).

    The run is deterministic up to the fault, so its unfaulted twin
    reached the fault's dynamic site after exactly that many
    retirements; the first leg stops there, at the PC:DISEPC boundary
    where control has just arrived at the site at app level.  A timeout
    names the whole budget, as one uninterrupted run's would.
    """
    left = max_steps
    try:
        if arrival is not None:
            try:
                machine.run(max_steps=arrival)
            except ExecutionTimeout:
                pass    # the first leg's budget ends at the visit
            mutator(machine, reg)
            left -= arrival
        machine.run(max_steps=left)
    except ExecutionTimeout:
        raise ExecutionTimeout(
            f"faulted run did not halt within {max_steps} dynamic "
            "instructions", steps=max_steps, index=machine.idx,
        ) from None


def _run_variant(spec: FaultSpec, bench: _Bench,
                 mfi: bool) -> Dict[str, object]:
    """Run one faulted program under one variant; never raises.

    Every run publishes its ``sim.*`` counters, whatever its outcome.
    """
    base = bench.mfi if mfi else bench.plain
    mutator = state_mutator(spec)
    if mutator is None:
        image = mutate_image(spec, bench.image)
        installation = AcfInstallation(
            image=image, production_sets=base.production_sets,
            init_machine=base.init_machine, name=base.name,
        )
        arrival = reg = None
    else:
        installation = base
        arrival = bench.arrival(mfi, spec.site_pc, spec.visit)
        reg = bench.image.instructions[
            bench.image.index_of_addr[spec.site_pc]].rs
    machine = installation.make_machine(
        _CAMPAIGN_DISE if mfi else None, record_trace=False,
    )
    try:
        _drive(machine, arrival, mutator, reg, bench.max_steps)
    except ExecutionTimeout as exc:
        return {"status": "hang", "error": exc.details()}
    except ExecutionError as exc:
        return {"status": "crash", "error": exc.details()}
    finally:
        machine.result()
    return _summarize(machine.fault_code, machine.halted,
                      machine.outputs, machine.mem)


def _classify(record: Dict[str, object], bench: _Bench) -> str:
    mfi_run = record["mfi"]
    plain_run = record["plain"]
    if (mfi_run["status"] == "fault"
            and mfi_run["fault_code"] == MFI_FAULT_CODE):
        return "contained"
    if mfi_run["status"] == "hang":
        return "hang"
    if mfi_run["status"] == "crash":
        return "crash"
    if (not _same_outcome(plain_run, bench.plain_base)
            or not _same_outcome(mfi_run, bench.mfi_base)):
        return "escaped"
    return "benign"


def _run_one(spec: Optional[FaultSpec], fault_id: str, bench_name: str,
             fault_class: str, bench: Optional[_Bench]) -> Dict[str, object]:
    if spec is None:
        return {
            "spec": {"id": fault_id, "bench": bench_name,
                     "class": fault_class, "guarded": False},
            "outcome": "skipped",
        }
    plain_run = _run_variant(spec, bench, mfi=False)
    mfi_run = _run_variant(spec, bench, mfi=True)
    record = {"spec": spec.to_dict(), "plain": plain_run, "mfi": mfi_run}
    record["outcome"] = _classify(record, bench)
    return record


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------
def _atomic_write_json(path: str, payload: Dict[str, object]):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ----------------------------------------------------------------------
# The fabric recipe: one planned fault
# ----------------------------------------------------------------------
def _plan_fault(params: Dict[str, object]):
    """Plan one fault from its task parameters (pure given the params)."""
    fault_id = params["fault_id"]
    # Per-fault generator: results are a pure function of
    # (seed, fault_id), independent of iteration order and resume.
    rng = random.Random(f"{params['seed']}:{fault_id}")
    bench_name = rng.choice(params["benchmarks"])
    fault_class = rng.choice(params["classes"])
    bench = _bench_for(bench_name, params["scale"], params["variant"],
                       params["max_steps"])
    spec = make_fault(rng, fault_id, bench_name, fault_class,
                      bench.profile, bench.image)
    return fault_id, bench_name, fault_class, bench, spec


def _fault_recipe(params: Dict[str, object]) -> Dict[str, object]:
    fault_id, bench_name, fault_class, bench, spec = _plan_fault(params)
    return _run_one(spec, fault_id, bench_name, fault_class, bench)


register_recipe("repro.faults.campaign:fault", _fault_recipe)


def _fault_task(config: CampaignConfig, index: int) -> Task:
    fault_id = f"f{index:04d}"
    return Task(
        recipe="repro.faults.campaign:fault",
        params={
            "seed": config.seed,
            "fault_id": fault_id,
            "benchmarks": list(config.benchmarks),
            "classes": list(config.classes),
            "scale": config.scale,
            "variant": config.variant,
            "max_steps": config.max_steps,
        },
        task_id=fault_id,
    )


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
def run_campaign(config: CampaignConfig,
                 checkpoint_path: Optional[str] = None,
                 resume: bool = False,
                 progress: Optional[Callable[[str, str, int, int], None]] = None,
                 stop_after: Optional[int] = None,
                 batch: Optional[int] = None,
                 jobs: Optional[int] = None,
                 fabric_options: Optional[Dict[str, object]] = None
                 ) -> Dict[str, object]:
    """Run (or resume) a campaign; returns the machine-readable report.

    ``progress(fault_id, outcome, done, total)`` is called after every
    newly computed fault.  ``stop_after`` — a test hook modelling an
    interrupted run — checkpoints and raises :class:`CampaignInterrupted`
    after that many *newly computed* faults.

    ``jobs`` (default: ``REPRO_JOBS``) fans faults out over supervised
    worker processes — a pure execution accelerator: records,
    checkpoints, progress counts and reports are bit-identical to the
    serial path, so it is not part of the config fingerprint.  ``batch``
    is accepted and has no effect on the campaign: every faulted program
    runs on the translated tier, one fault at a time.  ``fabric_options``
    passes extra :class:`~repro.fabric.engine.Fabric` knobs through
    (``store``, ``chaos``, ``task_timeout``...).
    """
    config.validate()
    if resume and not checkpoint_path:
        raise CheckpointError("resume requested without a checkpoint path")

    fresh = 0

    def on_result(fault_id: str, record: Dict[str, object], done: int,
                  total: int):
        nonlocal fresh
        outcome = record["outcome"]
        fault_class = record["spec"]["class"]
        _telemetry.counter(f"faults.outcome.{outcome}").inc()
        if outcome != "skipped":
            _telemetry.counter(f"faults.injected.{fault_class}").inc()
        if outcome == "contained":
            _telemetry.counter(f"faults.contained.{fault_class}").inc()
        fresh += 1
        if progress is not None:
            progress(fault_id, outcome, done, total)
        if stop_after is not None and fresh >= stop_after:
            # The fabric checkpoints completed work before re-raising.
            raise CampaignInterrupted(
                f"campaign interrupted after {fresh} faults "
                f"({done}/{total} complete)"
            )

    fabric = Fabric(
        "faults", config.fingerprint(), checkpoint_path=checkpoint_path,
        resume=resume, jobs=jobs, checkpoint_every=config.checkpoint_every,
        **(fabric_options or {}),
    )
    tasks = [_fault_task(config, i) for i in range(config.faults)]
    records = fabric.run(tasks, on_result=on_result)

    # Benchmarks never drawn by the seed still contribute their control
    # run, so the false-positive check always covers the configured set.
    benches = {
        name: _bench_for(name, config.scale, config.variant,
                         config.max_steps)
        for name in config.benchmarks
    }
    return _build_report(config, records, benches)


def _build_report(config: CampaignConfig,
                  records: Dict[str, Dict[str, object]],
                  benches: Dict[str, _Bench]) -> Dict[str, object]:
    per_class: Dict[str, Dict[str, object]] = {
        c: {outcome: 0 for outcome in OUTCOMES} for c in config.classes
    }
    totals = {outcome: 0 for outcome in OUTCOMES}
    guarded_total = 0
    guarded_contained = 0
    for record in records.values():
        outcome = record["outcome"]
        fault_class = record["spec"]["class"]
        per_class[fault_class][outcome] += 1
        totals[outcome] += 1
        if record["spec"].get("guarded"):
            guarded_total += 1
            if outcome == "contained":
                guarded_contained += 1
    for counts in per_class.values():
        total = sum(counts[o] for o in OUTCOMES)
        active = total - counts["skipped"]
        counts["total"] = total
        counts["containment_rate"] = (
            round(counts["contained"] / active, 6) if active else None
        )
    control = {name: bench.control for name, bench in benches.items()}
    return {
        "schema": REPORT_SCHEMA,
        "config": config.fingerprint(),
        "control": control,
        "summary": {
            "faults": len(records),
            "outcomes": totals,
            "classes": per_class,
            "guarded": {
                "total": guarded_total,
                "contained": guarded_contained,
                "containment_rate": (
                    round(guarded_contained / guarded_total, 6)
                    if guarded_total else None
                ),
            },
            "false_positives": sum(
                1 for c in control.values() if c["false_positive"]
            ),
        },
        "faults": [records[fid] for fid in sorted(records)],
    }


# ----------------------------------------------------------------------
# Report I/O and rendering
# ----------------------------------------------------------------------
def save_report(report: Dict[str, object], path: str):
    """Write a report deterministically (sorted keys, no timestamps)."""
    _atomic_write_json(path, report)


def load_report(path: str) -> Dict[str, object]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CampaignError(f"unreadable campaign report {path}: "
                            f"{exc}") from exc


def render_summary(report: Dict[str, object]) -> str:
    """Human-readable summary of a campaign report (markdown)."""
    summary = report["summary"]
    config = report["config"]
    lines: List[str] = []
    lines.append(f"# MFI fault-injection campaign (seed {config['seed']})")
    lines.append("")
    lines.append(
        f"{summary['faults']} faults over {', '.join(config['benchmarks'])} "
        f"(scale {config['scale']}, variant {config['variant']})."
    )
    guarded = summary["guarded"]
    rate = guarded["containment_rate"]
    lines.append(
        f"MFI-guarded faults contained: {guarded['contained']}/"
        f"{guarded['total']}"
        + (f" ({rate * 100:.1f}%)" if rate is not None else "")
    )
    lines.append(
        f"False positives on unfaulted controls: "
        f"{summary['false_positives']}"
    )
    lines.append("")
    header = ["class", "total"] + list(OUTCOMES) + ["containment"]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for fault_class, counts in summary["classes"].items():
        rate = counts["containment_rate"]
        row = [fault_class, str(counts["total"])]
        row += [str(counts[o]) for o in OUTCOMES]
        row.append(f"{rate * 100:.1f}%" if rate is not None else "—")
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    lines.append("Outcomes: " + ", ".join(
        f"{name}={count}" for name, count in summary["outcomes"].items()
    ))
    return "\n".join(lines)
