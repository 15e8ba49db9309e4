"""One benchmark process: set up one workload phase, run it, report.

    python3 perfbench/worker.py '<job json>' <result path>

``run.py`` starts a fresh interpreter per phase, so the per-process memos
(the campaign's prepared benchmarks, image translation stores, Suite
memos) never carry over from one timed phase to the next.  The job names
the workload, the phase (``cold``, ``warm``, ``pass`` or ``verify``),
the seed, the phase's cache or store directory and whether to trace.  The
result is written as JSON to the result path.

Set-up is timed from this file's first statement, so the interpreter's
own start, which no change to the program can move, is left out.  It is
reported in two parts: ``import_s``, the imports, and ``prepare_s``, from
there to the first timed call.
"""

import time

STARTED = time.perf_counter()

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402

import repro.faults.campaign as campaign  # noqa: E402
import repro.harness.experiments as experiments  # noqa: E402
import repro.harness.runner as runner  # noqa: E402
import repro.serve.client as client  # noqa: E402
import repro.serve.server as server  # noqa: E402
import repro.serve.session as session  # noqa: E402
import repro.workloads.generator as generator  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.workloads.specint import get_profile  # noqa: E402

from plan import WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402

IMPORTED = time.perf_counter()


def digest_of(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# Figures: render tables against a trace cache directory
# ----------------------------------------------------------------------
class SeededSuite(runner.Suite):
    """A Suite over images the benchmark generated from its seed."""

    def __init__(self, images, **kwargs):
        super().__init__(benchmarks=list(images), **kwargs)
        self.seeded_images = images

    def image(self, bench):
        return self.seeded_images[bench]


def seeded_images(profiles, seed, scale):
    """Images of ``profiles`` with each profile's seed offset by ``seed``;
    seed 0 gives the committed SPECint profiles."""
    images = {}
    for name in profiles:
        profile = get_profile(name)
        profile = dataclasses.replace(profile, seed=profile.seed + seed)
        images[name] = generator.generate_benchmark(profile, scale=scale)
    return images


def prepare_figures(job, plan):
    images = seeded_images(plan["profiles"], job["seed"], plan["scale"])
    return SeededSuite(images, scale=plan["scale"], jobs=1,
                       cache=job["dir"])


def execute_figures(job, plan, suite):
    start = time.monotonic()
    tables = {name: experiments.ALL_EXPERIMENTS[name](suite)
              for name in plan["tables"]}
    work_s = time.monotonic() - start
    # The rendered text plus every cell at full precision: a change in
    # the last digit of a normalized time must show.
    return {
        "work_s": work_s,
        "digests": {
            name: digest_of(table.render() + "\n"
                            + json.dumps(table.as_dict(), sort_keys=True))
            for name, table in tables.items()
        },
        "cells": {
            name: sum(value is not None
                      for row in table.as_dict().values()
                      for value in row.values())
            for name, table in tables.items()
        },
    }


# ----------------------------------------------------------------------
# Faults: one campaign through the fabric, store in the phase directory
# ----------------------------------------------------------------------
def prepare_faults(job, plan):
    return campaign.CampaignConfig(
        seed=job["seed"], faults=plan["faults"],
        benchmarks=tuple(plan["benchmarks"]), scale=plan["scale"],
    )


def execute_faults(job, plan, config):
    start = time.monotonic()
    report = campaign.run_campaign(
        config, checkpoint_path=job["checkpoint"], batch=plan["batch"],
        jobs=1, fabric_options={"store": job["dir"]},
    )
    work_s = time.monotonic() - start
    summary = report["summary"]
    return {
        "work_s": work_s,
        "digest": digest_of(json.dumps(report, sort_keys=True)),
        "faults": summary["faults"],
        "guarded": summary["guarded"],
        "false_positives": summary["false_positives"],
    }


# ----------------------------------------------------------------------
# Serve: a cold and a warm round of sessions on one server core
# ----------------------------------------------------------------------
def session_specs(plan, seed):
    """The seeded session mix: every spec of the small set ``copies``
    times, in an order (and so a tenant assignment) drawn from the seed.
    The amount of work is the same for every seed."""
    specs = [{"benchmark": profile, "scale": plan["scale"], "acf": acf}
             for profile in plan["profiles"] for acf in plan["acfs"]]
    specs *= plan["copies"]
    random.Random(f"serve:{seed}").shuffle(specs)
    return specs


def prepare_serve(job, plan):
    core = server.ServerCore(pool_capacity=plan["pool"])
    clients = [client.InProcessClient(core, tenant=f"tenant{i}")
               for i in range(plan["tenants"])]
    return core, clients, session_specs(plan, job["seed"])


def serve_round(clients, specs, steps):
    """Open every session, step them round-robin to halt, read, close.

    A request that raises counts as an error; its session is dropped.
    """
    start = time.monotonic()
    requests = errors = 0
    opened = []
    for index, spec in enumerate(specs):
        handle = clients[index % len(clients)]
        requests += 1
        try:
            opened.append((handle, handle.open_session(spec), index))
        except ReproError:
            errors += 1
    latencies = []
    dropped = set()
    live = list(opened)
    while live:
        still = []
        for handle, sid, index in live:
            requests += 1
            sent = time.perf_counter()
            try:
                view = handle.step(sid, steps=steps)
            except ReproError:
                errors += 1
                dropped.add(sid)
                continue
            latencies.append((time.perf_counter() - sent) * 1e3)
            if not view["halted"]:
                still.append((handle, sid, index))
        live = still
    digests = []
    for handle, sid, index in opened:
        if sid in dropped:
            continue
        requests += 2
        try:
            digests.append((index, handle.result(sid)["digest"]))
            handle.close_session(sid)
        except ReproError:
            errors += 1
    return {"wall_s": time.monotonic() - start, "latencies_ms": latencies,
            "requests": requests, "errors": errors, "digests": digests}


def execute_serve(job, plan, state):
    core, clients, specs = state
    rounds = [serve_round(clients, specs, plan["steps"])
              for _ in ("cold", "warm")]
    pool = core.pool.stats()
    return {
        "work_s": rounds[0]["wall_s"],
        "warm_s": rounds[1]["wall_s"],
        "rounds": rounds,
        "specs": specs,
        "pool": {"serve.pool.builds": pool["builds"],
                 "serve.pool.warm_builds": pool["warm_builds"],
                 "serve.pool.evictions": pool["evictions"]},
    }


def batch_digests(specs):
    """The batch side of the serve oracle, one digest per spec."""
    catalog = session.ImageCatalog()
    return [session.batch_digest(spec, catalog=catalog)["digest"]
            for spec in specs]


PHASES = {
    "figures": (prepare_figures, execute_figures),
    "faults": (prepare_faults, execute_faults),
    "serve": (prepare_serve, execute_serve),
}


def main(argv):
    job = json.loads(argv[1])
    plan = WORKLOADS[job["workload"]]
    window_start = time.monotonic()
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    if job["phase"] == "verify":
        result = {"digests": batch_digests(job["specs"])}
    else:
        prepare, execute = PHASES[plan["kind"]]
        state = prepare(job, plan)
        result = {"import_s": IMPORTED - STARTED,
                  "prepare_s": time.perf_counter() - IMPORTED}
        result.update(execute(job, plan, state))
    window_s = time.monotonic() - window_start
    result["window_s"] = window_s
    if tracer is not None:
        result["trace"] = tracer.summary(window_s)
        result["spans"] = tracer.spans
    with open(argv[2], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
