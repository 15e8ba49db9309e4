"""Command-line tools: assemble, disassemble, run, compress, experiment.

Usage (after ``pip install -e .``)::

    python -m repro.tools asm program.s -o program.bin
    python -m repro.tools disasm program.bin
    python -m repro.tools run program.s --mfi dise3
    python -m repro.tools run --benchmark gzip --scale 0.3 --timing
    python -m repro.tools compress --benchmark gzip --variant DISE
    python -m repro.tools experiment fig7_ratio --benchmarks bzip2,mcf

Programs are accepted either as assembly files (see
:mod:`repro.isa.assembler` for the syntax) or as named synthetic
benchmarks.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.acf.compression import FIGURE7_VARIANTS, compress_image
from repro.acf.mfi import attach_mfi, rewrite_mfi
from repro.acf.base import plain_installation
from repro.harness import ALL_EXPERIMENTS, Suite, render_config_table
from repro.isa.disassembler import disassemble_listing
from repro.isa.encoding import decode_stream, encode_stream
from repro.program.builder import build_from_assembly
from repro.sim.config import MachineConfig
from repro.sim.cycle import simulate_trace
from repro.workloads import BENCHMARK_NAMES, generate_by_name


@contextmanager
def _telemetry_run(args, argv=None):
    """Bracket a harness command with a telemetry run (no-op when off).

    The JSONL event log lands next to the command's checkpoint when one is
    configured, else in ``REPRO_TELEMETRY_DIR`` / ``.repro-telemetry/``.
    """
    from repro import telemetry

    log_dir = None
    anchor = getattr(args, "checkpoint", None)
    if anchor and telemetry.enabled():
        log_dir = Path(os.path.abspath(anchor)).parent / ".repro-telemetry"
    run = telemetry.start_run(log_dir=log_dir, argv=argv or sys.argv[1:])
    try:
        yield run
    except BaseException:
        telemetry.finish_run("error")
        raise
    else:
        path = telemetry.finish_run("ok")
        if path is not None:
            print(f"telemetry: {path}", file=sys.stderr)


def _load_image(args):
    if getattr(args, "benchmark", None):
        return generate_by_name(args.benchmark,
                                scale=getattr(args, "scale", 1.0))
    if getattr(args, "source", None):
        with open(args.source) as handle:
            return build_from_assembly(handle.read())
    raise SystemExit("error: provide an assembly file or --benchmark NAME")


def cmd_asm(args):
    """``asm``: assemble a source file into a flat binary."""
    with open(args.source) as handle:
        image = build_from_assembly(handle.read())
    data = encode_stream(image.instructions)
    out = args.output or (args.source.rsplit(".", 1)[0] + ".bin")
    with open(out, "wb") as handle:
        handle.write(data)
    print(f"{len(image.instructions)} instructions -> {out} "
          f"({len(data)} bytes)")
    return 0


def cmd_disasm(args):
    """``disasm``: disassemble a binary file or a named benchmark."""
    if args.binary:
        with open(args.binary, "rb") as handle:
            instructions = decode_stream(handle.read())
        print(disassemble_listing(instructions, base=args.base))
        return 0
    image = _load_image(args)
    print(disassemble_listing(
        image.instructions, base=image.text_base,
        symbols=image.symbol_table_by_address(),
    ))
    return 0


def cmd_run(args):
    """``run``: execute a program, optionally under MFI and timing."""
    image = _load_image(args)
    if args.mfi == "rewrite":
        installation = rewrite_mfi(image)
    elif args.mfi:
        installation = attach_mfi(image, args.mfi)
    else:
        installation = plain_installation(image)
    observer = None
    if args.digest:
        from repro.verify.observe import ChainedObserver

        observer = ChainedObserver(args.projection)
    result = installation.run(max_steps=args.max_steps, observer=observer)
    if observer is not None:
        # The chained observation digest — the batch side of the serving
        # layer's reproducibility oracle (a served run of the same spec
        # must print the identical value; see docs/serving.md).
        print(f"digest: {observer.hexdigest()} "
              f"({observer.count} observations, "
              f"projection {observer.projection})")
    print(f"halted: {result.halted}  fault: {result.fault_code}")
    print(f"outputs: {result.outputs}")
    print(f"dynamic instructions: {result.instructions} "
          f"({result.expansions} expansions)")
    if args.timing:
        timing = simulate_trace(result, MachineConfig(), warm_start=True,
                                engine=args.cycle_engine)
        print(f"cycles: {timing.cycles}  IPC: {timing.ipc:.2f}  "
              f"I$ misses: {timing.il1_misses}  "
              f"mispredicts: {timing.mispredicts}")
    return 1 if result.fault_code is not None else 0


def cmd_compress(args):
    """``compress``: compress a program and report the ratios."""
    image = _load_image(args)
    variants = dict(FIGURE7_VARIANTS)
    if args.variant not in variants:
        raise SystemExit(
            f"error: unknown variant {args.variant!r}; "
            f"choose from {sorted(variants)}"
        )
    result = compress_image(image, variants[args.variant])
    print(f"variant:      {args.variant}")
    print(f"text:         {result.original_text_bytes} B -> "
          f"{result.compressed_text_bytes} B ({result.text_ratio:.1%})")
    print(f"dictionary:   {result.dictionary_entries} entries, "
          f"{result.dictionary_bytes} B  (total {result.total_ratio:.1%})")
    print(f"instances:    {result.instances} "
          f"({result.instructions_removed} instructions removed)")
    if args.verify:
        from repro.sim.functional import run_program

        plain = run_program(image, record_trace=False)
        run = result.installation().run(record_trace=False)
        ok = run.outputs == plain.outputs
        print(f"verification: {'identical' if ok else 'MISMATCH'}")
        return 0 if ok else 1
    return 0


def _suite_from_args(args):
    return Suite(
        benchmarks=tuple(args.benchmarks.split(",")) if args.benchmarks
        else None,
        scale=args.scale,
        jobs=getattr(args, "jobs", None),
        cache=None if getattr(args, "no_cache", False) else "auto",
    )


def cmd_experiment(args):
    """``experiment``: regenerate one (or all) paper figures; with
    ``--check``, evaluate each table's claim checks and exit 1 if any
    fails."""
    from repro.harness.claims import check_table, render_summary
    from repro.telemetry import span

    suite = _suite_from_args(args)
    if args.config:
        print(render_config_table())
        print()
    names = list(ALL_EXPERIMENTS) if args.name == "all" else [args.name]
    results = []
    with _telemetry_run(args):
        for name in names:
            if name not in ALL_EXPERIMENTS:
                raise SystemExit(
                    f"error: unknown experiment {name!r}; choose from "
                    f"{sorted(ALL_EXPERIMENTS)} or 'all'"
                )
            with span("experiment", experiment=name):
                table = ALL_EXPERIMENTS[name](suite)
                print(table.render())
            if args.check:
                checked = check_table(name, table)
                print()
                for result in checked:
                    print(f"  {result.render()}")
                results += checked
            print()
    if args.check:
        print(render_summary(results))
        return 0 if all(result.passed for result in results) else 1
    return 0


def cmd_report(args):
    """``report``: run experiments and emit a markdown report."""
    from repro.harness.report import build_report

    suite = _suite_from_args(args)
    experiments = (
        tuple(args.experiments.split(",")) if args.experiments else None
    )
    checkpoint = None
    if args.checkpoint or args.resume:
        checkpoint = args.checkpoint or ".repro-report-checkpoint.json"

    def resuming(restored):
        print(f"resuming: {restored} experiment(s) restored from "
              f"{checkpoint}", file=sys.stderr)

    with _telemetry_run(args):
        report = build_report(suite, experiments=experiments,
                              checkpoint=checkpoint, resume=args.resume,
                              on_resume=resuming)
    if checkpoint is not None:
        Path(checkpoint).unlink(missing_ok=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote {args.output} ({len(report.splitlines())} lines)")
    else:
        print(report)
    return 0


def cmd_faults(args):
    """``faults``: run or summarize an MFI fault-injection campaign."""
    from repro.faults import (
        FAULT_CLASSES,
        CampaignConfig,
        load_report,
        render_summary,
        run_campaign,
    )
    from repro.faults.campaign import save_report

    if args.action == "report":
        if not args.out:
            raise SystemExit("error: faults report needs --out REPORT.json")
        print(render_summary(load_report(args.out)))
        return 0

    classes = (tuple(args.classes.split(",")) if args.classes
               else FAULT_CLASSES)
    benchmarks = (tuple(args.benchmarks.split(",")) if args.benchmarks
                  else ("bzip2", "gzip", "mcf", "parser"))
    config = CampaignConfig(
        seed=args.seed, faults=args.faults, benchmarks=benchmarks,
        scale=args.scale, classes=classes, variant=args.variant,
        max_steps=args.max_steps,
    )

    def progress(fault_id, outcome, done, total):
        if args.progress and (done % 25 == 0 or done == total):
            print(f"  {done}/{total} faults ({fault_id}: {outcome})",
                  file=sys.stderr)

    with _telemetry_run(args):
        report = run_campaign(
            config,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            progress=progress,
            batch=args.batch,
            jobs=args.jobs,
        )
    if args.out:
        save_report(report, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    print(render_summary(report))
    guarded = report["summary"]["guarded"]
    ok = (guarded["containment_rate"] in (None, 1.0)
          and report["summary"]["false_positives"] == 0)
    return 0 if ok else 1


def cmd_verify(args):
    """``verify``: differential conformance checks (see docs/verification.md)."""
    from repro.verify import (
        ORACLES,
        VerifyConfig,
        load_report,
        render_verify_summary,
        run_oracle,
        run_verification,
    )
    from repro.verify.campaign import all_passed, save_report

    if args.action == "report":
        if not args.out:
            raise SystemExit("error: verify report needs --out REPORT.json")
        report = load_report(args.out)
        print(render_verify_summary(report))
        return 0 if all_passed(report) else 1

    oracles = (ORACLES if args.oracle in (None, "all")
               else tuple(args.oracle.split(",")))
    benchmarks = (tuple(args.benchmarks.split(",")) if args.benchmarks
                  else ("bzip2", "gzip", "mcf", "parser"))

    if args.action == "bisect":
        # One cell, rendered in full: the divergence-diagnosis front door.
        if len(oracles) != 1 or len(benchmarks) != 1:
            raise SystemExit(
                "error: verify bisect needs exactly one --oracle and one "
                "benchmark in --benchmarks"
            )
        outcome = run_oracle(
            oracles[0], benchmarks[0], scale=args.scale,
            variant=args.variant, max_steps=args.max_steps,
            bisect=True, window=args.window,
        )
        print(f"{outcome.benchmark}:{outcome.oracle}: {outcome.status}")
        if outcome.detail:
            print(outcome.detail)
        if outcome.report is not None:
            print(outcome.report.render())
        return 0 if outcome.passed else 1

    config = VerifyConfig(
        benchmarks=benchmarks, oracles=oracles, scale=args.scale,
        variant=args.variant, max_steps=args.max_steps,
        bisect=not args.no_bisect, window=args.window,
    )

    def progress(cell, status, done, total):
        if args.progress:
            print(f"  {done}/{total} {cell}: {status}", file=sys.stderr)

    with _telemetry_run(args):
        report = run_verification(
            config,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            progress=progress,
            jobs=args.jobs,
        )
    if args.out:
        save_report(report, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    print(render_verify_summary(report))
    return 0 if all_passed(report) else 1


def cmd_fabric(args):
    """``fabric``: checkpoint status, campaign resume, artifact-store GC."""
    import json

    from repro.fabric.checkpoint import read_checkpoint_header
    from repro.fabric.store import resolve_store

    if args.action == "gc":
        store = resolve_store(args.store if args.store else "auto")
        if store is None:
            raise SystemExit("error: no artifact store configured (set "
                             "REPRO_FABRIC_STORE or pass --store DIR)")
        removed = store.gc(everything=args.all)
        what = "artifact/quarantined" if args.all else "quarantined"
        print(f"removed {removed} {what} file(s) from {store.root}")
        return 0

    if args.action == "status":
        if getattr(args, "json", False):
            doc = {"checkpoint": None, "store": None}
            code = 0
            if args.checkpoint:
                header = read_checkpoint_header(args.checkpoint)
                if header is None:
                    doc["checkpoint"] = {"path": args.checkpoint,
                                         "readable": False}
                    code = 1
                else:
                    doc["checkpoint"] = dict(header, path=args.checkpoint,
                                             readable=True)
            store = resolve_store(args.store if args.store else "auto")
            if store is not None:
                doc["store"] = store.stats()
            print(json.dumps(doc, sort_keys=True))
            return code
        code = 0
        if args.checkpoint:
            header = read_checkpoint_header(args.checkpoint)
            if header is None:
                print(f"checkpoint {args.checkpoint}: missing or unreadable")
                code = 1
            else:
                state = ("digest ok" if header["verified"]
                         else "DIGEST MISMATCH")
                print(f"checkpoint {args.checkpoint}: "
                      f"driver={header['driver']} schema=v{header['schema']} "
                      f"completed={header['completed']} [{state}]")
                print("  fingerprint: "
                      + json.dumps(header["fingerprint"], sort_keys=True))
        store = resolve_store(args.store if args.store else "auto")
        if store is None:
            print("artifact store: disabled (set REPRO_FABRIC_STORE to "
                  "enable cross-campaign dedupe)")
        else:
            stats = store.stats()
            artifacts = stats["artifacts"]
            print(f"artifact store {stats['root']} "
                  f"(schema v{stats['schema_version']}): "
                  f"{artifacts['entries']} artifact(s), "
                  f"{artifacts['bytes'] / 1024:.1f} KiB, "
                  f"{stats['quarantined']['entries']} quarantined")
        return code

    # resume: rebuild the driver's config from the checkpoint fingerprint
    # and finish the run on the fabric.
    if not args.checkpoint:
        raise SystemExit("error: fabric resume needs --checkpoint")
    header = read_checkpoint_header(args.checkpoint)
    if header is None:
        raise SystemExit(f"error: checkpoint {args.checkpoint} is missing "
                         "or unreadable")
    driver = header["driver"]
    fingerprint = header["fingerprint"] or {}

    def progress(task_id, status, done, total):
        if args.progress:
            print(f"  {done}/{total} {task_id}: {status}", file=sys.stderr)

    try:
        if driver == "faults":
            from repro.faults import (
                CampaignConfig,
                render_summary,
                run_campaign,
            )
            from repro.faults.campaign import save_report

            config = CampaignConfig(
                seed=fingerprint["seed"], faults=fingerprint["faults"],
                benchmarks=tuple(fingerprint["benchmarks"]),
                scale=fingerprint["scale"],
                classes=tuple(fingerprint["classes"]),
                variant=fingerprint["variant"],
                max_steps=fingerprint["max_steps"],
            )
        elif driver == "verify":
            from repro.verify import (
                VerifyConfig,
                render_verify_summary,
                run_verification,
            )
            from repro.verify.campaign import all_passed, save_report

            config = VerifyConfig(
                benchmarks=tuple(fingerprint["benchmarks"]),
                oracles=tuple(fingerprint["oracles"]),
                scale=fingerprint["scale"],
                variant=fingerprint["variant"],
                max_steps=fingerprint["max_steps"],
                bisect=fingerprint["bisect"],
                window=fingerprint["window"],
            )
        else:
            raise SystemExit(
                f"error: checkpoint driver {driver!r} is not resumable "
                "from the CLI (expected 'faults' or 'verify')"
            )
    except (KeyError, TypeError) as exc:
        raise SystemExit(
            f"error: checkpoint {args.checkpoint} has an incomplete "
            f"fingerprint ({exc}); rerun the original command instead"
        )

    if driver == "faults":
        with _telemetry_run(args):
            report = run_campaign(config, checkpoint_path=args.checkpoint,
                                  resume=True, progress=progress,
                                  jobs=args.jobs)
        if args.out:
            save_report(report, args.out)
            print(f"wrote {args.out}", file=sys.stderr)
        print(render_summary(report))
        return 0
    with _telemetry_run(args):
        report = run_verification(config, checkpoint_path=args.checkpoint,
                                  resume=True, progress=progress,
                                  jobs=args.jobs)
    if args.out:
        save_report(report, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    print(render_verify_summary(report))
    return 0 if all_passed(report) else 1


def _run_log_header(path):
    """``(t, run_id)`` from a log's ``run_begin`` header, or ``None``."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
        obj = json.loads(first)
    except (OSError, ValueError):
        return None
    if obj.get("kind") != "run_begin":
        return None
    return (obj.get("t", 0.0), str(obj.get("run", "")))


def _resolve_run_log(value) -> Path:
    """Accept a run JSONL path or a directory (use its newest run log).

    "Newest" is decided by each log's ``run_begin`` header (start
    timestamp, then run id) — concurrent-process runs flush and rename
    their files in arbitrary order, so neither filename sorting nor
    mtime identifies the most recent *run*.  Logs without a readable
    header (partial copies, foreign files matching the glob) are
    skipped; a timestamp tie is reported on stderr so scripted callers
    know the choice was ambiguous.
    """
    from repro.telemetry import default_log_dir

    path = Path(value) if value else default_log_dir()
    if path.is_dir():
        logs = sorted(path.glob("run-*.jsonl"))
        if not logs:
            raise SystemExit(f"error: no run logs under {path}")
        headed = []
        for log in logs:
            header = _run_log_header(log)
            if header is not None:
                headed.append((header, log))
        if not headed:
            raise SystemExit(
                f"error: no run log under {path} has a readable "
                "run_begin header"
            )
        headed.sort(key=lambda pair: pair[0])
        (top_t, top_run), newest = headed[-1]
        ties = [log.name for (t, _), log in headed[:-1] if t == top_t]
        if ties:
            print(
                f"warning: {len(ties) + 1} run logs under {path} start at "
                f"the same timestamp; picked {newest.name} (run {top_run}) "
                f"over {', '.join(ties)} — pass an explicit path to "
                "disambiguate", file=sys.stderr,
            )
        return newest
    if not path.is_file():
        raise SystemExit(f"error: no such run log: {path}")
    return path


def cmd_telemetry(args):
    """``telemetry``: inspect the JSONL event logs of instrumented runs."""
    import json

    from repro.telemetry import TelemetryError, read_events, validate_log
    from repro.telemetry.summary import (
        RunView,
        render_diff,
        render_summary,
        render_top,
    )

    if args.action == "diff":
        if not args.other:
            raise SystemExit("error: telemetry diff needs two run logs")
        a = RunView(_resolve_run_log(args.run))
        b = RunView(_resolve_run_log(args.other))
        if a.schema != b.schema and not args.allow_schema_mismatch:
            raise SystemExit(
                f"error: cannot diff across event-log schemas "
                f"(v{a.schema} vs v{b.schema}): metric names and "
                "semantics may differ between versions.  Regenerate one "
                "side with this build, or pass --allow-schema-mismatch "
                "to compare anyway."
            )
        print(render_diff(a, b, threshold=args.threshold), end="")
        return 0
    path = _resolve_run_log(args.run)
    if args.action == "validate":
        try:
            count = validate_log(path)
        except TelemetryError as exc:
            print(f"INVALID: {exc}", file=sys.stderr)
            return 1
        print(f"{path}: {count} events, schema OK")
        return 0
    if args.action == "trace":
        from repro.telemetry.export import chrome_trace, validate_chrome_trace

        events = read_events(path)
        doc = chrome_trace(events)
        try:
            count = validate_chrome_trace(doc)
        except TelemetryError as exc:
            print(f"INVALID: {exc}", file=sys.stderr)
            return 1
        text = json.dumps(doc, sort_keys=True)
        if args.chrome:
            Path(args.chrome).write_text(text + "\n", encoding="utf-8")
            print(f"wrote {args.chrome} ({count} trace events; open in "
                  "chrome://tracing or https://ui.perfetto.dev)",
                  file=sys.stderr)
        else:
            print(text)
        return 0
    if args.action == "critical-path":
        from repro.telemetry.export import (
            critical_path,
            render_critical_path,
        )

        events = read_events(path)
        run_id = events[0].get("run", "?") if events else "?"
        print(render_critical_path(run_id, critical_path(events)), end="")
        return 0
    if args.action == "profile":
        from repro.telemetry.profile import collapsed_from_metrics

        run = RunView(path)
        lines = collapsed_from_metrics(run.metrics)
        if not lines:
            print("(no profile.* counters in this run — rerun with "
                  "REPRO_TRACE_PROFILE=1)", file=sys.stderr)
            return 1
        body = "\n".join(lines) + "\n"
        if args.out:
            Path(args.out).write_text(body, encoding="utf-8")
            print(f"wrote {args.out} ({len(lines)} collapsed stacks)",
                  file=sys.stderr)
        else:
            print(body, end="")
        return 0
    run = RunView(path)
    if args.action == "summary":
        print(render_summary(run), end="")
    else:
        print(render_top(run, n=args.top), end="")
    return 0


def cmd_cache(args):
    """``cache``: inspect or clear the persistent trace cache."""
    import json

    from repro.harness.trace_cache import default_cache_root, open_cache

    cache = open_cache(args.dir if args.dir else "auto")
    if cache is None:
        root = default_cache_root()
        if getattr(args, "json", False):
            print(json.dumps({"enabled": False,
                              "root": str(root) if root else None},
                             sort_keys=True))
            return 1
        print("trace cache is disabled"
              + (f" (REPRO_TRACE_CACHE={root})" if root else
                 " (REPRO_TRACE_CACHE)"))
        return 1
    if args.action == "stats":
        stats = cache.stats()
        if getattr(args, "json", False):
            print(json.dumps(dict(stats, enabled=True), sort_keys=True))
            return 0
        print(f"cache root: {stats['root']} "
              f"(current schema v{stats['schema_version']})")
        for kind in ("traces", "cycles", "quarantined"):
            entry = stats[kind]
            by_schema = entry.get("by_schema") or {}
            versions = "  ".join(
                f"v{version}:{count}" if version != "unknown"
                else f"unframed:{count}"
                for version, count in by_schema.items()
            )
            print(f"  {kind:7s} {entry['entries']:6d} entries  "
                  f"{entry['bytes'] / 1024:10.1f} KiB"
                  + (f"  [{versions}]" if versions else ""))
        return 0
    removed = cache.clear()
    print(f"removed {removed} entries from {cache.root} "
          "(entries newer than this build's schema are kept)")
    return 0


def cmd_serve(args):
    """``serve``: run the multi-tenant simulation server (docs/serving.md).

    With ``REPRO_TELEMETRY=1`` the run's JSONL event log doubles as the
    access log: one ``serve.request`` span per request plus the
    ``serve.*`` counter catalog; the log lands in
    ``REPRO_SERVE_ACCESS_LOG`` (or the usual telemetry directory).
    """
    from repro.serve.server import run_server

    log_dir = os.environ.get("REPRO_SERVE_ACCESS_LOG") or None
    state_dir = args.state_dir or os.environ.get("REPRO_SERVE_STATE") or None

    def ready(host, port):
        print(f"serving on {host}:{port}", flush=True)

    from repro import telemetry

    telemetry.start_run(log_dir=log_dir, argv=sys.argv[1:])
    status = "ok"
    try:
        return run_server(
            host=args.host, port=args.port, ready=ready,
            pool_capacity=args.pool,
            retirement_limit=args.retirements,
            wall_limit=args.wall,
            state_dir=state_dir,
            admin_token=args.admin_token,
        )
    except BaseException:
        status = "error"
        raise
    finally:
        path = telemetry.finish_run(status)
        if path is not None:
            print(f"telemetry: {path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    """The argparse command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro.tools",
        description="DISE reproduction command-line tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asm", help="assemble a source file to binary")
    p.add_argument("source")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_asm)

    p = sub.add_parser("disasm", help="disassemble a binary or program")
    p.add_argument("binary", nargs="?")
    p.add_argument("--benchmark", choices=BENCHMARK_NAMES)
    p.add_argument("--scale", type=float, default=0.2)
    p.add_argument("--base", type=lambda s: int(s, 0), default=0x400000)
    p.set_defaults(func=cmd_disasm, source=None)

    p = sub.add_parser("run", help="run a program, optionally under MFI")
    p.add_argument("source", nargs="?")
    p.add_argument("--benchmark", choices=BENCHMARK_NAMES)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--mfi", choices=["dise3", "dise4", "rewrite"])
    p.add_argument("--cycle-engine", choices=["outcome", "reference"],
                   help="timing replay engine (default: REPRO_CYCLE or "
                        "'outcome'; both are bit-identical)")
    p.add_argument("--timing", action="store_true",
                   help="also replay under the cycle model")
    p.add_argument("--max-steps", type=int, default=30_000_000)
    p.add_argument("--digest", action="store_true",
                   help="print the chained observation digest (the batch "
                   "side of the serving reproducibility oracle)")
    p.add_argument("--projection", default="full",
                   choices=["full", "app", "user", "retire"],
                   help="observation projection for --digest "
                   "(default full)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compress", help="compress a program")
    p.add_argument("source", nargs="?")
    p.add_argument("--benchmark", choices=BENCHMARK_NAMES)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--variant", default="DISE",
                   help="one of the Figure 7 variants (default DISE)")
    p.add_argument("--verify", action="store_true",
                   help="run compressed vs original and compare")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("experiment", help="regenerate a paper figure")
    p.add_argument("name", help="fig6_top .. fig8_rt, ablation_*, or "
                   "'all'")
    p.add_argument("--benchmarks", help="comma-separated subset")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--config", action="store_true",
                   help="print the machine-configuration table first")
    p.add_argument("-j", "--jobs", type=int,
                   help="parallel workers (default: REPRO_JOBS or 1)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the persistent trace cache")
    p.add_argument("--check", action="store_true",
                   help="evaluate the paper's claims on each table and "
                   "exit 1 if any check fails (they hold for all 12 "
                   "profiles at scale 1.0, the defaults)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report",
                       help="run experiments and emit a markdown report")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.add_argument("--benchmarks", help="comma-separated subset")
    p.add_argument("--experiments", help="comma-separated experiment ids")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("-j", "--jobs", type=int,
                   help="parallel workers (default: REPRO_JOBS or 1)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the persistent trace cache")
    p.add_argument("--checkpoint",
                   help="checkpoint file for per-experiment progress "
                   "(default: .repro-report-checkpoint.json when resuming)")
    p.add_argument("--resume", action="store_true",
                   help="replay experiments already in the checkpoint")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "faults",
        help="run an MFI fault-injection campaign (see "
        "docs/fault_injection.md)",
    )
    p.add_argument("action", choices=["run", "report"],
                   help="'run' a campaign, or 'report' (re-render a saved "
                   "report from --out)")
    p.add_argument("--seed", type=int, default=2003)
    p.add_argument("--faults", type=int, default=500,
                   help="number of faults to inject (default 500)")
    p.add_argument("--benchmarks",
                   help="comma-separated benchmarks "
                   "(default bzip2,gzip,mcf,parser)")
    p.add_argument("--scale", type=float, default=0.05,
                   help="workload scale factor (default 0.05)")
    p.add_argument("--classes",
                   help="comma-separated fault classes (default: all)")
    p.add_argument("--variant", choices=["dise3", "dise4"],
                   default="dise3", help="MFI production-set variant")
    p.add_argument("--max-steps", type=int, default=2_000_000,
                   help="dynamic-instruction cap per faulted run")
    p.add_argument("--out", help="write (or with 'report', read) the "
                   "machine-readable report JSON here")
    p.add_argument("--checkpoint",
                   help="checkpoint file for interrupted campaigns")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint")
    p.add_argument("--progress", action="store_true",
                   help="print progress to stderr")
    p.add_argument("--batch", type=int, default=None,
                   help="accepted, with no effect on the campaign: every "
                   "faulted program runs on the translated tier")
    p.add_argument("-j", "--jobs", type=int,
                   help="parallel workers (default: REPRO_JOBS or 1)")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "verify",
        help="differential conformance oracles (see docs/verification.md)",
    )
    p.add_argument("action", choices=["run", "report", "bisect"],
                   help="'run' a sweep, 'report' re-renders a saved report "
                   "from --out, 'bisect' runs one cell and prints the full "
                   "divergence report")
    p.add_argument("--oracle", default="all",
                   help="comma-separated oracles, or 'all' (default)")
    p.add_argument("--benchmarks",
                   help="comma-separated benchmarks "
                   "(default bzip2,gzip,mcf,parser)")
    p.add_argument("--scale", type=float, default=0.05,
                   help="workload scale factor (default 0.05)")
    p.add_argument("--variant", choices=["dise3", "dise4"],
                   default="dise3", help="MFI production-set variant for "
                   "dise_vs_static")
    p.add_argument("--max-steps", type=int, default=10_000_000,
                   help="dynamic-instruction cap per run")
    p.add_argument("--window", type=int, default=256,
                   help="bisection digest-window size (default 256)")
    p.add_argument("--no-bisect", action="store_true",
                   help="report divergences without locating the first "
                   "divergent retirement")
    p.add_argument("--out", help="write (or with 'report', read) the "
                   "machine-readable report JSON here")
    p.add_argument("--checkpoint",
                   help="checkpoint file for interrupted sweeps")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint")
    p.add_argument("-j", "--jobs", type=int,
                   help="parallel workers (default: REPRO_JOBS or 1)")
    p.add_argument("--progress", action="store_true",
                   help="print progress to stderr")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "telemetry",
        help="inspect run telemetry (see docs/observability.md)",
    )
    p.add_argument("action",
                   choices=["summary", "top", "diff", "validate",
                            "trace", "critical-path", "profile"],
                   help="'summary' renders a run's metrics, 'top' its "
                   "hottest opcodes/productions, 'diff' compares two runs, "
                   "'validate' schema-checks the JSONL, 'trace' exports "
                   "Chrome trace-event JSON, 'critical-path' reports the "
                   "span chain gating wall-clock, 'profile' renders "
                   "collapsed stacks from the hot-path profiler")
    p.add_argument("run", nargs="?",
                   help="run log (.jsonl) or log directory "
                   "(default: REPRO_TELEMETRY_DIR or .repro-telemetry)")
    p.add_argument("other", nargs="?",
                   help="second run log for 'diff'")
    p.add_argument("-n", "--top", type=int, default=10,
                   help="how many opcodes/productions to show (default 10)")
    p.add_argument("--threshold", type=float, default=0.0,
                   help="diff: hide metrics whose relative change is "
                   "below this fraction")
    p.add_argument("--allow-schema-mismatch", action="store_true",
                   help="diff: compare runs even when their event-log "
                   "schema versions differ")
    p.add_argument("--chrome", metavar="PATH",
                   help="trace: write Chrome trace-event JSON here "
                   "(default: stdout)")
    p.add_argument("--out", metavar="PATH",
                   help="profile: write collapsed stacks here "
                   "(default: stdout)")
    p.set_defaults(func=cmd_telemetry)

    p = sub.add_parser(
        "fabric",
        help="execution-fabric checkpoints and artifact store "
        "(see docs/fabric.md)",
    )
    p.add_argument("action", choices=["status", "resume", "gc"],
                   help="'status' inspects a checkpoint and the store, "
                   "'resume' finishes an interrupted faults/verify "
                   "campaign from its checkpoint, 'gc' deletes "
                   "quarantined store entries")
    p.add_argument("--checkpoint",
                   help="fabric checkpoint file to inspect or resume")
    p.add_argument("--store",
                   help="artifact-store directory "
                   "(default: REPRO_FABRIC_STORE)")
    p.add_argument("--all", action="store_true",
                   help="gc: also delete live artifacts, not just "
                   "quarantined ones")
    p.add_argument("--out", help="resume: write the finished report "
                   "JSON here")
    p.add_argument("--json", action="store_true",
                   help="status: print machine-readable JSON instead of "
                   "text")
    p.add_argument("-j", "--jobs", type=int,
                   help="parallel workers (default: REPRO_JOBS or 1)")
    p.add_argument("--progress", action="store_true",
                   help="print progress to stderr")
    p.set_defaults(func=cmd_fabric)

    p = sub.add_parser("cache",
                       help="inspect or clear the persistent trace cache")
    p.add_argument("action", choices=["stats", "clear"])
    p.add_argument("--dir", help="cache directory "
                   "(default: REPRO_TRACE_CACHE or ~/.cache/repro-dise)")
    p.add_argument("--json", action="store_true",
                   help="stats: print machine-readable JSON instead of "
                   "text")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant simulation server (see docs/serving.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = pick an ephemeral port; "
                   "the bound address is printed on stdout)")
    p.add_argument("--pool", type=int, default=None,
                   help="live-machine pool capacity "
                   "(default: REPRO_SERVE_POOL or 8)")
    p.add_argument("--retirements", type=int, default=None,
                   help="per-tenant retirement budget "
                   "(default: REPRO_SERVE_RETIREMENTS or unlimited)")
    p.add_argument("--wall", type=float, default=None,
                   help="per-tenant wall-clock budget in seconds "
                   "(default: REPRO_SERVE_WALL or unlimited)")
    p.add_argument("--state-dir",
                   help="directory for graceful-shutdown session "
                   "snapshots (default: REPRO_SERVE_STATE or off)")
    p.add_argument("--admin-token", default=None,
                   help="operator token enabling the wire `shutdown` op "
                   "(default: REPRO_SERVE_ADMIN_TOKEN; unset = op "
                   "disabled, signal the process instead)")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
