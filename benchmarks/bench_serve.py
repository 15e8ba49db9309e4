"""Serving-layer benchmark: session throughput, step latency, warm rate.

Drives the DISE simulation server the way the CI smoke job does — two
tenants opening sessions on the *same* image and stepping them round-robin
through an LRU machine pool — and measures what the serving layer is for:

* **sessions/sec** — open → step-to-halt → result → close, end to end;
* **p50/p99 step latency** — per ``step`` request, in-process (envelope
  only) and over TCP loopback (envelope + framing + socket);
* **warm-store hit rate** — the fraction of machine builds that bound
  warm to the shared ``image._translation_store`` entry.  The first
  tenant's first build translates; every later build (including all of
  the second tenant's) must re-bind warm, so the second tenant's warm
  rate is the cross-tenant sharing figure of merit (>= 0.9 required);
* **digest match** — every served digest is checked against
  :func:`repro.serve.session.batch_digest`, the byte-for-byte oracle.

Telemetry leaves the translated dispatch tier on, so under
``REPRO_TELEMETRY=1`` sessions still bind warm and the warm-rate gate
still applies; counting slows every run, though, so compare throughput
and latency only between runs with the same setting.

Writes ``benchmarks/BENCH_serve.json`` next to this file.  Run
standalone::

    PYTHONPATH=src python benchmarks/bench_serve.py [--tenants 2]

or via pytest (``pytest benchmarks/bench_serve.py``).  Under
``REPRO_BENCH_STRICT=1`` the digest and warm-rate gates become hard
failures standalone as well.
"""

import argparse
import asyncio
import json
import os
import platform
import sys
import threading
import time
from pathlib import Path

from repro.serve.client import InProcessClient, TcpClient
from repro.serve.loadgen import run_load
from repro.serve.server import ReproServer, ServerCore

_BENCH_DIR = Path(__file__).parent

#: The canonical serving spec (same as the CI smoke and tests/test_serve).
SPEC = {"benchmark": "gzip", "scale": 0.05, "acf": "dise3"}


def _in_process_summary(tenants, sessions, steps, pool):
    core = ServerCore(pool_capacity=pool)
    return run_load(
        lambda tenant: InProcessClient(core, tenant=tenant),
        tenants=tenants, sessions=sessions, spec=dict(SPEC), steps=steps,
        check_batch=True,
    )


def _tcp_summary(tenants, sessions, steps, pool):
    """The same cohort over TCP loopback (framing + socket overhead)."""
    server = ReproServer(core=ServerCore(pool_capacity=pool))
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    holder = {}

    async def _main():
        await server.start()
        ready.set()
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass

    def _thread():
        asyncio.set_event_loop(loop)
        holder["task"] = loop.create_task(_main())
        try:
            loop.run_until_complete(holder["task"])
            # Drain lingering per-connection handlers before closing.
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
        finally:
            loop.close()

    thread = threading.Thread(target=_thread, name="bench-serve",
                              daemon=True)
    thread.start()
    if not ready.wait(10):
        raise RuntimeError("bench server did not start")
    try:
        return run_load(
            lambda tenant: TcpClient("127.0.0.1", server.port,
                                     tenant=tenant),
            tenants=tenants, sessions=sessions, spec=dict(SPEC),
            steps=steps, check_batch=True,
        )
    finally:
        loop.call_soon_threadsafe(holder["task"].cancel)
        thread.join(10)


def run_serve_benchmark(tenants=2, sessions=3, steps=5000, pool=2):
    in_process = _in_process_summary(tenants, sessions, steps, pool)
    tcp = _tcp_summary(tenants, sessions, steps, pool)
    second = in_process["per_tenant"].get("tenant1") or {}
    return {
        "meta": {
            "spec": dict(SPEC),
            "tenants": tenants,
            "sessions_per_tenant": sessions,
            "steps_per_request": steps,
            "pool_capacity": pool,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "in_process": in_process,
        "tcp": tcp,
        "summary": {
            "sessions_per_s": in_process["sessions_per_s"],
            "tcp_sessions_per_s": tcp["sessions_per_s"],
            "step_latency_ms": in_process["step_latency_ms"],
            "tcp_step_latency_ms": tcp["step_latency_ms"],
            "second_tenant_warm_rate": second.get("warm_rate"),
            "digest_matches": bool(in_process["digest_matches"]
                                   and tcp["digest_matches"]),
        },
    }


def _merge_payload(payload):
    """Read-merge-write so conftest's wall-clock fold is preserved."""
    out = _BENCH_DIR / "BENCH_serve.json"
    existing = {}
    if out.exists():
        try:
            existing = json.loads(out.read_text())
        except (OSError, ValueError):
            existing = {}
    existing.update(payload)
    out.write_text(json.dumps(existing, indent=2) + "\n")
    return out


def _check_gates(payload, strict):
    summary = payload["summary"]
    assert summary["digest_matches"], (
        "served digests diverged from the batch oracle: "
        + json.dumps(payload["in_process"]["failures"]
                     + payload["tcp"]["failures"])
    )
    warm_rate = summary["second_tenant_warm_rate"]
    message = (f"second tenant warm-store hit rate {warm_rate} < 0.9 — "
               "cross-tenant translation sharing is broken")
    if strict:
        assert warm_rate is not None and warm_rate >= 0.9, message
    elif warm_rate is None or warm_rate < 0.9:
        print(f"WARNING: {message}", file=sys.stderr)


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_serve_throughput():
    payload = run_serve_benchmark(
        tenants=int(os.environ.get("REPRO_SERVE_BENCH_TENANTS", "2")),
        sessions=int(os.environ.get("REPRO_SERVE_BENCH_SESSIONS", "3")),
    )
    _merge_payload(payload)
    # Digest equality and the cross-tenant warm rate are correctness
    # gates, not perf gates: they hold on any machine.
    _check_gates(payload, strict=True)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="serving-layer throughput/latency benchmark")
    parser.add_argument("--tenants", type=int, default=2)
    parser.add_argument("--sessions", type=int, default=3,
                        help="sessions per tenant (default 3)")
    parser.add_argument("--steps", type=int, default=5000,
                        help="retirements per step request (default 5000)")
    parser.add_argument("--pool", type=int, default=2,
                        help="machine-pool capacity (default 2)")
    args = parser.parse_args(argv)
    payload = run_serve_benchmark(tenants=args.tenants,
                                  sessions=args.sessions,
                                  steps=args.steps, pool=args.pool)
    out = _merge_payload(payload)
    print(json.dumps(payload["summary"], indent=2, sort_keys=True))
    print(f"wrote {out}", file=sys.stderr)
    _check_gates(payload,
                 strict=os.environ.get("REPRO_BENCH_STRICT") == "1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
