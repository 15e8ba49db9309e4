"""The DISE simulation server: a synchronous core and an asyncio shell.

:class:`ServerCore` is the whole service as a dict-in/dict-out object:
``handle(request) -> response`` under one re-entrant lock, with no I/O of
its own.  Tests and the in-process client drive it directly; the asyncio
:class:`ReproServer` merely frames it onto TCP (newline-delimited JSON,
:mod:`repro.serve.protocol`).  Keeping the core synchronous means every
behaviour the wire protocol promises — budget precision, digest
continuity across eviction, graceful-shutdown parking — is testable
without sockets, and the TCP path adds only framing.

Request handling is deliberately serialized (machines are not re-entrant
and sessions share the pool); the asyncio shell runs ``handle`` on the
default executor so slow simulation steps do not stall the event loop's
accept/read work.

Observability: every request runs inside a ``serve.request`` telemetry
span (one trace tree per request under ``REPRO_TRACE``) and bumps
``serve.*`` counters; with ``REPRO_TELEMETRY=1`` the server's JSONL run
log doubles as the access log (see docs/serving.md).
"""

from __future__ import annotations

import hmac
import json
import os
import threading
from pathlib import Path
from typing import Dict, Optional

from repro import telemetry
from repro.errors import ProtocolError, ReproError, SessionError
from repro.serve import protocol
from repro.serve.budgets import BudgetBook
from repro.serve.pool import MachinePool
from repro.serve.session import (
    MAX_STEPS_PER_REQUEST,
    ImageCatalog,
    Session,
)

#: Schema of the graceful-shutdown session snapshot file.
STATE_SCHEMA = 1
_STATE_FILE = "sessions.json"


class _Campaign:
    """One background campaign: a driver running on its own thread."""

    def __init__(self, campaign_id: str, kind: str, tenant: str, thread):
        self.campaign_id = campaign_id
        self.kind = kind
        self.tenant = tenant
        self.thread = thread
        self.status = "running"
        self.report = None
        self.error: Optional[BaseException] = None

    def poll(self) -> dict:
        out = {"campaign": self.campaign_id, "kind": self.kind,
               "status": self.status}
        if self.status == "done":
            out["report"] = self.report
        elif self.status == "error":
            out["error"] = protocol.error_response(None, self.error)["error"]
        return out


def _run_faults_campaign(params: dict) -> dict:
    from repro.faults import FAULT_CLASSES, CampaignConfig, run_campaign

    config = CampaignConfig(
        seed=int(params.get("seed", 2003)),
        faults=int(params.get("faults", 50)),
        benchmarks=tuple(params.get("benchmarks", ("gzip",))),
        scale=float(params.get("scale", 0.05)),
        classes=tuple(params.get("classes", FAULT_CLASSES)),
        variant=params.get("variant", "dise3"),
        max_steps=int(params.get("max_steps", 2_000_000)),
    )
    fabric_options = None
    kills = params.get("chaos_kills")
    if kills:
        # JSON-able resilience hook: [[task_id, attempt], ...] worker
        # kills, scripted through the fabric's deterministic ChaosPlan.
        # The supervised pool retries the murdered attempt, so the
        # campaign (and the server above it) survives the lost worker.
        from repro.fabric.chaos import ChaosPlan

        fabric_options = {
            "chaos": ChaosPlan(
                kills=tuple((str(task), int(attempt))
                            for task, attempt in kills)),
            "retries": int(params.get("retries", 1)),
            "backoff": float(params.get("backoff", 0.0)),
        }
    return run_campaign(config, jobs=params.get("jobs", 1),
                        batch=params.get("batch"),
                        fabric_options=fabric_options)


def _run_verify_campaign(params: dict) -> dict:
    from repro.verify import ORACLES, VerifyConfig, run_verification

    config = VerifyConfig(
        benchmarks=tuple(params.get("benchmarks", ("gzip",))),
        oracles=tuple(params.get("oracles", ORACLES)),
        scale=float(params.get("scale", 0.05)),
        variant=params.get("variant", "dise3"),
        max_steps=int(params.get("max_steps", 10_000_000)),
        bisect=bool(params.get("bisect", False)),
        window=int(params.get("window", 256)),
    )
    return run_verification(config, jobs=params.get("jobs", 1))


def _run_experiment_campaign(params: dict) -> dict:
    from repro.harness import ALL_EXPERIMENTS, Suite

    name = params.get("name")
    if name not in ALL_EXPERIMENTS:
        raise ProtocolError(
            f"unknown experiment {name!r}; choose from "
            f"{sorted(ALL_EXPERIMENTS)}"
        )
    suite = Suite(
        benchmarks=tuple(params["benchmarks"])
        if params.get("benchmarks") else None,
        scale=float(params.get("scale", 1.0)),
        jobs=params.get("jobs", 1),
        cache=None,
    )
    return {"name": name, "rendered": ALL_EXPERIMENTS[name](suite).render()}


_CAMPAIGN_DRIVERS = {
    "faults": _run_faults_campaign,
    "verify": _run_verify_campaign,
    "experiment": _run_experiment_campaign,
}

#: Ops gated by the tenant's wall-clock budget (the ones that consume
#: simulation resources).  Reads — state, result, events, checkpoint —
#: stay answerable so an over-budget tenant can still collect what it
#: already paid for.
_BUDGETED_OPS = frozenset(
    ("open_session", "step", "run", "fork", "campaign_start"))


class ServerCore:
    """The simulation service as one lockable object (no I/O)."""

    def __init__(self, *, pool_capacity: Optional[int] = None,
                 retirement_limit: Optional[int] = None,
                 wall_limit: Optional[float] = None,
                 state_dir=None, clock=None,
                 admin_token: Optional[str] = None):
        self._lock = threading.RLock()
        # Operator credential for the wire `shutdown` op: explicit
        # argument > REPRO_SERVE_ADMIN_TOKEN > disabled.  With no token
        # the op is refused outright — an anonymous tenant must not be
        # able to park the server for everyone (operators signal the
        # process instead; `ServerCore.shutdown()` stays callable).
        if admin_token is None:
            admin_token = os.environ.get("REPRO_SERVE_ADMIN_TOKEN") or None
        self.admin_token = admin_token
        self.catalog = ImageCatalog()
        self.pool = MachinePool(pool_capacity)
        kwargs = {} if clock is None else {"clock": clock}
        self.budgets = BudgetBook(retirement_limit=retirement_limit,
                                  wall_limit=wall_limit, **kwargs)
        self.sessions: Dict[str, Session] = {}
        self.campaigns: Dict[str, _Campaign] = {}
        self._session_seq = 0
        self._campaign_seq = 0
        self.closed = False
        self.state_dir = Path(state_dir) if state_dir else None
        self._resume_sessions()

    # -- graceful shutdown / resume ------------------------------------
    def _resume_sessions(self):
        """Revive sessions parked by a previous server's shutdown."""
        if self.state_dir is None:
            return
        path = self.state_dir / _STATE_FILE
        if not path.is_file():
            return
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("schema") != STATE_SCHEMA:
            raise ProtocolError(
                f"{path}: unsupported serve state schema "
                f"{doc.get('schema')!r}"
            )
        # Revive budget ledgers first: a restart must not refill a
        # tenant's spent retirement/wall-clock allowance.
        self.budgets.restore(doc.get("budgets", []))
        for state in doc.get("sessions", []):
            session = Session.from_state(state, self.catalog)
            self.sessions[session.session_id] = session
            # Keep new ids clear of revived ones ("s<N>").
            sid = session.session_id
            if sid.startswith("s") and sid[1:].isdigit():
                self._session_seq = max(self._session_seq, int(sid[1:]))
        path.unlink()  # consumed — a crash now re-parks at next shutdown
        telemetry.counter("serve.sessions.resumed").inc(
            len(self.sessions))

    def shutdown(self) -> dict:
        """Park every live session, persist them, refuse further work."""
        with self._lock:
            if self.closed:
                return {"persisted": 0, "state_dir":
                        str(self.state_dir) if self.state_dir else None}
            self.pool.park_all()
            persisted = 0
            if self.state_dir is not None:
                doc = {"schema": STATE_SCHEMA, "sessions": [],
                       "budgets": self.budgets.snapshot()}
                for session in self.sessions.values():
                    if session.closed:
                        continue
                    doc["sessions"].append(session.to_state())
                    persisted += 1
                self.state_dir.mkdir(parents=True, exist_ok=True)
                path = self.state_dir / _STATE_FILE
                tmp = path.with_suffix(".tmp")
                tmp.write_text(json.dumps(doc, sort_keys=True),
                               encoding="utf-8")
                tmp.replace(path)
            self.closed = True
            telemetry.counter("serve.shutdowns").inc()
            return {"persisted": persisted,
                    "state_dir": str(self.state_dir) if self.state_dir
                    else None}

    # -- request entry point -------------------------------------------
    def handle(self, request: dict) -> dict:
        """One request dict in, one response dict out; never raises."""
        request_id = request.get("id") if isinstance(request, dict) else None
        try:
            if not isinstance(request, dict):
                raise ProtocolError("request must be a JSON object")
            op = protocol.check_request(request)
            tenant = request.get("tenant", "anonymous")
            if not isinstance(tenant, str) or not tenant:
                raise ProtocolError("'tenant' must be a non-empty string")
            with self._lock:
                if self.closed and op not in ("hello", "stats"):
                    raise SessionError("server is shutting down")
                with telemetry.span("serve.request", op=op, tenant=tenant):
                    if op in _BUDGETED_OPS:
                        self.budgets.ledger(tenant).check_wall()
                    result = self._dispatch(op, tenant, request)
            telemetry.counter("serve.requests").inc()
            telemetry.counter(f"serve.requests.{op}").inc()
            return protocol.ok_response(request_id, result)
        except Exception as exc:  # envelope everything; nothing leaks
            telemetry.counter("serve.errors").inc()
            if isinstance(exc, ReproError):
                telemetry.counter(
                    f"serve.errors.{type(exc).__name__}").inc()
            return protocol.error_response(request_id, exc)

    # -- op dispatch ---------------------------------------------------
    def _dispatch(self, op: str, tenant: str, request: dict) -> dict:
        handler = getattr(self, f"_op_{op}")
        return handler(tenant, request)

    def _session(self, tenant: str, request: dict) -> Session:
        sid = request.get("session")
        session = self.sessions.get(sid)
        if session is None or session.closed:
            raise SessionError(f"no such session: {sid!r}", session=sid)
        if session.tenant != tenant:
            # Deliberately the same error as "never existed": tenants
            # cannot probe each other's session ids.
            raise SessionError(f"no such session: {sid!r}", session=sid)
        return session

    def _op_hello(self, tenant, request):
        return {"server": "repro-serve",
                "protocol": protocol.PROTOCOL_VERSION,
                "ops": list(protocol.OPS)}

    def _op_open_session(self, tenant, request):
        spec = request.get("spec")
        if not isinstance(spec, dict):
            raise ProtocolError("open_session needs a 'spec' object")
        self._session_seq += 1
        session = Session(f"s{self._session_seq}", tenant, spec,
                          self.catalog)
        self.sessions[session.session_id] = session
        self.pool.lease(session)
        self._count_build(session)
        telemetry.counter("serve.sessions.opened").inc()
        return session.state(status="open")

    def _count_build(self, session: Session):
        if session.warm_start:
            telemetry.counter("serve.pool.warm_builds").inc()
        else:
            telemetry.counter("serve.pool.cold_builds").inc()

    def _advance(self, tenant: str, request: dict, requested: int) -> dict:
        session = self._session(tenant, request)
        evictions_before = self.pool.evictions
        self.pool.lease(session)
        if self.pool.evictions > evictions_before:
            telemetry.counter("serve.pool.evictions").inc(
                self.pool.evictions - evictions_before)
        state = session.advance(requested, self.budgets.ledger(tenant))
        telemetry.counter("serve.retired").inc(state.get("retired", 0))
        return state

    def _op_step(self, tenant, request):
        return self._advance(tenant, request,
                             int(request.get("steps", 1)))

    def _op_run(self, tenant, request):
        return self._advance(
            tenant, request,
            int(request.get("max_steps", MAX_STEPS_PER_REQUEST)))

    def _op_checkpoint(self, tenant, request):
        session = self._session(tenant, request)
        return {"checkpoint": session.checkpoint_state()}

    def _op_restore(self, tenant, request):
        session = self._session(tenant, request)
        state = request.get("checkpoint")
        if not isinstance(state, dict):
            raise ProtocolError("restore needs a 'checkpoint' object")
        # restore_state validates the checkpoint before it changes the
        # session; only then release the lease on the old machine.
        session.restore_state(state)
        self.pool.drop(session)
        return session.state(status="restored")

    def _op_fork(self, tenant, request):
        parent = self._session(tenant, request)
        if parent.machine is None and parent.parked is None:
            # An unstarted parent has nothing to checkpoint; lease it so
            # the fork captures its (initial) precise state.
            self.pool.lease(parent)
            self._count_build(parent)
        self._session_seq += 1
        child = Session.fork_from(parent, f"s{self._session_seq}",
                                  self.catalog)
        self.sessions[child.session_id] = child
        telemetry.counter("serve.sessions.forked").inc()
        return child.state(status="forked", parent=parent.session_id)

    def _op_state(self, tenant, request):
        return self._session(tenant, request).state()

    def _op_result(self, tenant, request):
        return self._session(tenant, request).result()

    def _op_events(self, tenant, request):
        session = self._session(tenant, request)
        events, cursor = session.events_since(
            int(request.get("cursor", 0)))
        return {"events": events, "cursor": cursor}

    def _op_close_session(self, tenant, request):
        session = self._session(tenant, request)
        self.pool.drop(session)
        session.closed = True
        del self.sessions[session.session_id]
        telemetry.counter("serve.sessions.closed").inc()
        return {"closed": session.session_id,
                "digest": session.observer.hexdigest(),
                "observations": session.observer.count}

    # -- campaigns -----------------------------------------------------
    def _op_campaign_start(self, tenant, request):
        kind = request.get("kind")
        driver = _CAMPAIGN_DRIVERS.get(kind)
        if driver is None:
            raise ProtocolError(
                f"unknown campaign kind {kind!r}; choose from "
                f"{sorted(_CAMPAIGN_DRIVERS)}"
            )
        params = request.get("params") or {}
        if not isinstance(params, dict):
            raise ProtocolError("'params' must be an object")
        self._campaign_seq += 1
        campaign_id = f"c{self._campaign_seq}"

        campaign = _Campaign(campaign_id, kind, tenant, None)

        def _run():
            try:
                campaign.report = driver(params)
                campaign.status = "done"
            except BaseException as exc:
                campaign.error = exc
                campaign.status = "error"

        thread = threading.Thread(
            target=_run, name=f"serve-campaign-{campaign_id}", daemon=True)
        campaign.thread = thread
        self.campaigns[campaign_id] = campaign
        telemetry.counter("serve.campaigns.started").inc()
        thread.start()
        return {"campaign": campaign_id, "kind": kind, "status": "running"}

    def _op_campaign_poll(self, tenant, request):
        campaign = self.campaigns.get(request.get("campaign"))
        if campaign is None or campaign.tenant != tenant:
            # Deliberately the same error as "never existed": campaign
            # ids are sequential, and tenants must not be able to probe
            # (let alone read) each other's campaign reports.
            raise ProtocolError(
                f"no such campaign: {request.get('campaign')!r}")
        return campaign.poll()

    # -- introspection -------------------------------------------------
    def _op_stats(self, tenant, request):
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "sessions": len(self.sessions),
            "pool": self.pool.stats(),
            "catalog": self.catalog.stats(),
            "budgets": self.budgets.snapshot(),
            "campaigns": {
                cid: c.status for cid, c in self.campaigns.items()
                if c.tenant == tenant},
            "closed": self.closed,
        }

    def _op_shutdown(self, tenant, request):
        if self.admin_token is None:
            raise ProtocolError(
                "shutdown over the wire is disabled; start the server "
                "with --admin-token/REPRO_SERVE_ADMIN_TOKEN or signal "
                "the process (SIGINT/SIGTERM)"
            )
        token = request.get("token")
        if not isinstance(token, str) or \
                not hmac.compare_digest(token, self.admin_token):
            raise ProtocolError("shutdown requires the operator "
                                "admin token")
        return self.shutdown()


# ----------------------------------------------------------------------
# asyncio TCP shell
# ----------------------------------------------------------------------
class ReproServer:
    """Newline-delimited JSON over TCP, framing a :class:`ServerCore`."""

    def __init__(self, core: Optional[ServerCore] = None,
                 host: str = "127.0.0.1", port: int = 0, **core_kwargs):
        self.core = core if core is not None else ServerCore(**core_kwargs)
        self.host = host
        self.port = port
        self._server = None

    @staticmethod
    async def _read_frame(reader):
        """One newline-terminated frame, or ``None`` at EOF.

        Raises :class:`ProtocolError` when a frame overruns the stream
        limit, after consuming the oversized frame up to its newline —
        so the caller can report the error on the wire and keep serving
        the connection (pipelined frames behind it are untouched).
        """
        import asyncio

        try:
            return await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            # EOF: a final unterminated frame is still decoded.
            return exc.partial or None
        except asyncio.LimitOverrunError as exc:
            discarded = 0
            consumed = exc.consumed
            while True:
                discarded += len(await reader.readexactly(max(1, consumed)))
                try:
                    discarded += len(await reader.readuntil(b"\n"))
                    break
                except asyncio.LimitOverrunError as again:
                    consumed = again.consumed
                except asyncio.IncompleteReadError:
                    break
            raise ProtocolError(
                f"frame of {discarded} bytes exceeds the "
                f"{protocol.MAX_FRAME_BYTES}-byte limit"
            ) from None

    async def _handle_connection(self, reader, writer):
        import asyncio

        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    line = await self._read_frame(reader)
                except ProtocolError as exc:
                    response = protocol.error_response(None, exc)
                    writer.write(protocol.encode_message(response))
                    await writer.drain()
                    continue
                except ConnectionError:
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = protocol.decode_message(line)
                except ProtocolError as exc:
                    response = protocol.error_response(None, exc)
                else:
                    # The core is blocking (a `run` may simulate millions
                    # of steps); keep the loop free to accept/read.
                    response = await loop.run_in_executor(
                        None, self.core.handle, request)
                try:
                    payload = protocol.encode_message(response)
                except ProtocolError as exc:
                    # The result outgrew the frame cap (huge campaign
                    # report / events backlog): the client gets a small
                    # typed error, not a dead connection.
                    payload = protocol.encode_message(
                        protocol.error_response(response.get("id"), exc))
                writer.write(payload)
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                # Teardown path: the loop is being drained; the transport
                # is closed either way.
                pass

    async def start(self):
        import asyncio

        # The stream limit must cover a full protocol frame (asyncio's
        # default is 64 KiB, which would reject the 16 MiB frames the
        # protocol promises — large restore checkpoints, source
        # uploads); slack covers the newline terminator.
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=protocol.MAX_FRAME_BYTES + 1024)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self):
        async with self._server:
            await self._server.serve_forever()

    async def stop(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.core.shutdown()


def run_server(host: str = "127.0.0.1", port: int = 0,
               ready=None, **core_kwargs) -> int:
    """Blocking entry point used by ``repro-cli serve``.

    Prints/announces the bound address, serves until SIGINT/SIGTERM,
    then shuts the core down gracefully (parking and persisting
    sessions).  ``ready`` is called with the bound ``(host, port)`` once
    accepting — tests and the CI smoke job use it to rendezvous.
    Explicit signal handlers matter: a backgrounded server inherits
    ``SIGINT`` ignored from non-interactive shells, and installing a
    handler overrides that disposition.
    """
    import asyncio
    import signal

    server = ReproServer(host=host, port=port, **core_kwargs)

    async def _main():
        await server.start()
        if ready is not None:
            ready(server.host, server.port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, ValueError):
                pass  # non-main thread / platform without support
        forever = asyncio.ensure_future(server.serve_forever())
        stopper = asyncio.ensure_future(stop.wait())
        await asyncio.wait({forever, stopper},
                           return_when=asyncio.FIRST_COMPLETED)
        forever.cancel()
        stopper.cancel()
        await asyncio.gather(forever, stopper, return_exceptions=True)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        summary = server.core.shutdown()
        telemetry.event("serve.shutdown", **{
            "persisted": summary["persisted"]})
    return 0
