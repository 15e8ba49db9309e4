"""Tests for the serving layer (:mod:`repro.serve`).

Covers the tentpole guarantees:

* wire protocol framing, canonical errors, and typed client-side rebuild;
* session lifecycle — open/step/run/result — with the served observation
  digest byte-identical to :func:`repro.serve.session.batch_digest` and
  to what ``repro-cli run --digest`` prints (the reproducibility oracle);
* LRU machine-pool eviction, checkpoint/restore, and fork all leave the
  digest chain untouched;
* cross-tenant warm starts through the shared, content-keyed
  :class:`ImageCatalog` (one image, one translation store);
* per-tenant budgets enforced with retirement-count precision
  (``used == limit`` exactly) and wall-clock budgets with an injected
  clock — both surfacing as structured
  :class:`~repro.errors.BudgetExceededError`;
* graceful shutdown parking every live session and a fresh server
  resuming them with digest continuity;
* the asyncio TCP shell: same results, same typed errors, over a socket;
* background campaigns (faults/verify/experiment) including surviving a
  scripted worker kill;
* ``serve.*`` telemetry counters and the run-log access log.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.errors import (
    BudgetExceededError,
    ExecutionTimeout,
    ProtocolError,
    SessionError,
)
from repro.serve import protocol
from repro.serve.budgets import TenantLedger
from repro.serve.client import InProcessClient, TcpClient
from repro.serve.server import ReproServer, ServerCore
from repro.serve.session import ImageCatalog, batch_digest, build_installation
from repro.verify.observe import ChainedObserver
from repro.workloads import generate_by_name

#: The canonical serving spec used throughout: the same workload the CI
#: smoke job and BENCH_serve.json drive.
SPEC = {"benchmark": "gzip", "scale": 0.05, "acf": "dise3"}

#: Pinned chained digest of SPEC under the "full" projection.  Anything —
#: dispatch tier, serving, eviction, forking, restarts — that changes this
#: value has broken observable behaviour.
PINNED_DIGEST = \
    "88d57a14a3304a61c44da352438d8391672559b34e71b919db0fa757264bc83f"
PINNED_OBSERVATIONS = 34156


@pytest.fixture(autouse=True)
def _hermetic_serve_env(monkeypatch):
    """Serve knobs come from arguments, not the ambient environment."""
    for name in ("REPRO_SERVE_POOL", "REPRO_SERVE_RETIREMENTS",
                 "REPRO_SERVE_WALL", "REPRO_SERVE_ACCESS_LOG",
                 "REPRO_SERVE_STATE", "REPRO_SERVE_ADMIN_TOKEN",
                 "REPRO_DISPATCH"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture(scope="module")
def batch():
    """The batch-side oracle for SPEC (computed once per module)."""
    return batch_digest(SPEC)


def make_core(**kwargs):
    kwargs.setdefault("pool_capacity", 4)
    return ServerCore(**kwargs)


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_round_trip(self):
        message = {"id": 3, "op": "step", "steps": 100}
        frame = protocol.encode_message(message)
        assert frame.endswith(b"\n")
        assert protocol.decode_message(frame) == message

    def test_canonical_json_sorted_keys(self):
        frame = protocol.encode_message({"b": 1, "a": 2})
        assert frame == b'{"a": 2, "b": 1}\n'

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError):
            protocol.decode_message(b"not json\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            protocol.decode_message(b"[1, 2]\n")

    def test_decode_rejects_oversized_frame(self):
        with pytest.raises(ProtocolError):
            protocol.decode_message(b"x" * (protocol.MAX_FRAME_BYTES + 1))

    def test_encode_rejects_oversized_frame(self):
        with pytest.raises(ProtocolError):
            protocol.encode_message({"a": "x" * protocol.MAX_FRAME_BYTES})

    def test_check_request_unknown_op(self):
        with pytest.raises(ProtocolError):
            protocol.check_request({"op": "bogus"})
        with pytest.raises(ProtocolError):
            protocol.check_request({"id": 1})

    def test_budget_error_rebuilds_typed(self):
        original = BudgetExceededError(
            "over", tenant="t0", budget="retirements", limit=10, used=10)
        payload = protocol.error_response(7, original)
        assert payload["id"] == 7 and payload["ok"] is False
        with pytest.raises(BudgetExceededError) as info:
            protocol.raise_error_payload(payload["error"])
        exc = info.value
        assert exc.tenant == "t0" and exc.budget == "retirements"
        assert exc.limit == 10 and exc.used == 10
        assert exc.retryable is False

    def test_session_error_rebuilds_typed(self):
        payload = protocol.error_response(
            1, SessionError("gone", session="s9"))["error"]
        with pytest.raises(SessionError) as info:
            protocol.raise_error_payload(payload)
        assert info.value.session == "s9"

    def test_unknown_error_becomes_remote_error(self):
        payload = protocol.error_response(1, ValueError("boom"))["error"]
        with pytest.raises(protocol.RemoteError) as info:
            protocol.raise_error_payload(payload)
        assert info.value.error_type == "ValueError"
        assert info.value.retryable is False


# ----------------------------------------------------------------------
# Chained observer (the digest that survives serialization)
# ----------------------------------------------------------------------
class TestChainedObserver:
    def test_state_round_trip(self):
        observer = ChainedObserver("full")
        state = observer.state()
        revived = ChainedObserver("full", state=state)
        assert revived.hexdigest() == observer.hexdigest()
        assert revived.count == observer.count == 0
        assert state["digest"] == ChainedObserver.SEED.hex()

    def test_projection_mismatch_rejected(self):
        state = ChainedObserver("full").state()
        with pytest.raises(ValueError):
            ChainedObserver("app", state=state)

    def test_malformed_digest_rejected(self):
        with pytest.raises(ValueError):
            ChainedObserver("full", state={"projection": "full",
                                           "count": 1, "digest": "abcd"})

    def test_clone_continues_independently(self, batch):
        # The module oracle itself exercises the fold; here just pin that
        # a clone starts equal and diverges independently.
        observer = ChainedObserver("full",
                                   state={"projection": "full", "count": 5,
                                          "digest": "11" * 32})
        twin = observer.clone()
        assert twin.hexdigest() == observer.hexdigest()
        twin._fold(b"obs")
        assert twin.count == 6 and observer.count == 5
        assert twin.hexdigest() != observer.hexdigest()


# ----------------------------------------------------------------------
# Machine.checkpoint fork semantics + warm re-bind (satellite)
# ----------------------------------------------------------------------
class TestMachineCheckpointFork:
    @pytest.fixture(scope="class")
    def installation(self):
        return build_installation(
            generate_by_name("gzip", scale=0.05), "dise3")

    def test_checkpoint_carries_counters(self, installation):
        machine = installation.make_machine(record_trace=False)
        with pytest.raises(ExecutionTimeout):
            machine.run(max_steps=5000)
        state = machine.checkpoint()
        counters = state["counters"]
        assert counters["instructions"] == machine.instructions == 5000
        for field in ("app_instructions", "expansions", "pt_misses",
                      "rt_misses"):
            assert field in counters

    def test_restore_forks_an_independent_machine(self, installation):
        parent = installation.make_machine(record_trace=False)
        with pytest.raises(ExecutionTimeout):
            parent.run(max_steps=5000)
        child = installation.make_machine(record_trace=False)
        child.restore(parent.checkpoint())
        assert child.instructions == parent.instructions
        # Advancing the child must not disturb the parent (fork, not move).
        with pytest.raises(ExecutionTimeout):
            child.run(max_steps=1000)
        assert parent.instructions == 5000
        assert child.instructions == 6000
        # Both lineages converge on identical architectural results.
        parent_result = parent.run()
        child_result = child.run()
        assert child_result.outputs == parent_result.outputs
        assert child_result.instructions == parent_result.instructions

    def test_fresh_machine_rebinds_warm(self, installation):
        first = installation.make_machine(record_trace=False)
        first.run()
        fresh = installation.make_machine(record_trace=False)
        assert fresh._warm is True


# ----------------------------------------------------------------------
# Session lifecycle through the in-process client
# ----------------------------------------------------------------------
class TestSessionLifecycle:
    def test_hello(self):
        client = InProcessClient(make_core())
        view = client.hello()
        assert view["protocol"] == protocol.PROTOCOL_VERSION
        assert "open_session" in view["ops"]

    def test_run_to_halt_matches_batch(self, batch):
        client = InProcessClient(make_core(), tenant="t0")
        sid = client.open_session(dict(SPEC))
        view = client.run(sid)
        assert view["halted"] is True
        result = client.result(sid)
        assert result["digest"] == batch["digest"] == PINNED_DIGEST
        assert result["observations"] == batch["observations"] \
            == PINNED_OBSERVATIONS
        assert result["outputs"] == batch["outputs"]
        closed = client.close_session(sid)
        assert closed["digest"] == batch["digest"]

    def test_incremental_steps_match_batch(self, batch):
        client = InProcessClient(make_core(), tenant="t0")
        sid = client.open_session(dict(SPEC))
        view = client.state(sid)
        while not view["halted"]:
            view = client.step(sid, steps=4000)
        assert view["digest"] == batch["digest"]
        assert client.result(sid)["observations"] == batch["observations"]

    def test_result_before_halt_rejected(self):
        client = InProcessClient(make_core(), tenant="t0")
        sid = client.open_session(dict(SPEC))
        client.step(sid, steps=100)
        with pytest.raises(SessionError):
            client.result(sid)

    def test_unknown_session_rejected(self):
        client = InProcessClient(make_core(), tenant="t0")
        with pytest.raises(SessionError) as info:
            client.state("s999")
        assert info.value.session == "s999"

    def test_tenants_cannot_see_each_other(self):
        core = make_core()
        sid = InProcessClient(core, tenant="alice").open_session(dict(SPEC))
        with pytest.raises(SessionError):
            InProcessClient(core, tenant="mallory").state(sid)

    def test_spec_validation(self):
        client = InProcessClient(make_core(), tenant="t0")
        with pytest.raises(ProtocolError):
            client.open_session({"benchmark": "gzip", "typo": 1})
        with pytest.raises(ProtocolError):
            client.open_session({"benchmark": "gzip", "acf": "dise9"})
        with pytest.raises(ProtocolError):
            client.open_session({"benchmark": "gzip", "source": "halt"})
        with pytest.raises(ProtocolError):
            client.open_session({})

    def test_events_stream(self):
        client = InProcessClient(make_core(), tenant="t0")
        sid = client.open_session(dict(SPEC))
        client.step(sid, steps=500)
        view = client.events(sid)
        kinds = [event["kind"] for event in view["events"]]
        assert "machine_built" in kinds and "advanced" in kinds
        tail = client.events(sid, cursor=view["cursor"])
        assert tail["events"] == []
        assert tail["cursor"] == view["cursor"]

    def test_envelope_never_raises(self):
        core = make_core()
        assert core.handle("not a dict")["ok"] is False
        response = core.handle({"id": 7, "op": "bogus"})
        assert response["id"] == 7 and response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"
        assert core.handle({"op": "hello", "tenant": ""})["ok"] is False

    def test_oversized_result_enveloped_in_process(self):
        class _HugeCore:
            def handle(self, request):
                return protocol.ok_response(
                    request.get("id"),
                    {"blob": "x" * protocol.MAX_FRAME_BYTES})

        client = InProcessClient(_HugeCore(), tenant="t0")
        with pytest.raises(ProtocolError) as info:
            client.call("stats")
        assert "limit" in str(info.value)


# ----------------------------------------------------------------------
# Cross-tenant warm starts through the shared catalog
# ----------------------------------------------------------------------
class TestWarmSharing:
    def test_second_tenant_binds_warm(self, batch):
        core = make_core()
        first = InProcessClient(core, tenant="tenant1")
        sid1 = first.open_session(dict(SPEC))
        assert first.state(sid1)["warm_start"] is False
        first.run(sid1)
        second = InProcessClient(core, tenant="tenant2")
        sid2 = second.open_session(dict(SPEC))
        assert second.state(sid2)["warm_start"] is True
        # Warm binding must not change what the run computes.
        second.run(sid2)
        assert second.result(sid2)["digest"] == batch["digest"]
        stats = core.catalog.stats()
        assert stats["images"] == 1 and stats["hits"] >= 1

    def test_different_acfs_do_not_share_installations(self):
        core = make_core()
        client = InProcessClient(core, tenant="t0")
        client.open_session(dict(SPEC))
        client.open_session(dict(SPEC, acf="plain"))
        # One image (content-keyed), two installations (acf-keyed).
        assert core.catalog.stats()["images"] == 1
        assert len(core.catalog._installations) == 2


# ----------------------------------------------------------------------
# LRU eviction is digest-invisible
# ----------------------------------------------------------------------
class TestEviction:
    def test_round_robin_across_a_tiny_pool(self, batch):
        core = make_core(pool_capacity=1)
        client = InProcessClient(core, tenant="t0")
        sids = [client.open_session(dict(SPEC)) for _ in range(2)]
        live = list(sids)
        while live:
            live = [sid for sid in live
                    if not client.step(sid, steps=4000)["halted"]]
        for sid in sids:
            assert client.result(sid)["digest"] == batch["digest"]
        assert core.pool.stats()["evictions"] > 0
        kinds = [e["kind"] for e in client.events(sids[0])["events"]]
        assert "evicted" in kinds


# ----------------------------------------------------------------------
# Checkpoint / restore / fork
# ----------------------------------------------------------------------
class TestCheckpointRestoreFork:
    def test_restore_replays_to_the_same_digest(self, batch):
        client = InProcessClient(make_core(), tenant="t0")
        sid = client.open_session(dict(SPEC))
        client.step(sid, steps=5000)
        saved = client.checkpoint(sid)
        assert client.run(sid)["digest"] == batch["digest"]
        view = client.restore(sid, saved)
        assert view["instructions"] == 5000
        assert view["digest"] == saved["observer"]["digest"]
        assert client.run(sid)["digest"] == batch["digest"]

    def test_checkpoint_survives_json(self, batch):
        client = InProcessClient(make_core(), tenant="t0")
        sid = client.open_session(dict(SPEC))
        client.step(sid, steps=5000)
        saved = json.loads(json.dumps(client.checkpoint(sid)))
        client.restore(sid, saved)
        assert client.run(sid)["digest"] == batch["digest"]

    def test_fork_continues_the_digest_chain(self, batch):
        core = make_core()
        client = InProcessClient(core, tenant="t0")
        parent = client.open_session(dict(SPEC))
        client.step(parent, steps=5000)
        child_view = client.fork(parent)
        child = child_view["session"]
        assert child != parent
        assert child_view["status"] == "forked"
        assert child_view["parent"] == parent
        assert child_view["digest"] == client.state(parent)["digest"]
        # Both lineages independently run to the same final digest.
        assert client.run(child)["digest"] == batch["digest"]
        assert client.run(parent)["digest"] == batch["digest"]

    def test_fork_of_unstarted_session(self, batch):
        client = InProcessClient(make_core(), tenant="t0")
        parent = client.open_session(dict(SPEC))
        child = client.fork(parent)["session"]
        assert client.run(child)["digest"] == batch["digest"]

    def test_restore_spec_mismatch_rejected(self):
        client = InProcessClient(make_core(), tenant="t0")
        dise = client.open_session(dict(SPEC))
        client.step(dise, steps=100)
        saved = client.checkpoint(dise)
        plain = client.open_session(dict(SPEC, acf="plain"))
        client.step(plain, steps=100)
        with pytest.raises(ProtocolError):
            client.restore(plain, saved)

    def test_restore_malformed_checkpoint_rejected(self):
        client = InProcessClient(make_core(), tenant="t0")
        sid = client.open_session(dict(SPEC))
        client.step(sid, steps=100)
        with pytest.raises(ProtocolError):
            client.restore(sid, {"machine": "nope"})

    @pytest.mark.parametrize("corrupt", [
        lambda saved: saved["observer"].update(digest="zz" * 32),
        lambda saved: saved["observer"].update(digest="11" * 31),
        lambda saved: saved["observer"].update(projection="app"),
        lambda saved: saved.update(spec=dict(SPEC, acf="plain")),
        lambda saved: saved.update(spec=7),
        lambda saved: saved.pop("machine"),
        lambda saved: saved["machine"].pop("regs"),
        lambda saved: saved.update(observer=None),
    ], ids=["bad-hex-digest", "31-byte-digest", "projection-mismatch",
            "spec-mismatch", "spec-not-object", "no-machine",
            "machine-without-regs", "no-observer-state"])
    def test_rejected_restore_leaves_session_intact(self, corrupt):
        client = InProcessClient(make_core(), tenant="t0")
        sid = client.open_session(dict(SPEC))
        client.step(sid, steps=2000)
        saved = client.checkpoint(sid)
        corrupt(saved)
        with pytest.raises(ProtocolError):
            client.restore(sid, saved)
        result = client.run(sid)
        assert result["digest"] == PINNED_DIGEST
        assert result["observations"] == PINNED_OBSERVATIONS


# ----------------------------------------------------------------------
# Budgets (satellite): precise retirement counts, injectable wall clock
# ----------------------------------------------------------------------
class TestBudgets:
    def test_ledger_window_and_settle(self):
        ledger = TenantLedger("t0", retirement_limit=100)
        assert ledger.charge_window(60) == 60
        ledger.settle(60, clamped=False)
        assert ledger.charge_window(60) == 40  # clamped to remaining
        with pytest.raises(BudgetExceededError):
            ledger.settle(40, clamped=True)
        assert ledger.retired == 100
        with pytest.raises(BudgetExceededError) as info:
            ledger.charge_window(1)
        assert info.value.used == info.value.limit == 100

    def test_unlimited_ledger_never_raises(self):
        ledger = TenantLedger("t0")
        assert ledger.charge_window(10 ** 9) == 10 ** 9
        ledger.settle(10 ** 9, clamped=False)
        ledger.check_wall()

    def test_retirement_budget_is_exact(self, batch):
        core = make_core(retirement_limit=10_000)
        client = InProcessClient(core, tenant="t0")
        sid = client.open_session(dict(SPEC))
        with pytest.raises(BudgetExceededError) as info:
            client.run(sid)
        exc = info.value
        assert exc.used == exc.limit == 10_000
        assert exc.budget == "retirements"
        assert exc.tenant == "t0"
        assert exc.retryable is False
        # The budgeted prefix is byte-identical to an unbudgeted run of
        # the same length: the budget changes when the run stops, never
        # what it computes.
        view = client.state(sid)
        assert view["instructions"] == 10_000
        free = InProcessClient(make_core(), tenant="t0")
        other = free.open_session(dict(SPEC))
        assert free.step(other, steps=10_000)["digest"] == view["digest"]

    def test_exhausted_budget_rejects_immediately(self):
        core = make_core(retirement_limit=10_000)
        client = InProcessClient(core, tenant="t0")
        sid = client.open_session(dict(SPEC))
        with pytest.raises(BudgetExceededError):
            client.run(sid)
        with pytest.raises(BudgetExceededError) as info:
            client.step(sid, steps=1)
        assert info.value.used == 10_000

    def test_budget_spans_a_tenants_sessions(self):
        core = make_core(retirement_limit=10_000)
        client = InProcessClient(core, tenant="t0")
        first = client.open_session(dict(SPEC))
        client.step(first, steps=6000)
        second = client.open_session(dict(SPEC))
        with pytest.raises(BudgetExceededError) as info:
            client.step(second, steps=6000)
        assert info.value.used == 10_000
        assert client.state(second)["instructions"] == 4000

    def test_budgets_are_per_tenant(self, batch):
        core = make_core(retirement_limit=10_000)
        poor = InProcessClient(core, tenant="poor")
        sid = poor.open_session(dict(SPEC))
        with pytest.raises(BudgetExceededError):
            poor.run(sid)
        rich = InProcessClient(core, tenant="rich")
        other = rich.open_session(dict(SPEC))
        with pytest.raises(BudgetExceededError):
            rich.run(other)  # same limit, but their own meter
        assert core.budgets.ledger("rich").retired == 10_000

    def test_wall_clock_budget_with_injected_clock(self):
        now = [0.0]
        core = make_core(wall_limit=5.0, clock=lambda: now[0])
        client = InProcessClient(core, tenant="t0")
        sid = client.open_session(dict(SPEC))
        client.step(sid, steps=100)
        now[0] = 6.0
        with pytest.raises(BudgetExceededError) as info:
            client.step(sid, steps=100)
        assert info.value.budget == "wall_clock"
        assert info.value.limit == 5.0
        # Reads stay answerable: the tenant can still collect results.
        assert client.state(sid)["instructions"] == 100
        assert client.events(sid)["events"]
        client.checkpoint(sid)


# ----------------------------------------------------------------------
# Graceful shutdown and resume
# ----------------------------------------------------------------------
class TestShutdownResume:
    def test_shutdown_parks_and_resume_continues(self, tmp_path, batch):
        core = make_core(state_dir=tmp_path, admin_token="op-secret")
        client = InProcessClient(core, tenant="t0")
        sid = client.open_session(dict(SPEC))
        view = client.step(sid, steps=5000)
        summary = client.shutdown("op-secret")
        assert summary["persisted"] == 1
        assert (tmp_path / "sessions.json").is_file()
        # A closing server refuses work but still answers hello/stats.
        with pytest.raises(SessionError):
            client.step(sid, steps=1)
        assert client.hello()["protocol"] == protocol.PROTOCOL_VERSION
        assert client.stats()["closed"] is True

        revived = make_core(state_dir=tmp_path)
        assert not (tmp_path / "sessions.json").exists()  # consumed
        client2 = InProcessClient(revived, tenant="t0")
        resumed = client2.state(sid)
        assert resumed["parked"] is True
        assert resumed["instructions"] == 5000
        assert resumed["digest"] == view["digest"]
        assert client2.run(sid)["digest"] == batch["digest"]
        # New ids keep clear of revived ones.
        assert client2.open_session(dict(SPEC)) != sid
        # Budget usage survived the restart alongside the sessions.
        assert revived.budgets.ledger("t0").retired >= 5000

    def test_shutdown_without_state_dir(self):
        client = InProcessClient(make_core(admin_token="op-secret"),
                                 tenant="t0")
        client.open_session(dict(SPEC))
        summary = client.shutdown("op-secret")
        assert summary["persisted"] == 0 and summary["state_dir"] is None

    def test_shutdown_requires_admin_token(self):
        core = make_core(admin_token="op-secret")
        client = InProcessClient(core, tenant="mallory")
        with pytest.raises(ProtocolError):
            client.shutdown()  # no token
        with pytest.raises(ProtocolError):
            client.shutdown("guess")  # wrong token
        assert core.closed is False
        assert client.stats()["closed"] is False

    def test_shutdown_disabled_without_configured_token(self):
        core = make_core()  # no admin_token, env cleared by fixture
        client = InProcessClient(core, tenant="anyone")
        with pytest.raises(ProtocolError):
            client.shutdown()
        assert core.closed is False
        # The operator-side entry point still works (SIGINT path).
        assert core.shutdown()["persisted"] == 0

    def test_restart_does_not_refill_budgets(self, tmp_path):
        core = make_core(state_dir=tmp_path, retirement_limit=10_000,
                         admin_token="op-secret")
        client = InProcessClient(core, tenant="t0")
        sid = client.open_session(dict(SPEC))
        client.step(sid, steps=6000)
        client.shutdown("op-secret")

        revived = make_core(state_dir=tmp_path, retirement_limit=10_000)
        client2 = InProcessClient(revived, tenant="t0")
        with pytest.raises(BudgetExceededError) as info:
            client2.step(sid, steps=6000)
        # The meter continued from 6000: exactly 4000 more retire.
        assert info.value.used == info.value.limit == 10_000
        assert client2.state(sid)["instructions"] == 10_000

    def test_malformed_observer_state_rejected(self, tmp_path):
        core = make_core(state_dir=tmp_path, admin_token="op-secret")
        client = InProcessClient(core, tenant="t0")
        client.step(client.open_session(dict(SPEC)), steps=100)
        client.shutdown("op-secret")
        path = tmp_path / "sessions.json"
        doc = json.loads(path.read_text())
        doc["sessions"][0]["observer"]["digest"] = "11" * 31
        path.write_text(json.dumps(doc))
        with pytest.raises(ProtocolError):
            make_core(state_dir=tmp_path)

    def test_unsupported_state_schema_rejected(self, tmp_path):
        (tmp_path / "sessions.json").write_text(
            json.dumps({"schema": 999, "sessions": []}))
        with pytest.raises(ProtocolError):
            make_core(state_dir=tmp_path)


# ----------------------------------------------------------------------
# The asyncio TCP shell
# ----------------------------------------------------------------------
@pytest.fixture
def tcp_server():
    server = ReproServer(core=ServerCore(pool_capacity=2))
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

    thread = threading.Thread(target=_thread, name="serve-test", daemon=True)
    thread.start()
    assert ready.wait(10), "server did not start"
    yield server
    loop.call_soon_threadsafe(holder["task"].cancel)
    thread.join(10)


class TestTcpTransport:
    def test_served_digest_over_the_wire(self, tcp_server, batch):
        with TcpClient("127.0.0.1", tcp_server.port, tenant="t0") as client:
            assert client.hello()["protocol"] == protocol.PROTOCOL_VERSION
            sid = client.open_session(dict(SPEC))
            view = client.run(sid)
            assert view["halted"] is True
            assert client.result(sid)["digest"] == batch["digest"]

    def test_typed_errors_cross_the_wire(self, tcp_server):
        with TcpClient("127.0.0.1", tcp_server.port, tenant="t0") as client:
            with pytest.raises(SessionError) as info:
                client.state("s404")
            assert info.value.session == "s404"

    def test_connections_share_the_core(self, tcp_server):
        with TcpClient("127.0.0.1", tcp_server.port, tenant="t0") as one:
            sid = one.open_session(dict(SPEC))
        with TcpClient("127.0.0.1", tcp_server.port, tenant="t0") as two:
            assert two.state(sid)["session"] == sid

    def test_blank_lines_ignored(self, tcp_server):
        client = TcpClient("127.0.0.1", tcp_server.port, tenant="t0")
        try:
            client._sock.sendall(b"\n")
            assert client.hello()["server"] == "repro-serve"
        finally:
            client.close()

    def test_large_frames_cross_the_wire(self, tcp_server):
        # Frames well past asyncio's 64 KiB default stream limit (e.g.
        # restore checkpoints, source uploads) must round-trip; handlers
        # ignore the unknown padding field.
        with TcpClient("127.0.0.1", tcp_server.port, tenant="t0") as client:
            view = client.call("hello", pad="x" * (512 * 1024))
            assert view["server"] == "repro-serve"

    def test_oversized_frame_gets_error_not_hangup(self, tcp_server):
        client = TcpClient("127.0.0.1", tcp_server.port, tenant="t0",
                           timeout=120.0)
        try:
            client._sock.sendall(
                b"x" * (protocol.MAX_FRAME_BYTES + 64 * 1024) + b"\n")
            line = client._file.readline()
            response = protocol.decode_message(line)
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert "limit" in response["error"]["message"]
            # The connection survives and keeps serving.
            assert client.hello()["server"] == "repro-serve"
        finally:
            client.close()

    def test_oversized_response_gets_error_envelope(self, tcp_server):
        blob = {"blob": "x" * protocol.MAX_FRAME_BYTES}
        tcp_server.core.handle = lambda request: protocol.ok_response(
            request.get("id"), blob)
        try:
            with TcpClient("127.0.0.1", tcp_server.port, tenant="t0",
                           timeout=120.0) as client:
                with pytest.raises(ProtocolError) as info:
                    client.call("stats")
                assert "limit" in str(info.value)
        finally:
            del tcp_server.core.handle  # restore the real bound method


# ----------------------------------------------------------------------
# Campaigns through the service
# ----------------------------------------------------------------------
def _poll_until_done(client, campaign, timeout=300.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        view = client.campaign_poll(campaign)
        if view["status"] != "running":
            return view
        time.sleep(0.1)
    raise AssertionError("campaign did not finish in time")


class TestCampaigns:
    def test_faults_campaign(self):
        client = InProcessClient(make_core(), tenant="t0")
        campaign = client.campaign_start("faults", {
            "faults": 3, "scale": 0.03, "seed": 11})
        view = _poll_until_done(client, campaign)
        assert view["status"] == "done"
        assert view["report"]

    def test_faults_campaign_survives_killed_worker(self):
        # ChaosPlan SIGKILLs the worker running fault f0001 on its first
        # attempt; the fabric retries and the campaign — and the server
        # above it — completes as if nothing happened.
        core = make_core()
        client = InProcessClient(core, tenant="t0")
        baseline = client.campaign_start("faults", {
            "faults": 3, "scale": 0.03, "seed": 11, "jobs": 2})
        chaotic = client.campaign_start("faults", {
            "faults": 3, "scale": 0.03, "seed": 11, "jobs": 2,
            "chaos_kills": [["f0001", 1]]})
        expected = _poll_until_done(client, baseline)
        view = _poll_until_done(client, chaotic)
        assert view["status"] == "done"
        assert json.dumps(view["report"], sort_keys=True) == \
            json.dumps(expected["report"], sort_keys=True)
        # The server itself is still healthy after the lost worker.
        assert client.hello()["protocol"] == protocol.PROTOCOL_VERSION

    def test_verify_campaign(self):
        client = InProcessClient(make_core(), tenant="t0")
        campaign = client.campaign_start("verify", {
            "scale": 0.02, "oracles": ["roundtrip"]})
        view = _poll_until_done(client, campaign)
        assert view["status"] == "done"

    def test_campaign_errors_are_enveloped(self):
        client = InProcessClient(make_core(), tenant="t0")
        campaign = client.campaign_start("experiment", {"name": "bogus"})
        view = _poll_until_done(client, campaign)
        assert view["status"] == "error"
        assert view["error"]["type"] == "ProtocolError"

    def test_campaigns_are_tenant_scoped(self):
        core = make_core()
        alice = InProcessClient(core, tenant="alice")
        mallory = InProcessClient(core, tenant="mallory")
        campaign = alice.campaign_start("experiment", {"name": "bogus"})
        # Another tenant polling the (sequential) id gets the same error
        # as a nonexistent campaign — no probing, no report reads.
        with pytest.raises(ProtocolError):
            mallory.campaign_poll(campaign)
        view = _poll_until_done(alice, campaign)
        assert view["status"] == "error"
        assert campaign in alice.stats()["campaigns"]
        assert campaign not in mallory.stats()["campaigns"]

    def test_unknown_campaign_kind_rejected(self):
        client = InProcessClient(make_core(), tenant="t0")
        with pytest.raises(ProtocolError):
            client.campaign_start("bake-off")
        with pytest.raises(ProtocolError):
            client.campaign_poll("c404")


# ----------------------------------------------------------------------
# The batch-CLI side of the reproducibility oracle
# ----------------------------------------------------------------------
class TestCliOracle:
    def test_served_digest_equals_cli_digest(self, batch, capsys):
        """Acceptance pin: ``repro-cli run --digest`` prints the same
        chained digest a served session computes for the same spec."""
        from repro.tools.cli import main

        assert main(["run", "--benchmark", "gzip", "--scale", "0.05",
                     "--mfi", "dise3", "--digest"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("digest: ")]
        assert len(lines) == 1
        cli_digest = lines[0].split()[1]
        assert cli_digest == batch["digest"] == PINNED_DIGEST
        assert f"({batch['observations']} observations" in lines[0]

        client = InProcessClient(make_core(), tenant="t0")
        sid = client.open_session(dict(SPEC))
        assert client.run(sid)["digest"] == cli_digest


# ----------------------------------------------------------------------
# Telemetry: serve.* counters and the run-log access log
# ----------------------------------------------------------------------
class TestServeTelemetry:
    @pytest.fixture
    def telemetry_on(self):
        from repro.telemetry import events as events_mod
        from repro.telemetry import registry as registry_mod

        registry_mod.configure(True)
        registry_mod.get_registry().reset()
        try:
            yield events_mod
        finally:
            events_mod._CURRENT = events_mod._INERT_RUN
            registry_mod.configure(None)
            registry_mod.get_registry().reset()

    def test_counters_and_access_log(self, telemetry_on, tmp_path):
        from repro.telemetry import validate_log
        from repro.telemetry.registry import get_registry
        from repro.telemetry.summary import RunView, render_summary

        telemetry_on.start_run(tmp_path, argv=["serve-test"])
        core = make_core(pool_capacity=2)
        client = InProcessClient(core, tenant="t0")
        sid = client.open_session(dict(SPEC))
        client.step(sid, steps=1000)
        with pytest.raises(SessionError):
            client.state("s404")
        client.close_session(sid)
        core.shutdown()

        metrics = get_registry().snapshot()
        # Successful requests: open_session, step, close_session.
        assert metrics["serve.requests"]["value"] == 3
        assert metrics["serve.requests.open_session"]["value"] == 1
        assert metrics["serve.sessions.opened"]["value"] == 1
        assert metrics["serve.sessions.closed"]["value"] == 1
        assert metrics["serve.errors"]["value"] == 1
        assert metrics["serve.errors.SessionError"]["value"] == 1
        assert metrics["serve.retired"]["value"] == 1000
        assert metrics["serve.shutdowns"]["value"] == 1

        path = telemetry_on.finish_run("ok")
        assert validate_log(path) > 0
        run = RunView(path)
        # One serve.request span per request — the per-request trace tree
        # that makes the run log double as an access log.
        spans = [s for s in run.spans if s.get("name") == "serve.request"]
        assert len(spans) >= 4
        text = render_summary(run)
        assert "## Serve sessions" in text
        assert "op open_session" in text
        assert "sessions opened" in text

class TestStats:
    def test_stats_shape(self):
        client = InProcessClient(make_core(pool_capacity=3), tenant="t0")
        sid = client.open_session(dict(SPEC))
        client.step(sid, steps=100)
        stats = client.stats()
        assert stats["sessions"] == 1
        assert stats["pool"]["capacity"] == 3
        assert stats["pool"]["builds"] >= 1
        assert stats["catalog"]["images"] == 1
        assert stats["budgets"][0]["tenant"] == "t0"
        assert stats["closed"] is False
