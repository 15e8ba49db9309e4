"""Serving sessions: an image + ACF + machine + observation digest.

A session is the unit a tenant interacts with: it names a program (a
generated benchmark or uploaded assembly), an ACF to run it under, and an
observation projection, and then advances through the program in
``step``/``run`` increments.  The machine behind a session is *leased*
from the :class:`~repro.serve.pool.MachinePool` and may be evicted (parked
as a :meth:`Machine.checkpoint` dict) at any time between requests;
sessions therefore keep all digest state in a
:class:`~repro.verify.observe.ChainedObserver`, whose 32-byte chain value
survives parking, forking, and server restarts.

Reproducibility contract: a session's digest after running to halt equals
:func:`batch_digest` of the same spec — the byte-for-byte oracle the CI
smoke job and ``tests/test_serve.py`` pin against ``repro-cli run
--digest``.

Images are shared across sessions *and tenants* through
:class:`ImageCatalog`, keyed by content: every session on the same
benchmark/source shares one :class:`~repro.program.image.ProgramImage`,
hence one ``image._translation_store`` — so the second tenant's machines
bind warm to superblocks the first tenant's runs translated.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, Optional, Tuple

from repro.acf.base import AcfInstallation, plain_installation
from repro.acf.mfi import attach_mfi
from repro.errors import ExecutionTimeout, ProtocolError, SessionError
from repro.program.builder import build_from_assembly
from repro.serve.budgets import TenantLedger
from repro.verify.observe import PROJECTIONS, ChainedObserver
from repro.workloads import BENCHMARK_NAMES, generate_by_name

#: Upper bound on one ``run`` request's step window; a tenant wanting more
#: issues more requests (keeps single requests bounded even without a
#: retirement budget).
MAX_STEPS_PER_REQUEST = 30_000_000

#: ACF variants a session may run under.
ACF_CHOICES = ("plain", "dise3", "dise4")


# ----------------------------------------------------------------------
# JSON-safe checkpoints
# ----------------------------------------------------------------------
def checkpoint_to_json(state: dict) -> dict:
    """A :meth:`Machine.checkpoint` dict, made JSON-round-trip safe.

    The memory snapshot is an ``int -> int`` dict, which JSON would
    silently re-key as strings; flatten it to sorted address/value pairs.
    """
    out = dict(state)
    out["mem"] = sorted(state["mem"].items())
    return out


#: The :meth:`Machine.checkpoint` fields a parked session reads back.
_CHECKPOINT_FIELDS = ("regs", "mem", "idx", "disepc", "halted",
                      "fault_code", "outputs", "counters")


def checkpoint_from_json(obj: dict) -> dict:
    """Inverse of :func:`checkpoint_to_json`."""
    missing = [field for field in _CHECKPOINT_FIELDS if field not in obj]
    if missing:
        raise ProtocolError(
            f"machine checkpoint lacks {', '.join(missing)}")
    state = dict(obj)
    state["mem"] = {int(addr): value for addr, value in obj["mem"]}
    return state


def _observer_from_state(projection: str, state) -> ChainedObserver:
    """The :class:`ChainedObserver` continuing a saved digest chain;
    :class:`ProtocolError` when the saved state is malformed."""
    if not isinstance(state, dict):
        raise ProtocolError("observer state must be an object")
    try:
        return ChainedObserver(projection, state=state)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed observer state: {exc}") from None


# ----------------------------------------------------------------------
# Shared image catalog
# ----------------------------------------------------------------------
class ImageCatalog:
    """Content-keyed cache of :class:`ProgramImage` objects.

    Keys are ``("benchmark", name, scale)`` or ``("source", sha256)`` — a
    pure function of program content, so two tenants asking for the same
    program get the *same object*, and with it the same
    ``image._translation_store``.  That sharing is what makes cross-tenant
    warm starts correct (PR 5's ``production_signature`` keying) and is
    the mechanism behind the serve bench's warm-store hit rate.
    """

    def __init__(self):
        self._images: Dict[tuple, object] = {}
        self._installations: Dict[tuple, AcfInstallation] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def resolve(self, spec: dict) -> Tuple[tuple, object]:
        """``(key, image)`` for a session spec (see :class:`Session`)."""
        benchmark = spec.get("benchmark")
        source = spec.get("source")
        if (benchmark is None) == (source is None):
            raise ProtocolError(
                "session spec needs exactly one of 'benchmark' or 'source'"
            )
        if benchmark is not None:
            if benchmark not in BENCHMARK_NAMES:
                raise ProtocolError(
                    f"unknown benchmark {benchmark!r}; choose from "
                    f"{sorted(BENCHMARK_NAMES)}"
                )
            scale = float(spec.get("scale", 1.0))
            key = ("benchmark", benchmark, scale)
            build = lambda: generate_by_name(benchmark, scale=scale)
        else:
            if not isinstance(source, str):
                raise ProtocolError("'source' must be assembly text")
            digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
            key = ("source", digest)
            build = lambda: build_from_assembly(source)
        with self._lock:
            image = self._images.get(key)
            if image is not None:
                self.hits += 1
                return key, image
            self.misses += 1
        # Build outside the lock (benchmark generation can be slow); a
        # racing duplicate build is wasted work, not an error — first
        # writer wins so every session still sees one shared object.
        image = build()
        with self._lock:
            return key, self._images.setdefault(key, image)

    def resolve_installation(self, spec: dict) -> Tuple[tuple,
                                                        AcfInstallation]:
        """``(key, installation)`` for a spec, shared by content + ACF.

        ACF attachment can wrap the image (``attach_mfi`` appends an
        error-handler stub, yielding a *new* ``ProgramImage``), so warm
        sharing must key the **installation**, not just the raw image:
        every session on the same (program, acf) pair gets the same
        installation object, whose image carries the shared translation
        store.  ``make_machine`` builds a fresh controller per call, so
        sharing the installation never shares mutable machine state.
        """
        image_key, image = self.resolve(spec)
        acf = spec.get("acf", "plain")
        key = image_key + (acf,)
        with self._lock:
            installation = self._installations.get(key)
            if installation is not None:
                return key, installation
        installation = build_installation(image, acf)
        with self._lock:
            return key, self._installations.setdefault(key, installation)

    def stats(self) -> dict:
        with self._lock:
            return {"images": len(self._images), "hits": self.hits,
                    "misses": self.misses}


def build_installation(image, acf: str) -> AcfInstallation:
    """The ACF installation for a session spec's ``acf`` choice."""
    if acf == "plain":
        return plain_installation(image)
    if acf in ("dise3", "dise4"):
        return attach_mfi(image, acf)
    raise ProtocolError(
        f"unknown acf {acf!r}; choose from {ACF_CHOICES}"
    )


def _validate_spec(spec: dict) -> dict:
    """Normalize a session spec, rejecting unknown knobs early."""
    known = {"benchmark", "scale", "source", "acf", "projection",
             "dispatch"}
    extra = set(spec) - known
    if extra:
        raise ProtocolError(
            f"unknown session spec field(s): {', '.join(sorted(extra))}"
        )
    out = dict(spec)
    out["acf"] = spec.get("acf", "plain")
    if out["acf"] not in ACF_CHOICES:
        raise ProtocolError(
            f"unknown acf {out['acf']!r}; choose from {ACF_CHOICES}"
        )
    out["projection"] = spec.get("projection", "full")
    if out["projection"] not in PROJECTIONS:
        raise ProtocolError(
            f"unknown projection {out['projection']!r}; choose from "
            f"{PROJECTIONS}"
        )
    dispatch = spec.get("dispatch")
    if dispatch is not None and dispatch not in ("translated", "fast",
                                                 "generic"):
        raise ProtocolError(
            f"unknown dispatch {dispatch!r}; choose from "
            "translated, fast, generic"
        )
    return out


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
class Session:
    """One tenant-visible execution: spec, digest chain, machine or park.

    The live machine is optional — between requests a session may hold
    only its parked checkpoint (LRU eviction, server restart).  All
    externally meaningful state (the observation digest chain, retirement
    totals, outputs) lives in JSON-serializable fields, so parking and
    reviving are digest-invisible.
    """

    def __init__(self, session_id: str, tenant: str, spec: dict,
                 catalog: ImageCatalog):
        self.session_id = session_id
        self.tenant = tenant
        self.spec = _validate_spec(spec)
        self.image_key, self.installation = \
            catalog.resolve_installation(self.spec)
        self.image = self.installation.image
        self.observer = ChainedObserver(self.spec["projection"])
        #: Parked precise state when no live machine is attached.  ``None``
        #: with ``machine is None`` means "not started yet" (a fresh
        #: machine starts from the image's entry state).
        self.parked: Optional[dict] = None
        self.machine = None
        #: Whether the most recent machine build bound warm to the shared
        #: ``image._translation_store`` entry.
        self.warm_start: Optional[bool] = None
        self.warm_builds = 0
        self.cold_builds = 0
        self.evictions = 0
        self.events: list = []
        self._event_seq = 0
        self.closed = False

    # -- events --------------------------------------------------------
    def add_event(self, kind: str, **fields):
        event = {"seq": self._event_seq, "kind": kind}
        event.update(fields)
        self._event_seq += 1
        self.events.append(event)

    def events_since(self, cursor: int) -> Tuple[list, int]:
        if cursor < 0:
            cursor = 0
        return self.events[cursor:], len(self.events)

    # -- machine lifecycle --------------------------------------------
    def build_machine(self):
        """Build (and, if parked, restore) the live machine.

        A fresh machine on the same image + an equivalent production set
        re-binds to the warm ``image._translation_store`` entry (see
        :meth:`Machine.checkpoint`), so revived and forked sessions skip
        interpretive warmup.
        """
        machine = self.installation.make_machine(
            record_trace=False, observer=self.observer,
            dispatch=self.spec.get("dispatch"),
        )
        if self.parked is not None:
            machine.restore(self.parked)
            self.parked = None
        self.machine = machine
        self.warm_start = bool(getattr(machine, "_warm", False))
        if self.warm_start:
            self.warm_builds += 1
        else:
            self.cold_builds += 1
        self.add_event("machine_built", warm=self.warm_start)
        return machine

    def park(self):
        """Checkpoint the live machine and drop it (LRU eviction)."""
        if self.machine is None:
            return
        self.parked = self.machine.checkpoint()
        self.machine = None
        self.evictions += 1
        self.add_event("evicted", digest=self.observer.hexdigest(),
                       observations=self.observer.count)

    # -- execution -----------------------------------------------------
    def advance(self, requested: int, ledger: TenantLedger) -> dict:
        """Retire up to ``requested`` dynamic instructions.

        The request window is clamped to the tenant's remaining
        retirement budget; if the *clamped* window (not the caller's own
        limit) is what stops the run, the ledger raises
        :class:`BudgetExceededError` with ``used == limit`` exactly —
        usage is settled first, so the error is raised *after* the
        retirements it reports.
        """
        if self.closed:
            raise SessionError("session is closed", session=self.session_id)
        if requested <= 0:
            raise ProtocolError("steps must be positive")
        requested = min(requested, MAX_STEPS_PER_REQUEST)
        machine = self.machine
        if machine is None:
            raise SessionError(
                "session has no leased machine (internal error)",
                session=self.session_id,
            )
        if machine.halted:
            return self.state(status="halted", retired=0)
        window = ledger.charge_window(requested)
        before = machine.instructions
        budget_clamped = window < requested
        timed_out = False
        try:
            machine.run(max_steps=window)
        except ExecutionTimeout:
            timed_out = True
        retired = machine.instructions - before
        try:
            ledger.settle(retired, clamped=timed_out and budget_clamped)
        finally:
            self.add_event("advanced", retired=retired,
                           digest=self.observer.hexdigest(),
                           halted=machine.halted)
        status = "halted" if machine.halted else "running"
        return self.state(status=status, retired=retired)

    # -- views ---------------------------------------------------------
    def state(self, status: Optional[str] = None, **extra) -> dict:
        machine = self.machine
        if machine is not None:
            halted = machine.halted
            out = {
                "halted": halted,
                "fault_code": machine.fault_code,
                "instructions": machine.instructions,
                "outputs": list(machine.outputs),
            }
        elif self.parked is not None:
            out = {
                "halted": self.parked["halted"],
                "fault_code": self.parked["fault_code"],
                "instructions": self.parked["counters"]["instructions"],
                "outputs": list(self.parked["outputs"]),
            }
        else:
            out = {"halted": False, "fault_code": None, "instructions": 0,
                   "outputs": []}
        out.update({
            "session": self.session_id,
            "tenant": self.tenant,
            "status": status or ("halted" if out["halted"] else "idle"),
            "digest": self.observer.hexdigest(),
            "observations": self.observer.count,
            "warm_start": self.warm_start,
            "parked": self.machine is None and self.parked is not None,
        })
        out.update(extra)
        return out

    def result(self) -> dict:
        """Final outputs + digest; the session must have halted."""
        view = self.state()
        if not view["halted"]:
            raise SessionError(
                "session has not halted; run it further before asking "
                "for a result", session=self.session_id,
            )
        return view

    # -- explicit checkpoint/restore/fork ------------------------------
    def checkpoint_state(self) -> dict:
        """A client-holdable checkpoint: precise state + digest chain."""
        if self.machine is not None:
            precise = self.machine.checkpoint()
        elif self.parked is not None:
            precise = self.parked
        else:
            raise SessionError(
                "session has not started; nothing to checkpoint",
                session=self.session_id,
            )
        return {
            "spec": dict(self.spec),
            "machine": checkpoint_to_json(precise),
            "observer": self.observer.state(),
        }

    def restore_state(self, state: dict):
        """Rewind this session to a checkpoint taken from it (or a fork
        source with an identical spec).

        The whole checkpoint is validated before anything changes, so a
        rejected restore leaves the session as it was."""
        spec = state.get("spec")
        if spec is not None and (not isinstance(spec, dict)
                                 or _validate_spec(spec) != self.spec):
            raise ProtocolError(
                "checkpoint spec does not match this session's spec"
            )
        try:
            precise = checkpoint_from_json(state["machine"])
            observer_state = state["observer"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed session checkpoint: {exc}")
        self.observer = _observer_from_state(self.spec["projection"],
                                             observer_state)
        # Drop any live machine: it holds the old observer. The next
        # lease rebuilds against the restored chain — warm, via the
        # shared translation store.
        self.machine = None
        self.parked = precise
        self.add_event("restored", digest=self.observer.hexdigest(),
                       observations=self.observer.count)

    @classmethod
    def fork_from(cls, parent: "Session", session_id: str,
                  catalog: ImageCatalog) -> "Session":
        """A new session continuing ``parent``'s execution and digest.

        The child gets its own installation (hence its own controller —
        fork semantics) on the *shared* image, the parent's precise state,
        and a clone of the parent's digest chain; its first lease binds
        warm to the translation-store entry the parent's runs populated.
        """
        child = cls(session_id, parent.tenant, dict(parent.spec), catalog)
        child.restore_state(parent.checkpoint_state())
        child.add_event("forked", parent=parent.session_id)
        return child

    # -- persistence (graceful shutdown) -------------------------------
    def to_state(self) -> dict:
        """JSON document reviving this session in a fresh server."""
        out = {
            "session": self.session_id,
            "tenant": self.tenant,
            "spec": dict(self.spec),
            "observer": self.observer.state(),
            "machine": None,
        }
        precise = (self.machine.checkpoint() if self.machine is not None
                   else self.parked)
        if precise is not None:
            out["machine"] = checkpoint_to_json(precise)
        return out

    @classmethod
    def from_state(cls, state: dict, catalog: ImageCatalog) -> "Session":
        session = cls(state["session"], state["tenant"], state["spec"],
                      catalog)
        session.observer = _observer_from_state(session.spec["projection"],
                                                state["observer"])
        if state.get("machine") is not None:
            session.parked = checkpoint_from_json(state["machine"])
        session.add_event("resumed_from_shutdown",
                          digest=session.observer.hexdigest())
        return session


# ----------------------------------------------------------------------
# The reproducibility oracle's batch side
# ----------------------------------------------------------------------
def batch_digest(spec: dict, max_steps: int = MAX_STEPS_PER_REQUEST,
                 catalog: Optional[ImageCatalog] = None) -> dict:
    """Run a session spec to halt in one batch shot; digest + outputs.

    This is exactly what ``repro-cli run --digest`` computes: a fresh
    machine under the same installation with a
    :class:`~repro.verify.observe.ChainedObserver` of the same projection.
    Served runs must match it byte for byte, however they were stepped,
    evicted, forked, or restarted in between.
    """
    spec = _validate_spec(spec)
    _, installation = (catalog or ImageCatalog()).resolve_installation(spec)
    observer = ChainedObserver(spec["projection"])
    machine = installation.make_machine(
        record_trace=False, observer=observer,
        dispatch=spec.get("dispatch"),
    )
    result = machine.run(max_steps=max_steps)
    return {
        "digest": observer.hexdigest(),
        "observations": observer.count,
        "outputs": list(result.outputs),
        "instructions": result.instructions,
        "halted": result.halted,
        "fault_code": result.fault_code,
    }
