"""Observation streams: per-retired-instruction digests of an execution.

An :class:`Observer` attaches to a functional :class:`~repro.sim.functional.Machine`
(``Machine(image, observer=...)``) and folds one observation per retired
dynamic instruction into a rolling sha256.  Two runs are observation-
equivalent under a projection iff their digests (and observation counts)
match.  Like telemetry, the hook is wired at construction time: a machine
built without an observer keeps the bare dispatch path, byte-identical to
an uninstrumented machine (``bench_telemetry.py`` pins this).

Observations are *recomputed after execution* from architectural state,
which is safe for this ISA: a store never writes a register, so its
effective address and value are still recoverable from the register file,
and a destination register's value is simply read back.

Projections
-----------
Different oracles need different notions of "the same execution":

``full``
    ``(pc, disepc, opcode, effects)`` for every retirement, with effects
    over all 40 registers.  The strictest stream — used for determinism
    checks and run fingerprints.  Only bit-identical replays match.
``app``
    ``(pc, opcode, user effects)`` for application instructions only
    (``is_trigger`` retirements: app-stream instructions and trigger
    copies inside expansions).  DISE-inserted replacement instructions are
    invisible, so an ACF is transparent iff the guarded run's ``app``
    stream equals the unguarded run's.  Valid when both runs share one
    image layout.
``user``
    User-visible effects only (user-register writes, stores, outputs),
    from every retirement, with empty observations skipped.  Like ``app``
    but also sees effects of inserted code — used to catch ACFs that leak
    state into user registers or memory.
``retire``
    ``(opcode, dest register number, is_store[, out value])`` — the
    retired instruction *sequence* with all values and addresses masked
    out.  Survives code relayout (static rewriting, compression moves
    text, so return addresses and code pointers differ by design); this
    is "compare retirement streams modulo expansion boundaries".

The digest format is ``sha256(repr(obs))`` folded in retirement order;
``Observer.hexdigest()`` returns the running hex digest and
``Observer.count`` the number of folded observations.

Encoding
--------
:func:`observation` is the reference definition of ``obs``.  The
observers never build it: a per-opcode table, built once at import,
holds each opcode's name bytes and the one effect it can have, and one
encoder per projection formats only the retirement's dynamic values
(destination register and value, store address and value, or the last
output) into exactly the bytes ``repr(obs).encode("ascii")``.  The
values are always ``int``, for which ``%d`` is ``repr``.
:class:`CapturingObserver` keeps the tuple for its records, so it folds
``repr(observation(...))``; the tests hold every encoder to it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import NUM_USER_REGS
from repro.sim.memory import MASK64

#: Zero register id (mirrors ``repro.sim.functional.ZERO``; re-declared to
#: keep this module importable without pulling in the simulator).
_ZERO = 31

#: The supported observation projections.
PROJECTIONS = ("full", "app", "user", "retire")


def _effects(machine, instr, user_only: bool) -> List[tuple]:
    """Architectural effects of ``instr``, recomputed post-execution."""
    op = instr.opcode
    effects = []
    dest = instr.dest_reg()
    if dest is not None and (not user_only or dest < NUM_USER_REGS):
        effects.append(("r", dest, machine.regs[dest]))
    if op.is_store:
        rb = instr.rb
        base = 0 if rb == _ZERO else machine.regs[rb]
        addr = (base + instr.imm) & MASK64
        ra = instr.ra
        value = 0 if ra == _ZERO else machine.regs[ra]
        if op is Opcode.STL:
            value &= 0xFFFFFFFF
        effects.append(("m", addr, value))
    elif op is Opcode.OUT:
        effects.append(("o", machine.outputs[-1]))
    return effects


def observation(machine, instr, pc: int, disepc: int, is_trigger: bool,
                projection: str) -> Optional[tuple]:
    """The observation one retirement contributes under ``projection``,
    or ``None`` when the projection skips it (the reference definition
    the observers' encoders reproduce byte for byte)."""
    if projection == "full":
        return (pc, disepc, instr.opcode.name,
                tuple(_effects(machine, instr, False)))
    if projection == "app":
        if not is_trigger:
            return None
        return (pc, instr.opcode.name, tuple(_effects(machine, instr, True)))
    if projection == "user":
        effects = _effects(machine, instr, True)
        return tuple(effects) if effects else None
    op = instr.opcode
    return (op.name, instr.dest_reg(), op.is_store,
            machine.outputs[-1] if op is Opcode.OUT else None)


# ----------------------------------------------------------------------
# Encoders: the bytes of repr(observation(...)), written directly
# ----------------------------------------------------------------------
#: The one effect an opcode can have: a destination register in ``ra``
#: or ``rc``, a store (STL's value masked to 32 bits), or an output.
_NO_EFFECT, _DEST_RA, _DEST_RC, _STORE, _STORE32, _OUT = range(6)


def _effect_kind(op: Opcode) -> int:
    # A probe with distinct register fields shows which one dest_reg()
    # names, so the destination rule stays written only there.
    dest = Instruction(op, ra=1, rb=2, rc=3).dest_reg()
    if dest is not None:
        return {1: _DEST_RA, 3: _DEST_RC}[dest]
    if op.is_store:
        return _STORE32 if op is Opcode.STL else _STORE
    return _OUT if op is Opcode.OUT else _NO_EFFECT


#: ``opcode -> (name bytes, effect kind)``.
_OPCODES = {op: (op.name.encode("ascii"), _effect_kind(op)) for op in Opcode}


def _effect(machine, instr, kind: int, user_only: bool) -> bytes:
    """``repr(effect) + b","`` for the retirement's effect, else ``b""``:
    wrapped in parentheses it is the repr of the effects tuple."""
    if kind == _DEST_RA or kind == _DEST_RC:
        dest = instr.ra if kind == _DEST_RA else instr.rc
        if dest is None or dest == _ZERO or \
                (user_only and dest >= NUM_USER_REGS):
            return b""
        return b"('r', %d, %d)," % (dest, machine.regs[dest])
    if kind == _NO_EFFECT:
        return b""
    if kind == _OUT:
        return b"('o', %d)," % machine.outputs[-1]
    regs = machine.regs
    rb, ra = instr.rb, instr.ra
    addr = ((0 if rb == _ZERO else regs[rb]) + instr.imm) & MASK64
    value = 0 if ra == _ZERO else regs[ra]
    if kind == _STORE32:
        value &= 0xFFFFFFFF
    return b"('m', %d, %d)," % (addr, value)


def _encode_full(machine, instr, pc, disepc, is_trigger):
    name, kind = _OPCODES[instr.opcode]
    return b"(%d, %d, '%s', (%s))" % (
        pc, disepc, name, _effect(machine, instr, kind, False))


def _encode_app(machine, instr, pc, disepc, is_trigger):
    if is_trigger:
        name, kind = _OPCODES[instr.opcode]
        return b"(%d, '%s', (%s))" % (
            pc, name, _effect(machine, instr, kind, True))
    return None


def _encode_user(machine, instr, pc, disepc, is_trigger):
    effect = _effect(machine, instr, _OPCODES[instr.opcode][1], True)
    return b"(%s)" % effect if effect else None


def _encode_retire(machine, instr, pc, disepc, is_trigger):
    name, kind = _OPCODES[instr.opcode]
    if kind == _DEST_RA or kind == _DEST_RC:
        dest = instr.ra if kind == _DEST_RA else instr.rc
        if dest is not None and dest != _ZERO:
            return b"('%s', %d, False, None)" % (name, dest)
    elif kind == _OUT:
        return b"('%s', None, False, %d)" % (name, machine.outputs[-1])
    elif kind == _STORE or kind == _STORE32:
        return b"('%s', None, True, None)" % name
    return b"('%s', None, False, None)" % name


#: ``projection -> encoder(machine, instr, pc, disepc, is_trigger)``,
#: returning ``repr(observation(...)).encode("ascii")`` or ``None``.
_ENCODERS = {"full": _encode_full, "app": _encode_app,
             "user": _encode_user, "retire": _encode_retire}


class Observer:
    """Folds one observation per retired instruction into a rolling sha256.

    Attach with ``Machine(image, observer=...)``; the machine calls
    :meth:`observe` after every retirement.
    """

    __slots__ = ("projection", "count", "_encode", "_h")

    def __init__(self, projection: str = "full"):
        self._start(projection)
        self._h = hashlib.sha256()

    def _start(self, projection: str):
        if projection not in PROJECTIONS:
            raise ValueError(
                f"unknown projection {projection!r}; expected one of "
                f"{PROJECTIONS}"
            )
        self.projection = projection
        self._encode = _ENCODERS[projection]
        #: Number of observations folded so far (post-projection).
        self.count = 0

    # The machine invokes this after executing each dynamic instruction.
    def observe(self, machine, instr, pc: int, disepc: int, is_trigger: bool):
        data = self._encode(machine, instr, pc, disepc, is_trigger)
        if data is not None:
            self._fold(data)

    def _fold(self, data: bytes):
        self._h.update(data)
        self.count += 1

    def hexdigest(self) -> str:
        """Hex digest of the observation stream so far."""
        return self._h.hexdigest()


class ChainedObserver(Observer):
    """An :class:`Observer` whose digest state is an explicit 32-byte value.

    Instead of one long-lived ``sha256()`` stream (whose internal state
    cannot be serialized), each observation is folded as
    ``digest_n = sha256(digest_{n-1} || repr(obs))`` starting from 32 zero
    bytes.  The running digest is therefore a plain ``(count, hex)`` pair
    that survives JSON round-trips: the serving layer checkpoints it when
    a session is evicted, forked, or carried across a server restart, and
    ``repro-cli run --digest`` folds the identical chain so a served run's
    digest can be compared byte-for-byte against the batch CLI's.

    The chained fold produces a *different* digest than :class:`Observer`
    for the same stream — compare chained against chained only.
    """

    __slots__ = ("_digest",)

    #: Chain seed: 32 zero bytes (the width of one sha256 link).
    SEED = b"\x00" * 32

    def __init__(self, projection: str = "full",
                 state: Optional[dict] = None):
        # No streaming hash: the chain value is the whole digest state.
        self._start(projection)
        self._digest = self.SEED
        if state is not None:
            if state.get("projection", projection) != self.projection:
                raise ValueError(
                    f"observer state was captured under projection "
                    f"{state.get('projection')!r}, not {self.projection!r}"
                )
            self.count = int(state["count"])
            self._digest = bytes.fromhex(state["digest"])
            if len(self._digest) != 32:
                raise ValueError("observer digest state must be 32 bytes")

    def _fold(self, data: bytes):
        self._digest = hashlib.sha256(self._digest + data).digest()
        self.count += 1

    def hexdigest(self) -> str:
        return self._digest.hex()

    def state(self) -> dict:
        """JSON-serializable digest state; feed back via ``state=``."""
        return {"projection": self.projection, "count": self.count,
                "digest": self.hexdigest()}

    def clone(self) -> "ChainedObserver":
        """An independent observer continuing this digest chain (fork)."""
        return ChainedObserver(self.projection, state=self.state())


class WindowedObserver(Observer):
    """An :class:`Observer` that also records the rolling digest at every
    ``window`` observations, so a later pass can locate the first divergent
    window without storing the stream itself."""

    __slots__ = ("window", "window_digests")

    def __init__(self, projection: str = "full", window: int = 256):
        super().__init__(projection)
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        #: Hex digest of the stream after each full window.
        self.window_digests: List[str] = []

    def _fold(self, data: bytes):
        super()._fold(data)
        if self.count % self.window == 0:
            self.window_digests.append(self._h.hexdigest())


@dataclass(frozen=True)
class ObservationRecord:
    """One captured observation, with enough context to diagnose it."""

    #: Global index in the (projected) observation stream.
    index: int
    pc: int
    disepc: int
    opcode: str
    #: The retired instruction, disassembled.
    text: str
    #: The folded observation tuple.
    observation: tuple
    #: Full register file immediately after this retirement.
    regs: Tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "pc": self.pc,
            "disepc": self.disepc,
            "opcode": self.opcode,
            "text": self.text,
            "observation": repr(self.observation),
        }


class CapturingObserver(Observer):
    """An :class:`Observer` that captures full :class:`ObservationRecord`
    entries for observation indexes in ``[lo, hi)`` — the second bisection
    pass, replaying only the divergent window at full fidelity."""

    __slots__ = ("lo", "hi", "records")

    def __init__(self, projection: str = "full", lo: int = 0,
                 hi: Optional[int] = None):
        super().__init__(projection)
        self.lo = lo
        self.hi = hi
        self.records: List[ObservationRecord] = []

    def observe(self, machine, instr, pc: int, disepc: int, is_trigger: bool):
        # Records need the tuple itself, so build it with the reference.
        obs = observation(machine, instr, pc, disepc, is_trigger,
                          self.projection)
        if obs is None:
            return
        index = self.count
        self._fold(repr(obs).encode("ascii"))
        if index >= self.lo and (self.hi is None or index < self.hi):
            self.records.append(ObservationRecord(
                index=index, pc=pc, disepc=disepc, opcode=instr.opcode.name,
                text=str(instr), observation=obs, regs=tuple(machine.regs),
            ))


# ----------------------------------------------------------------------
# Architectural-state snapshot digests
# ----------------------------------------------------------------------
def snapshot_state(trace, scope: str = "full",
                   mem_range: Optional[Tuple[int, int]] = None) -> dict:
    """Canonical final-state summary of a :class:`TraceResult`.

    ``scope="full"`` covers all 40 registers and every non-zero memory
    word; ``scope="user"`` restricts to user registers, and memory to
    ``mem_range`` (a ``[lo, hi)`` address pair, typically the data
    segment) — dedicated registers and ACF scratch buffers placed outside
    the data segment are invisible, matching the transparency oracles.
    """
    if scope not in ("full", "user"):
        raise ValueError(f"unknown snapshot scope {scope!r}")
    regs = trace.final_regs
    if scope == "user":
        regs = regs[:NUM_USER_REGS]
    items = sorted(
        (addr, value)
        for addr, value in trace.final_memory._nonzero().items()
        if mem_range is None or mem_range[0] <= addr < mem_range[1]
    )
    return {
        "regs": tuple(regs),
        "memory": tuple(items),
        "outputs": tuple(trace.outputs),
        "fault_code": trace.fault_code,
        "halted": trace.halted,
    }


def snapshot_digest(trace, scope: str = "full",
                    mem_range: Optional[Tuple[int, int]] = None) -> str:
    """Hex digest of :func:`snapshot_state`."""
    state = snapshot_state(trace, scope=scope, mem_range=mem_range)
    payload = repr(sorted(state.items())).encode("ascii")
    return hashlib.sha256(payload).hexdigest()
