"""Functional simulator: architectural execution with DISE at fetch.

The :class:`Machine` executes a :class:`~repro.program.image.ProgramImage`
one dynamic instruction at a time.  When a DISE controller is attached, every
fetched application instruction passes through the engine; triggers are
replaced by their instantiated replacement sequences, executed under the
paper's two-level PC:DISEPC control model (Section 2.1):

* DISE-internal branches move the DISEPC only.
* Non-trigger application branches inside a sequence are effectively
  predicted not-taken — if taken, the rest of the sequence is squashed.
* A *trigger* branch's following replacement instructions belong to its
  predicted path: they execute regardless of the branch outcome, and the
  outcome takes effect when the sequence ends.
* Precise state exists at every PC:DISEPC boundary: :meth:`Machine.checkpoint`
  /:meth:`Machine.restore` save and resume mid-sequence by re-expanding the
  trigger and skipping the first DISEPC instructions, exactly as the paper's
  post-interrupt fetch does.

The run produces a :class:`~repro.sim.trace.TraceResult` that the timing
simulator replays under different machine configurations.

Two dispatch tiers implement the instruction semantics:

* the **translated tier** (default) — a per-site translation table: each
  static site (instruction index) is decoded once, the first time any
  machine sharing the table executes it, into a pre-bound step (handler,
  trace meta bits, packed sources), a trigger's DISE replacement body
  instantiated and pre-bound with it; one run loop then executes
  straight from the table, following taken branches, jumps and bodies.
  Matching and instantiation are hoisted out of the run loop entirely;
  only the stateful PT/RT accesses stay per-dynamic-trigger.  The table
  lives on the image, keyed by the engine's ``production_signature`` (and
  re-bound via the controller's invalidation hook), mirroring the paper's
  RT, which stores replacement sequences pre-decoded so expansion costs
  nothing at fetch (Section 2.2).  Decoding is cheap enough to pay on
  first touch — the step kind and meta bits are one lookup by opcode
  code, the operand bits one lookup by the instruction's shared operand
  facts — so there is no warm-up gate and no interpretive first visit:
  only ctrl calls, codewords, expansion errors, unsupported bodies, an
  index outside the image and in-flight expansions after a restore take
  an interpretive step, through the same opcode-indexed handlers;
* the **generic tier** — the format/opcode if-chain, kept as the
  reference implementation the property tests compare the translated
  tier against.

Each value-computing opcode's semantics is written once, as an expression
template in :data:`SEMANTICS` (an ``addq`` is ``({a} + {b}) & M``, a
``blt`` ``{t} >> 63``).  The translated tier's handlers are generated at
import from those rows and one handler template per control/memory kind,
with one ``exec``, into :data:`_EXEC_TABLE`, a tuple indexed by
``Opcode.code``; the batch tier (:mod:`repro.sim.batch`) formats the same
rows with register and literal operands into its compiled blocks.
The generic if-chain is the one hand-written copy: the oracle both are
tested against.

The tier is chosen by the ``dispatch`` constructor argument, the
``REPRO_DISPATCH`` environment variable (one of :data:`DISPATCH_TIERS`),
or the default ("translated").  Both tiers produce bit-identical traces
and observation streams, with telemetry, profiling and observers on or
off.  What each opcode reads, writes and does to control flow comes from
the opcode table (:class:`~repro.isa.opcodes.Opcode`): the translator's
step kinds are one lookup on its :class:`~repro.isa.opcodes.Kind`.
"""

from __future__ import annotations

import os
import weakref
from string import Formatter
from typing import Dict, List, Optional

from repro.core.controller import DiseController
from repro.core.engine import ExpansionError
from repro.errors import ExecutionError, ExecutionTimeout
from repro.isa.opcodes import Format, Kind, OpClass, Opcode
from repro.program.image import ProgramImage
from repro.sim.memory import MASK64, Memory
from repro.telemetry import profile as _profile_mod
from repro.telemetry import registry as _telemetry
from repro.sim.trace import (
    CC_CALL,
    CC_COND,
    CC_DISE,
    CC_INDIRECT,
    CC_RET,
    CC_UNCOND,
    CTRL_CALL,
    CTRL_COND,
    CTRL_DISE,
    CTRL_INDIRECT,
    CTRL_RET,
    CTRL_SHIFT,
    CTRL_UNCOND,
    DEST_SHIFT,
    DISEPC_SHIFT,
    META_EXP,
    META_FETCH,
    META_MEM,
    META_STORE,
    META_TAKEN,
    META_TARGET,
    META_TRIGGER,
    OpColumns,
    TraceResult,
    pack_srcs,
)

NUM_REGS = 40  # 32 user + 8 DISE dedicated
ZERO = 31

#: Fault code used when an indirect jump leaves the text segment.
FAULT_BAD_JUMP = 0xBAD1

# Re-exported for backwards compatibility: ExecutionError historically lived
# here.  It is now part of the shared taxonomy in :mod:`repro.errors` and
# carries the fault site (pc, instruction index, opcode) as fields.
__all__ = ["Machine", "run_program", "ExecutionError", "ExecutionTimeout",
           "DISPATCH_TIERS", "FAULT_BAD_JUMP", "NUM_REGS", "ZERO"]

#: The selectable dispatch tiers, default first.
DISPATCH_TIERS = ("translated", "generic")


def _signed(value):
    return value - (1 << 64) if value >> 63 else value


# ----------------------------------------------------------------------
# Instruction semantics: one expression per opcode
# ----------------------------------------------------------------------
#: What each value-computing opcode computes, as one Python expression
#: template over its operands: ``{a}`` is ``ra``'s value and ``{b}``
#: ``rb``'s (an operate instruction's literal when it has no ``rb``),
#: ``{i}`` is the displacement, ``{w}`` the word a load reads and ``{t}``
#: a branch's test value, ``ra``'s.  ``M`` is the 64-bit mask and ``sg``
#: reads a word as signed (:data:`ROW_GLOBALS`).  An operate, ``lda`` or
#: ``ldah`` row is the value written to the destination; a conditional
#: move's, the condition for copying ``{b}`` to ``rc``; a load's, the
#: value written to ``ra``; a store's, the word stored; a branch's,
#: whether it is taken.
#:
#: The translated tier's handlers (:data:`_EXEC_TABLE`) and the batch
#: tier's compiled blocks (:mod:`repro.sim.batch`) are generated
#: from these rows.  The generic tier's if-chain states the same
#: semantics by hand and is the oracle both are tested against.  Sign
#: tests read bit 63, so that branch rows call nothing.
SEMANTICS: Dict[Opcode, str] = {
    Opcode.ADDQ: "({a} + {b}) & M",
    Opcode.SUBQ: "({a} - {b}) & M",
    Opcode.MULQ: "({a} * {b}) & M",
    Opcode.AND: "({a} & {b}) & M",
    Opcode.BIS: "({a} | {b}) & M",
    Opcode.XOR: "({a} ^ {b}) & M",
    Opcode.SLL: "({a} << ({b} & 63)) & M",
    Opcode.SRL: "{a} >> ({b} & 63)",
    Opcode.SRA: "(sg({a}) >> ({b} & 63)) & M",
    Opcode.CMPEQ: "1 if {a} == {b} else 0",
    Opcode.CMPLT: "1 if sg({a}) < sg({b}) else 0",
    Opcode.CMPLE: "1 if sg({a}) <= sg({b}) else 0",
    Opcode.CMPULT: "1 if {a} < {b} else 0",
    Opcode.CMOVEQ: "{a} == 0",
    Opcode.CMOVNE: "{a} != 0",
    Opcode.LDA: "({b} + {i}) & M",
    Opcode.LDAH: "({b} + ({i} << 16)) & M",
    Opcode.LDQ: "{w}",
    Opcode.LDL: "((({w} & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000) & M",
    Opcode.STQ: "{a}",
    Opcode.STL: "{a} & 0xFFFFFFFF",
    Opcode.BEQ: "{t} == 0",
    Opcode.BNE: "{t} != 0",
    Opcode.BLT: "{t} >> 63",
    Opcode.BLE: "{t} == 0 or {t} >> 63",
    Opcode.BGT: "{t} != 0 and not {t} >> 63",
    Opcode.BGE: "not {t} >> 63",
    Opcode.DBR: "True",
    Opcode.DBEQ: "{t} == 0",
    Opcode.DBNE: "{t} != 0",
}

#: The globals a :data:`SEMANTICS` row may name.
ROW_GLOBALS = {"M": MASK64, "sg": _signed}

_SIMPLE = (None, False, None, None, False, None)

#: Handler templates, looked up by opcode, then by control/memory kind,
#: then, for the transfers, by encoding: a direct branch resolves its
#: displacement, a jump reads its target register before linking (as
#: ``jsr ra, (ra)`` needs).  A handler takes ``(m, instr, pc, idx,
#: trigger_idx, is_trigger)`` and returns ``(ctrl, taken, target_idx,
#: mem_addr, is_store, target_pc)``; those without control or memory
#: effects share ``_SIMPLE``, so the common case allocates nothing.
#: Fields: ``{row}`` is the opcode's row over the operands ``{bind}``
#: binds, ``{dest}`` the field it writes and ``{ctrl}`` its trace control
#: kind.
_HANDLERS = {
    Opcode.NOP: """
    return _SIMPLE""",
    Opcode.FAULT: """
    m.halted = True
    m.fault_code = 0 if instr.imm is None else instr.imm
    return _SIMPLE""",
    Kind.PLAIN: """
    regs = m.regs
    {bind}
    rd = instr.{dest}
    if rd != ZERO:
        regs[rd] = {row}
    return _SIMPLE""",
    Kind.LOAD: """
    regs = m.regs
    rb = instr.rb
    ad = ((0 if rb == ZERO else regs[rb]) + instr.imm) & M
    ra = instr.ra
    if ra != ZERO:
        regs[ra] = {row}
    return None, False, None, ad, False, None""",
    Kind.STORE: """
    regs = m.regs
    {bind}
    rb = instr.rb
    ad = ((0 if rb == ZERO else regs[rb]) + instr.imm) & M
    m.mem.write(ad, {row})
    return None, False, None, ad, True, None""",
    Kind.OUTPUT: """
    ra = instr.ra
    m.outputs.append(0 if ra == ZERO else m.regs[ra])
    return _SIMPLE""",
    Kind.CONTROLLER: """
    handler = m.control_handlers.get(instr.imm)
    if handler is None:
        raise ExecutionError(
            f"ctrl call {{instr.imm}} at {{pc:#x}} has no registered handler",
            pc=pc, index=idx, opcode=instr.opcode)
    handler(m)
    return _SIMPLE""",
    Kind.HALT: """
    m.halted = True
    return _SIMPLE""",
    Kind.DISE: """
    if m._exp is None:
        raise ExecutionError(
            f"DISE branch outside a replacement sequence at {{pc:#x}}",
            pc=pc, index=idx, opcode=instr.opcode)
    regs = m.regs
    {bind}
    if {row}:
        return {ctrl!r}, True, instr.imm, None, False, None
    return {ctrl!r}, False, instr.imm, None, False, None""",
    Kind.COND: """
    regs = m.regs
    {bind}
    if {row}:
        target_idx, target_pc = m._branch_target(instr, pc, idx, is_trigger)
        return {ctrl!r}, True, target_idx, None, False, target_pc
    return {ctrl!r}, False, None, None, False, None""",
    Kind.CODEWORD: """
    raise ExecutionError(f"codeword reached execution at {{pc:#x}}",
                         pc=pc, index=idx, opcode=instr.opcode)""",
    Format.BRANCH: """
    ra = instr.ra
    if ra != ZERO:
        image = m.image
        m.regs[ra] = (image.addresses[trigger_idx]
                      + image.sizes[trigger_idx]) & M
    target_idx, target_pc = m._branch_target(instr, pc, idx, is_trigger)
    return {ctrl!r}, True, target_idx, None, False, target_pc""",
    Format.JUMP: """
    regs = m.regs
    rb = instr.rb
    target_pc = 0 if rb == ZERO else regs[rb]
    image = m.image
    ra = instr.ra
    if ra != ZERO:
        regs[ra] = (image.addresses[trigger_idx]
                    + image.sizes[trigger_idx]) & M
    target_idx = image.index_of_addr.get(target_pc)
    if target_idx is None:
        m.halted = True
        m.fault_code = FAULT_BAD_JUMP
    return {ctrl!r}, True, target_idx, None, False, target_pc""",
}

#: How a handler binds each operand its row names; ``{i}`` and ``{w}``
#: are read in place.
_BIND = {
    "a": "ra = instr.ra\n    a = 0 if ra == ZERO else regs[ra]",
    "b": "rb = instr.rb\n    b = 0 if rb == ZERO else regs[rb]",
    "t": "ra = instr.ra\n    t = 0 if ra == ZERO else regs[ra]",
}
#: An operate instruction without ``rb`` reads its literal as ``b``.
_BIND_OPERATE_B = ("rb = instr.rb\n    b = instr.imm if rb is None "
                   "else (0 if rb == ZERO else regs[rb])")
_IN_PLACE = {"i": "instr.imm", "w": "m.mem.read(ad)"}

#: Trace control kind of each branching kind.
_CTRL_OF = {Kind.COND: CTRL_COND, Kind.UNCOND: CTRL_UNCOND,
            Kind.CALL: CTRL_CALL, Kind.INDIRECT: CTRL_INDIRECT,
            Kind.RETURN: CTRL_RET, Kind.DISE: CTRL_DISE}


def _handler_source(op) -> str:
    """The source of ``op``'s handler: its template, filled in."""
    row = SEMANTICS.get(op, "")
    if row and op.writes in op.reads:
        # A conditional move rewrites its destination unless its row holds.
        row = f"({{b}} if {row} else regs[rd]) & M"
    bind = {name: _BIND[name] for _, name, _, _ in Formatter().parse(row)
            if name in _BIND}
    if "b" in bind and op.format is Format.OPERATE:
        bind["b"] = _BIND_OPERATE_B
    template = (_HANDLERS.get(op) or _HANDLERS.get(op.kind)
                or _HANDLERS[op.format])
    body = template.format(
        row=row.format(**{name: name for name in _BIND}, **_IN_PLACE),
        bind="\n    ".join(bind.values()), dest=op.writes,
        ctrl=_CTRL_OF.get(op.kind))
    return (f"def _x_{op.name.lower()}(m, instr, pc, idx, trigger_idx, "
            f"is_trigger):{body}")


def _compile_handlers() -> tuple:
    """Every opcode's handler from one ``exec``, indexed by opcode code."""
    namespace = dict(ROW_GLOBALS, ZERO=ZERO, _SIMPLE=_SIMPLE,
                     ExecutionError=ExecutionError,
                     FAULT_BAD_JUMP=FAULT_BAD_JUMP)
    source = "\n\n".join(_handler_source(op) for op in Opcode)
    exec(compile(source, "<opcode handlers>", "exec"), namespace)
    table = [None] * (1 + max(op.code for op in Opcode))
    for op in Opcode:
        table[op.code] = namespace[f"_x_{op.name.lower()}"]
    return tuple(table)


#: ``Opcode.code`` -> handler.  A tuple: indexing by code skips the
#: enum's Python-level ``__hash__`` that an ``Opcode``-keyed dict pays.
_EXEC_TABLE = _compile_handlers()

# ----------------------------------------------------------------------
# Per-site translation (the pre-decoded dispatch tier)
# ----------------------------------------------------------------------
# Step kinds for translated app-level instructions.  Each kind fixes which
# parts of the handler's result tuple the site runner must look at, so the
# common cases skip all conditional record logic.
_T_SIMPLE = 0   # no control, no memory: result tuple ignored
_T_MEM = 1      # loads/stores: mem_addr from the handler result
_T_BRANCH = 2   # conditional branches: continue at the target when taken
_T_JUMP = 3     # always-taken transfers (br/bsr/jmp/jsr/ret)
_T_HALT = 4     # halt/fault: stops the run
_T_TRIG = 5     # DISE trigger with a pre-instantiated replacement body

# Body kinds for pre-bound replacement instructions.
_B_SIMPLE = 0
_B_MEM = 1
_B_DISE = 2     # DISE-internal branch: moves the DISEPC only
_B_CTRL = 3     # app branches and jumps: predicted-path/squash semantics
_B_HALT = 4

_TAKEN_TO_TARGET = META_TAKEN | META_TARGET

#: Control/memory kind -> (step kind, baked meta bits) of an app-level
#: site.  Kinds left out stay interpretive: ctrl calls can swap production
#: sets mid-run, and reserved codewords and stray DISE branches raise.
_APP_STEPS = {
    Kind.PLAIN: (_T_SIMPLE, 0),
    Kind.OUTPUT: (_T_SIMPLE, 0),
    Kind.LOAD: (_T_MEM, META_MEM),
    Kind.STORE: (_T_MEM, META_MEM | META_STORE),
    Kind.COND: (_T_BRANCH, CC_COND << CTRL_SHIFT),
    Kind.UNCOND: (_T_JUMP, CC_UNCOND << CTRL_SHIFT | _TAKEN_TO_TARGET),
    Kind.CALL: (_T_JUMP, CC_CALL << CTRL_SHIFT | _TAKEN_TO_TARGET),
    Kind.INDIRECT: (_T_JUMP, CC_INDIRECT << CTRL_SHIFT | _TAKEN_TO_TARGET),
    Kind.RETURN: (_T_JUMP, CC_RET << CTRL_SHIFT | _TAKEN_TO_TARGET),
    Kind.HALT: (_T_HALT, 0),
}

#: Control/memory kind -> (body kind, ctrl meta bits) of a replacement
#: instruction.  Kinds left out keep the expansion interpretive.
_BODY_STEPS = {
    Kind.PLAIN: (_B_SIMPLE, 0),
    Kind.OUTPUT: (_B_SIMPLE, 0),
    Kind.LOAD: (_B_MEM, META_MEM),
    Kind.STORE: (_B_MEM, META_MEM | META_STORE),
    Kind.COND: (_B_CTRL, CC_COND << CTRL_SHIFT),
    Kind.UNCOND: (_B_CTRL, CC_UNCOND << CTRL_SHIFT),
    Kind.CALL: (_B_CTRL, CC_CALL << CTRL_SHIFT),
    Kind.INDIRECT: (_B_CTRL, CC_INDIRECT << CTRL_SHIFT),
    Kind.RETURN: (_B_CTRL, CC_RET << CTRL_SHIFT),
    Kind.DISE: (_B_DISE, CC_DISE << CTRL_SHIFT),
    Kind.HALT: (_B_HALT, 0),
}


def _by_code(steps: dict, bits: int) -> tuple:
    """``Opcode.code`` -> (step kind, meta bits) from a kind-keyed table;
    ``bits`` are or-ed into every row's meta with the opcode code."""
    table = [None] * (1 + max(op.code for op in Opcode))
    for op in Opcode:
        step = steps.get(op.kind)
        if step is not None:
            table[op.code] = (step[0], op.code | step[1] | bits)
    return tuple(table)


#: :data:`_APP_STEPS` and :data:`_BODY_STEPS` indexed by opcode code, with
#: all of a site's meta bits except its operand bits.
_APP_STEP = _by_code(_APP_STEPS, META_FETCH | META_TRIGGER)
_BODY_STEP = _by_code(_BODY_STEPS, 0)

#: ``Instruction._operands`` -> (destination meta bits, packed sources):
#: a memo with one entry per distinct operand-facts tuple.
_OPERAND_BITS: Dict[tuple, tuple] = {}


def _operand_bits(instr) -> tuple:
    operands = instr._operands
    bits = _OPERAND_BITS.get(operands)
    if bits is None:
        dest = operands[4]
        bits = _OPERAND_BITS[operands] = (
            0 if dest is None else (dest + 1) << DEST_SHIFT,
            pack_srcs(operands[3]))
    return bits


def _make_flush_callback(machine_ref):
    """Production-set invalidation callback holding only a weakref, so a
    registered machine can still be collected."""
    def flush():
        machine = machine_ref()
        if machine is not None:
            machine._attach_translations()
    return flush


class Machine:
    """Architectural machine state plus the fetch/expand/execute loop."""

    def __init__(self, image: ProgramImage,
                 controller: Optional[DiseController] = None,
                 record_trace=True, observer=None,
                 dispatch: Optional[str] = None):
        self.image = image
        self.controller = controller
        self.engine = controller.engine if controller is not None else None
        self.record_trace = record_trace
        if dispatch is None:
            dispatch = os.environ.get("REPRO_DISPATCH") or DISPATCH_TIERS[0]
        if dispatch not in DISPATCH_TIERS:
            raise ValueError(
                f"unknown dispatch tier {dispatch!r}: expected one of "
                f"{', '.join(DISPATCH_TIERS)}"
            )
        self.dispatch = dispatch
        # The translated tier keeps running under telemetry: translated
        # sites bypass the counting wrapper, so _exec_sites counts opcodes
        # itself — app steps per straight-line run, body instructions
        # inline — and only the interpretive fallback steps go through
        # the wrapper.
        self._translated = dispatch == "translated"
        # The dispatch function takes the machine as its first argument:
        # a bound method stored here would make every machine a reference
        # cycle, freed only by the cyclic collector, so parked and closed
        # machines would outlive their last use.
        self._execute = (Machine._execute_table if self._translated
                         else Machine._execute_generic)
        # Telemetry and verification observers are wired at construction
        # time: when absent, no wrapper is installed and the dispatch path
        # is identical to the uninstrumented machine (tests/test_telemetry.py
        # and tests/test_verify.py assert this).
        self._opcode_counts: Optional[Dict[Opcode, int]] = None
        self._tm_prev: Optional[dict] = None
        self._observer = None
        self._profile: Optional[dict] = None
        if observer is not None:
            self._install_observer(observer)
        if _telemetry.enabled():
            self._install_opcode_telemetry()
        if _profile_mod.enabled():
            self._install_profiler()

        self.regs: List[int] = [0] * NUM_REGS
        self.mem = Memory(image.data_words)
        self.idx = image.entry_index
        self.halted = False
        self.fault_code: Optional[int] = None
        self.outputs: List[int] = []
        self._cols = OpColumns()

        self.instructions = 0
        self.app_instructions = 0
        self.expansions = 0
        self.pt_misses = 0
        self.rt_misses = 0

        #: Controller-call handlers for the ``ctrl`` instruction — the
        #: paper's instruction-based controller interface (Section 2.3).
        #: code -> callable(machine).
        self.control_handlers: Dict[int, callable] = {}

        # Per-image decoded-instruction cache: index -> (instruction,
        # is_reserved, handler, is_trigger).  Filled lazily so huge images
        # only pay for the instructions they actually execute; flushed
        # when the engine's production set changes (is_trigger depends on
        # it).
        self._decode: List[Optional[tuple]] = [None] * len(image.instructions)
        self._decode_gen = self.engine.generation if self.engine else 0

        # In-flight expansion state.
        self._exp = None
        self._disepc = 0
        self._pending: Optional[int] = None   # deferred trigger-branch target
        self._exp_event = None                # attached to first expansion op

        # Per-site translation table: one decoded step tuple per
        # instruction index, None until a run first reaches the site, False
        # where it cannot be translated (and at the end sentinel, one past
        # the last index); alongside it, the per-(seq_id, trigger_pc)
        # pre-bound replacement bodies.  Both are the image-wide store's
        # entry for the active productions (_attach_translations), shared
        # by every machine running them, and are re-bound through the
        # controller's invalidation listener and the engine's generation
        # counter whenever the active set changes.
        self._sites: List = []
        self._bodies: Dict[tuple, list] = {}
        self._sites_gen = self._decode_gen
        if self._translated:
            self._attach_translations()
            if controller is not None:
                controller.add_invalidation_listener(
                    _make_flush_callback(weakref.ref(self)))

    # ------------------------------------------------------------------
    # Verification observer (installed only when one is supplied)
    # ------------------------------------------------------------------
    def _install_observer(self, observer):
        """Wrap dispatch with the conformance observation hook.

        The observer sees architectural state *after* each retirement;
        :mod:`repro.verify.observe` recomputes effects from it.  Faulting
        dispatches (ExecutionError) produce no observation.
        """
        inner = self._execute
        observe = observer.observe

        def observing_execute(machine, instr, pc, idx, **kwargs):
            out = inner(machine, instr, pc, idx, **kwargs)
            observe(machine, instr, pc, kwargs["disepc"],
                    kwargs["is_trigger"])
            return out

        self._execute = observing_execute
        self._observer = observer

    # ------------------------------------------------------------------
    # Telemetry (installed only when REPRO_TELEMETRY is on)
    # ------------------------------------------------------------------
    def _install_opcode_telemetry(self):
        """Wrap dispatch with a per-opcode retirement counter."""
        inner = self._execute
        counts: Dict[Opcode, int] = {}
        self._opcode_counts = counts
        self._tm_prev = {"instructions": 0, "app_instructions": 0,
                         "expansions": 0, "pt_misses": 0, "rt_misses": 0,
                         "opcodes": {}}

        def counting_execute(machine, instr, pc, idx, **kwargs):
            opcode = instr.opcode
            counts[opcode] = counts.get(opcode, 0) + 1
            return inner(machine, instr, pc, idx, **kwargs)

        self._execute = counting_execute

    # ------------------------------------------------------------------
    # Hot-path profiler (installed only when REPRO_TRACE_PROFILE is on)
    # ------------------------------------------------------------------
    def _install_profiler(self):
        """Attach retirement-attribution state for this machine's tier.

        On the translated tier the hooks live in :meth:`_exec_sites`,
        which attributes each straight-line run of sites (one dict bump
        per run) to the run's entry PC.  On the generic tier dispatch is
        wrapped and retirements are attributed to *dynamic basic-block
        leaders*: any PC reached non-sequentially starts a new leader.
        """
        profile = _profile_mod.new_profile(self.dispatch)
        self._profile = profile
        if self._translated:
            return
        inner = self._execute
        blocks = profile["block"]
        triggers = profile["trigger"]
        productions = profile["production"]
        state = {"last": None, "leader": 0}

        def profiling_execute(machine, instr, pc, idx, **kwargs):
            if machine._exp is None:
                last = state["last"]
                if last is None or pc != last + 4:
                    state["leader"] = pc
                state["last"] = pc
                leader = state["leader"]
                blocks[leader] = blocks.get(leader, 0) + 1
            else:
                seq_id = machine._exp.seq_id
                productions[seq_id] = productions.get(seq_id, 0) + 1
                if kwargs.get("disepc") == 0 and kwargs.get("fetch_addr") \
                        is not None:
                    triggers[pc] = triggers.get(pc, 0) + 1
                state["last"] = None
            return inner(machine, instr, pc, idx, **kwargs)

        self._execute = profiling_execute

    def _publish_telemetry(self):
        """Fold this machine's totals into the process registry.

        Publishes only the growth since the previous call, so calling
        :meth:`result` repeatedly (or resuming after a checkpoint) never
        double-counts.
        """
        prev = self._tm_prev
        for field in ("instructions", "app_instructions", "expansions",
                      "pt_misses", "rt_misses"):
            delta = getattr(self, field) - prev[field]
            if delta:
                _telemetry.counter(f"sim.{field}").inc(delta)
                prev[field] = getattr(self, field)
        loads = stores = 0
        prev_opcodes = prev["opcodes"]
        for opcode, count in self._opcode_counts.items():
            delta = count - prev_opcodes.get(opcode, 0)
            if not delta:
                continue
            _telemetry.counter(f"sim.opcode.{opcode.name}").inc(delta)
            prev_opcodes[opcode] = count
            if opcode.kind is Kind.LOAD:
                loads += delta
            elif opcode.kind is Kind.STORE:
                stores += delta
        if loads:
            _telemetry.counter("sim.mem.loads").inc(loads)
        if stores:
            _telemetry.counter("sim.mem.stores").inc(stores)

    # ------------------------------------------------------------------
    # Register access helpers
    # ------------------------------------------------------------------
    def read_reg(self, reg: int) -> int:
        return 0 if reg == ZERO else self.regs[reg]

    def write_reg(self, reg: int, value: int):
        if reg != ZERO:
            self.regs[reg] = value & MASK64

    def register_control_handler(self, code: int, handler):
        """Register a handler for ``ctrl <reg>, <code>`` instructions.

        The handler receives the machine; it typically reads its argument
        from a register and talks to the DISE controller — modelling the
        user-level production-management interface of Section 2.3.
        """
        if code in self.control_handlers:
            raise ValueError(f"ctrl code {code} already registered")
        self.control_handlers[code] = handler

    # ------------------------------------------------------------------
    # Decode caches
    # ------------------------------------------------------------------
    def _decode_at(self, idx: int) -> tuple:
        instr = self.image.instructions[idx]
        opcode = instr.opcode
        engine = self.engine
        entry = (instr, opcode.is_reserved, _EXEC_TABLE[opcode.code],
                 engine is not None and opcode in engine.trigger_opcodes)
        self._decode[idx] = entry
        return entry

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, max_steps=5_000_000) -> TraceResult:
        if self._translated:
            return self._run_translated(max_steps)
        steps = 0
        while not self.halted and steps < max_steps:
            self.step()
            steps += 1
        if not self.halted and steps >= max_steps:
            raise ExecutionTimeout(
                f"program did not halt within {max_steps} dynamic "
                "instructions",
                steps=max_steps, index=self.idx,
            )
        return self.result()

    def step(self):
        """Execute exactly one dynamic instruction."""
        if self.halted:
            return
        if self._exp is not None:
            self._step_expansion()
        else:
            self._step_app()

    def _step_app(self):
        idx = self.idx
        image = self.image
        engine = self.engine
        if engine is not None and engine.generation != self._decode_gen:
            # Production set changed mid-run (controller ctrl call):
            # cached trigger decisions are stale.
            self._decode = [None] * len(image.instructions)
            self._decode_gen = engine.generation
        try:
            entry = self._decode[idx]
        except IndexError:
            raise ExecutionError(
                f"control fell off the image at index {idx}", index=idx
            ) from None
        if entry is None:
            entry = self._decode_at(idx)
        instr, is_reserved, handler, is_engine_trigger = entry
        pc = image.addresses[idx]
        if engine is not None:
            if is_engine_trigger:
                exp, pt_miss, rt_miss = engine.process(instr, pc)
                if pt_miss:
                    self.pt_misses += 1
                if exp is not None:
                    if rt_miss:
                        self.rt_misses += 1
                    self._exp = exp
                    self._disepc = 0
                    self._pending = None
                    self._exp_event = (
                        exp.seq_id, len(exp.instrs), pt_miss, rt_miss,
                        exp.composed
                    )
                    self.app_instructions += 1
                    self.expansions += 1
                    self._step_expansion()
                    return
            else:
                # No active production can match this opcode: skip the
                # engine entirely (the PT holds no patterns for it, so the
                # access would not change any physical state either).
                engine.inspected += 1
        self.app_instructions += 1
        if is_reserved:
            raise ExecutionError(
                f"stray codeword at {pc:#x}: no decompression production "
                f"matches {instr}",
                pc=pc, index=idx, opcode=instr.opcode,
            )
        kind, taken, target_idx = self._execute(
            self, instr, pc, idx, fetch_addr=pc, disepc=0, trigger_idx=idx,
            is_trigger=True, expansion_event=None, handler=handler,
        )
        if self.halted:
            return
        if kind is not None and taken:
            self.idx = target_idx
        else:
            self.idx = idx + 1

    def _step_expansion(self):
        exp = self._exp
        disepc = self._disepc
        instr = exp.instrs[disepc]
        idx = self.idx
        # The engine caches expansions by trigger bits; identical triggers at
        # different addresses share one Expansion, so the *current* address
        # (not exp.trigger_pc) must anchor PC-relative semantics.
        pc = self.image.addresses[idx]
        is_trigger_copy = disepc in exp.trigger_offsets
        fetch_addr = pc if disepc == 0 else None
        event = self._exp_event
        self._exp_event = None

        kind, taken, target_idx = self._execute(
            self, instr, pc, idx, fetch_addr=fetch_addr, disepc=disepc,
            trigger_idx=idx, is_trigger=is_trigger_copy,
            expansion_event=event, handler=_EXEC_TABLE[instr.opcode.code],
        )
        if self.halted:
            return

        if kind == CTRL_DISE:
            self._disepc = target_idx if taken else disepc + 1
        elif kind is not None and taken:
            if is_trigger_copy:
                # Predicted-path semantics: the rest of the sequence still
                # executes; the branch outcome applies at sequence end.
                self._pending = target_idx
                self._disepc = disepc + 1
            else:
                # Effectively predicted not-taken: squash the rest.
                self._finish_expansion(target_idx)
                return
        else:
            self._disepc = disepc + 1

        if self._exp is not None and self._disepc >= len(exp.instrs):
            self._finish_expansion(
                self._pending if self._pending is not None else idx + 1
            )

    def _finish_expansion(self, next_idx: int):
        self._exp = None
        self._disepc = 0
        self._pending = None
        self.idx = next_idx

    # ------------------------------------------------------------------
    # Per-site translation table (translated dispatch tier)
    # ------------------------------------------------------------------
    def _attach_translations(self):
        """Bind this machine's per-site table to the image-wide store.

        Decoded sites depend only on the image text and the active
        production set, so they live on the image, keyed by the engine's
        cross-machine :attr:`production_signature`: every machine running
        the same installation shares one table, and a site any of them
        has reached is decoded for all.  Re-invoked (via the controller's
        invalidation listener and the generation check in the run loop)
        whenever the active set changes: the machine re-binds to the entry
        for the new signature, leaving other keyings warm.  Images that
        refuse attribute stashing get a private table.
        """
        engine = self.engine
        image = self.image
        store = getattr(image, "_translation_store", None)
        if store is None:
            store = {}
            try:
                image._translation_store = store
            except AttributeError:
                pass
        key = engine.production_signature if engine is not None else None
        entry = store.get(key)
        if entry is None:
            entry = store[key] = (
                [None] * len(image.instructions) + [False], {})
        self._sites, self._bodies = entry
        if engine is not None:
            self._sites_gen = engine.generation

    def invalidate_translations(self):
        """Drop every decoded site and decoded instruction.

        Call after rewriting the text segment in place (e.g. a
        decompression ACF patching codewords): the *whole* image-wide
        store is stale then, under every production-set keying, so it is
        dropped and this machine re-binds to a fresh entry.  (Plain
        production-set swaps do not need this — the controller's
        invalidation listener re-binds to the right keying and keeps the
        others warm.)
        """
        store = getattr(self.image, "_translation_store", None)
        if store is not None:
            store.clear()
        bstore = getattr(self.image, "_batch_store", None)
        if bstore is not None:
            bstore.clear()
        self._attach_translations()
        self._decode = [None] * len(self.image.instructions)
        if self.engine is not None:
            self._decode_gen = self.engine.generation

    def _run_translated(self, max_steps) -> TraceResult:
        """Main loop of the translated tier.

        Runs translated sites (:meth:`_exec_sites`) and takes a single
        interpretive step only where they stop short of a halt or the
        budget: at an untranslatable site, at an index outside the image,
        and for an in-flight expansion after a restore.  The step budget
        is shared with the interpretive loop, so :class:`ExecutionTimeout`
        fires after exactly the same number of dynamic instructions.
        """
        steps_left = max_steps
        n = len(self.image.instructions)
        while not self.halted and steps_left > 0:
            if self._exp is None and 0 <= self.idx < n:
                engine = self.engine
                if engine is not None and \
                        engine.generation != self._sites_gen:
                    # Production set changed (ctrl call or direct engine
                    # use): re-bind to the store entry for the new set.
                    self._attach_translations()
                steps_left -= self._exec_sites(steps_left)
                if self.halted or steps_left <= 0:
                    break
            self.step()
            steps_left -= 1
        if not self.halted and steps_left <= 0:
            raise ExecutionTimeout(
                f"program did not halt within {max_steps} dynamic "
                "instructions",
                steps=max_steps, index=self.idx,
            )
        return self.result()

    def _translate_step(self, idx: int):
        """Decode the step tuple of one site, or False when it cannot be
        translated.

        The tuple is ``(kind, instr, pc, idx, handler, meta, packed_srcs,
        probe, trig)``.  Its step kind and meta bits are one lookup by
        opcode code, its destination and source bits one lookup by the
        instruction's shared operands; a trigger's ``trig`` carries its
        pre-instantiated replacement body.  Sites whose semantics cannot
        be hoisted (ctrl calls, stray codewords, expansion errors,
        unsupported bodies) stay interpretive.
        """
        instr = self.image.instructions[idx]
        opcode = instr.opcode
        pc = self.image.addresses[idx]
        engine = self.engine
        probe = None
        if engine is not None and opcode in engine.trigger_opcodes:
            try:
                pre = engine.preexpand(instr, pc)
            except ExpansionError:
                # Raises only when executed on the interpretive path.
                return False
            if pre is not None:
                production, seq_id, spec, exp = pre
                body = self._translate_body(exp)
                if body is None:
                    return False
                return (_T_TRIG, instr, pc, idx, None, 0, 0, None,
                        (opcode, seq_id, len(spec), exp, body, production))
            # Trigger opcode, but no production matches this site: the
            # PT is still probed per dynamic instance.
            probe = opcode
        step = _APP_STEP[opcode.code]
        if step is None:
            return False
        dest, srcs = _operand_bits(instr)
        return (step[0], instr, pc, idx, _EXEC_TABLE[opcode.code],
                step[1] | dest, srcs, probe, None)

    def _translate_body(self, exp) -> Optional[list]:
        """Pre-bind one instantiated replacement body, or None when any
        instruction resists hoisting (ctrl calls can swap the production
        set they run under; codeword copies raise interpretively).

        Memoised per ``(seq_id, trigger_pc)``: instantiation is a pure
        function of the production set and the trigger instruction, both
        fixed for the memo's lifetime (it lives beside the site table).
        """
        key = (exp.seq_id, exp.trigger_pc)
        cached = self._bodies.get(key)
        if cached is not None:
            return cached or None
        body = self._build_body(exp)
        self._bodies[key] = body if body is not None else ()
        return body

    def _build_body(self, exp) -> Optional[list]:
        instrs = exp.instrs
        if not instrs:
            return None
        offsets = exp.trigger_offsets
        body = []
        for k, binstr in enumerate(instrs):
            code = binstr.opcode.code
            step = _BODY_STEP[code]
            if step is None:
                return None
            dest, srcs = _operand_bits(binstr)
            is_copy = k in offsets
            meta = step[1] | dest | (k << DISEPC_SHIFT)
            if k == 0:
                meta |= META_FETCH
            if is_copy:
                meta |= META_TRIGGER
            body.append((step[0], binstr, _EXEC_TABLE[code], meta, srcs,
                         is_copy))
        return body

    def _exec_sites(self, budget: int) -> int:
        """Run translated sites from ``self.idx``; returns retirements.

        Reads the step of each site from the per-site table, decoding it
        the first time any machine bound to the table reaches the site,
        and follows taken branches, jumps and trigger bodies in one loop.
        Returns at a halt, when ``budget`` retirements are spent (also
        mid-sequence), or at an untranslatable site, which the caller
        steps interpretively.  Mirrors the interpretive loop's observable
        behaviour exactly: counter ordering, trace records (including the
        taken-DISE-branch target quirk), observer calls, and the precise
        PC:DISEPC state left at halts, faults, budget exhaustion and
        exceptions raised by handlers all match ``step()``.
        """
        sites = self._sites
        translate = self._translate_step
        engine = self.engine
        record = self.record_trace
        observer = self._observer
        observe = observer.observe if observer is not None else None
        cols = self._cols
        pc_col = cols.pc
        meta_col = cols.meta
        mem_col = cols.mem
        tgt_col = cols.target
        srcs_col = cols.srcs
        exp_map = cols.exp
        addresses = self.image.addresses
        n_addr = len(addresses)
        profile = self._profile
        counts = self._opcode_counts
        tally = counts is not None or profile is not None
        idx = self.idx
        disepc = 0
        executed = 0
        app = 0
        # The straight-line run in progress, for telemetry and the
        # profiler: its first site and the counts when it began.
        run_idx = idx
        run_app = run_executed = 0
        try:
            while executed < budget:
                st = sites[idx]
                if st is None:
                    st = sites[idx] = translate(idx)
                if st is False:
                    return executed
                kind = st[0]
                instr = st[1]
                pc = st[2]
                probe = st[7]
                if probe is not None and engine.pt.access(probe):
                    self.pt_misses += 1
                app += 1
                if kind == _T_SIMPLE:
                    st[4](self, instr, pc, idx, idx, True)
                    executed += 1
                    if record:
                        pc_col.append(pc)
                        meta_col.append(st[5])
                        mem_col.append(0)
                        tgt_col.append(0)
                        srcs_col.append(st[6])
                    if observe is not None:
                        observe(self, instr, pc, 0, True)
                    idx += 1
                    continue
                if kind == _T_MEM:
                    res = st[4](self, instr, pc, idx, idx, True)
                    executed += 1
                    if record:
                        pc_col.append(pc)
                        meta_col.append(st[5])
                        mem_col.append(res[3])
                        tgt_col.append(0)
                        srcs_col.append(st[6])
                    if observe is not None:
                        observe(self, instr, pc, 0, True)
                    idx += 1
                    continue
                if kind == _T_BRANCH:
                    res = st[4](self, instr, pc, idx, idx, True)
                    executed += 1
                    taken = res[1]
                    if record:
                        pc_col.append(pc)
                        if taken:
                            meta_col.append(st[5] | META_TAKEN | META_TARGET)
                            tgt_col.append(res[5])
                        else:
                            meta_col.append(st[5])
                            tgt_col.append(0)
                        mem_col.append(0)
                        srcs_col.append(st[6])
                    if observe is not None:
                        observe(self, instr, pc, 0, True)
                    next_idx = res[2] if taken else idx + 1
                elif kind == _T_JUMP:
                    res = st[4](self, instr, pc, idx, idx, True)
                    executed += 1
                    if record:
                        pc_col.append(pc)
                        meta_col.append(st[5])
                        mem_col.append(0)
                        tgt_col.append(res[5])
                        srcs_col.append(st[6])
                    if observe is not None:
                        observe(self, instr, pc, 0, True)
                    if self.halted:
                        return executed   # bad jump: idx stays at the jump
                    next_idx = res[2]
                elif kind == _T_HALT:
                    st[4](self, instr, pc, idx, idx, True)
                    executed += 1
                    if record:
                        pc_col.append(pc)
                        meta_col.append(st[5])
                        mem_col.append(0)
                        tgt_col.append(0)
                        srcs_col.append(st[6])
                    if observe is not None:
                        observe(self, instr, pc, 0, True)
                    return executed
                else:
                    # _T_TRIG: run the pre-bound replacement body inline.
                    # Only the stateful PT/RT accesses and the counters
                    # remain from engine.process(); match and
                    # instantiation happened at translation time.
                    opcode, seq_id, spec_len, exp, body, production = st[8]
                    pt_miss = engine.pt.access(opcode)
                    if pt_miss:
                        self.pt_misses += 1
                    rt_miss = engine.rt.access_sequence(seq_id, spec_len)
                    if rt_miss:
                        self.rt_misses += 1
                    engine.expansions += 1
                    self.expansions += 1
                    if engine._tm is not None:
                        # Same per-dynamic-expansion telemetry as
                        # engine.process() on the interpretive path.
                        engine._tm.record(engine, production, exp)
                    if profile is not None:
                        ptrig = profile["trigger"]
                        ptrig[pc] = ptrig.get(pc, 0) + 1
                        pprod = profile["production"]
                        pprod[seq_id] = pprod.get(seq_id, 0) + len(body)
                    event = (seq_id, len(body), pt_miss, rt_miss,
                             exp.composed)
                    self._exp = exp
                    self._pending = None
                    first = True
                    disepc = 0
                    nbody = len(body)
                    next_idx = idx + 1
                    while disepc < nbody:
                        if executed >= budget:
                            # Out of budget mid-sequence: the caller's
                            # timeout sees precise PC:DISEPC state.
                            return executed
                        belem = body[disepc]
                        binstr = belem[1]
                        is_copy = belem[5]
                        if counts is not None:
                            # Inline (not per run): body length varies with
                            # mid-sequence exits, and like the interpretive
                            # counting wrapper the bump precedes the
                            # handler call so faulting dispatches count.
                            bop = binstr.opcode
                            counts[bop] = counts.get(bop, 0) + 1
                        res = belem[2](self, binstr, pc, idx, idx, is_copy)
                        executed += 1
                        bkind = belem[0]
                        if record:
                            bmeta = belem[3]
                            tgt = 0
                            memv = 0
                            if bkind == _B_MEM:
                                memv = res[3]
                            elif res[1]:
                                bmeta |= META_TAKEN
                                if bkind == _B_DISE:
                                    # Interpretive quirk, preserved for
                                    # bit-identical traces: a taken DISE
                                    # branch records addresses[target
                                    # DISEPC].
                                    td = res[2]
                                    if td is not None:
                                        bmeta |= META_TARGET
                                        tgt = (addresses[td] if td < n_addr
                                               else 0)
                                else:
                                    tpc = res[5]
                                    if tpc is None and res[2] is not None:
                                        tpc = (addresses[res[2]]
                                               if res[2] < n_addr else 0)
                                    if tpc is not None:
                                        bmeta |= META_TARGET
                                        tgt = tpc
                            if first:
                                bmeta |= META_EXP
                                exp_map[len(pc_col)] = event
                            pc_col.append(pc)
                            meta_col.append(bmeta)
                            mem_col.append(memv)
                            tgt_col.append(tgt)
                            srcs_col.append(belem[4])
                        first = False
                        if observe is not None:
                            observe(self, binstr, pc, disepc, is_copy)
                        if bkind == _B_SIMPLE or bkind == _B_MEM:
                            disepc += 1
                        elif bkind == _B_DISE:
                            disepc = res[2] if res[1] else disepc + 1
                        elif self.halted:
                            # Fault/halt mid-sequence: expansion state
                            # stays live, as the interpretive path leaves
                            # it.
                            return executed
                        elif res[1] and not is_copy:
                            # Effectively predicted not-taken: squash.
                            next_idx = res[2]
                            break
                        else:
                            if res[1]:
                                # Predicted-path semantics: the outcome
                                # applies at sequence end.
                                self._pending = res[2]
                            disepc += 1
                    else:
                        if self._pending is not None:
                            next_idx = self._pending
                    self._exp = None
                    self._pending = None
                if next_idx != idx + 1 and tally:
                    self._tally_run(run_idx, app - run_app,
                                    executed - run_executed)
                    run_idx, run_app, run_executed = next_idx, app, executed
                idx = next_idx
            return executed
        finally:
            self.idx = idx
            if self._exp is not None:
                self._disepc = disepc
            self.instructions += executed
            self.app_instructions += app
            if engine is not None:
                engine.inspected += app
            if tally:
                self._tally_run(run_idx, app - run_app,
                                executed - run_executed)

    def _tally_run(self, start: int, app: int, retired: int):
        """Per-opcode telemetry and profile of one straight-line run.

        The run's ``app`` app-level sites are consecutive from index
        ``start``; each one's opcode is counted, as the interpretive
        counting wrapper would (``app`` is bumped before each dispatch, so
        a faulting site is included), except triggers, whose replacement
        bodies retire in their place and are counted inline.  The run's
        ``retired`` retirements go to its entry PC in the profile.
        """
        counts = self._opcode_counts
        if counts is not None:
            for st in self._sites[start:start + app]:
                if st[0] != _T_TRIG:
                    op = st[1].opcode
                    counts[op] = counts.get(op, 0) + 1
        profile = self._profile
        if profile is not None and retired:
            entry_pc = self.image.addresses[start]
            pblocks = profile["block"]
            pblocks[entry_pc] = pblocks.get(entry_pc, 0) + retired

    # ------------------------------------------------------------------
    # Precise state (PC:DISEPC checkpoints, Section 2.1/2.2)
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Capture precise state at the current PC:DISEPC boundary.

        The checkpoint carries the execution counters too, so restoring
        into a *fresh* machine (fork semantics — a new controller/session
        resuming someone else's run) continues ``instructions`` /
        ``app_instructions`` / ``expansions`` and the PT/RT miss tallies
        from the checkpoint instead of restarting them at zero; an
        :class:`ExecutionTimeout` budget therefore fires at the same
        cumulative retirement count whether or not the run was migrated.
        A fresh machine built on the same image and an equivalent
        production set also re-binds to the warm
        ``image._translation_store`` entry (keyed by the engine's
        content-based ``production_signature``), so the restored run
        decodes no site an earlier machine already reached — see
        :meth:`_attach_translations`.
        """
        return {
            "regs": list(self.regs),
            "mem": self.mem.snapshot(),
            "idx": self.idx,
            "disepc": self._disepc if self._exp is not None else 0,
            "pending": self._pending,
            "halted": self.halted,
            "fault_code": self.fault_code,
            "outputs": list(self.outputs),
            "counters": {
                "instructions": self.instructions,
                "app_instructions": self.app_instructions,
                "expansions": self.expansions,
                "pt_misses": self.pt_misses,
                "rt_misses": self.rt_misses,
            },
        }

    def restore(self, state: dict):
        """Resume from a checkpoint, re-expanding a mid-sequence trigger.

        Checkpoints written by older builds lack the ``counters`` key;
        those restore architectural state only and leave this machine's
        counters untouched (the pre-fork behaviour).
        """
        self.regs = list(state["regs"])
        self.mem.restore(state["mem"])
        self.idx = state["idx"]
        self.halted = state["halted"]
        self.fault_code = state["fault_code"]
        self.outputs = list(state["outputs"])
        counters = state.get("counters")
        if counters is not None:
            self.instructions = counters["instructions"]
            self.app_instructions = counters["app_instructions"]
            self.expansions = counters["expansions"]
            self.pt_misses = counters["pt_misses"]
            self.rt_misses = counters["rt_misses"]
            if self._tm_prev is not None:
                # Only growth *after* the restore publishes to telemetry:
                # the checkpointing machine already published (or will
                # publish) everything up to the checkpoint.
                for field in ("instructions", "app_instructions",
                              "expansions", "pt_misses", "rt_misses"):
                    self._tm_prev[field] = counters[field]
        self._exp = None
        self._disepc = 0
        self._pending = None
        disepc = state["disepc"]
        if disepc:
            if self.engine is None:
                raise ExecutionError("cannot resume a DISEPC without an engine",
                                     index=self.idx)
            instr = self.image.instructions[self.idx]
            pc = self.image.addresses[self.idx]
            exp, _, _ = self.engine.process(instr, pc)
            if exp is None or disepc >= len(exp.instrs):
                raise ExecutionError(
                    "replacement sequence changed across restore; cannot "
                    f"resume at DISEPC {disepc}",
                    pc=pc, index=self.idx,
                )
            self._exp = exp
            self._disepc = disepc
            self._pending = state["pending"]
            self._exp_event = None

    # ------------------------------------------------------------------
    # Instruction semantics — the handler table (interpretive steps of
    # the translated tier)
    # ------------------------------------------------------------------
    def _execute_table(self, instr, pc, idx, fetch_addr, disepc, trigger_idx,
                       is_trigger, expansion_event, handler):
        """Execute one dynamic instruction through its opcode's handler;
        returns (ctrl_kind, taken, target_idx) and records the trace op."""
        ctrl, taken, target_idx, mem_addr, is_store, target_pc = handler(
            self, instr, pc, idx, trigger_idx, is_trigger
        )
        self.instructions += 1
        if self.record_trace:
            if ctrl is not None and taken and target_pc is None and \
                    target_idx is not None:
                addresses = self.image.addresses
                target_pc = addresses[target_idx] \
                    if target_idx < len(addresses) else 0
            self._cols.append(
                pc, disepc, instr.opcode.code,
                pack_srcs(instr.source_regs()), instr.dest_reg(), mem_addr,
                is_store, fetch_addr is not None, ctrl, taken,
                target_pc if taken else None, is_trigger, expansion_event,
            )
        return ctrl, taken, target_idx

    # ------------------------------------------------------------------
    # Instruction semantics — generic path (reference implementation)
    # ------------------------------------------------------------------
    def _execute_generic(self, instr, pc, idx, fetch_addr, disepc,
                         trigger_idx, is_trigger, expansion_event,
                         handler=None):
        """Execute one dynamic instruction; returns (ctrl_kind, taken,
        target_idx) and records the trace op."""
        image = self.image
        regs = self.regs
        op = instr.opcode
        opclass = op.opclass
        fmt = op.format

        mem_addr = None
        is_store = False
        ctrl = None
        taken = False
        target_idx = None
        target_pc = None

        if fmt is Format.OPERATE:
            a = 0 if instr.ra == ZERO else regs[instr.ra]
            if instr.rb is None:
                b = instr.imm
            else:
                b = 0 if instr.rb == ZERO else regs[instr.rb]
            if op is Opcode.ADDQ:
                value = (a + b) & MASK64
            elif op is Opcode.SUBQ:
                value = (a - b) & MASK64
            elif op is Opcode.MULQ:
                value = (a * b) & MASK64
            elif op is Opcode.AND:
                value = a & b
            elif op is Opcode.BIS:
                value = a | b
            elif op is Opcode.XOR:
                value = a ^ b
            elif op is Opcode.SLL:
                value = (a << (b & 63)) & MASK64
            elif op is Opcode.SRL:
                value = a >> (b & 63)
            elif op is Opcode.SRA:
                value = (_signed(a) >> (b & 63)) & MASK64
            elif op is Opcode.CMPEQ:
                value = 1 if a == b else 0
            elif op is Opcode.CMPLT:
                value = 1 if _signed(a) < _signed(b) else 0
            elif op is Opcode.CMPLE:
                value = 1 if _signed(a) <= _signed(b) else 0
            elif op is Opcode.CMPULT:
                value = 1 if a < b else 0
            elif op is Opcode.CMOVEQ:
                value = b if a == 0 else regs[instr.rc] if instr.rc != ZERO else 0
            elif op is Opcode.CMOVNE:
                value = b if a != 0 else regs[instr.rc] if instr.rc != ZERO else 0
            else:
                raise ExecutionError(f"unhandled operate opcode {op}",
                                     pc=pc, index=idx, opcode=op)
            self.write_reg(instr.rc, value)

        elif fmt is Format.MEM:
            base = 0 if instr.rb == ZERO else regs[instr.rb]
            if op is Opcode.LDA:
                self.write_reg(instr.ra, (base + instr.imm) & MASK64)
            elif op is Opcode.LDAH:
                self.write_reg(instr.ra, (base + (instr.imm << 16)) & MASK64)
            else:
                mem_addr = (base + instr.imm) & MASK64
                if op is Opcode.LDQ:
                    self.write_reg(instr.ra, self.mem.read(mem_addr))
                elif op is Opcode.LDL:
                    raw = self.mem.read(mem_addr) & 0xFFFFFFFF
                    if raw & 0x80000000:
                        raw |= 0xFFFFFFFF00000000
                    self.write_reg(instr.ra, raw)
                elif op is Opcode.STQ:
                    is_store = True
                    self.mem.write(mem_addr, self.read_reg(instr.ra))
                elif op is Opcode.STL:
                    is_store = True
                    self.mem.write(mem_addr, self.read_reg(instr.ra) & 0xFFFFFFFF)
                else:
                    raise ExecutionError(f"unhandled memory opcode {op}",
                                         pc=pc, index=idx, opcode=op)

        elif fmt is Format.BRANCH:
            if op is Opcode.OUT:
                self.outputs.append(self.read_reg(instr.ra))
            elif op is Opcode.CTRL:
                handler = self.control_handlers.get(instr.imm)
                if handler is None:
                    raise ExecutionError(
                        f"ctrl call {instr.imm} at {pc:#x} has no registered "
                        "handler",
                        pc=pc, index=idx, opcode=op,
                    )
                handler(self)
            elif op is Opcode.FAULT:
                self.halted = True
                self.fault_code = instr.imm if instr.imm is not None else 0
            elif opclass is OpClass.DISE_BRANCH:
                if disepc is None or self._exp is None:
                    raise ExecutionError(
                        f"DISE branch outside a replacement sequence at "
                        f"{pc:#x}",
                        pc=pc, index=idx, opcode=op,
                    )
                ctrl = CTRL_DISE
                test = self.read_reg(instr.ra)
                if op is Opcode.DBR:
                    taken = True
                elif op is Opcode.DBEQ:
                    taken = test == 0
                else:  # DBNE
                    taken = test != 0
                target_idx = instr.imm  # a DISEPC, not an instruction index
            else:
                test = self.read_reg(instr.ra)
                if op is Opcode.BEQ:
                    taken = test == 0
                elif op is Opcode.BNE:
                    taken = test != 0
                elif op is Opcode.BLT:
                    taken = _signed(test) < 0
                elif op is Opcode.BLE:
                    taken = _signed(test) <= 0
                elif op is Opcode.BGT:
                    taken = _signed(test) > 0
                elif op is Opcode.BGE:
                    taken = _signed(test) >= 0
                elif op in (Opcode.BR, Opcode.BSR):
                    taken = True
                    return_addr = (image.addresses[trigger_idx]
                                   + image.sizes[trigger_idx])
                    self.write_reg(instr.ra, return_addr)
                else:
                    raise ExecutionError(f"unhandled branch opcode {op}",
                                         pc=pc, index=idx, opcode=op)
                ctrl = CTRL_CALL if op is Opcode.BSR else (
                    CTRL_UNCOND if op is Opcode.BR else CTRL_COND
                )
                if taken:
                    target_idx, target_pc = self._branch_target(
                        instr, pc, idx, is_trigger
                    )

        elif fmt is Format.JUMP:
            target_value = self.read_reg(instr.rb)
            return_addr = (image.addresses[trigger_idx]
                           + image.sizes[trigger_idx])
            self.write_reg(instr.ra, return_addr)
            taken = True
            ctrl = CTRL_RET if op is Opcode.RET else (
                CTRL_CALL if op is Opcode.JSR else CTRL_INDIRECT
            )
            target_pc = target_value
            target_idx = image.index_of_addr.get(target_value)
            if target_idx is None:
                self.halted = True
                self.fault_code = FAULT_BAD_JUMP

        elif fmt is Format.NULLARY:
            if op is Opcode.HALT:
                self.halted = True
            # NOP: nothing.

        elif fmt is Format.CODEWORD:
            raise ExecutionError(f"codeword reached execution at {pc:#x}",
                                 pc=pc, index=idx, opcode=op)

        else:
            raise ExecutionError(f"unhandled format {fmt}",
                                 pc=pc, index=idx, opcode=op)

        self.instructions += 1
        if self.record_trace:
            if ctrl is not None and taken and target_pc is None and \
                    target_idx is not None:
                target_pc = image.addresses[target_idx] \
                    if target_idx < len(image.addresses) else 0
            self._cols.append(
                pc, disepc, op.code, pack_srcs(instr.source_regs()),
                instr.dest_reg(), mem_addr, is_store, fetch_addr is not None,
                ctrl, taken, target_pc if taken else None, is_trigger,
                expansion_event,
            )
        return ctrl, taken, target_idx

    def _branch_target(self, instr, pc, idx, is_trigger):
        """Resolve a direct branch's target to (index, address)."""
        image = self.image
        if is_trigger and self._exp is None:
            target_idx = image.target_index[idx]
            if target_idx is None:
                raise ExecutionError(f"unresolved branch target at {pc:#x}",
                                     pc=pc, index=idx,
                                     opcode=instr.opcode)
            return target_idx, image.addresses[target_idx]
        if is_trigger and self._exp is not None:
            target_idx = image.target_index[idx]
            if target_idx is not None:
                return target_idx, image.addresses[target_idx]
        # Engine-generated branch: displacement is relative to trigger PC.
        target_pc = pc + 4 + instr.imm * 4
        target_idx = image.index_of_addr.get(target_pc)
        if target_idx is None:
            raise ExecutionError(
                f"replacement branch to non-text address {target_pc:#x}",
                pc=pc, index=idx, opcode=instr.opcode,
            )
        return target_idx, target_pc

    # ------------------------------------------------------------------
    def result(self) -> TraceResult:
        if self._tm_prev is not None:
            self._publish_telemetry()
        if self._profile is not None:
            _profile_mod.publish(self._profile)
        return TraceResult(
            columns=self._cols,
            outputs=list(self.outputs),
            fault_code=self.fault_code,
            halted=self.halted,
            instructions=self.instructions,
            app_instructions=self.app_instructions,
            expansions=self.expansions,
            final_regs=tuple(self.regs),
            final_memory=self.mem,
        )


def run_program(image: ProgramImage,
                controller: Optional[DiseController] = None,
                record_trace=True, max_steps=5_000_000,
                observer=None, dispatch: Optional[str] = None) -> TraceResult:
    """Convenience wrapper: build a machine, run to halt, return the trace."""
    machine = Machine(image, controller=controller, record_trace=record_trace,
                      observer=observer, dispatch=dispatch)
    return machine.run(max_steps=max_steps)
