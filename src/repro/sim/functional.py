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

* the **translated tier** (default) — a superblock translation cache: each
  basic-block region (single entry, conditional branches may fall through,
  ends at unconditional transfers / CTRL calls / a length cap) is
  pre-decoded once into a linear list of pre-bound handler thunks, with
  DISE replacement bodies instantiated and inlined at translation time.
  Matching and instantiation are hoisted out of the run loop entirely;
  only the stateful PT/RT accesses stay per-dynamic-trigger.  Blocks are
  keyed by entry index and the engine's production-set ``generation``
  (and flushed via the controller's invalidation hook), mirroring the
  paper's RT, which stores replacement sequences pre-decoded so expansion
  costs nothing at fetch (Section 2.2).  Code outside a superblock —
  first visits, ctrl calls, in-flight expansions after a restore — runs
  one instruction at a time through the same opcode-indexed handlers;
* the **generic tier** — the format/opcode if-chain, kept as the
  reference implementation the property tests compare the translated
  tier against.

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
from typing import Dict, List, Optional, Tuple

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
    Op,
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
# Opcode handlers (the translated tier's pre-bound semantics)
# ----------------------------------------------------------------------
# Each handler executes one opcode's semantics against the machine and
# returns ``(ctrl, taken, target_idx, mem_addr, is_store, target_pc)``.
# Handlers for side-effect-only instructions share one constant result
# tuple so the common case allocates nothing.

_SIMPLE = (None, False, None, None, False, None)


def _x_addq(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    ra = instr.ra
    a = 0 if ra == ZERO else regs[ra]
    rb = instr.rb
    b = instr.imm if rb is None else (0 if rb == ZERO else regs[rb])
    rc = instr.rc
    if rc != ZERO:
        regs[rc] = (a + b) & MASK64
    return _SIMPLE


def _x_subq(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    ra = instr.ra
    a = 0 if ra == ZERO else regs[ra]
    rb = instr.rb
    b = instr.imm if rb is None else (0 if rb == ZERO else regs[rb])
    rc = instr.rc
    if rc != ZERO:
        regs[rc] = (a - b) & MASK64
    return _SIMPLE


def _x_mulq(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    ra = instr.ra
    a = 0 if ra == ZERO else regs[ra]
    rb = instr.rb
    b = instr.imm if rb is None else (0 if rb == ZERO else regs[rb])
    rc = instr.rc
    if rc != ZERO:
        regs[rc] = (a * b) & MASK64
    return _SIMPLE


def _x_and(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    ra = instr.ra
    a = 0 if ra == ZERO else regs[ra]
    rb = instr.rb
    b = instr.imm if rb is None else (0 if rb == ZERO else regs[rb])
    rc = instr.rc
    if rc != ZERO:
        regs[rc] = (a & b) & MASK64
    return _SIMPLE


def _x_bis(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    ra = instr.ra
    a = 0 if ra == ZERO else regs[ra]
    rb = instr.rb
    b = instr.imm if rb is None else (0 if rb == ZERO else regs[rb])
    rc = instr.rc
    if rc != ZERO:
        regs[rc] = (a | b) & MASK64
    return _SIMPLE


def _x_xor(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    ra = instr.ra
    a = 0 if ra == ZERO else regs[ra]
    rb = instr.rb
    b = instr.imm if rb is None else (0 if rb == ZERO else regs[rb])
    rc = instr.rc
    if rc != ZERO:
        regs[rc] = (a ^ b) & MASK64
    return _SIMPLE


def _x_sll(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    ra = instr.ra
    a = 0 if ra == ZERO else regs[ra]
    rb = instr.rb
    b = instr.imm if rb is None else (0 if rb == ZERO else regs[rb])
    rc = instr.rc
    if rc != ZERO:
        regs[rc] = (a << (b & 63)) & MASK64
    return _SIMPLE


def _x_srl(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    ra = instr.ra
    a = 0 if ra == ZERO else regs[ra]
    rb = instr.rb
    b = instr.imm if rb is None else (0 if rb == ZERO else regs[rb])
    rc = instr.rc
    if rc != ZERO:
        regs[rc] = a >> (b & 63)
    return _SIMPLE


def _x_sra(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    ra = instr.ra
    a = 0 if ra == ZERO else regs[ra]
    rb = instr.rb
    b = instr.imm if rb is None else (0 if rb == ZERO else regs[rb])
    rc = instr.rc
    if rc != ZERO:
        regs[rc] = (_signed(a) >> (b & 63)) & MASK64
    return _SIMPLE


def _x_cmpeq(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    ra = instr.ra
    a = 0 if ra == ZERO else regs[ra]
    rb = instr.rb
    b = instr.imm if rb is None else (0 if rb == ZERO else regs[rb])
    rc = instr.rc
    if rc != ZERO:
        regs[rc] = 1 if a == b else 0
    return _SIMPLE


def _x_cmplt(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    ra = instr.ra
    a = 0 if ra == ZERO else regs[ra]
    rb = instr.rb
    b = instr.imm if rb is None else (0 if rb == ZERO else regs[rb])
    rc = instr.rc
    if rc != ZERO:
        regs[rc] = 1 if _signed(a) < _signed(b) else 0
    return _SIMPLE


def _x_cmple(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    ra = instr.ra
    a = 0 if ra == ZERO else regs[ra]
    rb = instr.rb
    b = instr.imm if rb is None else (0 if rb == ZERO else regs[rb])
    rc = instr.rc
    if rc != ZERO:
        regs[rc] = 1 if _signed(a) <= _signed(b) else 0
    return _SIMPLE


def _x_cmpult(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    ra = instr.ra
    a = 0 if ra == ZERO else regs[ra]
    rb = instr.rb
    b = instr.imm if rb is None else (0 if rb == ZERO else regs[rb])
    rc = instr.rc
    if rc != ZERO:
        regs[rc] = 1 if a < b else 0
    return _SIMPLE


def _x_cmoveq(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    ra = instr.ra
    a = 0 if ra == ZERO else regs[ra]
    rb = instr.rb
    b = instr.imm if rb is None else (0 if rb == ZERO else regs[rb])
    rc = instr.rc
    value = b if a == 0 else (regs[rc] if rc != ZERO else 0)
    if rc != ZERO:
        regs[rc] = value & MASK64
    return _SIMPLE


def _x_cmovne(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    ra = instr.ra
    a = 0 if ra == ZERO else regs[ra]
    rb = instr.rb
    b = instr.imm if rb is None else (0 if rb == ZERO else regs[rb])
    rc = instr.rc
    value = b if a != 0 else (regs[rc] if rc != ZERO else 0)
    if rc != ZERO:
        regs[rc] = value & MASK64
    return _SIMPLE


def _x_lda(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    rb = instr.rb
    base = 0 if rb == ZERO else regs[rb]
    ra = instr.ra
    if ra != ZERO:
        regs[ra] = (base + instr.imm) & MASK64
    return _SIMPLE


def _x_ldah(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    rb = instr.rb
    base = 0 if rb == ZERO else regs[rb]
    ra = instr.ra
    if ra != ZERO:
        regs[ra] = (base + (instr.imm << 16)) & MASK64
    return _SIMPLE


def _x_ldq(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    rb = instr.rb
    base = 0 if rb == ZERO else regs[rb]
    addr = (base + instr.imm) & MASK64
    ra = instr.ra
    if ra != ZERO:
        regs[ra] = m.mem.read(addr)
    return None, False, None, addr, False, None


def _x_ldl(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    rb = instr.rb
    base = 0 if rb == ZERO else regs[rb]
    addr = (base + instr.imm) & MASK64
    raw = m.mem.read(addr) & 0xFFFFFFFF
    if raw & 0x80000000:
        raw |= 0xFFFFFFFF00000000
    ra = instr.ra
    if ra != ZERO:
        regs[ra] = raw
    return None, False, None, addr, False, None


def _x_stq(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    rb = instr.rb
    base = 0 if rb == ZERO else regs[rb]
    addr = (base + instr.imm) & MASK64
    ra = instr.ra
    m.mem.write(addr, 0 if ra == ZERO else regs[ra])
    return None, False, None, addr, True, None


def _x_stl(m, instr, pc, idx, trigger_idx, is_trigger):
    regs = m.regs
    rb = instr.rb
    base = 0 if rb == ZERO else regs[rb]
    addr = (base + instr.imm) & MASK64
    ra = instr.ra
    value = 0 if ra == ZERO else regs[ra]
    m.mem.write(addr, value & 0xFFFFFFFF)
    return None, False, None, addr, True, None


def _x_out(m, instr, pc, idx, trigger_idx, is_trigger):
    ra = instr.ra
    m.outputs.append(0 if ra == ZERO else m.regs[ra])
    return _SIMPLE


def _x_ctrl(m, instr, pc, idx, trigger_idx, is_trigger):
    handler = m.control_handlers.get(instr.imm)
    if handler is None:
        raise ExecutionError(
            f"ctrl call {instr.imm} at {pc:#x} has no registered handler",
            pc=pc, index=idx, opcode=instr.opcode,
        )
    handler(m)
    return _SIMPLE


def _x_fault(m, instr, pc, idx, trigger_idx, is_trigger):
    m.halted = True
    m.fault_code = instr.imm if instr.imm is not None else 0
    return _SIMPLE


def _x_dbr(m, instr, pc, idx, trigger_idx, is_trigger):
    if m._exp is None:
        raise ExecutionError(
            f"DISE branch outside a replacement sequence at {pc:#x}",
            pc=pc, index=idx, opcode=instr.opcode,
        )
    return CTRL_DISE, True, instr.imm, None, False, None


def _x_dbeq(m, instr, pc, idx, trigger_idx, is_trigger):
    if m._exp is None:
        raise ExecutionError(
            f"DISE branch outside a replacement sequence at {pc:#x}",
            pc=pc, index=idx, opcode=instr.opcode,
        )
    ra = instr.ra
    test = 0 if ra == ZERO else m.regs[ra]
    return CTRL_DISE, test == 0, instr.imm, None, False, None


def _x_dbne(m, instr, pc, idx, trigger_idx, is_trigger):
    if m._exp is None:
        raise ExecutionError(
            f"DISE branch outside a replacement sequence at {pc:#x}",
            pc=pc, index=idx, opcode=instr.opcode,
        )
    ra = instr.ra
    test = 0 if ra == ZERO else m.regs[ra]
    return CTRL_DISE, test != 0, instr.imm, None, False, None


def _make_cond_branch(predicate):
    def handler(m, instr, pc, idx, trigger_idx, is_trigger):
        ra = instr.ra
        test = 0 if ra == ZERO else m.regs[ra]
        if predicate(test):
            target_idx, target_pc = m._branch_target(instr, pc, idx,
                                                     is_trigger)
            return CTRL_COND, True, target_idx, None, False, target_pc
        return CTRL_COND, False, None, None, False, None
    return handler


_x_beq = _make_cond_branch(lambda test: test == 0)
_x_bne = _make_cond_branch(lambda test: test != 0)
_x_blt = _make_cond_branch(lambda test: _signed(test) < 0)
_x_ble = _make_cond_branch(lambda test: _signed(test) <= 0)
_x_bgt = _make_cond_branch(lambda test: _signed(test) > 0)
_x_bge = _make_cond_branch(lambda test: _signed(test) >= 0)


def _x_br(m, instr, pc, idx, trigger_idx, is_trigger):
    image = m.image
    return_addr = image.addresses[trigger_idx] + image.sizes[trigger_idx]
    ra = instr.ra
    if ra != ZERO:
        m.regs[ra] = return_addr & MASK64
    target_idx, target_pc = m._branch_target(instr, pc, idx, is_trigger)
    return CTRL_UNCOND, True, target_idx, None, False, target_pc


def _x_bsr(m, instr, pc, idx, trigger_idx, is_trigger):
    image = m.image
    return_addr = image.addresses[trigger_idx] + image.sizes[trigger_idx]
    ra = instr.ra
    if ra != ZERO:
        m.regs[ra] = return_addr & MASK64
    target_idx, target_pc = m._branch_target(instr, pc, idx, is_trigger)
    return CTRL_CALL, True, target_idx, None, False, target_pc


def _make_jump(ctrl_kind):
    def handler(m, instr, pc, idx, trigger_idx, is_trigger):
        regs = m.regs
        rb = instr.rb
        target_value = 0 if rb == ZERO else regs[rb]
        image = m.image
        return_addr = image.addresses[trigger_idx] + image.sizes[trigger_idx]
        ra = instr.ra
        if ra != ZERO:
            regs[ra] = return_addr & MASK64
        target_idx = image.index_of_addr.get(target_value)
        if target_idx is None:
            m.halted = True
            m.fault_code = FAULT_BAD_JUMP
        return ctrl_kind, True, target_idx, None, False, target_value
    return handler


_x_jmp = _make_jump(CTRL_INDIRECT)
_x_jsr = _make_jump(CTRL_CALL)
_x_ret = _make_jump(CTRL_RET)


def _x_nop(m, instr, pc, idx, trigger_idx, is_trigger):
    return _SIMPLE


def _x_halt(m, instr, pc, idx, trigger_idx, is_trigger):
    m.halted = True
    return _SIMPLE


def _x_codeword(m, instr, pc, idx, trigger_idx, is_trigger):
    raise ExecutionError(f"codeword reached execution at {pc:#x}",
                         pc=pc, index=idx, opcode=instr.opcode)


#: Opcode -> handler.
_EXEC_TABLE: Dict[Opcode, object] = {
    Opcode.ADDQ: _x_addq, Opcode.SUBQ: _x_subq, Opcode.MULQ: _x_mulq,
    Opcode.AND: _x_and, Opcode.BIS: _x_bis, Opcode.XOR: _x_xor,
    Opcode.SLL: _x_sll, Opcode.SRL: _x_srl, Opcode.SRA: _x_sra,
    Opcode.CMPEQ: _x_cmpeq, Opcode.CMPLT: _x_cmplt, Opcode.CMPLE: _x_cmple,
    Opcode.CMPULT: _x_cmpult, Opcode.CMOVEQ: _x_cmoveq,
    Opcode.CMOVNE: _x_cmovne,
    Opcode.LDA: _x_lda, Opcode.LDAH: _x_ldah, Opcode.LDQ: _x_ldq,
    Opcode.LDL: _x_ldl, Opcode.STQ: _x_stq, Opcode.STL: _x_stl,
    Opcode.OUT: _x_out, Opcode.CTRL: _x_ctrl, Opcode.FAULT: _x_fault,
    Opcode.DBR: _x_dbr, Opcode.DBEQ: _x_dbeq, Opcode.DBNE: _x_dbne,
    Opcode.BEQ: _x_beq, Opcode.BNE: _x_bne, Opcode.BLT: _x_blt,
    Opcode.BLE: _x_ble, Opcode.BGT: _x_bgt, Opcode.BGE: _x_bge,
    Opcode.BR: _x_br, Opcode.BSR: _x_bsr,
    Opcode.JMP: _x_jmp, Opcode.JSR: _x_jsr, Opcode.RET: _x_ret,
    Opcode.NOP: _x_nop, Opcode.HALT: _x_halt,
    Opcode.RES0: _x_codeword, Opcode.RES1: _x_codeword,
    Opcode.RES2: _x_codeword, Opcode.RES3: _x_codeword,
}

# ----------------------------------------------------------------------
# Superblock translation (the pre-decoded dispatch tier)
# ----------------------------------------------------------------------
# Step kinds for translated app-level instructions.  Each kind fixes which
# parts of the handler's result tuple the block runner must look at, so the
# common cases skip all conditional record logic.
_T_SIMPLE = 0   # no control, no memory: result tuple ignored
_T_MEM = 1      # loads/stores: mem_addr from the handler result
_T_BRANCH = 2   # conditional branches: may exit the block when taken
_T_JUMP = 3     # always-taken transfers (br/bsr/jmp/jsr/ret): block-terminal
_T_HALT = 4     # halt/fault: block-terminal
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


#: Maximum app-level instructions per superblock.
_BLOCK_CAP = 64

#: Entry visits before a superblock is translated (warmup gate): code
#: executed once — cold tails, straight-line init — runs interpretively
#: and never pays translation; any revisited entry is hot by definition.
_HOT_THRESHOLD = 1

#: Cached marker for "this entry point cannot be translated" — the run loop
#: falls back to one interpretive step.
_NO_BLOCK = ((), 0)


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
        # The translated tier keeps running under telemetry: superblock
        # dispatches bypass the counting wrapper, so _exec_block counts
        # opcodes itself — app steps batched at block boundaries, body
        # instructions inline — and only the interpretive fallback steps
        # go through the wrapper.
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

        # Superblock translation cache: entry index -> (steps, exit_idx), or
        # _NO_BLOCK for untranslatable entries.  Alongside it, the
        # translation memos: per-index step tuples (False = untranslatable
        # site), so overlapping superblocks pay the per-instruction cost
        # once; per-(seq_id, trigger_pc) pre-bound replacement bodies; and
        # entry-visit counts for the warmup gate.  All four are normally
        # views into the image-wide store (_attach_translations), shared
        # by every machine running the same productions, and are re-bound
        # through the controller's invalidation listener and the engine's
        # generation counter whenever the active set changes.
        self._blocks: Dict[int, tuple] = {}
        self._steps: Dict[int, tuple] = {}
        self._bodies: Dict[tuple, list] = {}
        self._heat: Dict[int, int] = {}
        self._warm = False
        self._blocks_gen = self._decode_gen
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

        On the translated tier the hooks live inline in
        :meth:`_exec_block` (one dict bump per superblock execution, so
        the warm-path overhead stays block-granular).  On the
        interpretive tiers — where no superblocks exist — dispatch is
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
        entry = (instr, opcode.is_reserved, _EXEC_TABLE[opcode],
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
            expansion_event=event, handler=_EXEC_TABLE[instr.opcode],
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
    # Superblock translation cache (translated dispatch tier)
    # ------------------------------------------------------------------
    def _attach_translations(self):
        """Bind this machine's translation memos to the image-wide store.

        Translated superblocks depend only on the image text and the
        active production set, so they live on the image, keyed by the
        engine's cross-machine :attr:`production_signature` — every
        machine running the same installation shares one memo set and
        fresh machines start warm.  Re-invoked (via the controller's
        invalidation listener and the generation check in the run loop)
        whenever the active set changes: the machine re-binds to the
        entry for the new signature, leaving other keyings warm.  Images
        that refuse attribute stashing fall back to private memos.
        """
        engine = self.engine
        image = self.image
        if engine is not None and engine.generation != self._decode_gen:
            self._decode = [None] * len(image.instructions)
            self._decode_gen = engine.generation
        store = getattr(image, "_translation_store", None)
        if store is None:
            try:
                store = image._translation_store = {}
            except AttributeError:
                self._blocks, self._steps = {}, {}
                self._bodies, self._heat = {}, {}
                self._warm = False
                if engine is not None:
                    self._blocks_gen = engine.generation
                return
        key = engine.production_signature if engine is not None else None
        entry = store.get(key)
        if entry is None:
            entry = store[key] = ({}, {}, {}, {})
        self._blocks, self._steps, self._bodies, self._heat = entry
        # Warm-store pre-seed: a sibling machine already paid the
        # interpretive warmup for this keying, so later lanes skip the
        # revisit gate entirely and translate on first touch.
        self._warm = bool(entry[0] or entry[1])
        if engine is not None:
            self._blocks_gen = engine.generation

    def invalidate_translations(self):
        """Flush every translated superblock and decoded instruction.

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

        Executes whole superblocks when one is available for the current
        index and falls back to single interpretive steps everywhere else
        (untranslatable sites, in-flight expansions after a restore).  The
        step budget is shared with the interpretive loop so
        :class:`ExecutionTimeout` fires after exactly the same number of
        dynamic instructions.
        """
        steps_left = max_steps
        image_len = len(self.image.instructions)
        while not self.halted and steps_left > 0:
            if self._exp is not None:
                self.step()
                steps_left -= 1
                continue
            engine = self.engine
            if engine is not None and engine.generation != self._blocks_gen:
                # Production set changed (ctrl call or direct controller
                # use): re-bind to the store entry for the new active set.
                # Flushes _decode too if the interpretive fallback has not
                # already done so under its own generation marker.
                self._attach_translations()
            idx = self.idx
            block = self._blocks.get(idx)
            if block is None:
                if 0 <= idx < image_len:
                    # Warmup gate: translation only pays off on re-executed
                    # code, so cold entries run interpretively and a block
                    # is built the first time its entry is *revisited*.
                    count = self._heat.get(idx, 0)
                    if count < _HOT_THRESHOLD and not self._warm:
                        self._heat[idx] = count + 1
                        self.step()
                        steps_left -= 1
                        continue
                    block = self._translate(idx)
                else:
                    block = _NO_BLOCK   # step() raises the precise error
                self._blocks[idx] = block
            steps, _ = block
            if not steps:
                self.step()
                steps_left -= 1
                continue
            steps_left -= self._exec_block(block, steps_left)
        if not self.halted and steps_left <= 0:
            raise ExecutionTimeout(
                f"program did not halt within {max_steps} dynamic "
                "instructions",
                steps=max_steps, index=self.idx,
            )
        return self.result()

    def _translate(self, entry_idx: int) -> tuple:
        """Pre-decode one superblock starting at ``entry_idx``.

        Returns ``(steps, exit_idx)`` — ``steps`` is a tuple of pre-bound
        step tuples ``(kind, instr, pc, idx, handler, meta, packed_srcs,
        probe, trig)``; ``exit_idx`` is the fall-through index when the
        runner walks off the end of the list.  Sites whose semantics cannot
        be hoisted (ctrl calls, stray codewords, expansion errors,
        unsupported bodies) end the block; an empty block (``_NO_BLOCK``)
        sends the entry back to the interpretive loop.
        """
        step_memo = self._steps
        steps = []
        idx = entry_idx
        n = len(self._decode)
        while idx < n and len(steps) < _BLOCK_CAP:
            st = step_memo.get(idx)
            if st is None:
                st = self._translate_step(idx)
                step_memo[idx] = st
            if st is False:
                break
            steps.append(st)
            idx += 1
            kind = st[0]
            if kind == _T_JUMP or kind == _T_HALT:
                break
        return (tuple(steps), idx) if steps else _NO_BLOCK

    def _translate_step(self, idx: int):
        """Pre-bind the step tuple for one static instruction.

        Position-dependent only through ``idx``/``pc``, so overlapping
        superblocks share the result via the ``_steps`` memo.  Returns
        ``False`` for untranslatable sites.
        """
        entry = self._decode[idx]
        if entry is None:
            entry = self._decode_at(idx)
        instr, is_reserved, handler, is_engine_trigger = entry
        opcode = instr.opcode
        pc = self.image.addresses[idx]
        probe = None
        if is_engine_trigger:
            try:
                pre = self.engine.preexpand(instr, pc)
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
        cls = _APP_STEPS.get(opcode.kind)
        if cls is None:
            return False
        kind, extra = cls
        meta = opcode.code | extra | META_FETCH | META_TRIGGER
        dest = instr.dest_reg()
        if dest is not None:
            meta |= (dest + 1) << DEST_SHIFT
        return (kind, instr, pc, idx, handler, meta,
                pack_srcs(instr.source_regs()), probe, None)

    def _translate_body(self, exp) -> Optional[list]:
        """Pre-bind one instantiated replacement body, or None when any
        instruction resists hoisting (ctrl calls can invalidate the block
        they run in; codeword copies raise interpretively).

        Memoised per ``(seq_id, trigger_pc)``: instantiation is a pure
        function of the production set and the trigger instruction, both
        fixed for the memo's lifetime (flushed with ``_blocks``).
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
            bop = binstr.opcode
            cls = _BODY_STEPS.get(bop.kind)
            if cls is None:
                return None
            bkind, extra = cls
            is_copy = k in offsets
            meta = bop.code | extra | (k << DISEPC_SHIFT)
            if k == 0:
                meta |= META_FETCH
            if is_copy:
                meta |= META_TRIGGER
            dest = binstr.dest_reg()
            if dest is not None:
                meta |= (dest + 1) << DEST_SHIFT
            body.append((bkind, binstr, _EXEC_TABLE[bop], meta,
                         pack_srcs(binstr.source_regs()), is_copy))
        return body

    def _exec_block(self, block, budget: int) -> int:
        """Run one translated superblock; returns retirements executed.

        Mirrors the interpretive loop's observable behaviour exactly:
        counter ordering, trace records (including the taken-DISE-branch
        target quirk), observer calls, precise state at faults and halts,
        and budget exhaustion mid-sequence all match ``step()``.
        ``self.idx`` is kept current throughout, so exceptions raised by
        handlers propagate with the same machine state the interpretive
        path would leave.
        """
        steps, exit_idx = block
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
        executed = 0
        retired = 0
        app = 0
        i = 0
        n = len(steps)
        try:
            while i < n:
                st = steps[i]
                idx = st[3]
                self.idx = idx
                if executed >= budget:
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
                    retired += 1
                    executed += 1
                    if record:
                        pc_col.append(pc)
                        meta_col.append(st[5])
                        mem_col.append(0)
                        tgt_col.append(0)
                        srcs_col.append(st[6])
                    if observe is not None:
                        observe(self, instr, pc, 0, True)
                    i += 1
                    continue
                if kind == _T_MEM:
                    res = st[4](self, instr, pc, idx, idx, True)
                    retired += 1
                    executed += 1
                    if record:
                        pc_col.append(pc)
                        meta_col.append(st[5])
                        mem_col.append(res[3])
                        tgt_col.append(0)
                        srcs_col.append(st[6])
                    if observe is not None:
                        observe(self, instr, pc, 0, True)
                    i += 1
                    continue
                if kind == _T_BRANCH:
                    res = st[4](self, instr, pc, idx, idx, True)
                    retired += 1
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
                    if taken:
                        target_idx = res[2]
                        self.idx = target_idx
                        if target_idx != idx + 1:
                            return executed
                    i += 1
                    continue
                if kind == _T_JUMP:
                    res = st[4](self, instr, pc, idx, idx, True)
                    retired += 1
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
                    self.idx = res[2]
                    return executed
                if kind == _T_HALT:
                    st[4](self, instr, pc, idx, idx, True)
                    retired += 1
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
                # _T_TRIG: run the pre-bound replacement body inline.  Only
                # the stateful PT/RT accesses and the counters remain from
                # engine.process(); match + instantiation happened at
                # translation time.
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
                    # engine.process() on the interpretive tiers.
                    engine._tm.record(engine, production, exp)
                if profile is not None:
                    ptrig = profile["trigger"]
                    ptrig[pc] = ptrig.get(pc, 0) + 1
                    pprod = profile["production"]
                    pprod[seq_id] = pprod.get(seq_id, 0) + len(body)
                event = (seq_id, len(body), pt_miss, rt_miss, exp.composed)
                self._exp = exp
                self._pending = None
                self._disepc = 0
                first = True
                disepc = 0
                nbody = len(body)
                while disepc < nbody:
                    if executed >= budget:
                        # Out of budget mid-sequence: leave precise
                        # PC:DISEPC state for the caller's timeout.
                        self._disepc = disepc
                        return executed
                    belem = body[disepc]
                    self._disepc = disepc
                    binstr = belem[1]
                    is_copy = belem[5]
                    if counts is not None:
                        # Inline (not batched): body length varies with
                        # mid-sequence exits, and like the interpretive
                        # counting wrapper the bump precedes the handler
                        # call so faulting dispatches are counted.
                        bop = binstr.opcode
                        counts[bop] = counts.get(bop, 0) + 1
                    res = belem[2](self, binstr, pc, idx, idx, is_copy)
                    retired += 1
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
                                # bit-identical traces: a taken DISE branch
                                # records addresses[target DISEPC].
                                td = res[2]
                                if td is not None:
                                    bmeta |= META_TARGET
                                    tgt = addresses[td] if td < n_addr else 0
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
                        # Fault/halt mid-sequence: expansion state stays
                        # live, exactly as the interpretive path leaves it.
                        self._disepc = disepc
                        return executed
                    elif res[1]:
                        if is_copy:
                            # Predicted-path semantics: the outcome applies
                            # at sequence end.
                            self._pending = res[2]
                            disepc += 1
                        else:
                            # Effectively predicted not-taken: squash.
                            next_idx = res[2]
                            self._exp = None
                            self._disepc = 0
                            self._pending = None
                            self.idx = next_idx
                            return executed
                    else:
                        disepc += 1
                pending = self._pending
                next_idx = pending if pending is not None else idx + 1
                self._exp = None
                self._disepc = 0
                self._pending = None
                self.idx = next_idx
                if next_idx != idx + 1:
                    return executed
                i += 1
            self.idx = exit_idx
            return executed
        finally:
            self.instructions += retired
            self.app_instructions += app
            if engine is not None:
                engine.inspected += app
            if counts is not None:
                # Per-opcode telemetry for the app-level steps, batched at
                # the block boundary.  ``app`` was bumped before each
                # dispatch, so a faulting step is included — the same
                # semantics as the interpretive counting wrapper.  Trigger
                # steps are skipped: the trigger instruction itself never
                # passes through dispatch (its replacement body, counted
                # inline above, retires in its place).
                for k in range(app):
                    st_k = steps[k]
                    if st_k[0] != _T_TRIG:
                        op = st_k[1].opcode
                        counts[op] = counts.get(op, 0) + 1
            if profile is not None and retired:
                entry_pc = steps[0][2]
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
        skips interpretive warmup entirely — see
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
