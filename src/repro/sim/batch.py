"""Batched lockstep cohort execution: N machines stepped per compiled block.

A :class:`BatchMachine` holds a cohort of scalar
:class:`~repro.sim.functional.Machine` lanes and advances them one
*compiled block* at a time.  A block is a run of consecutive sites from
the image-wide per-site table (``_translation_store``, keyed by
``production_signature``) that the translated tier runs too; it is
lowered once into a straight-line Python function via ``exec`` —
registers, memory words, PT/RT probes, trace records and observer hooks
all inlined — and the compiled function is shared by every lane running
the same production set, so the cohort amortises both translation and
compilation while each lane keeps its own architectural state.  What an
instruction computes is its opcode's
:data:`~repro.sim.functional.SEMANTICS` row, formatted with its register
and literal operands: the rows the scalar tier's handlers are generated
from.

Scheduler state (per-lane flags and retirement counts) is kept as
structure-of-arrays ``array('Q')`` columns mirroring ``sim/trace.py``;
register files deliberately stay in the per-lane ``Machine`` objects:
compiled blocks mutate them in place, and masking a lane out to the
scalar tiers (translated -> generic) must be a zero-copy handoff
for the scalar simulator to remain the always-correct fallback.

Divergence handling: a lane whose control flow leaves the compiled
region, takes a fault, is mid-expansion, sits on a watchpoint site, or
is too close to its step budget / checkpoint boundary for a whole block
is *drained* on the scalar tiers in bounded quanta and re-admitted to
the batch tier when its PC re-converges on a compiled entry.  Compiled
functions retire a statically known instruction count per exit path and
are only entered when the remaining budget covers the worst case, so
``ExecutionTimeout`` and ``stop_at`` checkpoints land at exactly the
same retirement counts — with exactly the same machine state — as a
serial run.

Bodies containing DISE-internal branches (``dbr``/``dbeq``/``dbne``)
make the DISEPC data-dependent and are left to the scalar tiers; the
MFI productions that dominate cohort workloads never use them.

Gating follows the dispatch tier: an explicit ``batch=`` argument wins,
else ``REPRO_BATCH`` (``0``/``off`` disables, ``1``/``on`` selects the
default cohort width, an integer >= 2 selects that width), else off.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ExecutionError, ExecutionTimeout
from repro.isa.opcodes import Format, Kind, Opcode
from repro.sim.functional import (
    FAULT_BAD_JUMP,
    ROW_GLOBALS,
    SEMANTICS,
    ZERO,
    _B_CTRL,
    _B_DISE,
    _B_HALT,
    _B_MEM,
    _B_SIMPLE,
    _T_BRANCH,
    _T_HALT,
    _T_JUMP,
    _T_MEM,
    _T_SIMPLE,
    _T_TRIG,
)
from repro.sim.memory import MASK64
from repro.sim.trace import META_EXP, META_TAKEN, META_TARGET
from repro.telemetry import events as _events
from repro.telemetry import profile as _profile_mod
from repro.telemetry import registry as _telemetry

#: Cohort width selected by ``REPRO_BATCH=1`` / ``batch=1`` ("on").
DEFAULT_COHORT = 8

#: Scalar steps per drain round for a diverged lane.
_DRAIN_QUANTUM = 64

#: Retirements per lane per batch round before the scheduler rotates.
_CHAIN_QUANTUM = 512

#: Maximum app-level sites per compiled block.
_BLOCK_CAP = 64

#: A block is lowered to Python only once this many lane-arrivals have
#: requested it.  ``exec``-compiling a block costs ~1000x one scalar
#: step, so one-off paths (a faulted lane wandering through cold code)
#: stay on the scalar tiers; anything a cohort shares — or a single lane
#: loops over — passes the gate almost immediately.
_COMPILE_THRESHOLD = 2

_UNSET = object()


def resolve_batch(batch: Optional[int] = None) -> int:
    """Resolve the cohort width: explicit argument > ``REPRO_BATCH`` > off.

    Returns 0 (disabled) or a width >= 2.  ``1`` (and the strings
    ``on``/``true``) mean "enabled at the default width".
    """
    if batch is None:
        raw = os.environ.get("REPRO_BATCH", "").strip().lower()
        if raw in ("", "0", "off", "false", "no"):
            return 0
        if raw in ("1", "on", "true", "yes"):
            return DEFAULT_COHORT
        try:
            batch = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_BATCH={raw!r} is not an integer or on/off"
            ) from None
    if batch <= 0:
        return 0
    if batch == 1:
        return DEFAULT_COHORT
    return batch


# ----------------------------------------------------------------------
# Block -> Python compilation
# ----------------------------------------------------------------------
def _block_at(machine, idx: int) -> tuple:
    """The block entered at ``idx``: ``(steps, exit_idx)``.

    Walks ``machine``'s per-site table from ``idx``, decoding each site on
    first touch as the translated tier does, and stops after a jump or a
    halt, before an untranslatable site, or at :data:`_BLOCK_CAP` sites;
    ``exit_idx`` is the index after the last step.
    """
    sites = machine._sites
    steps = []
    while len(steps) < _BLOCK_CAP:
        st = sites[idx]
        if st is None:
            st = sites[idx] = machine._translate_step(idx)
        if st is False:
            break
        steps.append(st)
        idx += 1
        if st[0] == _T_JUMP or st[0] == _T_HALT:
            break
    return tuple(steps), idx


def _rv(reg: int) -> str:
    return "0" if reg == ZERO else f"r[{reg}]"


def _bv(instr) -> str:
    """Operand b: immediate form when ``rb`` is None (operate format)."""
    return repr(instr.imm) if instr.rb is None else _rv(instr.rb)


class _Codegen:
    """Accumulates source lines + namespace for one block function."""

    def __init__(self, machine, record: bool, observed: bool):
        self.m = machine
        self.record = record
        self.observed = observed
        self.lines: List[str] = []
        self.ns: Dict[str, object] = dict(ROW_GLOBALS)
        self.retired = 0
        self.app = 0
        self.exps = 0
        self.indices = set()
        self.has_engine = machine.engine is not None
        self.need_mem = False
        self.need_out = False
        self.need_pt = False
        self.need_rt = False
        self.need_ioa = False
        self._mark = None

    # -- line plumbing -------------------------------------------------
    def emit(self, line: str, depth: int = 0):
        self.lines.append("    " * (depth + 1) + line)

    def const(self, prefix: str, value) -> str:
        name = f"{prefix}{len(self.ns)}"
        self.ns[name] = value
        return name

    def begin_step(self):
        self._mark = (len(self.lines), self.retired, self.app, self.exps,
                      set(self.indices), self.need_mem, self.need_out,
                      self.need_pt, self.need_rt, self.need_ioa)

    def abort_step(self):
        (n, self.retired, self.app, self.exps, self.indices, self.need_mem,
         self.need_out, self.need_pt, self.need_rt, self.need_ioa) = self._mark
        del self.lines[n:]

    # -- shared fragments ----------------------------------------------
    def emit_exit(self, depth: int):
        """Counter flush + return: every exit path retires a static count.

        Mirrors ``_exec_sites``'s ``finally`` flush; nothing inside a
        compiled function observes the counters, so folding them into
        per-exit epilogues is unobservable.
        """
        self.emit(f"m.instructions += {self.retired}", depth)
        self.emit(f"m.app_instructions += {self.app}", depth)
        if self.has_engine:
            self.emit(f"e.inspected += {self.app}", depth)
        if self.exps:
            self.emit(f"m.expansions += {self.exps}", depth)
            self.emit(f"e.expansions += {self.exps}", depth)
        self.emit(f"return {self.retired}", depth)

    def emit_record(self, depth: int, pc: int, meta, mem="0", tgt="0",
                    srcs: int = 0, event: Optional[str] = None):
        if not self.record:
            return
        if event is not None:
            self.emit(f"cx[len(cp)] = {event}", depth)
        self.emit(f"cp.append({pc})", depth)
        self.emit(f"cm.append({meta})", depth)
        self.emit(f"ce.append({mem})", depth)
        self.emit(f"ct.append({tgt})", depth)
        self.emit(f"cs.append({srcs})", depth)

    def emit_observe(self, depth: int, iname: str, pc: int, disepc: int,
                     is_trigger: bool):
        if self.observed:
            self.emit(f"ob(m, {iname}, {pc}, {disepc}, {is_trigger})", depth)

    # -- straight-line opcode semantics (app steps and body elements) --
    def emit_alu(self, depth: int, instr, need_addr: bool):
        """Inline one SIMPLE/MEM opcode from its :data:`SEMANTICS` row;
        returns the memory address expression, or None."""
        opcode = instr.opcode
        kind = opcode.kind
        row = SEMANTICS.get(opcode)
        a, b = _rv(instr.ra), _bv(instr)
        if kind is Kind.OUTPUT:
            self.need_out = True
            self.emit(f"o.append({a})", depth)
            return None
        if kind is Kind.PLAIN:
            # nop has no row and writes nothing.
            dest = ZERO if row is None else getattr(instr, opcode.writes)
            if dest != ZERO:
                value = row.format(a=a, b=b, i=repr(instr.imm))
                if opcode.writes in opcode.reads:
                    # A conditional move's row is when rc takes b.  The
                    # not-moved arm re-writes regs[rc] & M — a no-op,
                    # since the register file is always masked; elide it.
                    self.emit(f"if {value}:", depth)
                    self.emit(f"r[{dest}] = ({b}) & M", depth + 1)
                else:
                    self.emit(f"r[{dest}] = {value}", depth)
            return None
        self.need_mem = True
        if kind is Kind.STORE:
            self.emit(f"ad = ({b} + {instr.imm}) & M", depth)
            self.emit(f"mw[ad & -8] = {row.format(a=a)}", depth)
            return "ad"
        if need_addr or instr.ra != ZERO:
            self.emit(f"ad = ({b} + {instr.imm}) & M", depth)
        if instr.ra != ZERO:
            self.emit(f"r[{instr.ra}] = {row.format(w='mg(ad & -8, 0)')}",
                      depth)
        return "ad"

    def emit_halt(self, depth: int, instr):
        self.emit("m.halted = True", depth)
        if instr.opcode is Opcode.FAULT:
            code = instr.imm if instr.imm is not None else 0
            self.emit(f"m.fault_code = {code}", depth)


def _cond(instr):
    """Branch condition expr (after ``t = <test reg>``) or, when the test
    register is the zero register, the constant outcome of its row."""
    row = SEMANTICS[instr.opcode]
    if instr.ra == ZERO:
        return bool(eval(row.format(t="0"), dict(ROW_GLOBALS)))
    return row.format(t="t")


def _resolve_direct(image, idx, instr, in_expansion: bool):
    """Compile-time target of a direct branch at ``idx``.

    Mirrors ``Machine._branch_target``: app-level direct branches and
    trigger copies resolve through ``target_index`` (copies falling back
    to the engine-relative displacement); non-copy replacement branches
    always use the displacement.  Returns (target_idx, target_pc) or
    None when the serial path would raise (the block is truncated there
    so the scalar tiers raise the precise error).
    """
    if not in_expansion:
        ti = image.target_index[idx]
        if ti is None:
            return None
        return ti, image.addresses[ti]
    return None


def _resolve_body_direct(image, idx, pc, instr, is_copy: bool):
    if is_copy:
        ti = image.target_index[idx]
        if ti is not None:
            return ti, image.addresses[ti]
    target_pc = pc + 4 + instr.imm * 4
    ti = image.index_of_addr.get(target_pc)
    if ti is None:
        return None
    return ti, target_pc


def compile_block(machine, block, record: bool, observed: bool):
    """Lower one block (:func:`_block_at`) to a Python function, or None.

    The function takes the machine and returns the retirement count; it
    reproduces ``Machine._exec_sites`` over the block bit-for-bit (counter
    ordering, trace records including the taken-DISE-branch target quirk,
    observer calls, precise ``idx``/expansion state at every exit) except
    that it contains no budget checks — callers must only enter it when
    the remaining budget covers ``fn.max_retire``.  Attributes:

    ``fn.max_retire``
        worst-case retirements of one call (static).
    ``fn.indices``
        frozenset of image indexes whose app-level sites execute inside
        — used to keep watchpoint lanes on the scalar tiers.
    """
    steps, exit_idx = block
    g = _Codegen(machine, record, observed)
    image = machine.image
    terminal = False
    truncated_at = None

    for st in steps:
        g.begin_step()
        if not _compile_step(g, st, image):
            g.abort_step()
            truncated_at = st[3]
            break
        if st[0] == _T_JUMP or st[0] == _T_HALT:
            terminal = True
    if not g.indices:
        return None
    if truncated_at is not None:
        g.emit(f"m.idx = {truncated_at}")
        g.emit_exit(0)
    elif not terminal:
        g.emit(f"m.idx = {exit_idx}")
        g.emit_exit(0)

    header = ["def _fn(m):", "    r = m.regs"]
    if g.need_mem:
        header.append("    mw = m.mem._words")
        header.append("    mg = mw.get")
    if g.need_out:
        header.append("    o = m.outputs")
    if g.has_engine:
        header.append("    e = m.engine")
    if g.need_pt:
        header.append("    pt = e.pt")
        ptn = len({index
                   for lst in machine.engine.pt._active_by_opcode.values()
                   for index in lst})
        # Warm fast path: with every active pattern resident and the PT
        # big enough to hold them all, access() can only hit — it bumps
        # the access counter and changes nothing else (no fills, no
        # evictions, so the LRU order is never consulted again).
        header.append(f"    ptf = {ptn} <= pt.entries and "
                      f"len(pt._resident) == {ptn}")
    if g.need_rt:
        header.append("    rt = e.rt")
        header.append("    rtp = rt.perfect")
    if g.need_ioa:
        g.ns["ioa"] = image.index_of_addr
    if record:
        header.append("    c = m._cols")
        header.append("    cp = c.pc")
        header.append("    cm = c.meta")
        header.append("    ce = c.mem")
        header.append("    ct = c.target")
        header.append("    cs = c.srcs")
        header.append("    cx = c.exp")
    if observed:
        header.append("    ob = m._observer.observe")

    src = "\n".join(header + g.lines) + "\n"
    code = compile(src, f"<batch:{steps[0][3]}>", "exec")
    exec(code, g.ns)
    fn = g.ns["_fn"]
    fn.max_retire = g.retired
    fn.indices = frozenset(g.indices)
    fn.src = src
    fn.entry_pc = steps[0][2]
    return fn


def _compile_step(g: _Codegen, st, image) -> bool:
    """Emit one app-level step; False -> truncate the block before it."""
    kind, instr, pc, idx, _, meta, srcs, probe, trig = st
    if probe is not None:
        # Unmatched trigger opcode: the PT is still probed per instance.
        g.need_pt = True
        oc = g.const("O", probe)
        g.emit("if ptf:")
        g.emit("pt.accesses += 1", 1)
        g.emit(f"elif pt.access({oc}):")
        g.emit("m.pt_misses += 1", 1)
    g.app += 1
    g.indices.add(idx)

    if kind == _T_TRIG:
        return _compile_trig(g, st, image)

    if kind == _T_SIMPLE or kind == _T_MEM:
        addr = g.emit_alu(0, instr, need_addr=(kind == _T_MEM and g.record))
        g.retired += 1
        g.emit_record(0, pc, meta, mem=addr or "0", srcs=srcs)
        in_ = g.const("I", instr) if g.observed else None
        g.emit_observe(0, in_, pc, 0, True)
        return True

    if kind == _T_BRANCH:
        resolved = _resolve_direct(image, idx, instr, in_expansion=False)
        cond = _cond(instr)
        if resolved is None and cond is not False:
            return False     # taken path would raise: leave it scalar
        ti, tpc = resolved if resolved is not None else (None, None)
        g.retired += 1
        in_ = g.const("I", instr) if g.observed else None
        if cond is True or cond is False:
            taken = cond
            if taken:
                g.emit_record(0, pc, meta | META_TAKEN | META_TARGET,
                              tgt=tpc, srcs=srcs)
                g.emit_observe(0, in_, pc, 0, True)
                if ti != idx + 1:
                    g.emit(f"m.idx = {ti}")
                    g.emit_exit(0)
            else:
                g.emit_record(0, pc, meta, srcs=srcs)
                g.emit_observe(0, in_, pc, 0, True)
            return True
        if ti == idx + 1 and not g.record and not g.observed:
            # Taken and not-taken converge and nothing records the
            # outcome: the branch (side-effect free test) is a no-op.
            return True
        g.emit(f"t = r[{instr.ra}]")
        g.emit(f"if {cond}:")
        g.emit_record(1, pc, meta | META_TAKEN | META_TARGET, tgt=tpc,
                      srcs=srcs)
        g.emit_observe(1, in_, pc, 0, True)
        if ti != idx + 1:
            g.emit(f"m.idx = {ti}", 1)
            g.emit_exit(1)
            g.emit_record(0, pc, meta, srcs=srcs)
            g.emit_observe(0, in_, pc, 0, True)
        else:
            g.emit("else:")
            g.emit_record(1, pc, meta, srcs=srcs)
            g.emit_observe(1, in_, pc, 0, True)
            if not g.record and not g.observed:
                g.emit("pass", 1)
        return True

    if kind == _T_JUMP:
        reta = (image.addresses[idx] + image.sizes[idx]) & MASK64
        in_ = g.const("I", instr) if g.observed else None
        if instr.opcode.format is Format.BRANCH:
            resolved = _resolve_direct(image, idx, instr, in_expansion=False)
            if resolved is None:
                return False
            ti, tpc = resolved
            if instr.ra != ZERO:
                g.emit(f"r[{instr.ra}] = {reta}")
            g.retired += 1
            g.emit_record(0, pc, meta, tgt=tpc, srcs=srcs)
            g.emit_observe(0, in_, pc, 0, True)
            g.emit(f"m.idx = {ti}")
            g.emit_exit(0)
            return True
        # jmp/jsr/ret: indirect through a register.
        g.need_ioa = True
        g.emit(f"tv = {_rv(instr.rb)}")
        if instr.ra != ZERO:
            g.emit(f"r[{instr.ra}] = {reta}")
        g.emit("ti = ioa.get(tv)")
        g.emit("if ti is None:")
        g.emit("m.halted = True", 1)
        g.emit(f"m.fault_code = {FAULT_BAD_JUMP}", 1)
        g.retired += 1
        g.emit_record(0, pc, meta, tgt="tv", srcs=srcs)
        g.emit_observe(0, in_, pc, 0, True)
        g.emit("if ti is None:")
        g.emit(f"m.idx = {idx}", 1)     # bad jump: idx stays at the jump
        g.emit_exit(1)
        g.emit("m.idx = ti")
        g.emit_exit(0)
        return True

    if kind == _T_HALT:
        g.emit_halt(0, instr)
        g.retired += 1
        g.emit_record(0, pc, meta, srcs=srcs)
        in_ = g.const("I", instr) if g.observed else None
        g.emit_observe(0, in_, pc, 0, True)
        g.emit(f"m.idx = {idx}")
        g.emit_exit(0)
        return True

    return False


def _compile_trig(g: _Codegen, st, image) -> bool:
    """Emit one trigger step with its fully inlined replacement body.

    Every body element is inlined: replacement-body handlers may read
    ``m._exp``/``m._disepc``, which compiled functions only materialise
    at exit points, so a body with an element that cannot be inlined
    stays on the scalar tiers.
    """
    _, tinstr, pc, idx, _, _, _, _, payload = st
    opcode, seq_id, spec_len, exp, body = payload[:5]
    for bkind, binstr, _, _, _, is_copy in body:
        if bkind == _B_DISE:
            return False    # data-dependent DISEPC: scalar only
        if bkind == _B_CTRL and binstr.opcode.format is not Format.JUMP \
                and _resolve_body_direct(image, idx, pc, binstr,
                                         is_copy) is None:
            return False

    g.need_pt = True
    g.exps += 1
    oc = g.const("O", opcode)
    g.emit("if ptf:")
    g.emit("pt.accesses += 1", 1)
    if g.record:
        g.emit("pm = False", 1)
        g.emit("else:")
        g.emit(f"pm = pt.access({oc})", 1)
        g.emit("if pm:", 1)
        g.emit("m.pt_misses += 1", 2)
    else:
        g.emit(f"elif pt.access({oc}):")
        g.emit("m.pt_misses += 1", 1)
    g.need_rt = True
    g.emit("if rtp:")
    g.emit("rt.accesses += 1", 1)
    if g.record:
        g.emit("rm = False", 1)
        g.emit("else:")
        g.emit(f"rm = rt.access_sequence({seq_id}, {spec_len})", 1)
        g.emit("if rm:", 1)
        g.emit("m.rt_misses += 1", 2)
    else:
        g.emit(f"elif rt.access_sequence({seq_id}, {spec_len}):")
        g.emit("m.rt_misses += 1", 1)

    xn = g.const("X", exp)
    has_copy_ctrl = any(b[0] == _B_CTRL and b[5] for b in body)
    if has_copy_ctrl:
        g.emit("pnd = None")
    pending_expr = "pnd" if has_copy_ctrl else "None"
    event = (f"({seq_id}, {len(body)}, pm, rm, {exp.composed})"
             if g.record else None)

    def mid_exit(depth: int, disepc: int):
        """Fault/halt mid-sequence: expansion state stays live."""
        g.emit(f"m._exp = {xn}", depth)
        g.emit(f"m._disepc = {disepc}", depth)
        g.emit(f"m._pending = {pending_expr}", depth)
        g.emit(f"m.idx = {idx}", depth)
        g.emit_exit(depth)

    for j, belem in enumerate(body):
        bkind, binstr, bhandler, bmeta, bsrcs, is_copy = belem
        ev = event if j == 0 else None
        xmeta = bmeta | META_EXP if (g.record and j == 0) else bmeta
        bn = g.const("B", binstr) if g.observed else None
        g.retired += 1

        if bkind == _B_SIMPLE or bkind == _B_MEM:
            addr = g.emit_alu(0, binstr,
                              need_addr=(bkind == _B_MEM and g.record))
            g.emit_record(0, pc, xmeta, mem=addr or "0", srcs=bsrcs,
                          event=ev)
            g.emit_observe(0, bn, pc, j, is_copy)
            continue

        if bkind == _B_HALT:
            g.emit_halt(0, binstr)
            g.emit_record(0, pc, xmeta, srcs=bsrcs, event=ev)
            g.emit_observe(0, bn, pc, j, is_copy)
            mid_exit(0, j)
            return True     # everything after the halt is unreachable

        # _B_CTRL
        bop = binstr.opcode
        reta = (image.addresses[idx] + image.sizes[idx]) & MASK64
        if bop.format is Format.JUMP:
            g.need_ioa = True
            g.emit(f"tv = {_rv(binstr.rb)}")
            if binstr.ra != ZERO:
                g.emit(f"r[{binstr.ra}] = {reta}")
            g.emit("ti = ioa.get(tv)")
            g.emit("if ti is None:")
            g.emit("m.halted = True", 1)
            g.emit(f"m.fault_code = {FAULT_BAD_JUMP}", 1)
            g.emit_record(0, pc, xmeta | META_TAKEN | META_TARGET,
                          tgt="tv", srcs=bsrcs, event=ev)
            g.emit_observe(0, bn, pc, j, is_copy)
            g.emit("if ti is None:")
            mid_exit(1, j)
            if is_copy:
                g.emit("pnd = ti")
            else:
                g.emit("m.idx = ti")    # squash: expansion state cleared
                g.emit_exit(0)
                return True
            continue

        ti, tpc = _resolve_body_direct(image, idx, pc, binstr, is_copy)
        if bop.kind is not Kind.COND:
            if binstr.ra != ZERO:
                g.emit(f"r[{binstr.ra}] = {reta}")
            g.emit_record(0, pc, xmeta | META_TAKEN | META_TARGET,
                          tgt=tpc, srcs=bsrcs, event=ev)
            g.emit_observe(0, bn, pc, j, is_copy)
            if is_copy:
                g.emit(f"pnd = {ti}")
            else:
                g.emit(f"m.idx = {ti}")
                g.emit_exit(0)
                return True
            continue

        # conditional branch in the body
        cond = _cond(binstr)
        if cond is True or cond is False:
            if cond:
                g.emit_record(0, pc, xmeta | META_TAKEN | META_TARGET,
                              tgt=tpc, srcs=bsrcs, event=ev)
                g.emit_observe(0, bn, pc, j, is_copy)
                if is_copy:
                    g.emit(f"pnd = {ti}")
                else:
                    g.emit(f"m.idx = {ti}")
                    g.emit_exit(0)
                    return True
            else:
                g.emit_record(0, pc, xmeta, srcs=bsrcs, event=ev)
                g.emit_observe(0, bn, pc, j, is_copy)
            continue
        g.emit(f"t = r[{binstr.ra}]")
        g.emit(f"if {cond}:")
        g.emit_record(1, pc, xmeta | META_TAKEN | META_TARGET, tgt=tpc,
                      srcs=bsrcs, event=ev)
        g.emit_observe(1, bn, pc, j, is_copy)
        if is_copy:
            g.emit(f"pnd = {ti}", 1)
            g.emit("else:")
            g.emit_record(1, pc, xmeta, srcs=bsrcs, event=ev)
            g.emit_observe(1, bn, pc, j, is_copy)
            if not g.record and not g.observed:
                g.emit("pass", 1)
        else:
            g.emit(f"m.idx = {ti}", 1)
            g.emit_exit(1)
            g.emit_record(0, pc, xmeta, srcs=bsrcs, event=ev)
            g.emit_observe(0, bn, pc, j, is_copy)

    # Fell through the whole body: apply any deferred trigger-branch
    # outcome; expansion state is cleared (never materialised).
    if has_copy_ctrl:
        g.emit(f"if pnd is not None and pnd != {idx + 1}:")
        g.emit("m.idx = pnd", 1)
        g.emit_exit(1)
    return True


# ----------------------------------------------------------------------
# Compiled-function store (image-wide, like the translation store)
# ----------------------------------------------------------------------
def _batch_store(image) -> Optional[dict]:
    store = getattr(image, "_batch_store", None)
    if store is None:
        try:
            store = image._batch_store = {}
        except AttributeError:
            return None
    return store


def _compiled_map(machine) -> Optional[Tuple[Dict[int, object],
                                             Dict[int, int]]]:
    """(entry idx -> compiled fn (or None), entry idx -> request count)
    for this machine's variant."""
    store = _batch_store(machine.image)
    if store is None:
        return None
    engine = machine.engine
    key = (engine.production_signature if engine is not None else None,
           machine.record_trace, machine._observer is not None)
    entry = store.get(key)
    if entry is None:
        entry = store[key] = ({}, {})
    return entry


# ----------------------------------------------------------------------
# Cohort scheduler
# ----------------------------------------------------------------------
class _Lane:
    __slots__ = ("machine", "max_steps", "start", "stop_at", "watch",
                 "fired", "visits", "status", "error", "mode", "fn",
                 "fns")

    def __init__(self, machine, max_steps, watch, stop_at):
        self.machine = machine
        self.max_steps = max_steps
        self.start = machine.instructions
        self.stop_at = stop_at
        self.watch = watch
        self.fired = watch is None
        self.visits = 0
        self.status: Optional[str] = None
        self.error: Optional[ExecutionError] = None
        self.mode: Optional[str] = None
        self.fn = None
        self.fns = _compiled_map(machine)

    def done(self) -> int:
        return self.machine.instructions - self.start


@dataclass
class LaneOutcome:
    """Terminal state of one lane after :meth:`BatchMachine.run`."""

    machine: object
    #: "halted" | "timeout" | "stopped" | "error" | "running"
    status: str
    #: Retirements executed under this BatchMachine.
    steps: int
    error: Optional[ExecutionError] = None

    def raise_or_result(self, max_steps: int):
        """Mirror ``Machine.run``: raise the scalar tiers' exceptions."""
        if self.status == "error":
            raise self.error
        if self.status == "timeout":
            raise ExecutionTimeout(
                f"program did not halt within {max_steps} dynamic "
                "instructions",
                steps=max_steps, index=self.machine.idx,
            )
        return self.machine.result()


class BatchMachine:
    """Steps a cohort of machines one compiled block at a time.

    Per-lane scheduler state lives in parallel ``array('Q')`` columns
    (mirroring the trace pipeline's SoA layout); architectural state
    stays in the lanes' ``Machine`` objects so mask/drain/re-admit is a
    zero-copy handoff to the scalar tiers.
    """

    def __init__(self):
        self.lanes: List[_Lane] = []
        # SoA scheduler columns: current index, retirements, flag bits
        # (1 = done, 2 = batch mode).
        self.col_idx = array("Q")
        self.col_retired = array("Q")
        self.col_flags = array("Q")
        self.stats = {
            "rounds": 0, "blocks": 0, "compiled_calls": 0,
            "compiled_retired": 0, "readmitted": 0, "drains": {},
        }
        self._tm = _telemetry.enabled()
        # Batch-lane hot-path profile: compiled-call retirements attributed
        # to the compiled block's entry PC (tier "batch").
        self._profile = (_profile_mod.new_profile("batch")
                         if _profile_mod.enabled() else None)

    def add_lane(self, machine, max_steps: int = 5_000_000,
                 watch: Optional[tuple] = None,
                 stop_at: Optional[int] = None) -> int:
        """Add one machine; returns its lane number.

        ``watch`` is ``(site_index, visit, mutator, reg)`` — the fault
        campaign's injection point: the mutator fires before the
        ``visit``-th app-level arrival at ``site_index``, counted
        exactly like the scalar driver.  ``stop_at`` pauses the lane at
        that retirement count ("stopped"; resumable by a later run).
        """
        lane = _Lane(machine, max_steps, watch, stop_at)
        self.lanes.append(lane)
        self.col_idx.append(machine.idx)
        self.col_retired.append(0)
        self.col_flags.append(0)
        return len(self.lanes) - 1

    # -- eligibility ----------------------------------------------------
    def _try_fn(self, lane: _Lane):
        """A compiled function runnable *now*, or (None, drain cause)."""
        m = lane.machine
        if m.halted:
            return None, "fault"
        if not m._translated:
            return None, "cold"
        if m._opcode_counts is not None:
            # Telemetry wants the per-instruction opcode and per-expansion
            # engine attribution that compiled blocks don't record;
            # the scalar translated tier counts exactly.
            return None, "observer"
        if m._exp is not None:
            return None, "branch"
        engine = m.engine
        if engine is not None and engine.generation != m._sites_gen:
            m._attach_translations()
            lane.fns = _compiled_map(m)
        idx = m.idx
        if not 0 <= idx < len(m.image.instructions):
            return None, "branch"   # scalar step raises the precise error
        sites = m._sites
        if sites[idx] is None:
            sites[idx] = m._translate_step(idx)
        if sites[idx] is False or lane.fns is None:
            return None, "branch"
        fns, fheat = lane.fns
        fn = fns.get(idx, _UNSET)
        if fn is _UNSET:
            count = fheat.get(idx, 0) + 1
            if count < _COMPILE_THRESHOLD:
                fheat[idx] = count
                return None, "cold"
            fheat.pop(idx, None)
            fn = compile_block(m, _block_at(m, idx), m.record_trace,
                               m._observer is not None)
            fns[idx] = fn
            if fn is not None:
                self.stats["blocks"] += 1
        if fn is None:
            return None, "branch"
        if fn.max_retire > lane.max_steps - lane.done():
            return None, "timeout"
        if lane.stop_at is not None \
                and fn.max_retire > lane.stop_at - lane.done():
            return None, "checkpoint"
        if not lane.fired and lane.watch[0] in fn.indices:
            return None, "observer"
        return fn, None

    # -- lane completion ------------------------------------------------
    def _finished(self, lane: _Lane) -> bool:
        m = lane.machine
        if m.halted:
            lane.status = "halted"
            return True
        done = lane.done()
        if done >= lane.max_steps:
            lane.status = "timeout"
            return True
        if lane.stop_at is not None and done >= lane.stop_at:
            lane.status = "stopped"
            return True
        return False

    # -- execution ------------------------------------------------------
    def _run_compiled(self, lane: _Lane):
        m = lane.machine
        fn = lane.fn
        lane.fn = None
        n = 0
        calls = 0
        profile = self._profile
        pblocks = profile["block"] if profile is not None else None
        while True:
            r = fn(m)
            n += r
            calls += 1
            if pblocks is not None and r:
                entry = fn.entry_pc
                pblocks[entry] = pblocks.get(entry, 0) + r
            if n >= _CHAIN_QUANTUM or m.halted or m._exp is not None:
                break
            fn, _ = self._try_fn(lane)
            if fn is None:
                break
        self.stats["compiled_calls"] += calls
        self.stats["compiled_retired"] += n

    def _drain(self, lane: _Lane, quantum: int):
        """Bounded scalar stepping for a masked-out lane.

        Replicates the scalar drivers exactly: completion checks before
        the watchpoint check, and the watchpoint check immediately before
        the step (once per retirement).
        """
        m = lane.machine
        watch = lane.watch
        engine = m.engine
        fns, fheat = lane.fns if lane.fns is not None else (None, None)
        for _ in range(quantum):
            if self._finished(lane):
                return
            if m._exp is None and fns is not None and m._translated \
                    and (engine is None
                         or engine.generation == m._sites_gen):
                # Cheap re-admission probe: an already-compiled entry the
                # lane can afford.  Compilation of *new* entries happens
                # at round granularity (_try_fn), not per scalar step —
                # here we only tally arrivals at requested entries.
                fn = fns.get(m.idx, _UNSET)
                if fn is _UNSET:
                    count = fheat.get(m.idx)
                    if count is not None:
                        fheat[m.idx] = count + 1
                elif fn is not None \
                        and fn.max_retire <= lane.max_steps - lane.done() \
                        and (lane.stop_at is None
                             or fn.max_retire <= lane.stop_at - lane.done()) \
                        and (lane.fired or watch[0] not in fn.indices):
                    lane.fn = fn
                    return          # PC re-converged: re-admit
            if not lane.fired and m._exp is None and m.idx == watch[0]:
                lane.visits += 1
                if lane.visits == watch[1]:
                    watch[2](m, watch[3])
                    lane.fired = True
            try:
                m.step()
            except ExecutionError as exc:
                lane.status = "error"
                lane.error = exc
                return

    def run(self) -> "BatchMachine":
        """Drive every lane to halted/timeout/stopped/error."""
        tm = self._tm
        hist = _telemetry.histogram("sim.batch.lanes_active") if tm else None
        active = [lane for lane in self.lanes if lane.status is None]
        while active:
            self.stats["rounds"] += 1
            groups: Dict[tuple, List[_Lane]] = {}
            drains = []
            for lane in active:
                if self._finished(lane):
                    continue
                fn, cause = self._try_fn(lane)
                if fn is not None:
                    lane.fn = fn
                    key = (id(lane.machine.image), lane.machine.idx)
                    groups.setdefault(key, []).append(lane)
                else:
                    drains.append((lane, cause))
            for group in groups.values():
                if tm:
                    hist.observe(len(group))
                for lane in group:
                    if lane.mode == "scalar":
                        self.stats["readmitted"] += 1
                        if tm:
                            _telemetry.counter("sim.batch.readmitted").inc()
                    lane.mode = "batch"
                    self._run_compiled(lane)
            for lane, cause in drains:
                if lane.mode != "scalar":
                    lane.mode = "scalar"
                    d = self.stats["drains"]
                    d[cause] = d.get(cause, 0) + 1
                    if tm:
                        _telemetry.counter(f"sim.batch.drain.{cause}").inc()
                        _events.event("batch_drain", cause=cause,
                                      round=self.stats["rounds"])
                self._drain(lane, _DRAIN_QUANTUM)
            active = [lane for lane in active if lane.status is None]
            self._sync_columns()
        if self._profile is not None:
            _profile_mod.publish(self._profile)
        return self

    def _sync_columns(self):
        """Refresh the SoA scheduler columns from the lanes."""
        col_idx, col_ret, col_flags = (self.col_idx, self.col_retired,
                                       self.col_flags)
        for i, lane in enumerate(self.lanes):
            col_idx[i] = lane.machine.idx & MASK64
            col_ret[i] = lane.done()
            col_flags[i] = ((1 if lane.status is not None else 0)
                            | (2 if lane.mode == "batch" else 0))

    def occupancy(self) -> dict:
        """Cohort summary from the SoA columns."""
        return {"lanes": len(self.lanes),
                "done": sum(1 for f in self.col_flags if f & 1),
                "retired": sum(self.col_retired),
                "rounds": self.stats["rounds"]}

    def outcomes(self) -> List[LaneOutcome]:
        return [
            LaneOutcome(machine=lane.machine,
                        status=lane.status or "running",
                        steps=lane.done(), error=lane.error)
            for lane in self.lanes
        ]


def run_cohort(machines, max_steps: int = 5_000_000) -> List[LaneOutcome]:
    """Run a cohort of fresh machines to completion; one outcome each."""
    bm = BatchMachine()
    for machine in machines:
        bm.add_lane(machine, max_steps=max_steps)
    bm.run()
    return bm.outcomes()
