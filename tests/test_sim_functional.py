"""Unit tests for the functional simulator, including DISEPC semantics."""

import gc
import weakref

import pytest

from repro.core.controller import DiseController
from repro.core.directives import Lit, T_RS
from repro.core.language import parse_productions
from repro.core.pattern import match_opcode, match_stores
from repro.core.production import ProductionSet
from repro.core.replacement import (
    TRIGGER_INSN,
    ReplacementInstr,
    ReplacementSpec,
)
from repro.isa.build import (
    Imm,
    addq,
    beq,
    bis,
    bne,
    br,
    bsr,
    cmoveq,
    cmovne,
    cmpeq,
    cmple,
    cmplt,
    cmpult,
    codeword,
    fault,
    halt,
    jsr,
    lda,
    ldah,
    ldl,
    ldq,
    mulq,
    nop,
    out,
    ret,
    sll,
    sra,
    srl,
    stl,
    stq,
    subq,
    xor,
)
from repro.isa.opcodes import Opcode
from repro.isa.registers import dise_reg, parse_reg
from repro.program.builder import ProgramBuilder
from repro.sim.functional import ExecutionError, Machine, run_program
from repro.telemetry import enabled_scope
from repro.telemetry.profile import profile_scope
from repro.verify.observe import Observer

from conftest import A0, A1, RA, T0, T1, V0, ZERO, build_loop_program

MASK = (1 << 64) - 1


def run_snippet(instrs, data=None, dise=None, init=None):
    b = ProgramBuilder()
    if data:
        for name, words in data.items():
            b.alloc_data(name, len(words), init=words)
    b.label("main")
    for item in instrs:
        if isinstance(item, tuple) and item[0] == "la":
            b.load_address(item[1], item[2])
        else:
            b.emit(item)
    b.emit(halt())
    image = b.build()
    controller = None
    if dise is not None:
        controller = DiseController()
        controller.install(dise)
    machine = Machine(image, controller=controller)
    if init:
        init(machine)
    return machine.run(max_steps=100_000)


class TestArithmetic:
    def test_add_sub_mul(self):
        r = run_snippet([
            bis(ZERO, Imm(7), T0),
            addq(T0, Imm(5), T1),
            subq(T1, Imm(2), A0),
            mulq(A0, Imm(3), A1),
            out(A1),
        ])
        assert r.outputs == [30]

    def test_64bit_wraparound(self):
        r = run_snippet([
            bis(ZERO, Imm(1), T0),
            sll(T0, Imm(63), T0),
            addq(T0, T0, T0),   # 2^64 -> 0
            out(T0),
        ])
        assert r.outputs == [0]

    def test_logic_ops(self):
        r = run_snippet([
            bis(ZERO, Imm(0b1100), T0),
            xor(T0, Imm(0b1010), T1),
            out(T1),
        ])
        assert r.outputs == [0b0110]

    def test_shifts(self):
        r = run_snippet([
            bis(ZERO, Imm(1), T0),
            sll(T0, Imm(10), T0),
            srl(T0, Imm(4), T1),
            out(T1),
        ])
        assert r.outputs == [64]

    def test_sra_sign_extends(self):
        r = run_snippet([
            bis(ZERO, Imm(1), T0),
            sll(T0, Imm(63), T0),   # sign bit
            sra(T0, Imm(60), T0),
            out(T0),
        ])
        assert r.outputs == [((-8) & MASK)]

    def test_signed_compares(self):
        r = run_snippet([
            bis(ZERO, Imm(0), T0),
            subq(T0, Imm(1), T0),   # -1
            cmplt(T0, ZERO, T1),    # -1 < 0 -> 1
            out(T1),
            cmpult(T0, ZERO, T1),   # unsigned: 2^64-1 < 0 -> 0
            out(T1),
            cmple(T0, T0, T1),
            out(T1),
            cmpeq(T0, T0, T1),
            out(T1),
        ])
        assert r.outputs == [1, 0, 1, 1]

    def test_conditional_moves(self):
        r = run_snippet([
            bis(ZERO, Imm(0), T0),
            bis(ZERO, Imm(9), A0),
            bis(ZERO, Imm(1), A1),
            cmoveq(T0, A0, A1),   # T0 == 0: A1 <- 9
            out(A1),
            cmovne(T0, Imm(5), A1),   # T0 == 0: unchanged
            out(A1),
        ])
        assert r.outputs == [9, 9]

    def test_zero_register_immutable(self):
        r = run_snippet([
            addq(ZERO, Imm(5), ZERO),
            out(ZERO),
        ])
        assert r.outputs == [0]

    def test_lda_ldah(self):
        r = run_snippet([
            ldah(T0, 2, ZERO),
            lda(T0, 0x34, T0),
            out(T0),
        ])
        assert r.outputs == [0x20034]


class TestMemory:
    def test_store_load_round_trip(self):
        r = run_snippet([
            ("la", A1, "buf"),
            bis(ZERO, Imm(123), T0),
            stq(T0, 8, A1),
            ldq(A0, 8, A1),
            out(A0),
        ], data={"buf": [0, 0]})
        assert r.outputs == [123]

    def test_initialised_data(self):
        r = run_snippet([
            ("la", A1, "buf"),
            ldq(A0, 0, A1),
            out(A0),
        ], data={"buf": [42]})
        assert r.outputs == [42]

    def test_ldl_sign_extends(self):
        r = run_snippet([
            ("la", A1, "buf"),
            bis(ZERO, Imm(1), T0),
            sll(T0, Imm(31), T0),   # 0x8000_0000
            stl(T0, 0, A1),
            ldl(A0, 0, A1),
            out(A0),
        ], data={"buf": [0]})
        assert r.outputs == [0xFFFFFFFF80000000]


class TestControlFlow:
    def test_loop(self, loop_image):
        result = run_program(loop_image)
        assert result.outputs == [5 + 4 + 3 + 2 + 1]
        assert result.halted and not result.faulted

    def test_call_return(self, call_image):
        result = run_program(call_image)
        assert result.final_regs[V0] == 5, "leaf called once per iteration"

    def test_taken_and_untaken_cond_branches(self):
        r = run_snippet([
            bis(ZERO, Imm(1), T0),
            bne(T0, "skip1") if False else bne(T0, 1),   # skip next
            out(T0),                                       # skipped
            beq(T0, 1),                                    # not taken
            out(T0),                                       # executes
        ])
        assert r.outputs == [1]

    def test_indirect_call_through_register(self):
        b = ProgramBuilder()
        b.label("main")
        b.load_address(parse_reg("pv"), "callee")
        b.emit(jsr(RA, parse_reg("pv")))
        b.emit(out(V0))
        b.emit(halt())
        b.label("callee")
        b.emit(bis(ZERO, Imm(77), V0))
        b.emit(ret(RA))
        result = run_program(b.build())
        assert result.outputs == [77]

    def test_jump_to_nontext_faults(self):
        from repro.sim.functional import FAULT_BAD_JUMP

        r = run_snippet([
            bis(ZERO, Imm(16), T0),
            ret(T0),   # address 16 is not in the text segment
        ])
        assert r.fault_code == FAULT_BAD_JUMP

    def test_fault_instruction(self):
        r = run_snippet([fault(3)])
        assert r.fault_code == 3 and r.halted

    def test_runaway_detection(self):
        b = ProgramBuilder()
        b.label("main")
        b.emit(br("main"))
        with pytest.raises(ExecutionError):
            run_program(b.build(), max_steps=1000)

    def test_falling_off_image(self):
        b = ProgramBuilder()
        b.label("main")
        b.emit(nop())
        with pytest.raises(ExecutionError):
            run_program(b.build(), max_steps=10)


class TestTraceRecording:
    def test_ops_recorded(self, loop_image):
        result = run_program(loop_image)
        assert len(result.ops) == result.instructions
        assert result.ops[0].fetch_addr == loop_image.entry_address

    def test_trace_disabled(self, loop_image):
        machine = Machine(loop_image, record_trace=False)
        result = machine.run()
        assert result.ops == [] and result.instructions > 0

    def test_branch_ops_have_targets(self, loop_image):
        result = run_program(loop_image)
        taken = [o for o in result.ops if o.ctrl == "cond" and o.ctrl_taken]
        assert taken and all(o.ctrl_target is not None for o in taken)

    def test_memory_ops_have_addresses(self, loop_image):
        result = run_program(loop_image)
        loads = [o for o in result.ops
                 if o.mem_addr is not None and not o.is_store]
        stores = [o for o in result.ops if o.is_store]
        assert loads and stores


class TestLifetime:
    @pytest.mark.parametrize("dispatch", ["translated", "generic"])
    def test_dropped_machine_freed_without_the_cycle_collector(
            self, loop_image, dispatch):
        # Served sessions park and close machines all the time; one that
        # formed a reference cycle would hold its memory until the cyclic
        # collector happened to run.  Every dispatch wrapper is installed.
        gc.disable()
        try:
            with enabled_scope(True), profile_scope(True):
                machine = Machine(loop_image, observer=Observer("full"),
                                  dispatch=dispatch)
                machine.run()
                dropped = weakref.ref(machine)
                del machine
            assert dropped() is None
        finally:
            gc.enable()


def stray_codeword_image():
    b = ProgramBuilder()
    b.label("main")
    b.emit(codeword(Opcode.RES0, 1, 2, 3, 0))
    b.emit(halt())
    return b.build()


class TestErrors:
    def test_stray_codeword(self):
        with pytest.raises(ExecutionError):
            run_program(stray_codeword_image())

    def test_dise_branch_outside_expansion(self):
        from repro.isa.build import dbne

        b = ProgramBuilder()
        b.label("main")
        b.emit(dbne(T0, 0))
        b.emit(halt())
        with pytest.raises(ExecutionError):
            run_program(b.build())
