"""Unit tests for the Instruction value type: trigger roles and dataflow."""

import itertools

import pytest

from repro.isa.build import (
    Imm,
    addq,
    beq,
    bis,
    bne,
    br,
    bsr,
    cmoveq,
    codeword,
    fault,
    halt,
    jmp,
    jsr,
    lda,
    ldq,
    mulq,
    nop,
    out,
    ret,
    stq,
)
from repro.core.compose import _rinstr_role, _rinstr_written_dedicated
from repro.core.directives import Lit
from repro.core.replacement import ReplacementInstr
from repro.isa.instruction import Instruction, NOP
from repro.isa.opcodes import Format, OpClass, Opcode
from repro.isa.registers import ZERO_REG, is_dise_reg


class TestTriggerRoles:
    """T.RS / T.RT / T.RD / T.IMM per Section 2.1."""

    def test_load_roles(self):
        instr = ldq(5, 16, 7)      # ldq r5, 16(r7)
        assert instr.rs == 7, "T.RS of a memory op is the address register"
        assert instr.rd == 5
        assert instr.rt is None
        assert instr.imm == 16

    def test_store_roles(self):
        instr = stq(5, 16, 7)
        assert instr.rs == 7
        assert instr.rt == 5, "T.RT of a store is the data register"
        assert instr.rd is None

    def test_operate_roles(self):
        instr = addq(1, 2, 3)
        assert (instr.rs, instr.rt, instr.rd) == (1, 2, 3)

    def test_operate_immediate_roles(self):
        instr = addq(1, Imm(7), 3)
        assert instr.rs == 1 and instr.rt is None and instr.rd == 3
        assert instr.imm == 7

    def test_branch_roles(self):
        instr = bne(9, 4)
        assert instr.rs == 9
        assert instr.rd is None

    def test_jump_roles(self):
        instr = jsr(26, 27)
        assert instr.rs == 27, "T.RS of an indirect jump is the target reg"
        assert instr.rd == 26

    def test_codeword_params(self):
        cw = codeword(Opcode.RES0, 1, 2, 3, 77)
        assert (cw.ra, cw.rb, cw.rc) == (1, 2, 3)
        assert cw.tag == 77
        assert cw.is_codeword

    def test_codeword_tag_range(self):
        with pytest.raises(ValueError):
            codeword(Opcode.RES0, 1, 2, 3, 2048)
        with pytest.raises(ValueError):
            codeword(Opcode.ADDQ, 1, 2, 3, 0)

    def test_tag_only_on_codewords(self):
        assert addq(1, 2, 3).tag is None


class TestDataflow:
    def test_load_dataflow(self):
        instr = ldq(5, 0, 7)
        assert instr.source_regs() == (7,)
        assert instr.dest_reg() == 5

    def test_store_dataflow(self):
        instr = stq(5, 0, 7)
        assert set(instr.source_regs()) == {5, 7}
        assert instr.dest_reg() is None

    def test_lda_writes(self):
        assert lda(5, 8, 7).dest_reg() == 5

    def test_operate_dataflow(self):
        assert addq(1, 2, 3).source_regs() == (1, 2)
        assert addq(1, 2, 3).dest_reg() == 3

    def test_cmov_reads_old_dest(self):
        instr = cmoveq(1, 2, 3)
        assert 3 in instr.source_regs(), "conditional move reads its dest"

    def test_zero_register_excluded(self):
        instr = addq(ZERO_REG, ZERO_REG, ZERO_REG)
        assert instr.source_regs() == ()
        assert instr.dest_reg() is None

    def test_branch_dataflow(self):
        assert bne(9, 4).source_regs() == (9,)
        assert bne(9, 4).dest_reg() is None

    def test_call_writes_link(self):
        assert bsr(26, 4).dest_reg() == 26
        assert jsr(26, 27).dest_reg() == 26
        assert jsr(26, 27).source_regs() == (27,)

    def test_ret_dataflow(self):
        instr = ret(26)
        assert instr.source_regs() == (26,)

    def test_nullary_dataflow(self):
        assert nop().source_regs() == ()
        assert halt().dest_reg() is None


class TestRendering:
    @pytest.mark.parametrize("instr,text", [
        (ldq(16, 8, 30), "ldq a0, 8(sp)"),
        (addq(1, Imm(5), 2), "addq t0, #5, t1"),
        (addq(1, 2, 3), "addq t0, t1, t2"),
        (bne(1, "loop"), "bne t0, loop"),
        (jsr(26, 27), "jsr ra, (pv)"),
        (halt(), "halt"),
        (out(16), "out a0"),
        (fault(7), "fault 7"),
    ])
    def test_str(self, instr, text):
        assert str(instr) == text

    def test_immutability(self):
        instr = addq(1, 2, 3)
        with pytest.raises(Exception):
            instr.ra = 9

    def test_with_fields(self):
        instr = addq(1, 2, 3).with_fields(rc=5)
        assert instr.rc == 5 and instr.ra == 1

    def test_hashable(self):
        assert len({addq(1, 2, 3), addq(1, 2, 3), addq(1, 2, 4)}) == 2

    def test_nop_constant(self):
        assert NOP.opcode is Opcode.NOP


# ----------------------------------------------------------------------
# The opcode table against the per-format if-chains it replaced
# ----------------------------------------------------------------------
# The accessors as Instruction wrote them before the operand facts moved
# into the opcode table, kept verbatim as the reference.
def _reference_rs(self):
    fmt = self.format
    if fmt is Format.MEM:
        return self.rb
    if fmt is Format.OPERATE:
        return self.ra
    if fmt is Format.BRANCH:
        return self.ra
    if fmt is Format.JUMP:
        return self.rb
    if fmt is Format.CODEWORD:
        return self.ra
    return None


def _reference_rt(self):
    fmt = self.format
    if fmt is Format.MEM and self.is_store:
        return self.ra
    if fmt is Format.OPERATE:
        return self.rb
    if fmt is Format.CODEWORD:
        return self.rb
    return None


def _reference_rd(self):
    fmt = self.format
    if fmt is Format.MEM and self.is_load:
        return self.ra
    if fmt is Format.OPERATE:
        return self.rc
    if fmt is Format.JUMP:
        return self.ra
    if fmt is Format.BRANCH and self.opclass is OpClass.UNCOND_BRANCH:
        return self.ra
    if fmt is Format.CODEWORD:
        return self.rc
    return None


def _reference_source_regs(self):
    op, fmt = self.opcode, self.format
    srcs = []
    if fmt is Format.MEM:
        srcs.append(self.rb)
        if self.is_store:
            srcs.append(self.ra)
    elif fmt is Format.OPERATE:
        srcs.append(self.ra)
        if self.rb is not None:
            srcs.append(self.rb)
        if op in (Opcode.CMOVEQ, Opcode.CMOVNE):
            srcs.append(self.rc)  # conditional move reads the old dest
    elif fmt is Format.BRANCH:
        if op.is_cond_branch or op.is_dise_branch or \
                op in (Opcode.OUT, Opcode.CTRL):
            srcs.append(self.ra)
    elif fmt is Format.JUMP:
        srcs.append(self.rb)
    elif fmt is Format.CODEWORD:
        # A raw codeword's register parameters are conservatively treated
        # as sources; after DISE expansion the replacement sequence's own
        # dataflow governs.
        srcs.extend(r for r in (self.ra, self.rb, self.rc) if r is not None)
    return tuple(r for r in srcs if r is not None and r != ZERO_REG)


def _reference_dest_reg(self):
    op, fmt = self.opcode, self.format
    dest = None
    if fmt is Format.MEM and (self.is_load or op in (Opcode.LDA, Opcode.LDAH)):
        dest = self.ra
    elif fmt is Format.OPERATE:
        dest = self.rc
    elif fmt is Format.JUMP:
        dest = self.ra
    elif fmt is Format.BRANCH and self.opclass is OpClass.UNCOND_BRANCH:
        dest = self.ra
    if dest == ZERO_REG:
        return None
    return dest


_FIELD_VALUES = (None, 0, ZERO_REG, 35)   # 35 is dedicated register $dr3


def _lit(value):
    return None if value is None else Lit(value)


class TestOpcodeTable:
    @pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.name)
    def test_accessors_match_the_reference_chains(self, opcode):
        for ra, rb, rc, imm in itertools.product(
                _FIELD_VALUES, _FIELD_VALUES, _FIELD_VALUES, (None, 5)):
            instr = Instruction(opcode, ra=ra, rb=rb, rc=rc, imm=imm)
            assert (instr.rs, instr.rt, instr.rd) == (
                _reference_rs(instr), _reference_rt(instr),
                _reference_rd(instr)), instr
            assert instr.source_regs() == _reference_source_regs(instr), \
                instr
            assert instr.dest_reg() == _reference_dest_reg(instr), instr

    @pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.name)
    def test_composer_roles_match_instruction(self, opcode):
        for ra, rb, rc in itertools.product(_FIELD_VALUES, repeat=3):
            instr = Instruction(opcode, ra=ra, rb=rb, rc=rc)
            rinstr = ReplacementInstr(opcode=opcode, ra=_lit(ra),
                                      rb=_lit(rb), rc=_lit(rc))
            for role in ("rs", "rt", "rd"):
                assert _rinstr_role(rinstr, role) == \
                    _lit(getattr(instr, role)), (instr, role)
            dest = instr.dest_reg()
            assert _rinstr_written_dedicated(rinstr) == (
                {dest} if dest is not None and is_dise_reg(dest)
                else set()), instr

    def test_equal_instructions_share_their_operand_facts(self):
        first, second = addq(1, 2, 3), addq(1, 2, 3)
        assert first.source_regs() is second.source_regs()
        assert first == second and hash(first) == hash(second)
        assert repr(first) == (
            "Instruction(opcode=<Opcode.ADDQ: (16, <Format.OPERATE: "
            "'operate'>, <OpClass.INT_ARITH: 'int_arith'>, 1)>, ra=1, rb=2, "
            "rc=3, imm=None, target=None)")
