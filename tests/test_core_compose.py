"""Unit tests for software ACF composition (Section 3.3 / Figure 5)."""

import pytest

from repro.core.compose import (
    ComposeError,
    _pattern_matches_rinstr,
    _resolve_conflicts,
    apply_to_spec,
    concatenate_specs,
    merge_nonnested,
    nest,
    rename_dedicated,
    spec_dedicated_usage,
)
from repro.core.directives import AbsTarget, Lit, T_IMM, T_RS
from repro.core.language import parse_productions
from repro.core.pattern import PatternSpec, match_loads, match_stores
from repro.core.production import ProductionSet
from repro.core.replacement import (
    TRIGGER_INSN,
    ReplacementInstr,
    ReplacementSpec,
    identity_replacement,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import dise_reg, is_dise_reg

MFI = """
P1: T.OPCLASS == store -> R1
P2: T.OPCLASS == load  -> R1
R1:
    srl   T.RS, #26, $dr1
    xor   $dr1, $dr2, $dr1
    bne   $dr1, @0x400100
    T.INSN
"""

SAT = """
P3: T.OPCLASS == store -> R1
R1:
    lda   $dr4, T.IMM(T.RS)
    stq   $dr4, 0($dr5)
    lda   $dr5, 8($dr5)
    T.INSN
"""


def mfi_set():
    return parse_productions(MFI, name="mfi", scope="kernel")


def sat_set():
    return parse_productions(SAT, name="sat")


class TestNestedComposition:
    def test_figure5_structure(self):
        """Nesting SAT within MFI reproduces Figure 5 (bottom left)."""
        composed = nest(inner=sat_set(), outer=mfi_set())
        # Store pattern -> the inlined sequence; load pattern -> plain MFI.
        by_class = {
            p.pattern.opclass: composed.replacement(p.seq_id)
            for p in composed.productions
        }
        inlined = by_class[OpClass.STORE]
        plain = by_class[OpClass.LOAD]
        assert len(plain) == 4
        # lda + (3-check on the tracing store) + stq + lda
        # + (3-check on the trigger) + T.INSN = 10
        assert len(inlined) == 10
        # The tracing store's check extracts the segment from $dr5 — the
        # literal base register of that store (Figure 5's boxed sequence).
        srl = inlined.instrs[1]
        assert srl.opcode is Opcode.SRL
        assert srl.ra == Lit(dise_reg(5))
        # The trigger's check still references T.RS.
        srl2 = inlined.instrs[6]
        assert srl2.ra == T_RS
        assert inlined.instrs[9].is_trigger_copy

    def test_nested_stores_checked_loads_preserved(self):
        composed = nest(inner=sat_set(), outer=mfi_set())
        patterns = [p.pattern.opclass for p in composed.productions]
        assert OpClass.LOAD in patterns and OpClass.STORE in patterns
        assert len(composed.productions) == 2

    def test_trigger_dependent_outer_pattern_rejected(self):
        outer = ProductionSet("picky")
        outer.define(
            PatternSpec(opclass=OpClass.STORE, regs={"rs": 30}),
            identity_replacement(),
        )
        # SAT's tracing store has base $dr5 (literal != sp): decidable False,
        # but its trigger slot (any store) is only maybe-matched.
        with pytest.raises(ComposeError):
            nest(inner=sat_set(), outer=outer)

    def test_composed_on_fill_propagates(self):
        composed = nest(inner=sat_set(), outer=mfi_set(),
                        composed_on_fill=True)
        for spec in composed.replacements.values():
            if len(spec) > 4:
                assert spec.composed_on_fill

    def test_nest_with_tagged_inner(self):
        inner = ProductionSet("decomp")
        inner.add_replacement(0, ReplacementSpec(instrs=(
            ReplacementInstr(opcode=Opcode.STQ, ra=TrigFieldP1(),
                             rb=TrigFieldP1(), imm=Lit(0)),
        )))
        inner.add_production(
            PatternSpec(opcode=Opcode.RES0), tagged=True
        )
        composed = nest(inner=inner, outer=mfi_set())
        spec = composed.replacement(0)
        # MFI inlined around the dictionary store: 3 checks + the store.
        assert len(spec) == 4
        assert spec.instrs[0].opcode is Opcode.SRL


    def test_outer_link_register_pattern_inlined_at_bsr_slot(self):
        # Dynamic matching sees T.RD == ra on a `bsr ra` the inner set
        # inserts, so static nesting must inline the outer production there.
        inner = parse_productions("""
P1: T.OPCLASS == store -> R1
R1:
    bsr   ra, 0
    T.INSN
""", name="inner")
        outer = parse_productions("""
P1: T.OP == bsr && T.RD == ra -> R1
R1:
    nop
    T.INSN
""", name="outer")
        composed = nest(inner=inner, outer=outer)
        spec = composed.replacement(
            next(p.seq_id for p in composed.productions
                 if p.pattern.opclass is OpClass.STORE)
        )
        assert [r.render() for r in spec.instrs] == \
            ["nop", "bsr ra, 0", "T.INSN"]

    @pytest.mark.parametrize("role", ["rs", "rt", "rd"])
    def test_codeword_slot_roles_match_like_the_codeword(self, role):
        slot = ReplacementInstr(opcode=Opcode.RES0, ra=Lit(1), rb=Lit(2),
                                rc=Lit(3), imm=Lit(9))
        codeword = Instruction(Opcode.RES0, ra=1, rb=2, rc=3, imm=9)
        for required in (1, 2, 3):
            pattern = PatternSpec(opcode=Opcode.RES0, regs={role: required})
            assert (_pattern_matches_rinstr(pattern, slot) is True) == \
                pattern.matches(codeword), required


def TrigFieldP1():
    from repro.core.directives import TrigField

    return TrigField("p1")


class TestDiseBranchRetargeting:
    def test_inner_branch_offsets_remapped(self):
        inner = parse_productions("""
P1: T.OPCLASS == store -> R1
R1:
    dbne  $dr6, .skip
    stq   $dr4, 0($dr5)
.skip:
    T.INSN
""", name="inner")
        composed = nest(inner=inner, outer=mfi_set())
        spec = composed.replacement(
            next(p.seq_id for p in composed.productions
                 if p.pattern.opclass is OpClass.STORE)
        )
        dbne = spec.instrs[0]
        assert dbne.opcode is Opcode.DBNE
        # .skip originally pointed at offset 2 (the trigger); after MFI's
        # 3-instruction check is inlined before the tracing store, the
        # trigger check block starts at offset 1+4 = 5.
        assert dbne.imm == Lit(5)


class TestRegisterRenaming:
    def test_conflicting_scratch_renamed(self):
        # Inner uses $dr1 as persistent state; outer writes $dr1 as scratch.
        inner = parse_productions("""
P1: T.OPCLASS == store -> R1
R1:
    addq  $dr1, #1, $dr1
    T.INSN
""", name="counting")
        composed = nest(inner=inner, outer=mfi_set())
        spec = composed.replacement(
            next(p.seq_id for p in composed.productions
                 if p.pattern.opclass is OpClass.STORE)
        )
        used, written = spec_dedicated_usage(spec)
        # The outer's scratch writes were renamed away from $dr1; the
        # inner's $dr1 arithmetic is untouched.
        assert spec.instrs[0].ra == Lit(dise_reg(1))
        srl = spec.instrs[1]
        assert srl.rc != Lit(dise_reg(1))

    def test_linking_branch_renamed_away_from_inner_registers(self):
        outer = ReplacementSpec(instrs=(
            ReplacementInstr(opcode=Opcode.BSR, ra=Lit(dise_reg(3)),
                             imm=Lit(0)),
            TRIGGER_INSN,
        ))
        assert spec_dedicated_usage(outer)[1] == {dise_reg(3)}
        link = _resolve_conflicts(outer, {dise_reg(3)}).instrs[0].ra
        assert link != Lit(dise_reg(3)) and is_dise_reg(link.value)

    def test_rename_dedicated_helper(self):
        spec = parse_productions(MFI, name="m").replacement(1)
        renamed = rename_dedicated(spec, {dise_reg(1): dise_reg(6)})
        used, _ = spec_dedicated_usage(renamed)
        assert dise_reg(1) not in used
        assert dise_reg(6) in used


class TestNonNestedMerge:
    def test_figure5_right(self):
        merged = merge_nonnested(sat_set(), mfi_set())
        store_spec = merged.replacement(
            next(p.seq_id for p in merged.productions
                 if p.pattern.opclass is OpClass.STORE)
        )
        # SAT's 3 instructions + MFI's 3 + single trigger = 7.
        assert len(store_spec) == 7
        assert store_spec.trigger_copy_offsets == (6,)
        # Load-only MFI production carried over.
        assert any(p.pattern.opclass is OpClass.LOAD
                   for p in merged.productions)

    def test_merge_requires_trailing_trigger(self):
        odd = ProductionSet("odd")
        odd.define(match_stores(), ReplacementSpec(instrs=(
            TRIGGER_INSN,
            ReplacementInstr(opcode=Opcode.BIS, ra=Lit(31), rb=Lit(31),
                             rc=Lit(dise_reg(0))),
        )))
        with pytest.raises(ComposeError):
            merge_nonnested(odd, mfi_set())

    def test_merge_tagged_unsupported(self):
        tagged = ProductionSet("aware")
        tagged.add_replacement(0, identity_replacement())
        tagged.add_production(PatternSpec(opcode=Opcode.RES0), tagged=True)
        with pytest.raises(ComposeError):
            merge_nonnested(tagged, mfi_set())

    def test_concatenate_specs_order(self):
        merged = concatenate_specs(
            sat_set().replacement(1), mfi_set().replacement(1)
        )
        assert merged.instrs[0].opcode is Opcode.LDA
        assert merged.instrs[3].opcode is Opcode.SRL


class TestApplyToSpec:
    def test_identity_when_nothing_matches(self):
        spec = parse_productions("""
P1: T.OPCLASS == cond_branch -> R1
R1:
    addq  $dr1, #1, $dr1
    T.INSN
""", name="x").replacement(1)
        applied = apply_to_spec(mfi_set(), spec, inner_pattern=None)
        # The addq is untouched; the trigger copy stays (no inner pattern).
        assert len(applied) == 2
