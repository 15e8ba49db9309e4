"""Cross-module property-based tests over randomly generated programs.

Hypothesis builds small but complete programs (loops, data, branches) and
checks the big invariants of DESIGN.md: decompression identity, MFI
transparency and soundness, the engine's peephole/no-recursion property,
and precise-state determinism.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.acf.compression import (
    DEDICATED_OPTIONS,
    DISE_OPTIONS,
    FIGURE7_VARIANTS,
    STRATEGIES,
    candidate_key,
    compress_image,
    make_template,
)
from repro.acf.mfi import MFI_FAULT_CODE, attach_mfi, rewrite_mfi
from repro.isa.build import (
    Imm,
    addq,
    and_,
    beq,
    bis,
    bne,
    br,
    bsr,
    halt,
    jsr,
    lda,
    ldq,
    out,
    ret,
    sll,
    srl,
    stq,
    subq,
    xor,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import NUM_REGS, ZERO_REG
from repro.program.builder import ProgramBuilder
from repro.sim.functional import Machine, run_program
from repro.sim.memory import MASK64
from repro.verify.observe import PROJECTIONS, Observer, observation

from conftest import A0, A1, T0, ZERO

# Registers available to generated blocks.  The loop counter (t0) and the
# data base pointer (a1) are reserved so generated code cannot clobber the
# program's own control structure.
_REGS = (0, 2, 3, 4, 5, 16, 18, 19)

# Idiom templates: (callable(reg1, reg2, offset) -> [instructions]).
_BLOCKS = (
    lambda r1, r2, off: [ldq(r1, off, A1), addq(r1, Imm(1), r1),
                         stq(r1, off, A1)],
    lambda r1, r2, off: [ldq(r1, off, A1), addq(r2, r1, r2)],
    lambda r1, r2, off: [srl(r1, Imm(3), r2), and_(r2, Imm(63), r2),
                         xor(r2, r1, r1)],
    lambda r1, r2, off: [addq(r2, Imm(1), r2), sll(r2, Imm(1), r2)],
    lambda r1, r2, off: [stq(r2, off, A1), stq(r1, off + 8, A1)],
)

block_strategy = st.tuples(
    st.integers(0, len(_BLOCKS) - 1),
    st.sampled_from(_REGS),
    st.sampled_from(_REGS),
    st.sampled_from((0, 8, 16, 24, 32)),
)

program_strategy = st.tuples(
    st.lists(block_strategy, min_size=2, max_size=10),
    st.integers(min_value=1, max_value=4),   # loop iterations
)


def build_program(blocks, iterations):
    b = ProgramBuilder()
    b.alloc_data("buf", 32, init=list(range(10)))
    b.label("main")
    b.load_address(A1, "buf")
    b.emit(bis(ZERO, Imm(iterations), T0))
    b.label("loop")
    for index, (which, r1, r2, off) in enumerate(blocks):
        b.emit_many(_BLOCKS[which](r1, r2, off))
    b.emit(subq(T0, Imm(1), T0))
    b.emit(bne(T0, "loop"))
    b.emit(ldq(A0, 0, A1))
    b.emit(out(A0))
    b.emit(halt())
    b.set_entry("main")
    return b.build()


def outcome(result):
    return (result.outputs, result.fault_code,
            tuple(result.final_regs[:32]))


class TestDecompressionIdentity:
    @settings(max_examples=30, deadline=None)
    @given(program_strategy)
    def test_dise_compression_preserves_execution(self, params):
        blocks, iterations = params
        image = build_program(blocks, iterations)
        plain = run_program(image)
        result = compress_image(image, DISE_OPTIONS)
        run = result.installation().run()
        assert run.outputs == plain.outputs
        assert run.final_memory == plain.final_memory
        assert run.final_regs[:32] == plain.final_regs[:32]

    @settings(max_examples=20, deadline=None)
    @given(program_strategy)
    def test_dedicated_compression_preserves_execution(self, params):
        blocks, iterations = params
        image = build_program(blocks, iterations)
        plain = run_program(image)
        result = compress_image(image, DEDICATED_OPTIONS)
        run = result.installation().run()
        assert run.outputs == plain.outputs
        assert run.final_memory == plain.final_memory

    @settings(max_examples=20, deadline=None)
    @given(program_strategy)
    def test_compression_never_grows_text(self, params):
        blocks, iterations = params
        image = build_program(blocks, iterations)
        result = compress_image(image, DISE_OPTIONS)
        assert result.compressed_text_bytes <= result.original_text_bytes


# Sequences for the candidate-key check: few registers (ZERO_REG among
# them) so operands repeat, immediates on both sides of the 5-bit parameter
# range, and every kind of control transfer the compressor must refuse or
# may only take last.
_KEY_REGS = (1, 2, 3, ZERO_REG)
#: Six immediates that fit a 5-bit parameter, then three that do not.
_KEY_IMMS = (-16, -1, 0, 1, 8, 15, -17, 16, 800)
_key_reg = st.sampled_from(_KEY_REGS)
_key_imm = st.sampled_from(_KEY_IMMS)
_key_disp = st.sampled_from((-4, 2, 600))

_key_body_instr = st.one_of(
    st.builds(ldq, _key_reg, _key_imm, _key_reg),
    st.builds(stq, _key_reg, _key_imm, _key_reg),
    st.builds(lda, _key_reg, _key_imm, _key_reg),
    st.builds(addq, _key_reg, _key_reg, _key_reg),
    st.builds(lambda a, imm, c: subq(a, Imm(imm), c),
              _key_reg, _key_imm, _key_reg),
    st.builds(lambda a, imm, c: and_(a, Imm(imm), c),
              _key_reg, _key_imm, _key_reg),
)
_key_control_instr = st.one_of(
    st.builds(bne, _key_reg, _key_disp),
    st.builds(beq, _key_reg, _key_disp),
    st.builds(br, _key_disp, st.sampled_from((ZERO_REG, 26))),
    st.builds(bsr, st.just(26), _key_disp),
    st.builds(jsr, st.just(26), _key_reg),
    st.builds(ret, st.just(26)),
    st.builds(halt),
)


@st.composite
def key_sequence_strategy(draw):
    """1-8 instructions: a straight-line body, now and then a control
    transfer inside it, and often one at the end."""
    seq = draw(st.lists(_key_body_instr, max_size=6))
    if draw(st.integers(0, 3)) == 0:
        seq.insert(draw(st.integers(0, len(seq))), draw(_key_control_instr))
    if draw(st.booleans()) or not seq:
        seq.append(draw(_key_control_instr))
    return seq


def _renamed(seq, regs, imms):
    """``seq`` with registers and immediates substituted, the way another
    site of the same idiom would differ."""
    reg_map = dict(zip(_KEY_REGS, regs))
    imm_map = dict(zip(_KEY_IMMS, imms))
    return [
        instr.with_fields(
            ra=reg_map.get(instr.ra, instr.ra),
            rb=reg_map.get(instr.rb, instr.rb),
            rc=reg_map.get(instr.rc, instr.rc),
            imm=imm_map.get(instr.imm, instr.imm),
        )
        for instr in seq
    ]


#: Every Figure 7 variant, plus unparameterized compression that is allowed
#: branches (it still cannot move them).
_KEY_OPTIONS = FIGURE7_VARIANTS + (
    ("dedicated+branches",
     DEDICATED_OPTIONS.with_changes(compress_branches=True)),
)


class TestCandidateKeyProperties:
    """The enumeration key groups windows exactly as make_template does."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_key_equality_matches_template_equality(self, data):
        a = data.draw(key_sequence_strategy(), label="a")
        how = data.draw(st.sampled_from(("independent", "any", "bijective")))
        if how == "independent":
            b = data.draw(key_sequence_strategy(), label="b")
        elif how == "any":
            regs = data.draw(st.lists(_key_reg, min_size=len(_KEY_REGS),
                                      max_size=len(_KEY_REGS)))
            imms = data.draw(st.lists(_key_imm, min_size=len(_KEY_IMMS),
                                      max_size=len(_KEY_IMMS)))
            b = _renamed(a, regs, imms)
        else:
            # Registers and small immediates permuted among themselves:
            # the renaming under which parameterized sites share an entry.
            regs = data.draw(st.permutations(_KEY_REGS[:-1]))
            imms = data.draw(st.permutations(_KEY_IMMS[:6]))
            b = _renamed(a, regs + [ZERO_REG], imms + list(_KEY_IMMS[6:]))
        for name, options in _KEY_OPTIONS:
            # (key, template) of every eligible (sequence, strategy): the
            # dictionary merges candidates across strategies too.
            made = []
            for seq in (a, b):
                for strategy in STRATEGIES:
                    template = make_template(seq, options, strategy)
                    key = candidate_key(seq, options, strategy)
                    assert (key is None) == (template is None), (name, seq)
                    if template is not None:
                        assert key[1] == template[1], (name, strategy, seq)
                        made.append((key[0], template[0]))
            for key_x, template_x in made:
                for key_y, template_y in made:
                    assert (key_x == key_y) == (template_x == template_y), (
                        name, a, b)


class TestMfiProperties:
    @settings(max_examples=25, deadline=None)
    @given(program_strategy)
    def test_transparency_on_clean_programs(self, params):
        """All three MFI implementations leave in-segment programs
        unperturbed and agree with the original."""
        blocks, iterations = params
        image = build_program(blocks, iterations)
        plain = run_program(image)
        for installation in (attach_mfi(image, "dise3"),
                             attach_mfi(image, "dise4"),
                             rewrite_mfi(image)):
            result = installation.run()
            assert result.outputs == plain.outputs, installation.name
            assert result.fault_code is None, installation.name

    @settings(max_examples=25, deadline=None)
    @given(program_strategy, st.integers(2, 60))
    def test_soundness_wild_store_always_caught(self, params, segment):
        """Injecting one out-of-segment store anywhere: MFI always faults
        before the store writes memory."""
        blocks, iterations = params
        b = ProgramBuilder()
        b.alloc_data("buf", 32, init=list(range(10)))
        b.label("main")
        b.load_address(A1, "buf")
        for which, r1, r2, off in blocks:
            b.emit_many(_BLOCKS[which](r1, r2, off))
        b.emit(bis(ZERO, Imm(segment), T0))
        b.emit(sll(T0, Imm(26), T0))
        b.emit(stq(A1, 0, T0))       # the wild store
        b.emit(halt())
        b.set_entry("main")
        image = b.build()
        result = attach_mfi(image, "dise3").run()
        assert result.fault_code == MFI_FAULT_CODE
        assert result.final_memory.read(segment << 26) == 0


class TestEngineProperties:
    @settings(max_examples=20, deadline=None)
    @given(program_strategy)
    def test_peephole_no_recursion(self, params):
        """Every dynamic instruction is either unexpanded or belongs to
        exactly one expansion whose length matches its spec — replacement
        instructions are never re-expanded."""
        blocks, iterations = params
        image = build_program(blocks, iterations)
        installation = attach_mfi(image, "dise3")
        result = installation.run()
        in_expansion = 0
        expected = 0
        for op in result.ops:
            if op.expansion is not None:
                expected += op.expansion[1]
            if op.disepc > 0 or op.expansion is not None:
                in_expansion += 1
        # Some sequences are cut short by taken branches (never here, since
        # the MFI check branch is never taken on clean programs).
        assert in_expansion == expected

    @settings(max_examples=10, deadline=None)
    @given(program_strategy, st.integers(1, 500))
    def test_checkpoint_restore_determinism(self, params, cut):
        blocks, iterations = params
        image = build_program(blocks, iterations)
        reference = attach_mfi(image, "dise3").run()

        machine = attach_mfi(image, "dise3").make_machine()
        for _ in range(min(cut, reference.instructions - 1)):
            machine.step()
        state = machine.checkpoint()
        fresh = attach_mfi(image, "dise3").make_machine()
        fresh.restore(state)
        result = fresh.run()
        assert outcome(result) == outcome(reference)


def _trace_tuple(result):
    """Everything a trace records, as comparable plain data."""
    ops = [
        (op.pc, op.disepc, op.opcode, op.srcs, op.dest, op.mem_addr,
         op.is_store, op.fetch_addr, op.ctrl, op.ctrl_taken, op.ctrl_target,
         op.is_trigger_ctrl, op.expansion)
        for op in result.ops
    ]
    return (ops, result.outputs, result.fault_code, result.halted,
            result.instructions, result.app_instructions, result.expansions,
            tuple(result.final_regs), result.final_memory.snapshot())


class TestFastDispatchEquivalence:
    """The opcode-indexed fast path must be bit-identical to the generic
    if-chain interpreter on every program, plain or transformed."""

    def _run_both(self, installation):
        fast = installation.make_machine()
        fast_trace = fast.run()
        generic = installation.make_machine()
        generic._execute = generic._execute_generic
        generic_trace = generic.run()
        assert _trace_tuple(fast_trace) == _trace_tuple(generic_trace)

    @settings(max_examples=25, deadline=None)
    @given(program_strategy)
    def test_plain_programs(self, params):
        blocks, iterations = params
        image = build_program(blocks, iterations)
        from repro.acf.base import plain_installation

        self._run_both(plain_installation(image))

    @settings(max_examples=15, deadline=None)
    @given(program_strategy)
    def test_under_mfi_expansion(self, params):
        blocks, iterations = params
        image = build_program(blocks, iterations)
        self._run_both(attach_mfi(image, "dise3"))

    @settings(max_examples=15, deadline=None)
    @given(program_strategy)
    def test_under_compression(self, params):
        blocks, iterations = params
        image = build_program(blocks, iterations)
        self._run_both(compress_image(image, DISE_OPTIONS).installation())


# A register field: absent, the zero register, a user register or a DISE
# dedicated register.
_field = st.one_of(st.none(), st.just(ZERO_REG), st.integers(0, 30),
                   st.integers(32, NUM_REGS - 1))


class TestObservationEncoding:
    """Each projection's encoder writes exactly the bytes of the reference
    ``repr(observation(...))``, and skips exactly when it returns None."""

    @settings(max_examples=300, deadline=None)
    @given(
        ra=_field, rb=_field, rc=_field,
        imm=st.one_of(st.none(), st.integers(-2**63, 2**64)),
        regs=st.lists(st.integers(0, MASK64), min_size=NUM_REGS,
                      max_size=NUM_REGS),
        outputs=st.lists(st.integers(0, MASK64), min_size=1, max_size=3),
        pc=st.integers(), disepc=st.integers(), is_trigger=st.booleans(),
    )
    def test_encoders_match_reference(self, ra, rb, rc, imm, regs, outputs,
                                      pc, disepc, is_trigger):
        machine = SimpleNamespace(regs=regs, outputs=outputs)
        for opcode in Opcode:
            if opcode.is_store and None in (ra, rb, imm):
                continue  # a store always names both registers and an offset
            instr = Instruction(opcode, ra=ra, rb=rb, rc=rc, imm=imm)
            for projection in PROJECTIONS:
                expected = observation(machine, instr, pc, disepc,
                                       is_trigger, projection)
                observer = Observer(projection)
                encoded = observer._encode(machine, instr, pc, disepc,
                                           is_trigger)
                if expected is None:
                    assert encoded is None, (instr, projection)
                else:
                    assert encoded == repr(expected).encode("ascii"), (
                        instr, projection)
                observer.observe(machine, instr, pc, disepc, is_trigger)
                assert observer.count == (expected is not None)
