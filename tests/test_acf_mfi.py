"""Tests for memory fault isolation (all three implementations)."""

import hashlib
import json

import pytest

from repro.acf.compression import DISE_OPTIONS, compress_image
from repro.acf.mfi import (
    DR_CODE_SEG,
    DR_DATA_SEG,
    ERROR_LABEL,
    MFI_FAULT_CODE,
    MfiError,
    SCAVENGED_REGS,
    attach_mfi,
    ensure_error_stub,
    mfi_production_set,
    mfi_production_source,
    rewrite_mfi,
    segment_ids,
)
from repro.isa.build import Imm, bis, halt, ldq, out, sll, stq, jsr, ret
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import parse_reg
from repro.program.builder import ProgramBuilder
from repro.sim.functional import run_program
from repro.workloads.generator import generate_by_name

from conftest import A0, A1, RA, T0, ZERO, build_loop_program


def wild_store_image(kind="store"):
    """A program that makes one out-of-segment access."""
    b = ProgramBuilder()
    b.alloc_data("buf", 2, init=[1, 2])
    b.label("main")
    b.load_address(A1, "buf")
    b.emit(ldq(A0, 0, A1))            # legal load
    b.emit(bis(ZERO, Imm(3), T0))
    b.emit(sll(T0, Imm(26), T0))      # segment 3
    if kind == "store":
        b.emit(stq(A0, 0, T0))
    elif kind == "load":
        b.emit(ldq(A0, 0, T0))
    else:
        b.emit(ret(T0))               # wild indirect jump
    b.emit(out(A0))
    b.emit(halt())
    return b.build()


class TestDiseMfi:
    @pytest.mark.parametrize("variant", ["dise3", "dise4"])
    @pytest.mark.parametrize("kind", ["store", "load", "jump"])
    def test_wild_access_caught(self, variant, kind):
        installation = attach_mfi(wild_store_image(kind), variant)
        result = installation.run()
        assert result.fault_code == MFI_FAULT_CODE

    @pytest.mark.parametrize("variant", ["dise3", "dise4"])
    def test_clean_program_unperturbed(self, variant):
        image = build_loop_program()
        plain = run_program(image)
        result = attach_mfi(image, variant).run()
        assert result.outputs == plain.outputs
        assert result.fault_code is None

    def test_wild_store_blocked_before_memory_write(self):
        installation = attach_mfi(wild_store_image("store"), "dise3")
        result = installation.run()
        assert result.final_memory.read(3 << 26) == 0

    def test_dise3_shorter_than_dise4(self):
        image = build_loop_program()
        r3 = attach_mfi(image, "dise3").run()
        r4 = attach_mfi(image, "dise4").run()
        assert r3.instructions < r4.instructions
        assert r3.expansions == r4.expansions

    def test_expansion_rate_matches_memory_ops(self):
        image = build_loop_program()
        result = attach_mfi(image, "dise3").run()
        memops = sum(
            1 for o in result.ops
            if o.fetch_addr is not None and o.expansion is not None
        )
        assert result.expansions == memops

    def test_error_stub_appended_once(self):
        image = build_loop_program()
        once = ensure_error_stub(image)
        twice = ensure_error_stub(once)
        assert once is twice
        assert ERROR_LABEL in once.symbols

    def test_production_set_requires_stub(self):
        with pytest.raises(MfiError):
            mfi_production_set(build_loop_program())

    def test_segment_ids(self):
        image = build_loop_program()
        data_seg, code_seg = segment_ids(image)
        assert data_seg == image.data_base >> 26
        assert code_seg == image.text_base >> 26

    def test_unknown_variant(self):
        with pytest.raises(MfiError):
            mfi_production_source("dise9")

    def test_init_seeds_dedicated_registers(self):
        installation = attach_mfi(build_loop_program(), "dise3")
        machine = installation.make_machine()
        data_seg, code_seg = segment_ids(installation.image)
        assert machine.regs[DR_DATA_SEG] == data_seg
        assert machine.regs[DR_CODE_SEG] == code_seg


class TestRewritingMfi:
    def test_wild_access_caught(self):
        result = rewrite_mfi(wild_store_image("store")).run()
        assert result.fault_code == MFI_FAULT_CODE

    def test_wild_jump_caught(self):
        result = rewrite_mfi(wild_store_image("jump")).run()
        assert result.fault_code == MFI_FAULT_CODE

    def test_clean_program_equivalent(self):
        image = build_loop_program()
        plain = run_program(image)
        result = rewrite_mfi(image).run()
        assert result.outputs == plain.outputs
        assert result.fault_code is None

    def test_static_growth(self):
        image = build_loop_program()
        rewritten = rewrite_mfi(image).image
        unsafe = image.count_matching(
            lambda i: i.opclass in (OpClass.LOAD, OpClass.STORE,
                                    OpClass.INDIRECT_JUMP)
        )
        # 4 inserted per unsafe op + 2-instr prologue + >= 1 stub.
        assert rewritten.instruction_count >= (
            image.instruction_count + 4 * unsafe + 3
        )

    def test_scavenged_register_conflict_detected(self):
        b = ProgramBuilder()
        b.label("main")
        b.emit(bis(ZERO, Imm(1), SCAVENGED_REGS[0]))
        b.emit(halt())
        with pytest.raises(MfiError):
            rewrite_mfi(b.build())

    @pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.name)
    def test_scavenged_check_follows_dataflow(self, opcode):
        # The rewriter rejects a program exactly when a scavenged register
        # is read or written, not whenever one sits in a register field:
        # e.g. ``fault`` ignores ra, and a load never reads rc.
        for reg in SCAVENGED_REGS:
            for field in ("ra", "rb", "rc"):
                fields = {"ra": A0, "rb": A1, "rc": T0, field: reg}
                instr = Instruction(opcode, **fields)
                b = ProgramBuilder()
                b.label("main")
                b.emit(instr)
                b.emit(halt())
                image = b.build()
                if reg in instr.source_regs() or instr.dest_reg() == reg:
                    with pytest.raises(MfiError):
                        rewrite_mfi(image)
                else:
                    rewrite_mfi(image)

    def test_rewritten_executes_more_instructions_than_dise3(self):
        image = build_loop_program(iterations=20)
        dise3 = attach_mfi(image, "dise3").run()
        rewritten = rewrite_mfi(image).run()
        # Same checks, plus the defensive copies (DISE4-style sequences).
        assert rewritten.instructions > dise3.instructions

    def test_transparency_dise_image_unmodified(self):
        image = build_loop_program()
        installation = attach_mfi(image, "dise3")
        # Only the appended stub distinguishes the DISE image.
        assert installation.image.instructions[:image.instruction_count] \
            == image.instructions


def mfi_image_digest(image):
    """sha256 over every field of a laid-out image."""
    payload = {
        "instructions": [[i.opcode.name, i.ra, i.rb, i.rc, i.imm, i.target]
                         for i in image.instructions],
        "addresses": image.addresses,
        "sizes": image.sizes,
        "target_index": image.target_index,
        "symbols": list(image.symbols.items()),
        "entry_index": image.entry_index,
        "text_base": image.text_base,
        "data_base": image.data_base,
        "data_words": sorted(image.data_words.items()),
        "data_size": image.data_size,
        "load_addresses": sorted(image.load_addresses.items()),
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _pinned_transform(image, kind):
    if kind == "stub":
        return ensure_error_stub(image)
    if kind == "rewrite":
        return rewrite_mfi(image).image
    # The DISE-compressed image compose_dise_dise gives its error stub.
    return ensure_error_stub(compress_image(image, DISE_OPTIONS).image)


#: sha256 of the stubbed image, the binary-rewritten image and the stubbed
#: DISE-compressed image on three committed profiles at scale 0.05, over
#: every image field (symbols in insertion order).  Installing MFI may only
#: get faster: these bytes must not move.
PINNED_MFI_IMAGES = {
    ("mcf", "stub"):
        "5ad1866e769259f763fbccec6b1c744d7f1faf5884d9defe08f69f9a141e7af2",
    ("mcf", "rewrite"):
        "7b36c145de51e06eb681f036fa0013e2a4d9fd02849437bcee4f92a0971d7775",
    ("mcf", "compressed-stub"):
        "d2209df5efeb1e2ee02f1ed9ae4ac134be99bb3b309c62096966331057319dcc",
    ("gzip", "stub"):
        "c7b17f2f29d573db47f080ec6ad11e57d7d0b54874a39e81a03afdf2b507b65d",
    ("gzip", "rewrite"):
        "aebb045e36dd8241254b99d09f7aba048a912260fdd8a0ea87cf997ad1334f81",
    ("gzip", "compressed-stub"):
        "331875cbba9bf286cc148aa5f11f8c83d23253eb8ac0eff8f4cf9fa6b0ba2ca5",
    ("bzip2", "stub"):
        "6759d4e304c19675cac79a1632b1fc6145bf23733f4d6462f80b1af5f11dd793",
    ("bzip2", "rewrite"):
        "3bd225b74ee9bb66e84f865f75f4dd05f4d469d2af00c096ab87fa0d773d65dd",
    ("bzip2", "compressed-stub"):
        "0bc7cd9d68c57853971a452c851434b810a7ec433664b8c0abd32000cdbde944",
}


@pytest.fixture(scope="module")
def pinned_images():
    return {bench: generate_by_name(bench, scale=0.05)
            for bench in ("mcf", "gzip", "bzip2")}


@pytest.mark.parametrize("bench,kind", list(PINNED_MFI_IMAGES))
def test_mfi_image_pinned(pinned_images, bench, kind):
    image = _pinned_transform(pinned_images[bench], kind)
    assert mfi_image_digest(image) == PINNED_MFI_IMAGES[(bench, kind)]
