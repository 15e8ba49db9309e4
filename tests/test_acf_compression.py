"""Tests for the compression ACF: dictionary building, transformation,
decompression identity, and the Figure 7 feature variants."""

import hashlib
import json

import pytest

from repro.acf.composition import COMPOSITION_SCHEMES, build_composition
from repro.acf.compression import (
    CompressionError,
    CompressionOptions,
    DEDICATED_OPTIONS,
    DISE_OPTIONS,
    FIGURE7_VARIANTS,
    compress_image,
    enumerate_candidates,
    make_template,
    select_dictionary,
)
from repro.core.directives import Lit, TrigField
from repro.isa.build import (
    Imm,
    addq,
    bis,
    bne,
    bsr,
    halt,
    jsr,
    lda,
    ldq,
    out,
    ret,
    stq,
    subq,
)
from repro.isa.instruction import INSTRUCTION_BYTES
from repro.isa.opcodes import Opcode
from repro.program.builder import ProgramBuilder
from repro.sim.functional import run_program
from repro.workloads import generate_by_name

from conftest import A0, A1, T0, T1, ZERO, build_loop_program


def redundant_program(copies=6, iterations=3):
    """A program with several instances of the same idiom, with varying
    registers/immediates (the Figure 4 situation)."""
    b = ProgramBuilder()
    b.alloc_data("buf", 64, init=list(range(16)))
    b.label("main")
    b.load_address(A1, "buf")
    b.emit(bis(ZERO, Imm(iterations), T0))
    b.label("loop")
    regs = [1, 2, 3, 4, 5, 6, 7, 16, 17, 18]
    for i in range(copies):
        r = regs[i % len(regs)]
        b.emit(ldq(r, 8 * (i % 4), A1))
        b.emit(addq(r, Imm(1 + (i % 3)), r))
        b.emit(stq(r, 8 * (i % 4), A1))
    b.emit(subq(T0, Imm(1), T0))
    b.emit(bne(T0, "loop"))
    b.emit(ldq(A0, 0, A1))
    b.emit(out(A0))
    b.emit(halt())
    b.set_entry("main")
    return b.build()


def multi_loop_program(loops=6, iterations=3):
    """Several counted loops whose bodies differ but which all end in the
    same ``addq; subq; bne`` tail: the most profitable dictionary entry is
    that tail with its branch."""
    b = ProgramBuilder()
    b.alloc_data("buf", 64, init=list(range(16)))
    b.label("main")
    b.load_address(A1, "buf")
    b.emit(bis(ZERO, ZERO, A0))
    for k in range(loops):
        b.emit(bis(ZERO, Imm(iterations + k), T0))
        b.label(f"loop{k}")
        b.emit(ldq(T1, 8 * (k % 4), A1))
        b.emit(addq(A0, T1, A0))
        b.emit(subq(T0, Imm(1), T0))
        b.emit(bne(T0, f"loop{k}"))
    b.emit(stq(A0, 0, A1))
    b.emit(out(A0))
    b.emit(halt())
    b.set_entry("main")
    return b.build()


class TestTemplates:
    def test_parameterized_template_shares_across_registers(self):
        seq_a = [ldq(1, 8, 2), addq(1, Imm(1), 1)]
        seq_b = [ldq(5, 8, 6), addq(5, Imm(1), 5)]
        ta, pa = make_template(seq_a, DISE_OPTIONS)
        tb, pb = make_template(seq_b, DISE_OPTIONS)
        assert ta == tb, "same shape, different registers: one entry"
        assert pa != pb

    def test_parameterized_template_shares_small_immediates(self):
        # Figure 4: lda r, 8(r) and lda r, -8(r) share an entry.  With three
        # distinct registers the registers-first assignment exhausts the
        # slots, so the immediate-first strategy provides the merge.
        ta, pa = make_template([lda(1, 8, 1), ldq(2, 0, 3)], DISE_OPTIONS,
                               strategy="imms_first")
        tb, pb = make_template([lda(4, -8, 4), ldq(2, 0, 3)], DISE_OPTIONS,
                               strategy="imms_first")
        assert ta == tb
        assert pa != pb

    def test_strategies_disagree_when_operands_exceed_slots(self):
        seq = [lda(1, 8, 1), ldq(2, 0, 3)]
        regs_first, _ = make_template(seq, DISE_OPTIONS, "regs_first")
        imms_first, _ = make_template(seq, DISE_OPTIONS, "imms_first")
        assert regs_first != imms_first

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            make_template([addq(1, 2, 3), addq(1, 2, 3)], DISE_OPTIONS,
                          strategy="random")

    def test_large_immediates_stay_literal(self):
        ta, _ = make_template([ldq(1, 800, 2), addq(1, 2, 3)], DISE_OPTIONS)
        tb, _ = make_template([ldq(1, 808, 2), addq(1, 2, 3)], DISE_OPTIONS)
        assert ta != tb, "offsets beyond the 5-bit parameter cannot merge"

    def test_unparameterized_requires_exact_match(self):
        opts = DEDICATED_OPTIONS.with_changes(min_seq_len=2)
        ta, _ = make_template([ldq(1, 8, 2), addq(1, Imm(1), 1)], opts)
        tb, _ = make_template([ldq(5, 8, 6), addq(5, Imm(1), 5)], opts)
        assert ta != tb

    def test_branch_only_last_and_only_with_feature(self):
        seq = [subq(1, Imm(1), 1), bne(1, -4)]
        assert make_template(seq, DISE_OPTIONS) is not None
        no_branches = DISE_OPTIONS.with_changes(compress_branches=False)
        assert make_template(seq, no_branches) is None

    def test_branch_template_uses_p23(self):
        template, _ = make_template(
            [subq(1, Imm(1), 1), bne(1, -4)], DISE_OPTIONS
        )
        assert template[-1].imm == TrigField("p23")

    def test_calls_and_jumps_excluded(self):
        assert make_template([addq(1, 2, 3), bsr(26, 0)], DISE_OPTIONS) is None
        assert make_template([addq(1, 2, 3), ret(26)], DISE_OPTIONS) is None
        assert make_template([halt()],
                             DISE_OPTIONS.with_changes(min_seq_len=1)) is None


class TestDictionarySelection:
    def test_redundant_code_found(self):
        image = redundant_program()
        entries = select_dictionary(image, DISE_OPTIONS)
        assert entries, "the repeated idiom must yield a dictionary entry"
        best = entries[0]
        assert len(best.occurrences) >= 3

    def test_selected_occurrences_disjoint(self):
        image = redundant_program()
        entries = select_dictionary(image, DISE_OPTIONS)
        claimed = set()
        for entry in entries:
            for occ in entry.occurrences:
                span = set(range(occ.start, occ.start + occ.length))
                assert not span & claimed
                claimed |= span

    def test_dictionary_size_cap(self):
        image = generate_by_name("bzip2", scale=0.2)
        capped = DISE_OPTIONS.with_changes(max_dict_entries=3)
        entries = select_dictionary(image, capped)
        assert len(entries) <= 3

    def test_candidates_respect_blocks(self):
        image = redundant_program()
        from repro.program.blocks import find_basic_blocks

        block_of = {}
        for block in find_basic_blocks(image):
            for index in block.indices():
                block_of[index] = block.block_id
        for occurrences in enumerate_candidates(image, DISE_OPTIONS).values():
            for occ in occurrences:
                blocks = {
                    block_of[i]
                    for i in range(occ.start, occ.start + occ.length)
                }
                assert len(blocks) == 1, "candidates must not straddle blocks"


class TestCompressionTransform:
    def test_identity_on_small_program(self):
        image = redundant_program()
        plain = run_program(image)
        result = compress_image(image, DISE_OPTIONS)
        assert result.text_ratio < 1.0
        decompressed = result.installation().run()
        assert decompressed.outputs == plain.outputs
        assert decompressed.final_memory == plain.final_memory

    def test_identity_for_all_variants_on_benchmark(self):
        image = generate_by_name("bzip2", scale=0.2)
        plain = run_program(image, record_trace=False)
        for name, options in FIGURE7_VARIANTS:
            result = compress_image(image, options)
            run = result.installation().run(record_trace=False)
            assert run.outputs == plain.outputs, name
            assert not run.faulted, name

    def test_compressed_text_accounting(self):
        image = redundant_program()
        result = compress_image(image, DISE_OPTIONS)
        assert result.original_text_bytes == image.text_size
        assert result.compressed_text_bytes == result.image.text_size
        expected = (image.text_size
                    - result.instructions_removed * INSTRUCTION_BYTES)
        assert result.compressed_text_bytes == expected

    def test_dictionary_bytes(self):
        image = redundant_program()
        result = compress_image(image, DISE_OPTIONS)
        total_instrs = sum(
            len(spec) for spec in result.production_set.replacements.values()
        )
        assert result.dictionary_bytes == total_instrs * 8

    def test_two_byte_codewords_layout(self):
        image = generate_by_name("mcf", scale=0.2)
        result = compress_image(image, DEDICATED_OPTIONS)
        assert not result.image.uniform_size()
        # Addresses remain strictly increasing and match sizes.
        addrs, sizes = result.image.addresses, result.image.sizes
        for i in range(1, len(addrs)):
            assert addrs[i] == addrs[i - 1] + sizes[i - 1]

    def test_compressing_twice_rejected(self):
        image = generate_by_name("mcf", scale=0.2)
        result = compress_image(image, DEDICATED_OPTIONS)
        with pytest.raises(CompressionError):
            compress_image(result.image, DEDICATED_OPTIONS)

    def test_branch_compression_preserves_loops(self):
        image = multi_loop_program()
        result = compress_image(image, DISE_OPTIONS)
        swallowed = [
            spec for spec in result.production_set.replacements.values()
            if any(r.is_app_branch for r in spec.instrs)
        ]
        assert swallowed, "the shared loop tail must compress its branch"
        assert result.dropped_branch_instances == 0
        # Each loop runs its own count only if every codeword's P2:P3
        # offset was fixed up to its own loop head.
        run = result.installation().run()
        assert run.outputs == run_program(image).outputs

    def test_ratios_ordering_matches_feature_sets(self):
        image = generate_by_name("gzip", scale=0.2)
        by_name = {}
        for name, options in FIGURE7_VARIANTS:
            by_name[name] = compress_image(image, options).text_ratio
        assert by_name["DISE"] <= by_name["+3param"] <= by_name["+8byteDE"]
        assert by_name["dedicated"] <= by_name["-1insn"] <= by_name["-2byteCW"]


#: sha256 of every Figure 7 variant and Figure 8 composition scheme on three
#: committed profiles at scale 0.05 (the static text does not depend on
#: scale), over the image, every dictionary template by tag and every
#: statistic.  Candidate enumeration and selection may only get faster:
#: these bytes must not move.
PINNED_COMPRESSIONS = {
    ("mcf", "dedicated"):
        "182cc75222189c7bb22f401b13c812983595fa8f62625fd5f06471d779da074f",
    ("mcf", "-1insn"):
        "36504f80bac2dee9f15e5bacceda014d72c21d9ad196bbd1be3218ffff8cf103",
    ("mcf", "-2byteCW"):
        "8318c022d53f0392fb83a7935a9cdbf0c44d41a435c48183b274c55e82984566",
    ("mcf", "+8byteDE"):
        "f14954a79a5cad90ad4fff2a0e22ae986dce3aae518006c9b6ea6a6be85ee12b",
    ("mcf", "+3param"):
        "3cb3ba21cd24f2db260423402ce6179ddcdafe0fa3b7cf70e6e2bffa94e7b4f4",
    ("mcf", "DISE"):
        "a484306b34eba0dd437e059f24cad95203dd8cc93bb4dadd4b66a771af4f1fce",
    ("mcf", "rewrite+dedicated"):
        "577c0007ed9eabc41136919b16d0c6b3c262ddf68c65e4cec350b371dd93a08b",
    ("mcf", "rewrite+dise"):
        "35e2d89a373de0b9694cfa4346313e642e1875553e2f4d4a3acfe92c812aceb2",
    ("mcf", "dise+dise"):
        "b4a432d8e11137b47d229ad5e5f740054eaa3211ba953ca4615e98faefdca1ee",
    ("gzip", "dedicated"):
        "d2df5cabb28ba5d3fc9edd7cb8fd9a7ab4b52ef024d9a31d4933026a9f96c40f",
    ("gzip", "-1insn"):
        "698f606712f64ea213a4315cdf7f88e35ec7e5c4a64b405ccf0109b624622e00",
    ("gzip", "-2byteCW"):
        "30fdc3cd72f6b3b9ae5a0b133e4bde00569f7de321cef3075a75407c64042ce0",
    ("gzip", "+8byteDE"):
        "9ec72fed574826efa43412675f17f2508df1823e1dbdcee8247599f5867e7f78",
    ("gzip", "+3param"):
        "e2958683ca56d0bdcbfcabe322816c6be26ba38676e0083fade47c9faf3a9396",
    ("gzip", "DISE"):
        "5535ecd206663a890a5b98f02b5de85474d26d68fe4f7e5c3e16aa2ab92d0a64",
    ("gzip", "rewrite+dedicated"):
        "b6c4312b988198a350b5d94bff1ea081de4b209f6f26d04456b6a408f9922099",
    ("gzip", "rewrite+dise"):
        "9784b687a966e24a4b93edb4ee524aa36d5c87134d48d3c967297c5a3caa51e6",
    ("gzip", "dise+dise"):
        "cd4c3a5a2a08401a870158ec1f7897da418bf980965de1de32620a48f17d53ec",
    ("bzip2", "dedicated"):
        "22736e50098cd8f456618bef3a3f7f1f63cead93e2eb3406f85041ba9ead2f43",
    ("bzip2", "-1insn"):
        "610d29b22b1da0b0565ae193c206f29d34abb915b640a27f780ec435930aa34b",
    ("bzip2", "-2byteCW"):
        "bb675c6857f1ea1de93a19e57acaa9b452650d6d3da0fe81ce62c44bfdb6acf0",
    ("bzip2", "+8byteDE"):
        "28e014e549ac176820ed681887b04d06f8fe13bbb77377a1fc149ee74f5b1285",
    ("bzip2", "+3param"):
        "b7ba868a3f6f2b4721bdb08b22787bb55c4a9dfa7d1bdcf49a49b56e4e62942c",
    ("bzip2", "DISE"):
        "5a20869483df503c85ece5d15f2c84ccac9cf9211f7dc5c165535c70a93ab561",
    ("bzip2", "rewrite+dedicated"):
        "00e6ac2a37c5e5c067c99aed11152b0272b521fadda88ca32de4db5c7c319a15",
    ("bzip2", "rewrite+dise"):
        "6ee401b5bc358ed17ae63f3633459fe4cbd59500780b702de7e8d7c32dafea0d",
    ("bzip2", "dise+dise"):
        "f29ec6a95144644fd19b260b5d2d106e25e0a6df0c18ffdfbd3cc24958d3a633",
}


def _directive(directive):
    if directive is None:
        return None
    if isinstance(directive, Lit):
        return ["lit", directive.value]
    if isinstance(directive, TrigField):
        return ["trig", directive.field]
    raise TypeError(f"unexpected directive {directive!r}")


def compression_digest(result):
    image = result.image
    pset = result.production_set
    dictionary = [] if pset is None else [
        [tag, [[r.opcode.name, _directive(r.ra), _directive(r.rb),
                _directive(r.rc), _directive(r.imm)]
               for r in pset.replacements[tag].instrs]]
        for tag in sorted(pset.replacements)
    ]
    payload = {
        "instructions": [[i.opcode.name, i.ra, i.rb, i.rc, i.imm, i.target]
                         for i in image.instructions],
        "sizes": image.sizes,
        "addresses": image.addresses,
        "symbols": sorted(image.symbols.items()),
        "target_index": image.target_index,
        "load_addresses": sorted(image.load_addresses.items()),
        "entry_index": image.entry_index,
        "dictionary": dictionary,
        "stats": [result.original_text_bytes, result.compressed_text_bytes,
                  result.dictionary_entries, result.dictionary_bytes,
                  result.instances, result.instructions_removed,
                  result.dropped_branch_instances],
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@pytest.fixture(scope="module")
def pinned_images():
    return {bench: generate_by_name(bench, scale=0.05)
            for bench in ("mcf", "gzip", "bzip2")}


@pytest.mark.parametrize("bench,config", list(PINNED_COMPRESSIONS))
def test_compression_output_pinned(pinned_images, bench, config):
    image = pinned_images[bench]
    if config in COMPOSITION_SCHEMES:
        result, _ = build_composition(image, config)
    else:
        result = compress_image(image, dict(FIGURE7_VARIANTS)[config])
    assert compression_digest(result) == PINNED_COMPRESSIONS[(bench, config)]
