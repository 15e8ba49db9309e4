"""Synthetic benchmark generator.

Emits complete, runnable Alpha-like programs from a
:class:`~repro.workloads.profiles.BenchmarkProfile`.  A program is a set of
leaf functions (hot ones called every outer-loop iteration, cold ones mostly
never executed — modelling cold library text) whose bodies are drawn from a
small library of integer idioms with controlled redundancy:

* *exact* redundancy re-emits a previously generated concrete sequence —
  what an unparameterized (dedicated-decompressor) dictionary can exploit;
* *shape* redundancy re-emits a previous idiom with a fresh register
  binding — additionally exploitable by DISE's parameterized dictionary
  entries (Figure 4's lda/ldq/cmplt/bne example is exactly this pattern).

Branch behaviour is data-dependent: functions test values from a biased 0/1
flags array initialised from the profile's seed, so the branch predictor
sees realistic, profile-controlled predictability.

Programs never touch the registers the MFI binary rewriter scavenges
(t8-t11), keep all memory accesses inside the data segment, and halt after a
fixed number of outer iterations, emitting a checksum via ``out`` for
end-to-end identity checks.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.isa.build import (
    Imm,
    addq,
    and_,
    beq,
    bis,
    bne,
    bsr,
    cmovne,
    cmplt,
    halt,
    jsr,
    lda,
    ldq,
    mov,
    mulq,
    out,
    ret,
    sll,
    srl,
    stq,
    subq,
    xor,
)
from repro.isa.registers import ZERO_REG, parse_reg
from repro.program.builder import ProgramBuilder
from repro.program.image import ProgramImage
from repro.workloads.profiles import BenchmarkProfile

# Register conventions (MFI's scavenged t8-t11 and the assembler temp are
# never used).
RA = parse_reg("ra")
SP = parse_reg("sp")
PV = parse_reg("pv")      # t12: indirect-call target register
S0, S4 = parse_reg("s0"), parse_reg("s4")
A4, A5 = parse_reg("a4"), parse_reg("a5")   # function pointer / trip counter
T7 = parse_reg("t7")                         # branch-test scratch
V0 = parse_reg("v0")

#: General-purpose pool for idiom operands.
REG_POOL = tuple(
    parse_reg(name) for name in
    ("v0", "t0", "t1", "t2", "t3", "t4", "t5", "t6", "a0", "a1", "a2", "a3")
)

#: Byte offsets used inside idioms (stay within the first 256 B of an array;
#: the inner loop strides at most 14 * 8 B past them, well inside bounds).
#: A wide pool keeps *exact* instruction-level repetition realistic — real
#: compiled code repeats instruction shapes far more often than exact bits.
OFFSETS = tuple(range(0, 256, 8))

NUM_ARRAYS = 4
ARRAY_WORDS = 512          # 4 KB per array minimum; grown to fit data_kb
STACK_WORDS = 256


class _IdiomLibrary:
    """Emits idiom instances with profile-controlled redundancy."""

    def __init__(self, rng: random.Random, profile: BenchmarkProfile):
        self.rng = rng
        self.profile = profile
        #: previously emitted concrete sequences (exact reuse).
        self.concrete: List[List] = []
        #: previously chosen (idiom id, immediates) shapes (shape reuse).
        self.shapes: List[Tuple] = []

    def next_block(self, pointer_reg: int) -> List:
        rng = self.rng
        if self.concrete and rng.random() < self.profile.exact_redundancy:
            return list(rng.choice(self.concrete))
        if self.shapes and rng.random() < self.profile.shape_redundancy:
            idiom_id, imms = rng.choice(self.shapes)
        else:
            idiom_id = rng.randrange(len(_IDIOMS))
            imms = _IDIOMS[idiom_id].pick_imms(rng)
            self.shapes.append((idiom_id, imms))
        regs = rng.sample(REG_POOL, 3)
        seq = _IDIOMS[idiom_id].emit(regs, imms, pointer_reg)
        self.concrete.append(seq)
        return list(seq)


class _Idiom:
    """One idiom template: fixed opcode shape, variable regs/immediates."""

    def __init__(self, name, pick_imms, emit):
        self.name = name
        self.pick_imms = pick_imms
        self.emit = emit


def _imm_off(rng):
    return (rng.choice(OFFSETS),)


def _imm_off_k(rng):
    return (rng.choice(OFFSETS), rng.choice((1, 2, 4, 8)))


def _imm_two_off(rng):
    off = rng.choice(OFFSETS[:-1])
    return (off, off + 8)


_IDIOMS = (
    # load-modify-store
    _Idiom(
        "lms", _imm_off_k,
        lambda r, imm, p: [
            ldq(r[0], imm[0], p),
            addq(r[0], Imm(imm[1]), r[0]),
            stq(r[0], imm[0], p),
        ],
    ),
    # accumulate
    _Idiom(
        "acc", _imm_off,
        lambda r, imm, p: [
            ldq(r[0], imm[0], p),
            addq(r[1], r[0], r[1]),
            xor(r[1], r[0], r[2]),
        ],
    ),
    # compare / conditional move (max-style reduction)
    _Idiom(
        "cmpmov", _imm_off,
        lambda r, imm, p: [
            ldq(r[0], imm[0], p),
            cmplt(r[1], r[0], r[2]),
            cmovne(r[2], r[0], r[1]),
        ],
    ),
    # shift-mask hash step
    _Idiom(
        "hash", _imm_off_k,
        lambda r, imm, p: [
            srl(r[0], Imm(imm[1]), r[1]),
            and_(r[1], Imm(63), r[1]),
            xor(r[1], r[0], r[0]),
            sll(r[0], Imm(1), r[0]),
        ],
    ),
    # multiply-accumulate
    _Idiom(
        "mac", _imm_off_k,
        lambda r, imm, p: [
            ldq(r[0], imm[0], p),
            mulq(r[0], Imm(imm[1]), r[1]),
            addq(r[2], r[1], r[2]),
        ],
    ),
    # store pair (record update)
    _Idiom(
        "stpair", _imm_two_off,
        lambda r, imm, p: [
            addq(r[0], r[1], r[2]),
            stq(r[2], imm[0], p),
            stq(r[0], imm[1], p),
        ],
    ),
    # Figure 4's list-walk idiom: lda/ldq/cmplt
    _Idiom(
        "fig4", _imm_off_k,
        lambda r, imm, p: [
            lda(r[0], imm[1], r[0]),
            ldq(r[1], imm[0], p),
            cmplt(r[1], r[2], r[2]),
        ],
    ),
)


def _array_name(index: int) -> str:
    return f"arr{index}"


class WorkloadGenerator:
    """Builds one synthetic benchmark program."""

    def __init__(self, profile: BenchmarkProfile, scale: float = 1.0):
        self.profile = profile
        self.scale = scale
        self.rng = random.Random(profile.seed)
        self.builder = ProgramBuilder()
        self.idioms = _IdiomLibrary(self.rng, profile)

    # ------------------------------------------------------------------
    def generate(self) -> ProgramImage:
        profile = self.profile
        rng = self.rng
        builder = self.builder

        self._allocate_data()

        hot_names = [f"f_hot{i}" for i in range(profile.hot_functions)]
        cold_names = [f"f_cold{i}" for i in range(profile.cold_functions)]

        self._emit_main(hot_names, cold_names)
        for name in hot_names:
            self._emit_function(name, trips=profile.inner_trips)
        for name in cold_names:
            self._emit_function(name, trips=1)

        builder.set_entry("main")
        return builder.build()

    # ------------------------------------------------------------------
    def _allocate_data(self):
        profile = self.profile
        rng = self.rng
        total_words = max(profile.data_kb * 1024 // 8,
                          NUM_ARRAYS * ARRAY_WORDS)
        words_per_array = total_words // NUM_ARRAYS
        for index in range(NUM_ARRAYS):
            if index == 0:
                # Biased 0/1 flags array drives data-dependent branches.
                init = [
                    1 if rng.random() < profile.branch_bias else 0
                    for _ in range(min(words_per_array, 2048))
                ]
            else:
                init = [
                    rng.getrandbits(32) for _ in range(min(words_per_array, 2048))
                ]
            self.builder.alloc_data(_array_name(index), words_per_array,
                                    init=init)
        self.builder.alloc_data("stack", STACK_WORDS)

    # ------------------------------------------------------------------
    def _emit_main(self, hot_names, cold_names):
        profile = self.profile
        rng = self.rng
        builder = self.builder
        iterations = max(1, round(profile.iterations * self.scale))

        builder.label("main")
        builder.load_address(SP, "stack")
        builder.emit(lda(SP, (STACK_WORDS - 8) * 8, SP))
        builder.emit(bis(ZERO_REG, ZERO_REG, S4))         # checksum

        # Touch a sample of cold functions once (cold-start code).
        for name in cold_names[:max(1, len(cold_names) // 10)]:
            builder.emit(bsr(RA, name))
            builder.emit(xor(S4, V0, S4))

        builder.emit(lda(S0, iterations, ZERO_REG))       # outer counter
        builder.label("outer")
        for name in hot_names:
            if rng.random() < profile.indirect_call_frac:
                builder.load_address(PV, name)
                builder.emit(jsr(RA, PV))
            else:
                builder.emit(bsr(RA, name))
            builder.emit(xor(S4, V0, S4))
        builder.emit(stq(S4, 0, SP))                      # stack traffic
        builder.emit(ldq(S4, 0, SP))
        builder.emit(subq(S0, Imm(1), S0))
        builder.emit(bne(S0, "outer"))
        builder.emit(out(S4))                             # checksum
        builder.emit(halt())

    # ------------------------------------------------------------------
    def _emit_function(self, name: str, trips: int):
        profile = self.profile
        rng = self.rng
        builder = self.builder

        array = _array_name(rng.randrange(NUM_ARRAYS))
        flags = _array_name(0)
        loop_label = f".{name}_loop"

        builder.label(name)
        builder.load_address(A4, array)
        builder.emit(lda(A5, trips, ZERO_REG))
        builder.label(loop_label)

        for block in range(profile.blocks_per_function):
            builder.emit_many(self.idioms.next_block(A4))
            if rng.random() < 0.45:
                # Data-dependent branch over the next block.
                skip = builder.fresh_label(f"{name}_s")
                flag_off = rng.choice(OFFSETS)
                if array == flags:
                    builder.emit(ldq(T7, flag_off, A4))
                else:
                    builder.load_address(T7, flags)
                    builder.emit(ldq(T7, flag_off, T7))
                builder.emit(bne(T7, skip) if rng.random() < 0.5
                             else beq(T7, skip))
                builder.emit_many(self.idioms.next_block(A4))
                builder.label(skip)

        builder.emit(lda(A4, 8, A4))                      # stride
        builder.emit(subq(A5, Imm(1), A5))
        builder.emit(bne(A5, loop_label))
        builder.emit(mov(REG_POOL[1], V0))                # result
        builder.emit(ret(RA))


def reseed_data(image: ProgramImage, profile: BenchmarkProfile,
                 data_seed: int) -> ProgramImage:
    """A data-segment variant of ``image`` for cohort seed sweeps.

    Re-rolls the initial array contents (same layout, same biased-flags
    discipline as :meth:`WorkloadGenerator._allocate_data`) from a seed
    derived from ``data_seed``, leaving the text segment untouched.  The
    variant *shares* the base image's text lists by reference — and with
    them the image-wide translation/batch stores, which key on text and
    productions only — so a cohort over data seeds pays translation and
    compilation once.
    """
    total_words = max(profile.data_kb * 1024 // 8, NUM_ARRAYS * ARRAY_WORDS)
    words_per_array = total_words // NUM_ARRAYS
    rng = random.Random(f"{profile.seed}:data:{data_seed}")
    data_words = dict(image.data_words)
    for index in range(NUM_ARRAYS):
        base = image.data_base + index * words_per_array * 8
        count = min(words_per_array, 2048)
        if index == 0:
            init = [1 if rng.random() < profile.branch_bias else 0
                    for _ in range(count)]
        else:
            init = [rng.getrandbits(32) for _ in range(count)]
        for offset, value in enumerate(init):
            data_words[base + offset * 8] = value
    variant = ProgramImage(
        instructions=image.instructions,
        addresses=image.addresses,
        sizes=image.sizes,
        target_index=image.target_index,
        symbols=image.symbols,
        entry_index=image.entry_index,
        text_base=image.text_base,
        data_base=image.data_base,
        data_words=data_words,
        data_size=image.data_size,
        load_addresses=image.load_addresses,
    )
    # Share the image-wide caches: decoded sites and compiled blocks
    # depend only on text + productions, both identical across variants.
    for attr in ("_translation_store", "_batch_store"):
        store = getattr(image, attr, None)
        if store is None:
            store = {}
            setattr(image, attr, store)
        setattr(variant, attr, store)
    return variant


def generate_benchmark(profile: BenchmarkProfile, scale: float = 1.0,
                       data_seed: Optional[int] = None) -> ProgramImage:
    """Generate the synthetic program for one benchmark profile.

    ``data_seed`` (cohort runs) re-rolls the initial data segment from a
    derived seed while keeping the text segment — and therefore every
    text-keyed cache — identical to the base image.
    """
    image = WorkloadGenerator(profile, scale=scale).generate()
    if data_seed is not None:
        image = reseed_data(image, profile, data_seed)
    return image


def generate_by_name(name: str, scale: float = 1.0,
                     data_seed: Optional[int] = None) -> ProgramImage:
    """Generate a benchmark by SPECint name (see repro.workloads.specint)."""
    from repro.workloads.specint import get_profile

    return generate_benchmark(get_profile(name), scale=scale,
                              data_seed=data_seed)
