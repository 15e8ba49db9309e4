"""Dynamic code (de)compression — Section 3.2 / Figure 4 / Figure 7.

The static half analyses the program, builds a decompression dictionary, and
replaces instances of dictionary sequences with DISE codewords; the dynamic
half is a tagged production set that re-expands the codewords at fetch.

The algorithm follows the paper:

* Candidate dictionary entries are instruction sequences of any size that do
  not straddle basic blocks.
* **Parameterization** merges candidate sequences that differ only in
  register names or small immediates: a codeword carries three 5-bit
  parameters plus an 11-bit tag, so a template may reference up to three
  parameterized operands (one when the sequence ends in a PC-relative
  branch, whose offset consumes the concatenated P2:P3 parameter).
* **Branch compression**: making the PC-relative offset a parameter lets two
  static branches share a dictionary entry, and each instance's offset is
  fixed up after compression moves the code (the paper's answer to the
  offset-instability problem of unparameterized compressors).
* **Greedy selection** iteratively picks the candidate with the greatest
  immediate compression, weighing the dictionary cost of the entry against
  the static instructions removed from the text.

The same machinery models the **dedicated decoder-based decompressor**
baseline via :data:`DEDICATED_OPTIONS` (2-byte codewords, single-instruction
compression, no parameterization, no branch compression) and the feature
ablation chain of Figure 7 (top).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional, Tuple

from repro.errors import AcfConfigError
from repro.acf.base import AcfInstallation
from repro.core.directives import Lit, TrigField
from repro.core.pattern import PatternSpec
from repro.core.production import ProductionSet
from repro.core.replacement import ReplacementInstr, ReplacementSpec
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import ZERO_REG
from repro.program.blocks import find_basic_blocks
from repro.program.builder import split_address
from repro.program.image import ProgramImage


class CompressionError(ValueError):
    """Raised when an image cannot be compressed as requested."""


@dataclass(frozen=True)
class CompressionOptions:
    """Feature knobs separating the Figure 7 experiments."""

    codeword_bytes: int = INSTRUCTION_BYTES
    min_seq_len: int = 2
    max_seq_len: int = 8
    parameterize: bool = True
    compress_branches: bool = True
    dict_entry_bytes: int = 8
    max_dict_entries: int = 2048
    reserved_opcode: Opcode = Opcode.RES0

    def with_changes(self, **changes) -> "CompressionOptions":
        return dc_replace(self, **changes)


#: The dedicated decoder-based decompressor baseline [Lefurgy et al.]:
#: 2-byte codewords, single-instruction compression, 4-byte unparameterized
#: dictionary entries, no branch compression.
DEDICATED_OPTIONS = CompressionOptions(
    codeword_bytes=2, min_seq_len=1, parameterize=False,
    compress_branches=False, dict_entry_bytes=4,
)

#: Full-featured DISE compression.
DISE_OPTIONS = CompressionOptions()

#: The Figure 7 (top) ablation chain, in presentation order.
FIGURE7_VARIANTS = (
    ("dedicated", DEDICATED_OPTIONS),
    ("-1insn", DEDICATED_OPTIONS.with_changes(min_seq_len=2)),
    ("-2byteCW", DEDICATED_OPTIONS.with_changes(
        min_seq_len=2, codeword_bytes=INSTRUCTION_BYTES)),
    ("+8byteDE", DEDICATED_OPTIONS.with_changes(
        min_seq_len=2, codeword_bytes=INSTRUCTION_BYTES, dict_entry_bytes=8)),
    ("+3param", DEDICATED_OPTIONS.with_changes(
        min_seq_len=2, codeword_bytes=INSTRUCTION_BYTES, dict_entry_bytes=8,
        parameterize=True)),
    ("DISE", DISE_OPTIONS),
)

_P_SLOTS = ("p1", "p2", "p3")
_PARAM_IMM_MIN, _PARAM_IMM_MAX = -16, 15
_P23_MIN, _P23_MAX = -512, 511


# ----------------------------------------------------------------------
# Candidate eligibility and template construction
# ----------------------------------------------------------------------
def _instruction_compressible(instr: Instruction,
                              options: CompressionOptions,
                              is_last: bool) -> bool:
    op = instr.opcode
    if op.opclass in (OpClass.RESERVED, OpClass.SYSTEM, OpClass.NOP,
                      OpClass.DISE_BRANCH, OpClass.INDIRECT_JUMP):
        return False
    if op is Opcode.BSR:
        return False
    if op.is_branch:
        if not options.compress_branches or not is_last:
            return False
        if op is Opcode.BR and instr.ra != ZERO_REG:
            return False  # linking br writes a PC-derived value
    return True


@dataclass
class _Occurrence:
    start: int
    length: int
    #: values for p1/p2/p3 (branch offsets patched after layout).
    params: Tuple[int, int, int]
    #: original index of the trailing branch, if any.
    branch_index: Optional[int]
    #: the parameter-assignment strategy that gave this occurrence its key.
    strategy: str


def _reg_directive(reg: Optional[int], param_of: Dict[Tuple[str, int], str]):
    if reg is None:
        return None
    slot = param_of.get(("reg", reg))
    return TrigField(slot) if slot else Lit(reg)


def _imm_directive(value: Optional[int], param_of: Dict[Tuple[str, int], str]):
    if value is None:
        return None
    slot = param_of.get(("imm", value))
    return TrigField(slot) if slot else Lit(value)


#: Parameter-assignment strategies tried for each candidate sequence.  The
#: paper builds an exhaustive candidate set and merges via parameterization;
#: trying both operand orders approximates that — a sequence whose sharing
#: hinges on an immediate (Figure 4's ``lda r, 8(r)`` vs ``lda r, -8(r)``)
#: unifies under ``imms_first`` even when registers exhaust the slots.
STRATEGIES = ("regs_first", "imms_first")


def make_template(instrs: List[Instruction],
                  options: CompressionOptions,
                  strategy: str = "regs_first",
                  ) -> Optional[Tuple[Tuple[ReplacementInstr, ...],
                                      Tuple[int, int, int]]]:
    """Canonicalise a concrete sequence into (template, parameter values).

    Returns None when the sequence is ineligible.  Two sequences share a
    dictionary entry iff their templates are equal.
    """
    last = len(instrs) - 1
    for offset, instr in enumerate(instrs):
        if not _instruction_compressible(instr, options, offset == last):
            return None

    branch = instrs[last] if instrs[last].opcode.is_branch else None

    if not options.parameterize:
        rinstrs = []
        for instr in instrs:
            if instr.opcode.is_branch:
                return None  # unparameterized compression cannot move branches
            rinstrs.append(_literal_rinstr(instr))
        return tuple(rinstrs), (ZERO_REG, ZERO_REG, ZERO_REG)

    # Parameter slots: a trailing branch consumes P2:P3 for its offset.
    slots = ["p1"] if branch is not None else ["p1", "p2", "p3"]

    # Operands in order of appearance.
    seen_regs: List[int] = []
    seen_imms: List[int] = []
    for instr in instrs:
        is_branch = instr.opcode.is_branch
        for reg in _operand_regs(instr):
            if reg != ZERO_REG and reg not in seen_regs:
                seen_regs.append(reg)
        if not is_branch and instr.imm is not None and \
                _PARAM_IMM_MIN <= instr.imm <= _PARAM_IMM_MAX and \
                instr.imm not in seen_imms:
            seen_imms.append(instr.imm)

    if strategy == "regs_first":
        operands = [("reg", r) for r in seen_regs]
        operands += [("imm", v) for v in seen_imms]
    elif strategy == "imms_first":
        operands = [("imm", v) for v in seen_imms]
        operands += [("reg", r) for r in seen_regs]
    else:
        raise AcfConfigError(f"unknown strategy {strategy!r}")

    param_of: Dict[Tuple[str, int], str] = {}
    params: List[int] = [ZERO_REG, ZERO_REG, ZERO_REG]
    slot_iter = iter(slots)
    for kind, value in operands:
        slot = next(slot_iter, None)
        if slot is None:
            break
        param_of[(kind, value)] = slot
        params[_P_SLOTS.index(slot)] = value if kind == "reg" else value & 0x1F

    rinstrs = []
    for offset, instr in enumerate(instrs):
        if instr.opcode.is_branch:
            rinstrs.append(
                ReplacementInstr(
                    opcode=instr.opcode,
                    ra=_reg_directive(instr.ra, param_of),
                    imm=TrigField("p23"),
                )
            )
        else:
            rinstrs.append(_parameterized_rinstr(instr, param_of))
    return tuple(rinstrs), tuple(params)


def _operand_regs(instr: Instruction) -> Tuple[int, ...]:
    """Registers in the fields ``instr`` reads or writes, in field order."""
    op = instr.opcode
    return tuple(reg for field, reg in (("ra", instr.ra), ("rb", instr.rb),
                                        ("rc", instr.rc))
                 if reg is not None and (field in op.reads
                                         or field == op.writes))


def _literal_rinstr(instr: Instruction) -> ReplacementInstr:
    return ReplacementInstr(
        opcode=instr.opcode,
        ra=Lit(instr.ra) if instr.ra is not None else None,
        rb=Lit(instr.rb) if instr.rb is not None else None,
        rc=Lit(instr.rc) if instr.rc is not None else None,
        imm=Lit(instr.imm) if instr.imm is not None else None,
    )


def _parameterized_rinstr(instr: Instruction,
                          param_of: Dict[Tuple[str, int], str]
                          ) -> ReplacementInstr:
    return ReplacementInstr(
        opcode=instr.opcode,
        ra=_reg_directive(instr.ra, param_of),
        rb=_reg_directive(instr.rb, param_of),
        rc=_reg_directive(instr.rc, param_of),
        imm=_imm_directive(instr.imm, param_of),
    )


# ----------------------------------------------------------------------
# Candidate enumeration
# ----------------------------------------------------------------------
#
# Enumeration keys every window by a flat tuple, far cheaper to build and
# hash than the template's dataclasses: five items per instruction — the
# opcode code, then the ra, rb, rc and imm fields, each as None, a literal
# value (int) or a slot name ("p1".."p3", "p23" for a branch offset).  That
# is exactly what each ReplacementInstr of make_template holds (None,
# Lit(value), TrigField(slot)), so two windows get equal keys exactly when
# make_template gives them equal templates, and a key comes with
# make_template's parameters.  make_template stays the definition: it
# builds the templates of the selected entries, and the tests check the
# keys against it.


class _Columns:
    """The per-instruction facts a template depends on, computed once.

    ``fields`` is an instruction's key part before any operand takes a slot:
    its opcode code and raw fields, or for a parameterized branch its ``ra``
    and the ``"p23"`` offset.  ``regs`` are its non-zero operand registers
    and ``imms`` its parameterizable immediate (empty and None when the
    options do not parameterize).
    """

    def __init__(self, instrs: List[Instruction],
                 options: CompressionOptions):
        parameterize = options.parameterize
        self.fields: List[tuple] = []
        self.regs: List[Tuple[int, ...]] = []
        self.imms: List[Optional[int]] = []
        self.is_branch: List[bool] = []
        self.mid_ok: List[bool] = []
        self.last_ok: List[bool] = []
        for instr in instrs:
            op = instr.opcode
            branch = op.is_branch
            self.is_branch.append(branch)
            mid_ok = _instruction_compressible(instr, options, is_last=False)
            self.mid_ok.append(mid_ok)
            # Only a branch depends on its position, and unparameterized
            # compression cannot move branches.
            self.last_ok.append(
                (_instruction_compressible(instr, options, is_last=True)
                 and parameterize) if branch else mid_ok)
            if branch and parameterize:
                self.fields.append((op.code, instr.ra, None, None, "p23"))
            else:
                self.fields.append(
                    (op.code, instr.ra, instr.rb, instr.rc, instr.imm))
            if not parameterize:
                self.regs.append(())
                self.imms.append(None)
                continue
            self.regs.append(tuple(reg for reg in _operand_regs(instr)
                                   if reg != ZERO_REG))
            imm = instr.imm
            self.imms.append(
                imm if not branch and imm is not None
                and _PARAM_IMM_MIN <= imm <= _PARAM_IMM_MAX else None)


def _slot_operands(regs: List[int], imms: List[int], slots: int,
                   strategy: str) -> Tuple[Tuple[str, int], ...]:
    """The ``(kind, value)`` operands given slots p1.. in slot order."""
    if strategy == "regs_first":
        operands = [("reg", reg) for reg in regs[:slots]]
        operands += [("imm", value) for value in imms]
    else:
        operands = [("imm", value) for value in imms[:slots]]
        operands += [("reg", reg) for reg in regs]
    return tuple(operands[:slots])


class _WindowKey:
    """One strategy's slot assignment and key while a window grows."""

    __slots__ = ("strategy", "operands", "reg_slot", "imm_slot", "params",
                 "key")

    def __init__(self, strategy: str):
        self.strategy = strategy
        self.key: tuple = ()
        self.operands: Tuple[Tuple[str, int], ...] = ()
        self.reg_slot: Dict[int, str] = {}
        self.imm_slot: Dict[int, str] = {}
        self.params = (ZERO_REG, ZERO_REG, ZERO_REG)

    def reassign(self, operands: Tuple[Tuple[str, int], ...]) -> bool:
        """Give ``operands`` the slots; False if they already hold them."""
        if operands == self.operands:
            return False
        self.operands = operands
        self.reg_slot = {}
        self.imm_slot = {}
        params = [ZERO_REG, ZERO_REG, ZERO_REG]
        for index, (kind, value) in enumerate(operands):
            if kind == "reg":
                self.reg_slot[value] = _P_SLOTS[index]
                params[index] = value
            else:
                self.imm_slot[value] = _P_SLOTS[index]
                params[index] = value & 0x1F
        self.params = tuple(params)
        return True

    def part(self, fields: tuple) -> tuple:
        """One instruction's key part under the current assignment."""
        if not self.operands:
            return fields
        code, ra, rb, rc, imm = fields
        reg_slot = self.reg_slot
        return (code, reg_slot.get(ra, ra), reg_slot.get(rb, rb),
                reg_slot.get(rc, rc), self.imm_slot.get(imm, imm))

    def rebuild(self, fields: List[tuple], start: int, end: int):
        key = ()
        for index in range(start, end + 1):
            key += self.part(fields[index])
        self.key = key


def _window_keys(columns: _Columns, start: int, stop: int, min_len: int,
                 strategies: Tuple[str, ...]):
    """Keys of the windows ``[start, start + length)``, shortest first.

    Yields ``(length, [(key, params, strategy), ...])`` for each length from
    ``min_len`` to ``stop - start``, stopping at the first ineligible
    window; a strategy whose key equals an earlier strategy's is left out.
    Each key extends the previous window's by one part, except when the new
    instruction changes which operands hold slots, or is a branch, whose
    offset leaves one slot.
    """
    fields, regs_of, imms_of = columns.fields, columns.regs, columns.imms
    last_ok, mid_ok = columns.last_ok, columns.mid_ok
    states = [_WindowKey(strategy) for strategy in strategies]
    # Under either strategy the slots go to operands among the first three
    # distinct registers and the first three distinct immediates, so later
    # ones cannot change the assignment.
    regs: List[int] = []
    imms: List[int] = []
    for end in range(start, stop):
        length = end - start + 1
        if length >= min_len and not last_ok[end]:
            return
        new = False
        for reg in regs_of[end]:
            if len(regs) < 3 and reg not in regs:
                regs.append(reg)
                new = True
        imm = imms_of[end]
        if imm is not None and len(imms) < 3 and imm not in imms:
            imms.append(imm)
            new = True
        if columns.is_branch[end]:
            # A branch is never eligible mid-sequence, so this is the last
            # window; its offset takes P2:P3, leaving P1 for one operand.
            if length >= min_len:
                for state in states:
                    state.reassign(
                        _slot_operands(regs, imms, 1, state.strategy))
                    state.rebuild(fields, start, end)
                yield length, _distinct(states)
            return
        for state in states:
            if new and state.reassign(
                    _slot_operands(regs, imms, 3, state.strategy)):
                state.rebuild(fields, start, end)
            else:
                state.key += state.part(fields[end])
        if length >= min_len:
            yield length, _distinct(states)
        if not mid_ok[end]:
            return


def _distinct(states: List[_WindowKey]
              ) -> List[Tuple[tuple, Tuple[int, int, int], str]]:
    keys: List[tuple] = []
    keyed = []
    for state in states:
        if state.key not in keys:
            keys.append(state.key)
            keyed.append((state.key, state.params, state.strategy))
    return keyed


def candidate_key(instrs: List[Instruction], options: CompressionOptions,
                  strategy: str = "regs_first"
                  ) -> Optional[Tuple[tuple, Tuple[int, int, int]]]:
    """The enumeration key and parameters of a whole sequence, or None.

    The fast form of :func:`make_template`: two sequences get equal keys
    exactly when make_template gives them equal templates, and then the
    same parameters; None exactly when make_template returns None.
    """
    if strategy not in STRATEGIES:
        raise AcfConfigError(f"unknown strategy {strategy!r}")
    columns = _Columns(instrs, options)
    for _, keyed in _window_keys(columns, 0, len(instrs), len(instrs),
                                 (strategy,)):
        key, params, _ = keyed[0]
        return key, params
    return None


def enumerate_candidates(image: ProgramImage, options: CompressionOptions
                         ) -> Dict[tuple, List[_Occurrence]]:
    """All candidate (key -> occurrences) groups in the image, in order of
    first appearance; each group's occurrences ascend by start."""
    candidates: Dict[tuple, List[_Occurrence]] = {}
    columns = _Columns(image.instructions, options)
    # Load-address pairs are relocation sites: they must survive verbatim so
    # they can be re-resolved after compression moves the code.
    blocked = [False] * image.instruction_count
    for index in image.load_addresses:
        blocked[index] = True
        if index + 1 < len(blocked):
            blocked[index + 1] = True
    strategies = STRATEGIES if options.parameterize else ("regs_first",)
    for block in find_basic_blocks(image):
        for start in range(block.start, block.end):
            if blocked[start]:
                continue
            stop = min(start + options.max_seq_len, block.end)
            for length, keyed in _window_keys(columns, start, stop,
                                              options.min_seq_len,
                                              strategies):
                end = start + length - 1
                if blocked[end]:
                    break
                branch_index = end if columns.is_branch[end] else None
                for key, params, strategy in keyed:
                    candidates.setdefault(key, []).append(
                        _Occurrence(start, length, params, branch_index,
                                    strategy)
                    )
    return candidates


# ----------------------------------------------------------------------
# Greedy dictionary selection
# ----------------------------------------------------------------------
def _usable_occurrences(occurrences: List[_Occurrence],
                        claimed: List[bool]) -> List[_Occurrence]:
    """Non-overlapping, unclaimed occurrences (greedy left-to-right)."""
    usable = []
    next_free = -1
    for occ in occurrences:
        if occ.start < next_free:
            continue
        if any(claimed[occ.start:occ.start + occ.length]):
            continue
        usable.append(occ)
        next_free = occ.start + occ.length
    return usable


def _savings(occurrences: List[_Occurrence], length: int,
             options: CompressionOptions) -> int:
    per_instance = length * INSTRUCTION_BYTES - options.codeword_bytes
    dict_cost = length * options.dict_entry_bytes
    return len(occurrences) * per_instance - dict_cost


@dataclass
class DictionaryEntry:
    tag: int
    template: Tuple[ReplacementInstr, ...]
    occurrences: List[_Occurrence]

    @property
    def length(self) -> int:
        return len(self.template)


def select_dictionary(image: ProgramImage, options: CompressionOptions
                      ) -> List[DictionaryEntry]:
    """Greedy selection: repeatedly take the template with the greatest
    immediate compression (lazy-heap formulation of the paper's loop)."""
    groups = list(enumerate_candidates(image, options).values())
    claimed = [False] * image.instruction_count

    # Equal-gain ties break on enumeration order (a group's rank), which is
    # a deterministic function of the image — never on id(), whose values
    # vary from process to process and would give parallel workers
    # different dictionaries.
    heap = []
    for rank, occurrences in enumerate(groups):
        length = occurrences[0].length
        if _savings(occurrences, length, options) <= 0:
            continue  # no subset of the occurrences pays for the entry
        usable = _usable_occurrences(occurrences, claimed)
        gain = _savings(usable, length, options)
        if gain > 0:
            heapq.heappush(heap, (-gain, rank))

    entries: List[DictionaryEntry] = []
    while heap and len(entries) < options.max_dict_entries:
        neg_gain, rank = heapq.heappop(heap)
        occurrences = groups[rank]
        length = occurrences[0].length
        usable = _usable_occurrences(occurrences, claimed)
        gain = _savings(usable, length, options)
        if gain <= 0:
            continue
        if -neg_gain != gain:
            heapq.heappush(heap, (-gain, rank))  # stale; re-rank
            continue
        for occ in usable:
            for index in range(occ.start, occ.start + occ.length):
                claimed[index] = True
        first = usable[0]
        template, _ = make_template(
            image.instructions[first.start:first.start + length], options,
            strategy=first.strategy,
        )
        entries.append(
            DictionaryEntry(tag=len(entries), template=template,
                            occurrences=usable)
        )
    return entries


# ----------------------------------------------------------------------
# Image transformation
# ----------------------------------------------------------------------
@dataclass
class CompressionResult:
    """A compressed program plus its decompression productions and stats."""

    image: ProgramImage
    production_set: Optional[ProductionSet]
    options: CompressionOptions
    original_text_bytes: int
    compressed_text_bytes: int
    dictionary_entries: int
    dictionary_bytes: int
    instances: int
    instructions_removed: int
    dropped_branch_instances: int = 0

    @property
    def text_ratio(self) -> float:
        """Compressed text size / original text size."""
        return self.compressed_text_bytes / self.original_text_bytes

    @property
    def total_ratio(self) -> float:
        """(Compressed text + dictionary) / original text size."""
        return ((self.compressed_text_bytes + self.dictionary_bytes)
                / self.original_text_bytes)

    def installation(self, init_machine=None) -> AcfInstallation:
        production_sets = (
            [self.production_set] if self.production_set else []
        )
        return AcfInstallation(
            image=self.image, production_sets=production_sets,
            init_machine=init_machine, name="decompression",
        )


def _patch_branch_params(params, offset_words):
    """Fill P2:P3 with a branch offset; returns patched params or None."""
    if not _P23_MIN <= offset_words <= _P23_MAX:
        return None
    raw = offset_words & 0x3FF
    return (params[0], (raw >> 5) & 0x1F, raw & 0x1F)


def compress_image(image: ProgramImage,
                   options: CompressionOptions = DISE_OPTIONS
                   ) -> CompressionResult:
    """Compress an image; returns the new image, productions, and stats."""
    if not image.uniform_size():
        raise CompressionError("image is already compressed")
    entries = select_dictionary(image, options)

    # Iterate layout until every compressed branch offset fits its P2:P3
    # parameter (compression moves code, so offsets change — Section 3.2).
    dropped = 0
    for _ in range(24):
        built, num_dropped = _build_compressed(image, entries, options)
        dropped += num_dropped
        if built is not None:
            new_image, instances, removed = built
            break
    else:
        raise CompressionError("branch-offset fixup did not converge")

    production_set = _decompression_productions(entries, options)
    dictionary_instrs = sum(entry.length for entry in entries)
    return CompressionResult(
        image=new_image,
        production_set=production_set,
        options=options,
        original_text_bytes=image.text_size,
        compressed_text_bytes=new_image.text_size,
        dictionary_entries=len(entries),
        dictionary_bytes=dictionary_instrs * options.dict_entry_bytes,
        instances=instances,
        instructions_removed=removed,
        dropped_branch_instances=dropped,
    )


def _build_compressed(image, entries, options):
    """One layout attempt.

    Returns ``((image, instance_count, removed_count), 0)`` on success, or
    ``(None, dropped)`` after removing every occurrence whose branch offset
    cannot be represented — the caller then relays out and retries.
    """
    instructions = image.instructions
    n = len(instructions)

    occ_at: Dict[int, Tuple[DictionaryEntry, _Occurrence]] = {}
    for entry in entries:
        for occ in entry.occurrences:
            occ_at[occ.start] = (entry, occ)

    new_instrs: List[Instruction] = []
    new_sizes: List[int] = []
    index_map: Dict[int, int] = {}
    codeword_starts: List[Tuple[int, DictionaryEntry, _Occurrence]] = []

    index = 0
    while index < n:
        hit = occ_at.get(index)
        if hit is not None:
            entry, occ = hit
            index_map[index] = len(new_instrs)
            codeword_starts.append((len(new_instrs), entry, occ))
            placeholder = Instruction(
                options.reserved_opcode,
                ra=occ.params[0], rb=occ.params[1], rc=occ.params[2],
                imm=entry.tag,
            )
            new_instrs.append(placeholder)
            new_sizes.append(options.codeword_bytes)
            index += occ.length
        else:
            index_map[index] = len(new_instrs)
            new_instrs.append(instructions[index])
            new_sizes.append(INSTRUCTION_BYTES)
            index += 1
    index_map[n] = len(new_instrs)

    addresses = []
    addr = image.text_base
    for size in new_sizes:
        addresses.append(addr)
        addr += size

    # Remap symbols; a symbol inside a compressed region would be a
    # straddled basic block — candidates cannot contain leaders.
    symbols = {}
    for name, old_index in image.symbols.items():
        if old_index not in index_map:
            raise CompressionError(
                f"symbol {name!r} points inside a compressed sequence"
            )
        symbols[name] = index_map[old_index]

    # Remap direct-branch targets of surviving (uncompressed) instructions.
    target_index: List[Optional[int]] = [None] * len(new_instrs)
    uniform = all(size == INSTRUCTION_BYTES for size in new_sizes)
    for old_index, old_target in enumerate(image.target_index):
        if old_target is None or old_index not in index_map:
            continue
        new_index = index_map[old_index]
        if new_instrs[new_index].opcode.is_reserved:
            continue  # branch swallowed into a codeword; handled via params
        if old_target not in index_map:
            raise CompressionError("branch target inside a compressed region")
        new_target = index_map[old_target]
        target_index[new_index] = new_target
        if uniform:
            new_instrs[new_index] = new_instrs[new_index].with_fields(
                imm=new_target - (new_index + 1)
            )

    # Fix up compressed branch offsets now that addresses are final.
    violations: List[Tuple[DictionaryEntry, _Occurrence]] = []
    for new_index, entry, occ in codeword_starts:
        if occ.branch_index is None:
            continue
        old_target = image.target_index[occ.branch_index]
        if old_target is None or old_target not in index_map:
            violations.append((entry, occ))
            continue
        target_addr = addresses[index_map[old_target]]
        cw_addr = addresses[new_index]
        delta = target_addr - (cw_addr + INSTRUCTION_BYTES)
        if delta % INSTRUCTION_BYTES:
            violations.append((entry, occ))
            continue
        patched = _patch_branch_params(occ.params,
                                       delta // INSTRUCTION_BYTES)
        if patched is None:
            violations.append((entry, occ))
            continue
        new_instrs[new_index] = new_instrs[new_index].with_fields(
            ra=patched[0], rb=patched[1], rc=patched[2]
        )
    if violations:
        for entry, occ in violations:
            entry.occurrences.remove(occ)
            if not entry.occurrences and entry in entries:
                entries.remove(entry)
        return None, len(violations)

    entry_index = index_map.get(image.entry_index)
    if entry_index is None:
        raise CompressionError("entry point was compressed away")

    # Re-resolve text-symbol load-address pairs against the new layout.
    new_load_addresses: Dict[int, str] = {}
    for old_index, symbol in image.load_addresses.items():
        new_index = index_map.get(old_index)
        if new_index is None or symbol not in symbols:
            raise CompressionError(
                f"load-address pair for {symbol!r} was compressed away"
            )
        high, low = split_address(addresses[symbols[symbol]])
        new_instrs[new_index] = new_instrs[new_index].with_fields(imm=high)
        new_instrs[new_index + 1] = new_instrs[new_index + 1].with_fields(imm=low)
        new_load_addresses[new_index] = symbol

    new_image = ProgramImage(
        instructions=new_instrs,
        addresses=addresses,
        sizes=new_sizes,
        target_index=target_index,
        symbols=symbols,
        entry_index=entry_index,
        text_base=image.text_base,
        data_base=image.data_base,
        data_words=dict(image.data_words),
        data_size=image.data_size,
        load_addresses=new_load_addresses,
    )
    instances = len(codeword_starts)
    removed = sum(occ.length for _, _, occ in codeword_starts) - instances
    return (new_image, instances, removed), 0


def _decompression_productions(entries, options) -> Optional[ProductionSet]:
    if not entries:
        return None
    pset = ProductionSet("decompression", scope="user")
    for entry in entries:
        pset.add_replacement(
            entry.tag,
            ReplacementSpec(instrs=entry.template, name=f"dict{entry.tag}"),
        )
    pset.add_production(
        PatternSpec(opcode=options.reserved_opcode), tagged=True, name="P-cw"
    )
    return pset


def compress_installation(image: ProgramImage,
                          options: CompressionOptions = DISE_OPTIONS
                          ) -> Tuple[CompressionResult, AcfInstallation]:
    """Compress and wrap as a runnable installation."""
    result = compress_image(image, options)
    return result, result.installation()
