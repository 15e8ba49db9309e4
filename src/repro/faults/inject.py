"""Fault taxonomy and deterministic single-fault injection.

Two injection mechanisms cover the taxonomy:

* **State corruption** (``oob_load``, ``oob_store``, ``wild_jump``,
  ``stack_overrun``, ``heap_overrun``) — the campaign driver runs the
  program and, immediately before the *n*-th dynamic visit to a chosen
  instruction, overwrites (or offsets) that instruction's address
  register.  This models transient corruption — a bad pointer arriving at
  an unsafe instruction — without touching program layout, so the plain
  and MFI images stay address-identical and the fault fires at the same
  architectural point under both.

* **Image mutation** (``corrupt_disp``, ``bitflip``) — one instruction is
  replaced in place (same 4 bytes, no re-layout): either its displacement
  field is rewritten, or one bit of its encoded form is flipped and the
  word re-decoded.  Direct-branch targets are re-derived from the mutated
  displacement, so a corrupted branch really goes where its bits say.

Sites are drawn from a *profiling trace* of the unfaulted program, so every
injected fault targets an instruction that actually executes.  All choices
come from a caller-supplied ``random.Random``, making each fault a pure
function of its seed.

MFI guards segment-granularity isolation: a fault is *guarded* exactly when
the corrupted address register leaves the program's legal segment (checked
the same way the production set checks it, ``reg >> SEGMENT_SHIFT``).
In-segment corruption — small heap overruns, displacement rewrites —
escapes by design and the campaign reports it as such.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CampaignError
from repro.isa.encoding import decode, encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass, Opcode
from repro.program.builder import SEGMENT_SHIFT
from repro.program.image import ProgramImage
from repro.sim.memory import MASK64
from repro.sim.trace import META_MEM, TraceResult

#: The fault taxonomy, in campaign order.
FAULT_CLASSES = (
    "oob_load",        # load base register -> out-of-segment address
    "oob_store",       # store base register -> out-of-segment address
    "wild_jump",       # indirect-jump target register -> out-of-segment
    "corrupt_disp",    # rewrite a load/store displacement field
    "stack_overrun",   # walk an address register below its segment
    "heap_overrun",    # walk an address register past its allocation
    "bitflip",         # flip one bit of an encoded instruction
)

#: Classes whose every instance MFI guarantees to contain (the corrupted
#: register provably leaves the legal segment).
MFI_GUARDED_CLASSES = frozenset({"oob_load", "oob_store", "wild_jump"})

#: Possible per-fault outcomes (see campaign classification).
OUTCOMES = ("contained", "escaped", "benign", "crash", "hang", "skipped")

#: Direct branches whose target index must be re-derived after mutation.
_DIRECT_BRANCHES = (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BLE,
                    Opcode.BGT, Opcode.BGE, Opcode.BR, Opcode.BSR)

#: User registers (0..30 minus the hardwired zero) are mutable fault
#: targets; DISE dedicated registers are not architectural program state.
_ZERO = 31


@dataclass(frozen=True)
class FaultSpec:
    """One planted fault, fully determined by its fields."""

    fault_id: str
    bench: str
    fault_class: str
    #: App-level pc of the targeted instruction.
    site_pc: int
    #: 1-based dynamic occurrence of ``site_pc`` at which to inject
    #: (state-corruption classes; ``0`` for image mutations, which are
    #: present from the first fetch).
    visit: int
    #: Whether MFI's segment check provably fires for this fault.
    guarded: bool
    #: Class-specific parameters, as a sorted item tuple (hashable).
    detail: Tuple[Tuple[str, object], ...] = ()

    def detail_dict(self) -> Dict[str, object]:
        return dict(self.detail)

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.fault_id,
            "bench": self.bench,
            "class": self.fault_class,
            "site_pc": self.site_pc,
            "visit": self.visit,
            "guarded": self.guarded,
            "detail": self.detail_dict(),
        }


# ----------------------------------------------------------------------
# Site profiling
# ----------------------------------------------------------------------
@dataclass
class SiteProfile:
    """Executed injection sites harvested from an unfaulted trace.

    Each pool entry is ``(pc, visit, base)`` — the instruction address,
    the 1-based dynamic occurrence, and (for memory operations) the value
    the base register held on that visit, recovered from the traced
    effective address.  ``base`` is ``None`` where it is unknowable from
    the trace (jumps) or irrelevant.
    """

    loads: List[Tuple[int, int, int]]
    stores: List[Tuple[int, int, int]]
    jumps: List[Tuple[int, int, Optional[int]]]
    mem_sites: List[int]          # unique pcs of executed loads/stores
    executed: List[int]           # unique pcs of all executed instructions


def profile_sites(image: ProgramImage, trace: TraceResult) -> SiteProfile:
    """Harvest per-class injection-site pools from a profiling trace.

    Walks the trace's pc, metadata and memory-address columns; what each
    visited pc contributes is decided once, on its first visit.
    """
    index_of_addr = image.index_of_addr
    visits: Dict[int, int] = {}
    #: pc -> (pool, displacement) of a pool site, () for any other.
    sites: Dict[int, tuple] = {}
    loads: List[Tuple[int, int, int]] = []
    stores: List[Tuple[int, int, int]] = []
    jumps: List[Tuple[int, int, Optional[int]]] = []
    mem_sites: List[int] = []
    seen_mem = set()
    executed: List[int] = []

    cols = trace.columns
    for pc, meta, mem in zip(cols.pc, cols.meta, cols.mem):
        site = sites.get(pc)
        if site is None:
            idx = index_of_addr.get(pc)
            if idx is None:
                continue
            executed.append(pc)
            site = sites[pc] = _site_pool(image.instructions[idx], loads,
                                          stores, jumps)
        visit = visits[pc] = visits.get(pc, 0) + 1
        if not site:
            continue
        pool, imm = site
        if pool is jumps:
            jumps.append((pc, visit, None))
        elif meta & META_MEM:
            pool.append((pc, visit, (mem - imm) & MASK64))
            if pc not in seen_mem:
                seen_mem.add(pc)
                mem_sites.append(pc)
    return SiteProfile(loads=loads, stores=stores, jumps=jumps,
                       mem_sites=mem_sites, executed=executed)


def _site_pool(instr: Instruction, loads, stores, jumps) -> tuple:
    """The pool an executed instruction feeds, with its displacement."""
    opclass = instr.opclass
    if opclass in (OpClass.LOAD, OpClass.STORE):
        pool = loads if opclass is OpClass.LOAD else stores
    elif opclass is OpClass.INDIRECT_JUMP:
        pool = jumps
    else:
        return ()
    reg = instr.rb
    if reg is None or reg == _ZERO or reg >= 32:
        return ()
    return pool, instr.imm or 0


# ----------------------------------------------------------------------
# Image mutation
# ----------------------------------------------------------------------
def _retarget(image: ProgramImage, index: int,
              instr: Instruction) -> Optional[int]:
    """Resolved target index for a (possibly mutated) direct branch."""
    if instr.opcode in _DIRECT_BRANCHES and instr.imm is not None:
        target_pc = image.addresses[index] + 4 + instr.imm * 4
        return image.index_of_addr.get(target_pc)
    return None


def replace_instruction(image: ProgramImage, index: int,
                        new_instr: Instruction) -> ProgramImage:
    """A copy of ``image`` with one same-size instruction swapped in.

    No re-layout happens (the mutation occupies the original 4 bytes);
    the direct-branch target at ``index`` is re-derived from the mutated
    displacement, so a corrupted branch goes where its bits now point —
    possibly nowhere, which the simulator reports as an execution error.
    """
    instructions = list(image.instructions)
    instructions[index] = new_instr
    target_index = list(image.target_index)
    target_index[index] = _retarget(image, index, new_instr)
    return ProgramImage(
        instructions=instructions,
        addresses=list(image.addresses),
        sizes=list(image.sizes),
        target_index=target_index,
        symbols=dict(image.symbols),
        entry_index=image.entry_index,
        text_base=image.text_base,
        data_base=image.data_base,
        data_words=dict(image.data_words),
        data_size=image.data_size,
        load_addresses=dict(image.load_addresses),
    )


# ----------------------------------------------------------------------
# Fault generation
# ----------------------------------------------------------------------
def _oob_address(rng: random.Random) -> int:
    """A word-aligned address outside both the text and data segments."""
    segment = rng.randrange(2, 64)
    offset = rng.randrange(0, 1 << SEGMENT_SHIFT, 8)
    return (segment << SEGMENT_SHIFT) | offset


#: Overrun magnitudes: the small ones usually stay inside the segment
#: (escaping MFI by design), the large ones cross it (guarded).
_OVERRUN_DELTAS = (1 << 12, 1 << 16, 1 << 20, 1 << 26, 3 << 26)


def make_fault(rng: random.Random, fault_id: str, bench: str,
               fault_class: str, profile: SiteProfile,
               image: ProgramImage) -> Optional[FaultSpec]:
    """Draw one :class:`FaultSpec` for ``fault_class`` from the site pools.

    Returns ``None`` when the benchmark offers no viable site (empty pool,
    or no decodable bit flip) — the campaign records such draws as
    ``skipped``.
    """
    data_seg = image.data_base >> SEGMENT_SHIFT

    if fault_class in ("oob_load", "oob_store"):
        pool = profile.loads if fault_class == "oob_load" else profile.stores
        if not pool:
            return None
        pc, visit, _base = rng.choice(pool)
        value = _oob_address(rng)
        return FaultSpec(fault_id, bench, fault_class, pc, visit,
                         guarded=True, detail=(("value", value),))

    if fault_class == "wild_jump":
        if not profile.jumps:
            return None
        pc, visit, _ = rng.choice(profile.jumps)
        value = _oob_address(rng)
        return FaultSpec(fault_id, bench, fault_class, pc, visit,
                         guarded=True, detail=(("value", value),))

    if fault_class in ("stack_overrun", "heap_overrun"):
        pool = profile.loads + profile.stores
        if not pool:
            return None
        pc, visit, base = rng.choice(pool)
        delta = rng.choice(_OVERRUN_DELTAS)
        signed_delta = -delta if fault_class == "stack_overrun" else delta
        corrupted = (base + signed_delta) & MASK64
        guarded = (corrupted >> SEGMENT_SHIFT) != data_seg
        return FaultSpec(fault_id, bench, fault_class, pc, visit,
                         guarded=guarded, detail=(("delta", signed_delta),))

    if fault_class == "corrupt_disp":
        if not profile.mem_sites:
            return None
        pc = rng.choice(profile.mem_sites)
        instr = image.instructions[image.index_of_addr[pc]]
        new_imm = instr.imm
        while new_imm == instr.imm:
            new_imm = rng.randrange(-(1 << 15), 1 << 15)
        # The displacement never reaches the segment check (MFI tests the
        # base *register*), so this class is unguarded by construction.
        return FaultSpec(fault_id, bench, fault_class, pc, visit=0,
                         guarded=False, detail=(("new_imm", new_imm),))

    if fault_class == "bitflip":
        if not profile.executed:
            return None
        pc = rng.choice(profile.executed)
        instr = image.instructions[image.index_of_addr[pc]]
        word = encode(instr)
        for bit in rng.sample(range(32), 32):
            flipped = word ^ (1 << bit)
            try:
                mutated = decode(flipped)
            except ValueError:
                continue
            if mutated != instr:
                return FaultSpec(fault_id, bench, fault_class, pc, visit=0,
                                 guarded=False, detail=(("bit", bit),))
        return None

    raise CampaignError(f"unknown fault class {fault_class!r}; "
                        f"choose from {FAULT_CLASSES}")


# ----------------------------------------------------------------------
# Applying a fault
# ----------------------------------------------------------------------
def state_mutator(spec: FaultSpec) -> Optional[Callable]:
    """The register corruption to apply at the fault's dynamic site, or
    ``None`` for image-mutation classes."""
    detail = spec.detail_dict()
    if spec.fault_class in ("oob_load", "oob_store", "wild_jump"):
        value = detail["value"]

        def corrupt(machine, reg):
            machine.regs[reg] = value

        return corrupt
    if spec.fault_class in ("stack_overrun", "heap_overrun"):
        delta = detail["delta"]

        def overrun(machine, reg):
            machine.regs[reg] = (machine.regs[reg] + delta) & MASK64

        return overrun
    return None


def mutate_image(spec: FaultSpec, image: ProgramImage) -> ProgramImage:
    """Apply an image-mutation fault; identity for state-corruption ones."""
    detail = spec.detail_dict()
    if spec.fault_class == "corrupt_disp":
        index = image.index_of_addr[spec.site_pc]
        instr = image.instructions[index]
        return replace_instruction(
            image, index, instr.with_fields(imm=detail["new_imm"])
        )
    if spec.fault_class == "bitflip":
        index = image.index_of_addr[spec.site_pc]
        instr = image.instructions[index]
        mutated = decode(encode(instr) ^ (1 << detail["bit"]))
        return replace_instruction(image, index, mutated)
    return image
