"""Pattern specifications — the matching half of a DISE production.

A pattern may constrain any combination of: opcode, opcode class, logical
register names (by trigger role: RS/RT/RD), the immediate value, and the
immediate's sign (Section 2.1: "conditional branches with negative
offsets").  Patterns are defined on instruction bits only.

When several active patterns match one fetched instruction, the engine picks
the **most specific** — the one constraining the greatest number of
instruction bits (Section 2.2).  That enables overlapping and negative
specifications, e.g. "all loads that don't use the stack pointer" = a
specific identity production for SP-relative loads plus a general one for
all loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.isa.instruction import Instruction
from repro.isa.opcodes import REG_ROLES, OpClass, Opcode
from repro.isa.registers import reg_name

#: Specificity weight (matched bits) contributed by each constraint kind.
_OPCODE_BITS = 6
_OPCLASS_BITS = 4   # fewer than a full opcode: a class constrains fewer bits
_REG_BITS = 5
_IMM_BITS = 16
_SIGN_BITS = 1
_PC_BITS = 8   # a PC-range constraint outranks register/sign constraints


@dataclass(frozen=True)
class PatternSpec:
    """Matching criteria for fetched instructions.

    ``pc_lo``/``pc_hi`` optionally scope the pattern to a half-open address
    range — the PC-matching extension the paper explicitly leaves open
    (Section 2.1).  It makes region-scoped ACFs expressible: trace or check
    only within one function's text.
    """

    opcode: Optional[Opcode] = None
    opclass: Optional[OpClass] = None
    #: role name ('rs'/'rt'/'rd') -> required register id.
    regs: Optional[Dict[str, int]] = None
    imm: Optional[int] = None
    #: +1 => immediate must be >= 0; -1 => immediate must be < 0.
    imm_sign: Optional[int] = None
    #: Half-open trigger-PC range [pc_lo, pc_hi); None = unconstrained.
    pc_lo: Optional[int] = None
    pc_hi: Optional[int] = None

    def __post_init__(self):
        if self.opcode is None and self.opclass is None:
            raise ValueError("a pattern must constrain an opcode or opcode class")
        if self.opcode is not None and self.opclass is not None:
            if self.opcode.opclass is not self.opclass:
                raise ValueError(
                    f"opcode {self.opcode.name} is not in class {self.opclass.name}"
                )
        if self.regs:
            for role in self.regs:
                if role not in REG_ROLES:
                    raise ValueError(f"unknown register role: {role!r}")
        if self.imm_sign not in (None, 1, -1):
            raise ValueError("imm_sign must be None, +1 or -1")
        if (self.pc_lo is None) != (self.pc_hi is None):
            raise ValueError("pc_lo and pc_hi must be set together")
        if self.pc_lo is not None and self.pc_hi <= self.pc_lo:
            raise ValueError("empty PC range")
        # Freeze the regs dict into a hashable sorted tuple for dataclass
        # hashing; expose it via the property below.
        object.__setattr__(
            self, "_regs_items",
            tuple(sorted(self.regs.items())) if self.regs else ()
        )

    # regs is a dict (unhashable); exclude it from hash/eq via the tuple.
    def __hash__(self):
        return hash((self.opcode, self.opclass, self._regs_items,
                     self.imm, self.imm_sign, self.pc_lo, self.pc_hi))

    def __eq__(self, other):
        if not isinstance(other, PatternSpec):
            return NotImplemented
        return (
            self.opcode is other.opcode
            and self.opclass is other.opclass
            and self._regs_items == other._regs_items
            and self.imm == other.imm
            and self.imm_sign == other.imm_sign
            and self.pc_lo == other.pc_lo
            and self.pc_hi == other.pc_hi
        )

    # ------------------------------------------------------------------
    @property
    def specificity(self) -> int:
        """Number of instruction bits this pattern constrains."""
        bits = 0
        if self.opcode is not None:
            bits += _OPCODE_BITS
        elif self.opclass is not None:
            bits += _OPCLASS_BITS
        bits += _REG_BITS * len(self._regs_items)
        if self.imm is not None:
            bits += _IMM_BITS
        elif self.imm_sign is not None:
            bits += _SIGN_BITS
        if self.pc_lo is not None:
            bits += _PC_BITS
        return bits

    def matches_pc(self, pc: int) -> bool:
        """True if a trigger at ``pc`` satisfies the PC constraint."""
        if self.pc_lo is None:
            return True
        return self.pc_lo <= pc < self.pc_hi

    def matches(self, instr: Instruction) -> bool:
        """True if ``instr`` triggers this pattern (instruction bits only;
        PC scoping is applied by the engine via :meth:`matches_pc`)."""
        if self.opcode is not None:
            if instr.opcode is not self.opcode:
                return False
        elif instr.opclass is not self.opclass:
            return False
        for role, required in self._regs_items:
            if getattr(instr, role) != required:
                return False
        if self.imm is not None:
            if instr.imm != self.imm:
                return False
        elif self.imm_sign is not None:
            if instr.imm is None:
                return False
            if self.imm_sign > 0 and instr.imm < 0:
                return False
            if self.imm_sign < 0 and instr.imm >= 0:
                return False
        return True

    def could_match_opcode(self, opcode: Opcode) -> bool:
        """True if some instruction with ``opcode`` could trigger this pattern.

        Used by the controller's pattern counter table, which tracks active
        and PT-resident pattern counts per opcode (Section 2.3).
        """
        if self.opcode is not None:
            return opcode is self.opcode
        return opcode.opclass is self.opclass

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Render in the paper's pattern syntax."""
        parts = []
        if self.opcode is not None:
            parts.append(f"T.OP == {self.opcode.mnemonic}")
        if self.opclass is not None and self.opcode is None:
            parts.append(f"T.OPCLASS == {self.opclass.value}")
        for role, required in self._regs_items:
            parts.append(f"T.{role.upper()} == {reg_name(required)}")
        if self.imm is not None:
            parts.append(f"T.IMM == {self.imm}")
        if self.imm_sign is not None:
            parts.append(f"T.IMM {'>= 0' if self.imm_sign > 0 else '< 0'}")
        if self.pc_lo is not None:
            parts.append(f"T.PC in [{self.pc_lo:#x}, {self.pc_hi:#x})")
        return " && ".join(parts)


def match_loads():
    """Pattern matching every load (Figure 1's P2)."""
    return PatternSpec(opclass=OpClass.LOAD)


def match_stores():
    """Pattern matching every store (Figure 1's P1)."""
    return PatternSpec(opclass=OpClass.STORE)


def match_indirect_jumps():
    """Pattern matching jmp/jsr/ret (the third unsafe class)."""
    return PatternSpec(opclass=OpClass.INDIRECT_JUMP)


def match_opcode(opcode: Opcode):
    """Pattern matching one exact opcode."""
    return PatternSpec(opcode=opcode)
