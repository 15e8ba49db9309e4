"""Opcode and opcode-class definitions for the Alpha-like ISA.

The ISA is a compact but complete subset of the Alpha integer ISA: enough to
compile realistic integer workloads (loads/stores, ALU ops, compares,
conditional moves, branches, indirect jumps, calls) plus the extras DISE
needs:

* four **reserved opcodes** (``res0``..``res3``) that never occur naturally
  and are used as aware-ACF codewords (Section 2.1, *explicit tagging*);
* **DISE-internal branch variants** (``dbeq``/``dbne``/``dbr``) that modify
  the DISEPC instead of the PC (Section 2.1, *replacement sequence
  semantics*).  These only ever appear inside replacement sequences.

Every opcode carries its encoding format, its opcode class (the pattern
granularity DISE matches on), an execution latency used by the timing
model, and its operand facts: the register fields it reads and writes, the
fields that play the trigger roles, and its control/memory :class:`Kind`.
"""

from __future__ import annotations

import enum


class Format(enum.Enum):
    """Binary encoding format of an instruction."""

    MEM = "mem"            # op ra, disp(rb)          -- loads, stores, lda
    BRANCH = "branch"      # op ra, disp              -- PC-relative branches
    OPERATE = "operate"    # op ra, rb|#lit, rc       -- ALU operations
    JUMP = "jump"          # op ra, (rb)              -- indirect control flow
    CODEWORD = "codeword"  # op p1, p2, p3, tag       -- reserved DISE opcodes
    NULLARY = "nullary"    # op                       -- nop / halt / ...


class OpClass(enum.Enum):
    """Coarse instruction classes; DISE patterns may match at this level."""

    LOAD = "load"
    STORE = "store"
    INT_ARITH = "int_arith"
    COND_BRANCH = "cond_branch"
    UNCOND_BRANCH = "uncond_branch"   # direct br/bsr
    INDIRECT_JUMP = "indirect_jump"   # jmp/jsr/ret through a register
    NOP = "nop"
    SYSTEM = "system"
    RESERVED = "reserved"             # DISE codeword opcodes
    DISE_BRANCH = "dise_branch"       # DISEPC-relative internal branches


class Kind(enum.Enum):
    """What an instruction does besides reading and writing registers.

    The functional simulator derives its step kinds and the trace's
    control kinds (``cond`` .. ``dise``) from it, and the observers the
    one effect an opcode can have.
    """

    PLAIN = "plain"            # registers only: ALU operations, lda, nop
    LOAD = "load"
    STORE = "store"
    OUTPUT = "output"          # out: appends a register to the outputs
    COND = "cond"              # conditional PC-relative branch
    UNCOND = "uncond"          # br
    CALL = "call"              # bsr/jsr: links a return address
    INDIRECT = "indirect"      # jmp
    RETURN = "ret"             # ret
    DISE = "dise"              # DISE-internal branch: moves the DISEPC
    HALT = "halt"              # halt/fault: stops the machine
    CONTROLLER = "controller"  # ctrl: calls the DISE controller
    CODEWORD = "codeword"      # reserved: must be expanded, never executed


#: Register fields named by their letter in the operand columns below.
_FIELDS = {"a": "ra", "b": "rb", "c": "rc"}

#: The DISE trigger roles a pattern or directive may name, in the order
#: the ``roles`` column lists their fields.
REG_ROLES = ("rs", "rt", "rd")


class Opcode(enum.Enum):
    """All opcodes, one row each.

    The first four columns are the encoding value, the format, the class
    and the execution latency.  The next three state what an instruction
    does with its register fields, naming them by letter (``a`` = ``ra``,
    ``b`` = ``rb``, ``c`` = ``rc``):

    * ``reads`` -- the fields it reads as source registers, in the order
      :meth:`~repro.isa.instruction.Instruction.source_regs` lists them;
    * ``wr`` -- the field it writes (:meth:`dest_reg`), blank for none;
    * ``roles`` -- the fields that play ``T.RS``, ``T.RT`` and ``T.RD``
      (Section 2.1), in that order, ``.`` where the role is absent.

    The last column is the opcode's :class:`Kind`.  Every copy of these
    facts -- the trigger-field accessors, the dataflow the timing model
    replays, the composer's static matching, the simulators' step kinds
    -- is read from here.
    """

    #         code  format           opclass               lat  reads  wr   roles  kind
    LDA =    (0x08, Format.MEM,      OpClass.INT_ARITH,      1, "b",   "a", "b..", Kind.PLAIN)
    LDAH =   (0x09, Format.MEM,      OpClass.INT_ARITH,      1, "b",   "a", "b..", Kind.PLAIN)
    LDL =    (0x28, Format.MEM,      OpClass.LOAD,           3, "b",   "a", "b.a", Kind.LOAD)
    LDQ =    (0x29, Format.MEM,      OpClass.LOAD,           3, "b",   "a", "b.a", Kind.LOAD)
    STL =    (0x2C, Format.MEM,      OpClass.STORE,          1, "ba",  "",  "ba.", Kind.STORE)
    STQ =    (0x2D, Format.MEM,      OpClass.STORE,          1, "ba",  "",  "ba.", Kind.STORE)

    ADDQ =   (0x10, Format.OPERATE,  OpClass.INT_ARITH,      1, "ab",  "c", "abc", Kind.PLAIN)
    SUBQ =   (0x11, Format.OPERATE,  OpClass.INT_ARITH,      1, "ab",  "c", "abc", Kind.PLAIN)
    MULQ =   (0x13, Format.OPERATE,  OpClass.INT_ARITH,      7, "ab",  "c", "abc", Kind.PLAIN)
    AND =    (0x14, Format.OPERATE,  OpClass.INT_ARITH,      1, "ab",  "c", "abc", Kind.PLAIN)
    BIS =    (0x15, Format.OPERATE,  OpClass.INT_ARITH,      1, "ab",  "c", "abc", Kind.PLAIN)  # OR
    XOR =    (0x16, Format.OPERATE,  OpClass.INT_ARITH,      1, "ab",  "c", "abc", Kind.PLAIN)
    SLL =    (0x17, Format.OPERATE,  OpClass.INT_ARITH,      1, "ab",  "c", "abc", Kind.PLAIN)
    SRL =    (0x18, Format.OPERATE,  OpClass.INT_ARITH,      1, "ab",  "c", "abc", Kind.PLAIN)
    SRA =    (0x19, Format.OPERATE,  OpClass.INT_ARITH,      1, "ab",  "c", "abc", Kind.PLAIN)
    CMPEQ =  (0x1A, Format.OPERATE,  OpClass.INT_ARITH,      1, "ab",  "c", "abc", Kind.PLAIN)
    CMPLT =  (0x1B, Format.OPERATE,  OpClass.INT_ARITH,      1, "ab",  "c", "abc", Kind.PLAIN)
    CMPLE =  (0x1C, Format.OPERATE,  OpClass.INT_ARITH,      1, "ab",  "c", "abc", Kind.PLAIN)
    CMPULT = (0x1D, Format.OPERATE,  OpClass.INT_ARITH,      1, "ab",  "c", "abc", Kind.PLAIN)
    # A conditional move reads its old destination.
    CMOVEQ = (0x1E, Format.OPERATE,  OpClass.INT_ARITH,      1, "abc", "c", "abc", Kind.PLAIN)
    CMOVNE = (0x1F, Format.OPERATE,  OpClass.INT_ARITH,      1, "abc", "c", "abc", Kind.PLAIN)

    BEQ =    (0x39, Format.BRANCH,   OpClass.COND_BRANCH,    1, "a",   "",  "a..", Kind.COND)
    BNE =    (0x3D, Format.BRANCH,   OpClass.COND_BRANCH,    1, "a",   "",  "a..", Kind.COND)
    BLT =    (0x3A, Format.BRANCH,   OpClass.COND_BRANCH,    1, "a",   "",  "a..", Kind.COND)
    BLE =    (0x3B, Format.BRANCH,   OpClass.COND_BRANCH,    1, "a",   "",  "a..", Kind.COND)
    BGT =    (0x3F, Format.BRANCH,   OpClass.COND_BRANCH,    1, "a",   "",  "a..", Kind.COND)
    BGE =    (0x3E, Format.BRANCH,   OpClass.COND_BRANCH,    1, "a",   "",  "a..", Kind.COND)
    BR =     (0x30, Format.BRANCH,   OpClass.UNCOND_BRANCH,  1, "",    "a", "a.a", Kind.UNCOND)
    BSR =    (0x34, Format.BRANCH,   OpClass.UNCOND_BRANCH,  1, "",    "a", "a.a", Kind.CALL)

    JMP =    (0x37, Format.JUMP,     OpClass.INDIRECT_JUMP,  1, "b",   "a", "b.a", Kind.INDIRECT)
    JSR =    (0x35, Format.JUMP,     OpClass.INDIRECT_JUMP,  1, "b",   "a", "b.a", Kind.CALL)
    RET =    (0x36, Format.JUMP,     OpClass.INDIRECT_JUMP,  1, "b",   "a", "b.a", Kind.RETURN)

    NOP =    (0x00, Format.NULLARY,  OpClass.NOP,            1, "",    "",  "...", Kind.PLAIN)
    HALT =   (0x01, Format.NULLARY,  OpClass.SYSTEM,         1, "",    "",  "...", Kind.HALT)
    OUT =    (0x02, Format.BRANCH,   OpClass.SYSTEM,         1, "a",   "",  "a..", Kind.OUTPUT)
    FAULT =  (0x03, Format.BRANCH,   OpClass.SYSTEM,         1, "",    "",  "a..", Kind.HALT)
    CTRL =   (0x0A, Format.BRANCH,   OpClass.SYSTEM,         1, "a",   "",  "a..", Kind.CONTROLLER)

    # A raw codeword's parameters are conservatively sources; after DISE
    # expansion the replacement sequence's own dataflow governs.
    RES0 =   (0x04, Format.CODEWORD, OpClass.RESERVED,       1, "abc", "",  "abc", Kind.CODEWORD)
    RES1 =   (0x05, Format.CODEWORD, OpClass.RESERVED,       1, "abc", "",  "abc", Kind.CODEWORD)
    RES2 =   (0x06, Format.CODEWORD, OpClass.RESERVED,       1, "abc", "",  "abc", Kind.CODEWORD)
    RES3 =   (0x07, Format.CODEWORD, OpClass.RESERVED,       1, "abc", "",  "abc", Kind.CODEWORD)

    DBEQ =   (0x31, Format.BRANCH,   OpClass.DISE_BRANCH,    1, "a",   "",  "a..", Kind.DISE)
    DBNE =   (0x32, Format.BRANCH,   OpClass.DISE_BRANCH,    1, "a",   "",  "a..", Kind.DISE)
    DBR =    (0x33, Format.BRANCH,   OpClass.DISE_BRANCH,    1, "a",   "",  "a..", Kind.DISE)

    def __new__(cls, code, fmt, opclass, latency, reads, writes, roles,
                kind):
        member = object.__new__(cls)
        # The value stays the first four columns, so the operand columns
        # leave value lookups and reprs as they were.
        member._value_ = (code, fmt, opclass, latency)
        member.code = code
        member.format = fmt
        member.opclass = opclass
        member.latency = latency
        #: Field names read as source registers, in dataflow order.
        member.reads = tuple(_FIELDS[f] for f in reads)
        #: Field name of the destination register, or None.
        member.writes = _FIELDS[writes] if writes else None
        #: Trigger role (``rs``/``rt``/``rd``) -> the field that plays it.
        member.roles = {role: _FIELDS[f]
                        for role, f in zip(REG_ROLES, roles) if f != "."}
        member.kind = kind
        return member

    @property
    def mnemonic(self):
        """Lowercase assembly mnemonic."""
        return self.name.lower()

    @property
    def is_load(self):
        return self.opclass is OpClass.LOAD

    @property
    def is_store(self):
        return self.opclass is OpClass.STORE

    @property
    def is_branch(self):
        """Any application-level control transfer (not DISE-internal)."""
        return self.opclass in (
            OpClass.COND_BRANCH,
            OpClass.UNCOND_BRANCH,
            OpClass.INDIRECT_JUMP,
        )

    @property
    def is_cond_branch(self):
        return self.opclass is OpClass.COND_BRANCH

    @property
    def is_dise_branch(self):
        return self.opclass is OpClass.DISE_BRANCH

    @property
    def is_reserved(self):
        return self.opclass is OpClass.RESERVED

    @property
    def is_memory(self):
        return self.opclass in (OpClass.LOAD, OpClass.STORE)


OPCODE_BY_CODE = {}
for _op in Opcode:
    if _op.code in OPCODE_BY_CODE:
        raise AssertionError(
            f"duplicate opcode encoding {_op.code:#x}: "
            f"{_op.name} vs {OPCODE_BY_CODE[_op.code].name}"
        )
    OPCODE_BY_CODE[_op.code] = _op

OPCODE_BY_MNEMONIC = {op.mnemonic: op for op in Opcode}
# Friendly aliases.
OPCODE_BY_MNEMONIC["or"] = Opcode.BIS
OPCODE_BY_MNEMONIC["mov"] = Opcode.BIS

#: Reserved opcodes available for aware-ACF codewords.
RESERVED_OPCODES = (Opcode.RES0, Opcode.RES1, Opcode.RES2, Opcode.RES3)

#: Opcode classes whose members reference memory and therefore require
#: fault-isolation checks (Section 3.1: loads, stores, indirect jumps).
UNSAFE_OPCLASSES = (OpClass.LOAD, OpClass.STORE, OpClass.INDIRECT_JUMP)


def parse_opcode(mnemonic):
    """Look up an opcode by assembly mnemonic (case-insensitive)."""
    try:
        return OPCODE_BY_MNEMONIC[mnemonic.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown opcode mnemonic: {mnemonic!r}") from None
