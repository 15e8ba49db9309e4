"""Alpha-like ISA model: registers, opcodes, instructions, encoding, asm.

This package is the foundation of the DISE reproduction.  It defines the
instruction set the simulators execute, the binary encoding that code-size
experiments measure, and the assembler/disassembler used by tools, tests and
examples.
"""

from repro.isa.instruction import INSTRUCTION_BYTES, NOP, Instruction
from repro.isa.opcodes import (
    Format,
    Kind,
    OpClass,
    Opcode,
    RESERVED_OPCODES,
    UNSAFE_OPCLASSES,
    parse_opcode,
)
from repro.isa.registers import (
    DISE_REG_BASE,
    NUM_DISE_REGS,
    NUM_USER_REGS,
    ZERO_REG,
    dise_reg,
    is_dise_reg,
    is_user_reg,
    parse_reg,
    reg_name,
)
from repro.isa.encoding import (
    EncodingError,
    canonicalize,
    decode,
    decode_stream,
    encode,
    encode_stream,
)
from repro.isa.assembler import AssemblyError, Label, assemble, parse_instruction
from repro.isa.disassembler import disassemble, disassemble_listing

__all__ = [
    "INSTRUCTION_BYTES",
    "NOP",
    "Instruction",
    "Format",
    "Kind",
    "OpClass",
    "Opcode",
    "RESERVED_OPCODES",
    "UNSAFE_OPCLASSES",
    "parse_opcode",
    "DISE_REG_BASE",
    "NUM_DISE_REGS",
    "NUM_USER_REGS",
    "ZERO_REG",
    "dise_reg",
    "is_dise_reg",
    "is_user_reg",
    "parse_reg",
    "reg_name",
    "EncodingError",
    "canonicalize",
    "decode",
    "decode_stream",
    "encode",
    "encode_stream",
    "AssemblyError",
    "Label",
    "assemble",
    "parse_instruction",
    "disassemble",
    "disassemble_listing",
]
