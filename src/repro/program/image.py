"""The laid-out program image executed by the simulators.

A :class:`ProgramImage` is the output of the program builder (or of a
binary-rewriting/compression tool): a list of instructions with assigned
addresses, resolved direct-branch targets, a symbol table, and initial data
memory.

Instructions normally occupy 4 bytes, but per-instruction sizes are kept
explicitly so that compressed images — e.g. the dedicated decompressor's
2-byte codewords (Section 4.2) — lay out correctly.  Direct branches carry a
resolved ``target_index`` so mixed-size images execute without re-deriving
targets from displacement fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.isa.instruction import INSTRUCTION_BYTES, Instruction

#: Memo attributes the simulators attach to an image, left out of pickles.
_PROCESS_LOCAL = ("_translation_store", "_batch_store")


@dataclass
class ProgramImage:
    """A laid-out, executable program."""

    instructions: List[Instruction]
    addresses: List[int]
    sizes: List[int]
    #: Resolved instruction-list index of each direct branch target
    #: (``None`` for non-branches and indirect jumps).
    target_index: List[Optional[int]]
    #: Symbol name -> instruction index.
    symbols: Dict[str, int]
    entry_index: int = 0
    text_base: int = 0
    data_base: int = 0
    #: Initial data memory: byte address -> 64-bit value.
    data_words: Dict[int, int] = field(default_factory=dict)
    #: Bytes of data segment reserved (for layout bookkeeping).
    data_size: int = 0
    #: Text-symbol load-address pairs: index of the ``ldah`` half -> symbol
    #: name.  Rewriting and compression tools re-resolve these after moving
    #: code (a raw binary would need relocations; this models them).
    load_addresses: Dict[int, str] = field(default_factory=dict)
    #: Index of an instruction by its address (built lazily).
    _index_of_addr: Optional[Dict[int, int]] = None

    def __post_init__(self):
        count = len(self.instructions)
        if not (len(self.addresses) == len(self.sizes) == len(self.target_index) == count):
            raise ValueError("image field lengths disagree")

    def __getstate__(self):
        # The simulators stash per-process memos on the image (decoded
        # sites and compiled blocks, the address index); they rebuild on
        # demand, and compiled code cannot cross a process boundary.
        state = {name: value for name, value in self.__dict__.items()
                 if name not in _PROCESS_LOCAL}
        state["_index_of_addr"] = None
        return state

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    @property
    def index_of_addr(self) -> Dict[int, int]:
        if self._index_of_addr is None:
            self._index_of_addr = {
                addr: idx for idx, addr in enumerate(self.addresses)
            }
        return self._index_of_addr

    def address_of(self, index: int) -> int:
        return self.addresses[index]

    def index_at(self, addr: int) -> int:
        """Instruction index at ``addr``; raises ``KeyError`` off-image."""
        return self.index_of_addr[addr]

    def symbol_address(self, name: str) -> int:
        return self.addresses[self.symbols[name]]

    def symbol_table_by_address(self) -> Dict[int, str]:
        """Address -> name map (first symbol wins on aliases)."""
        table: Dict[int, str] = {}
        for name, index in self.symbols.items():
            table.setdefault(self.addresses[index], name)
        return table

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    @property
    def text_size(self) -> int:
        """Total text-segment size in bytes."""
        return sum(self.sizes)

    @property
    def instruction_count(self) -> int:
        return len(self.instructions)

    def count_matching(self, predicate) -> int:
        """Static count of instructions satisfying ``predicate``."""
        return sum(1 for instr in self.instructions if predicate(instr))

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def entry_address(self) -> int:
        return self.addresses[self.entry_index]

    def fetch(self, index: int) -> Instruction:
        return self.instructions[index]

    def uniform_size(self) -> bool:
        """True if every instruction occupies the standard 4 bytes."""
        return all(size == INSTRUCTION_BYTES for size in self.sizes)
