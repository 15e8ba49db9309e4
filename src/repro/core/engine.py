"""The DISE engine: matching, instantiation, and expansion.

The engine inspects every fetched application instruction, matches it
against the active patterns (most-specific wins), and — on a match —
instantiates the bound replacement sequence by executing the per-field
directives against the trigger's bits (the instantiation logic, IL, of
Section 2.2).

The engine is a peephole, native-to-native expander: each expansion is
physically independent, and replacement instructions are never themselves
candidates for expansion (no recursion; composition is done in software,
Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.directives import AbsTarget, Lit, TrigField
from repro.core.production import Production, ProductionSet
from repro.core.replacement import ReplacementSpec
from repro.core.tables import PatternTable, ReplacementTable
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.opcodes import Opcode
from repro.telemetry import registry as _telemetry


class ExpansionError(RuntimeError):
    """Raised when a trigger cannot be expanded (e.g. undefined codeword tag
    or a directive referencing a trigger field the trigger lacks)."""


def _sign_extend(value, bits):
    sign_bit = 1 << (bits - 1)
    return (value & (sign_bit - 1)) - (value & sign_bit)


@dataclass(frozen=True)
class Expansion:
    """A fully instantiated dynamic replacement sequence."""

    seq_id: int
    trigger: Instruction
    trigger_pc: int
    instrs: Tuple[Instruction, ...]
    #: Offsets (DISEPCs) of instructions that are copies of the trigger.
    trigger_offsets: Tuple[int, ...]
    #: True when the sequence's RT image is built by composition on fill.
    composed: bool

    def __len__(self):
        return len(self.instrs)


class _EngineTelemetry:
    """Per-engine metric handles, built only when telemetry is enabled.

    Resolved once per production-set installation so :meth:`DiseEngine.process`
    pays a single attribute check (and nothing at all for non-trigger
    opcodes, which never reach it).
    """

    __slots__ = ("match_counters", "replacement_length", "pt_occupancy",
                 "rt_occupancy")

    def __init__(self, productions):
        self.match_counters = {
            id(production): _telemetry.counter(
                "engine.production."
                f"{production.name or f'seq{production.seq_id}'}"
            )
            for production in productions
        }
        self.replacement_length = _telemetry.histogram(
            "engine.replacement_length")
        self.pt_occupancy = _telemetry.gauge("engine.pt_occupancy")
        self.rt_occupancy = _telemetry.gauge("engine.rt_occupancy")

    def record(self, engine, production, expansion):
        counter = self.match_counters.get(id(production))
        if counter is None:
            # Pre-translated trigger sites can carry the production object
            # of another equal-signature installation (decoded sites are
            # shared image-wide); resolve by the stable counter name.
            counter = _telemetry.counter(
                "engine.production."
                f"{production.name or f'seq{production.seq_id}'}"
            )
        counter.inc()
        self.replacement_length.observe(len(expansion.instrs))
        self.pt_occupancy.set(len(engine.pt._resident))
        self.rt_occupancy.set(
            sum(len(entries) for entries in engine.rt._sets.values())
        )


class DiseEngine:
    """Matches fetched instructions and produces expansions."""

    def __init__(self, pt: Optional[PatternTable] = None,
                 rt: Optional[ReplacementTable] = None):
        self.pt = pt or PatternTable()
        self.rt = rt or ReplacementTable()
        #: Metric handles, or None (telemetry disabled).  Re-resolved on
        #: every production-set change, so flipping telemetry takes effect
        #: at the next installation.
        self._tm: Optional[_EngineTelemetry] = None
        self._productions: List[Production] = []
        self._replacements: Dict[int, ReplacementSpec] = {}
        self._candidates_by_opcode: Dict[Opcode, List[Production]] = {}
        self._expansion_cache: Dict[tuple, Expansion] = {}
        self._pc_dependent: Dict[int, bool] = {}
        #: Opcodes at least one active pattern could match.  Everything else
        #: passes through untouched, so callers (and :meth:`process` itself)
        #: can skip matching entirely in O(1).
        self.trigger_opcodes: frozenset = frozenset()
        #: Bumped on every production-set change; consumers that cache
        #: per-opcode decisions (the functional simulator's decode cache)
        #: compare it to invalidate.
        self.generation = 0
        #: Content signature of the active production set (None when no
        #: set is active).  Unlike ``generation`` — a per-engine counter —
        #: the signature is comparable *across* engines, so caches keyed
        #: by it (the simulator's shared translation store) can be reused
        #: by every machine running the same productions.
        self.production_signature: Optional[tuple] = None
        self.expansions = 0
        self.inspected = 0

    # ------------------------------------------------------------------
    # Configuration (driven by the controller)
    # ------------------------------------------------------------------
    def set_production_set(self, production_set: Optional[ProductionSet]):
        """Install the active production set (or clear with ``None``)."""
        self._expansion_cache.clear()
        self._pc_dependent.clear()
        self._candidates_by_opcode = {}
        self.trigger_opcodes = frozenset()
        self.generation += 1
        self._tm = None
        self.production_signature = None
        if production_set is None:
            self._productions = []
            self._replacements = {}
            self.pt.set_active_patterns({})
            self.rt.invalidate()
            return
        self._productions = list(production_set.productions)
        self._replacements = dict(production_set.replacements)
        # Productions and replacement specs are frozen dataclasses, so
        # their reprs are a faithful value signature.
        self.production_signature = (
            tuple(repr(p) for p in self._productions),
            tuple((seq_id, repr(self._replacements[seq_id]))
                  for seq_id in sorted(self._replacements)),
        )

        by_opcode: Dict[Opcode, List[Production]] = {}
        active_indexes: Dict[Opcode, List[int]] = {}
        for opcode in Opcode:
            matching = [
                (index, production)
                for index, production in enumerate(self._productions)
                if production.pattern.could_match_opcode(opcode)
            ]
            if matching:
                ordered = sorted(
                    matching, key=lambda pair: -pair[1].pattern.specificity
                )
                by_opcode[opcode] = [production for _, production in ordered]
                active_indexes[opcode] = [index for index, _ in matching]
        self._candidates_by_opcode = by_opcode
        self.trigger_opcodes = frozenset(by_opcode)
        self.pt.set_active_patterns(active_indexes)
        self.rt.invalidate()
        if _telemetry.enabled():
            self._tm = _EngineTelemetry(self._productions)

    @property
    def active_production_count(self) -> int:
        return len(self._productions)

    def replacement(self, seq_id: int) -> ReplacementSpec:
        try:
            return self._replacements[seq_id]
        except KeyError:
            raise ExpansionError(
                f"no replacement sequence with id {seq_id} (stray codeword?)"
            ) from None

    # ------------------------------------------------------------------
    # Matching and expansion
    # ------------------------------------------------------------------
    def match(self, instr: Instruction,
              pc: Optional[int] = None) -> Optional[Production]:
        """The most specific matching production, or None.

        ``pc`` enables PC-scoped patterns (the attribute-matching extension
        of Section 2.1); ``None`` matches them unconditionally.
        """
        candidates = self._candidates_by_opcode.get(instr.opcode)
        if not candidates:
            return None
        for production in candidates:  # pre-sorted by specificity desc
            if production.pattern.matches(instr) and (
                pc is None or production.pattern.matches_pc(pc)
            ):
                return production
        return None

    def process(self, instr: Instruction, pc: int):
        """Inspect one fetched instruction.

        Returns ``(expansion, pt_miss, rt_miss)``; ``expansion`` is ``None``
        (and the miss flags are False except a possible PT fill miss) when
        the instruction passes through unexpanded.
        """
        self.inspected += 1
        if instr.opcode not in self.trigger_opcodes:
            # No active pattern can match: the PT access would be a pure
            # miss-free no-op and the match a guaranteed None.
            return None, False, False
        pt_miss = self.pt.access(instr.opcode)
        production = self.match(instr, pc)
        if production is None:
            return None, pt_miss, False
        seq_id = production.select_seq_id(instr)
        spec = self.replacement(seq_id)
        rt_miss = self.rt.access_sequence(seq_id, len(spec))
        expansion = self._instantiate_cached(seq_id, spec, instr, pc)
        self.expansions += 1
        if self._tm is not None:
            self._tm.record(self, production, expansion)
        return expansion, pt_miss, rt_miss

    def preexpand(self, instr: Instruction, pc: int):
        """Match and instantiate a potential trigger *without* side effects.

        Decode-time variant of :meth:`process` used by the functional
        simulator's site translator: matching and instantiation are
        pure functions of ``(instr, pc, generation)``, so they can be
        hoisted to translation time, while the stateful PT/RT accesses (and
        the inspected/expansions counters) stay at run time.  Shares
        :meth:`_instantiate_cached`, so a translation and a later
        interpretive run of the same site reuse one :class:`Expansion`.

        Returns ``None`` when no production matches, else
        ``(production, seq_id, spec, expansion)``.  May raise
        :class:`ExpansionError` exactly where :meth:`process` would.
        """
        production = self.match(instr, pc)
        if production is None:
            return None
        seq_id = production.select_seq_id(instr)
        spec = self.replacement(seq_id)
        expansion = self._instantiate_cached(seq_id, spec, instr, pc)
        return production, seq_id, spec, expansion

    # ------------------------------------------------------------------
    # Instantiation logic (IL)
    # ------------------------------------------------------------------
    def _instantiate_cached(self, seq_id, spec, trigger, pc) -> Expansion:
        pc_dep = self._pc_dependent.get(seq_id)
        if pc_dep is None:
            pc_dep = _spec_is_pc_dependent(spec)
            self._pc_dependent[seq_id] = pc_dep
        key = (seq_id, trigger, pc) if pc_dep else (seq_id, trigger)
        cached = self._expansion_cache.get(key)
        if cached is None:
            cached = instantiate(spec, seq_id, trigger, pc)
            self._expansion_cache[key] = cached
        return cached


def _spec_is_pc_dependent(spec: ReplacementSpec) -> bool:
    for rinstr in spec.instrs:
        if isinstance(rinstr.imm, AbsTarget):
            return True
        if isinstance(rinstr.imm, TrigField) and rinstr.imm.field == "pc":
            return True
    return False


def _trigger_reg_value(trigger: Instruction, fieldname: str):
    if fieldname == "rs":
        value = trigger.rs
    elif fieldname == "rt":
        value = trigger.rt
    elif fieldname == "rd":
        value = trigger.rd
    elif fieldname == "p1":
        value = trigger.ra
    elif fieldname == "p2":
        value = trigger.rb
    elif fieldname == "p3":
        value = trigger.rc
    else:
        raise ExpansionError(f"field T.{fieldname.upper()} not a register field")
    if value is None:
        raise ExpansionError(
            f"trigger {trigger} has no T.{fieldname.upper()} field"
        )
    return value


def _trigger_imm_value(trigger: Instruction, pc: int, fieldname: str):
    if fieldname == "imm":
        value = trigger.imm
    elif fieldname == "pc":
        value = pc
    elif fieldname == "tag":
        value = trigger.tag
    elif fieldname == "p1":
        value = None if trigger.ra is None else _sign_extend(trigger.ra, 5)
    elif fieldname == "p2":
        value = None if trigger.rb is None else _sign_extend(trigger.rb, 5)
    elif fieldname == "p3":
        value = None if trigger.rc is None else _sign_extend(trigger.rc, 5)
    elif fieldname == "p23":
        if trigger.rb is None or trigger.rc is None:
            value = None
        else:
            value = _sign_extend((trigger.rb << 5) | trigger.rc, 10)
    else:
        raise ExpansionError(f"field T.{fieldname.upper()} not an immediate field")
    if value is None:
        raise ExpansionError(
            f"trigger {trigger} has no T.{fieldname.upper()} field"
        )
    return value


def _resolve_reg(directive, trigger):
    if directive is None:
        return None
    if isinstance(directive, Lit):
        return directive.value
    if isinstance(directive, TrigField):
        return _trigger_reg_value(trigger, directive.field)
    raise ExpansionError(f"bad register directive: {directive!r}")


def _resolve_imm(directive, trigger, pc):
    if directive is None:
        return None
    if isinstance(directive, Lit):
        return directive.value
    if isinstance(directive, TrigField):
        return _trigger_imm_value(trigger, pc, directive.field)
    if isinstance(directive, AbsTarget):
        # PC-relative displacement against the trigger's PC: the expanded
        # branch executes with PC == trigger PC.
        delta = directive.address - (pc + INSTRUCTION_BYTES)
        if delta % INSTRUCTION_BYTES:
            raise ExpansionError(
                f"unaligned absolute target {directive.address:#x} from pc {pc:#x}"
            )
        return delta // INSTRUCTION_BYTES
    raise ExpansionError(f"bad immediate directive: {directive!r}")


def instantiate(spec: ReplacementSpec, seq_id: int,
                trigger: Instruction, pc: int) -> Expansion:
    """Run the instantiation directives; produce the dynamic sequence."""
    instrs = []
    trigger_offsets = []
    for offset, rinstr in enumerate(spec.instrs):
        if rinstr.is_trigger_copy:
            instrs.append(trigger)
            trigger_offsets.append(offset)
            continue
        instrs.append(
            Instruction(
                rinstr.opcode,
                ra=_resolve_reg(rinstr.ra, trigger),
                rb=_resolve_reg(rinstr.rb, trigger),
                rc=_resolve_reg(rinstr.rc, trigger),
                imm=_resolve_imm(rinstr.imm, trigger, pc),
            )
        )
    return Expansion(
        seq_id=seq_id,
        trigger=trigger,
        trigger_pc=pc,
        instrs=tuple(instrs),
        trigger_offsets=tuple(trigger_offsets),
        composed=spec.composed_on_fill,
    )
