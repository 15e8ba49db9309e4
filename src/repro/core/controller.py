"""The DISE controller: the interface between ACFs and the engine.

Per Section 2.3, the controller (a) abstracts the internal PT/RT formats —
productions are submitted in the external, directive-annotated native-ISA
representation and translated on fill; (b) virtualizes PT/RT sizes, with the
pattern counter table as the only architectural PT/RT state; and (c)
cooperates with the OS kernel to virtualize the *set* of productions across
processes: user-scope production sets act only on their owning process and
are deactivated on context switch, while kernel-approved sets persist.

This model implements all of that at functional granularity and exposes the
miss penalties the timing simulator charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import DiseConfig
from repro.core.engine import DiseEngine
from repro.core.production import ProductionError, ProductionSet
from repro.core.registers import DiseRegisterFile
from repro.core.tables import PatternTable, ReplacementTable


@dataclass
class _Installed:
    production_set: ProductionSet
    active: bool
    owner_pid: Optional[int]


@dataclass(frozen=True)
class DiseSavedState:
    """Per-process DISE state saved across context switches.

    Consists of the dedicated registers, the interrupted PC:DISEPC pair, and
    the pattern counter table (represented here by the active production-set
    names — the PT/RT contents themselves are demand-loaded, Section 2.3).
    """

    dise_regs: Tuple[int, ...]
    pc: int
    disepc: int
    active_sets: Tuple[str, ...]


def combine_production_sets(sets: List[ProductionSet],
                            name="active") -> Optional[ProductionSet]:
    """Combine several production sets into the single active set.

    Tagged (aware) sets keep their replacement ids — those are trigger tag
    values and cannot be renamed; their id spaces must be disjoint.  Direct
    (transparent) sets are remapped into free id space above all claimed
    ids.
    """
    if not sets:
        return None
    combined = ProductionSet(
        name,
        scope="kernel" if any(s.scope == "kernel" for s in sets) else "user",
    )
    tagged_sets = [s for s in sets if any(p.tagged for p in s.productions)]
    direct_sets = [s for s in sets if s not in tagged_sets]

    for pset in tagged_sets:
        overlap = set(pset.replacements) & set(combined.replacements)
        if overlap:
            raise ProductionError(
                f"tag collision combining {pset.name!r}: ids "
                f"{sorted(overlap)[:4]} already claimed (use a different "
                "reserved opcode or disjoint tag ranges)"
            )
        combined.replacements.update(pset.replacements)
        combined.productions.extend(pset.productions)

    next_id = max(combined.replacements, default=-1) + 1
    for pset in direct_sets:
        remap = {}
        for seq_id in sorted(pset.replacements):
            remap[seq_id] = next_id
            combined.replacements[next_id] = pset.replacements[seq_id]
            next_id += 1
        for production in pset.productions:
            combined.add_production(
                production.pattern,
                seq_id=remap[production.seq_id],
                name=production.name,
            )
    return combined


class DiseController:
    """Owns the engine, the installed production sets, and miss costs."""

    def __init__(self, config: Optional[DiseConfig] = None):
        self.config = config or DiseConfig()
        self.engine = DiseEngine(
            pt=PatternTable(self.config.pt_entries),
            rt=ReplacementTable(
                entries=self.config.rt_entries,
                assoc=self.config.rt_assoc,
                perfect=self.config.rt_perfect,
                block_size=self.config.rt_block_size,
            ),
        )
        self._installed: Dict[str, _Installed] = {}
        self._order: List[str] = []
        self.current_pid: Optional[int] = None
        #: Callbacks fired after every rebuild of the active production set
        #: (install/uninstall/activation/context switch).  The functional
        #: simulator registers its translation-table re-bind here, so stale
        #: decoded sites can never be executed after a production-set swap.
        self._invalidation_listeners: List = []

    def add_invalidation_listener(self, callback):
        """Register ``callback()`` to run after every production-set change.

        Used by consumers that cache decisions derived from the active
        productions (e.g. decoded sites); the engine's
        ``generation`` counter covers the same changes, so the listener is
        a prompt-flush optimisation plus the documented hook for state the
        generation check cannot see.
        """
        self._invalidation_listeners.append(callback)

    # ------------------------------------------------------------------
    # Production-set management (the user/kernel API)
    # ------------------------------------------------------------------
    def install(self, production_set: ProductionSet, owner_pid=None,
                activate=True):
        """Install a production set.

        ``owner_pid`` identifies the owning process for user-scope sets;
        kernel-scope sets ("inspected and approved", Section 2.3) may act on
        any process and ignore it.
        """
        name = production_set.name
        if name in self._installed:
            raise ProductionError(f"production set already installed: {name!r}")
        if production_set.scope == "user" and owner_pid is None:
            owner_pid = self.current_pid
        self._installed[name] = _Installed(
            production_set=production_set, active=activate, owner_pid=owner_pid
        )
        self._order.append(name)
        self._rebuild()

    def uninstall(self, name: str):
        if name not in self._installed:
            raise ProductionError(f"no such production set: {name!r}")
        del self._installed[name]
        self._order.remove(name)
        self._rebuild()

    def set_active(self, name: str, active: bool):
        try:
            self._installed[name].active = active
        except KeyError:
            raise ProductionError(f"no such production set: {name!r}") from None
        self._rebuild()

    def installed_names(self) -> Tuple[str, ...]:
        return tuple(self._order)

    def active_names(self) -> Tuple[str, ...]:
        return tuple(
            name for name in self._order
            if self._installed[name].active and self._visible(name)
        )

    def _visible(self, name: str) -> bool:
        entry = self._installed[name]
        if entry.production_set.scope == "kernel":
            return True
        return entry.owner_pid is None or entry.owner_pid == self.current_pid

    def _rebuild(self):
        active = [
            self._installed[name].production_set
            for name in self._order
            if self._installed[name].active and self._visible(name)
        ]
        self.engine.set_production_set(combine_production_sets(active))
        for callback in tuple(self._invalidation_listeners):
            callback()

    # ------------------------------------------------------------------
    # Context switching (the OS-kernel layer)
    # ------------------------------------------------------------------
    def context_switch(self, new_pid: Optional[int]):
        """Switch processes: user-scope sets of other processes deactivate."""
        self.current_pid = new_pid
        self._rebuild()

    def save_state(self, dise_regs: DiseRegisterFile, pc=0,
                   disepc=0) -> DiseSavedState:
        return DiseSavedState(
            dise_regs=dise_regs.snapshot(),
            pc=pc,
            disepc=disepc,
            active_sets=self.active_names(),
        )

    def restore_state(self, state: DiseSavedState,
                      dise_regs: DiseRegisterFile):
        dise_regs.restore(state.dise_regs)
        for name in self._order:
            self._installed[name].active = name in state.active_sets or (
                self._installed[name].production_set.scope == "kernel"
                and self._installed[name].active
            )
        self._rebuild()
        return state.pc, state.disepc

    # ------------------------------------------------------------------
    # Miss costs (charged by the timing model)
    # ------------------------------------------------------------------
    def miss_penalty(self, composed=False) -> int:
        """Stall cycles for one PT/RT miss (pipeline flush modelled on top)."""
        if composed:
            return self.config.compose_miss_cycles
        return self.config.simple_miss_cycles
