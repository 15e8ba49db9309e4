"""Software composition of ACF production sets (Section 3.3).

DISE hardware never expands replacement instructions recursively; composition
is performed in software on the production *specifications*:

* **Nested composition** — ``nest(inner=X, outer=Y)`` builds productions
  whose effect equals applying X to the fetch stream and then Y to the
  result, ``Y(X(application))``.  It consists of Y's productions plus X's
  productions with Y "executed" on (inlined into) X's replacement
  sequences.  Inlining may rename Y's dedicated scratch registers to avoid
  conflicts with X's.
* **Non-nested merge** — ``merge_nonnested(a, b)`` combines productions with
  overlapping patterns such that both original meanings are preserved; the
  simple concatenation case (both sequences end with the trigger) is
  supported, mirroring Figure 5's store-tracing/fault-isolation merge.  The
  paper notes general non-nested composition may be impossible; we raise
  :class:`ComposeError` for the unsupported shapes.

Static inlining requires deciding whether an outer pattern matches a
replacement slot whose fields are directives.  Slots with literal fields are
decidable; a pattern constraining a field that is trigger-dependent is
*statically undecidable* and raises :class:`ComposeError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.directives import Lit, TrigField
from repro.core.pattern import PatternSpec
from repro.core.production import Production, ProductionError, ProductionSet
from repro.core.replacement import (
    TRIGGER_INSN,
    ReplacementInstr,
    ReplacementSpec,
)
from repro.isa.registers import DISE_REG_BASE, NUM_DISE_REGS, is_dise_reg

MAYBE = "maybe"


class ComposeError(ProductionError):
    """Raised when a composition cannot be performed statically."""


# ----------------------------------------------------------------------
# Directive-level trigger roles of a replacement slot: the same opcode-table
# fields Instruction.rs/rt/rd read, holding directives instead of registers.
# ----------------------------------------------------------------------
def _rinstr_role(rinstr: ReplacementInstr, role: str):
    field = rinstr.opcode.roles.get(role)
    return getattr(rinstr, field) if field else None


def _pattern_matches_rinstr(pattern: PatternSpec, rinstr: ReplacementInstr):
    """Does ``pattern`` match instances of this replacement slot?

    Returns True, False, or MAYBE (trigger-dependent).
    """
    if pattern.pc_lo is not None:
        return MAYBE  # the trigger's PC is unknown statically
    opcode = rinstr.opcode
    if pattern.opcode is not None:
        if opcode is not pattern.opcode:
            return False
    elif opcode.opclass is not pattern.opclass:
        return False
    for role, required in pattern._regs_items:
        directive = _rinstr_role(rinstr, role)
        if directive is None:
            return False
        if isinstance(directive, Lit):
            if directive.value != required:
                return False
        else:
            return MAYBE
    if pattern.imm is not None or pattern.imm_sign is not None:
        directive = rinstr.imm
        if directive is None:
            return False
        if not isinstance(directive, Lit):
            return MAYBE
        value = directive.value
        if pattern.imm is not None and value != pattern.imm:
            return False
        if pattern.imm_sign is not None:
            if pattern.imm_sign > 0 and value < 0:
                return False
            if pattern.imm_sign < 0 and value >= 0:
                return False
    return True


def _pattern_subsumes(outer: PatternSpec, inner: PatternSpec):
    """Does ``outer`` match every trigger of ``inner``?  True/False/MAYBE."""
    if outer.pc_lo is not None and (outer.pc_lo, outer.pc_hi) != \
            (inner.pc_lo, inner.pc_hi):
        return MAYBE
    if outer.opcode is not None:
        if inner.opcode is not outer.opcode:
            # inner could still be a class containing just that opcode, but
            # statically we treat class-vs-opcode as undecidable unless the
            # classes already disagree.
            if inner.opcode is not None:
                return False
            if inner.opclass is not outer.opcode.opclass:
                return False
            return MAYBE
    else:
        inner_class = (
            inner.opclass if inner.opclass is not None else inner.opcode.opclass
        )
        if inner_class is not outer.opclass:
            return False
    for role, required in outer._regs_items:
        inner_regs = dict(inner._regs_items)
        if inner_regs.get(role) == required:
            continue
        if role in inner_regs:
            return False
        return MAYBE
    if outer.imm is not None:
        if inner.imm == outer.imm:
            pass
        elif inner.imm is not None:
            return False
        else:
            return MAYBE
    if outer.imm_sign is not None:
        if inner.imm_sign == outer.imm_sign:
            pass
        elif inner.imm is not None:
            if outer.imm_sign > 0 and inner.imm < 0:
                return False
            if outer.imm_sign < 0 and inner.imm >= 0:
                return False
        else:
            return MAYBE
    return True


# ----------------------------------------------------------------------
# Dedicated-register read/write analysis and renaming
# ----------------------------------------------------------------------
def _directive_regs(directive) -> Set[int]:
    if isinstance(directive, Lit) and is_dise_reg(directive.value):
        return {directive.value}
    return set()


def _rinstr_written_dedicated(rinstr: ReplacementInstr) -> Set[int]:
    if rinstr.is_trigger_copy or rinstr.opcode.writes is None:
        return set()
    return _directive_regs(getattr(rinstr, rinstr.opcode.writes))


def _rinstr_all_dedicated(rinstr: ReplacementInstr) -> Set[int]:
    if rinstr.is_trigger_copy:
        return set()
    regs: Set[int] = set()
    for directive in (rinstr.ra, rinstr.rb, rinstr.rc):
        regs |= _directive_regs(directive)
    return regs


def spec_dedicated_usage(spec: ReplacementSpec) -> Tuple[Set[int], Set[int]]:
    """(all dedicated regs referenced, dedicated regs written) by ``spec``."""
    used: Set[int] = set()
    written: Set[int] = set()
    for rinstr in spec.instrs:
        used |= _rinstr_all_dedicated(rinstr)
        written |= _rinstr_written_dedicated(rinstr)
    return used, written


def _rename_directive(directive, rename: Dict[int, int]):
    if isinstance(directive, Lit) and directive.value in rename:
        return Lit(rename[directive.value])
    return directive


def rename_dedicated(spec: ReplacementSpec,
                     rename: Dict[int, int]) -> ReplacementSpec:
    """Rewrite dedicated-register names throughout a replacement spec."""
    if not rename:
        return spec
    instrs = []
    for rinstr in spec.instrs:
        if rinstr.is_trigger_copy:
            instrs.append(rinstr)
            continue
        instrs.append(
            ReplacementInstr(
                opcode=rinstr.opcode,
                ra=_rename_directive(rinstr.ra, rename),
                rb=_rename_directive(rinstr.rb, rename),
                rc=_rename_directive(rinstr.rc, rename),
                imm=rinstr.imm,
            )
        )
    return ReplacementSpec(
        instrs=tuple(instrs), name=spec.name,
        composed_on_fill=spec.composed_on_fill,
    )


def _resolve_conflicts(outer_spec: ReplacementSpec,
                       inner_used: Set[int]) -> ReplacementSpec:
    """Rename the outer spec's *written* dedicated registers away from the
    inner spec's register set (Figure 5: "inlining may require DISE registers
    to be renamed to avoid conflicts")."""
    outer_used, outer_written = spec_dedicated_usage(outer_spec)
    conflicts = outer_written & inner_used
    if not conflicts:
        return outer_spec
    busy = outer_used | inner_used
    free = [
        DISE_REG_BASE + index
        for index in range(NUM_DISE_REGS)
        if DISE_REG_BASE + index not in busy
    ]
    if len(free) < len(conflicts):
        raise ComposeError(
            "not enough free dedicated registers to rename around conflicts "
            f"on {sorted(conflicts)}"
        )
    rename = dict(zip(sorted(conflicts), free))
    return rename_dedicated(outer_spec, rename)


# ----------------------------------------------------------------------
# Inlining (applying an outer production set to a replacement spec)
# ----------------------------------------------------------------------
def _substitute_trigger(directive, rinstr: ReplacementInstr):
    """Rebind an outer directive to the inlining site ``rinstr``.

    The outer production's "trigger" is the replacement slot itself, so
    ``T.RS`` etc. resolve to the slot's corresponding directive — which may
    itself be a literal or chain to the composed production's real trigger.
    """
    if not isinstance(directive, TrigField):
        return directive
    if directive.field in ("rs", "rt", "rd"):
        resolved = _rinstr_role(rinstr, directive.field)
        if resolved is None:
            raise ComposeError(
                f"inlined sequence needs T.{directive.field.upper()} but the "
                f"site {rinstr.render()!r} has no such field"
            )
        return resolved
    if directive.field == "imm":
        if rinstr.imm is None:
            raise ComposeError(
                f"inlined sequence needs T.IMM but site {rinstr.render()!r} "
                "has no immediate"
            )
        return rinstr.imm
    raise ComposeError(
        f"directive T.{directive.field.upper()} cannot be statically inlined"
    )


def _inline_at_slot(outer_spec: ReplacementSpec, rinstr: ReplacementInstr,
                    base_offset: int) -> List[ReplacementInstr]:
    """Inline an outer replacement spec at a concrete replacement slot.

    ``base_offset`` is the slot's offset in the composed sequence; the outer
    spec's internal (DISE) branch targets are rebased onto it.
    """
    out: List[ReplacementInstr] = []
    for outer_rinstr in outer_spec.instrs:
        if outer_rinstr.is_trigger_copy:
            out.append(rinstr)
            continue
        imm = outer_rinstr.imm
        if outer_rinstr.is_dise_branch:
            imm = Lit(imm.value + base_offset)
        elif isinstance(imm, TrigField):
            imm = _substitute_trigger(imm, rinstr)
        out.append(
            ReplacementInstr(
                opcode=outer_rinstr.opcode,
                ra=_substitute_trigger(outer_rinstr.ra, rinstr),
                rb=_substitute_trigger(outer_rinstr.rb, rinstr),
                rc=_substitute_trigger(outer_rinstr.rc, rinstr),
                imm=imm,
            )
        )
    return out


def _select_outer_production(outer_set: ProductionSet, verdicts) -> Optional[Production]:
    """Pick the most specific definitely-matching outer production.

    ``verdicts`` is a list of (production, True/False/MAYBE).  A MAYBE with
    specificity at or above the best definite match makes the composition
    statically undecidable.
    """
    definite = [p for p, v in verdicts if v is True]
    maybes = [p for p, v in verdicts if v is MAYBE]
    best = max(definite, key=lambda p: p.pattern.specificity, default=None)
    for production in maybes:
        if best is None or production.pattern.specificity >= best.pattern.specificity:
            raise ComposeError(
                f"outer pattern {production.pattern.render()!r} matches the "
                "inlining site only trigger-dependently; static composition "
                "is undecidable"
            )
    return best


def _splice_at_trigger(outer_spec: ReplacementSpec,
                       base_offset: int) -> List[ReplacementInstr]:
    """Splice an outer spec at a trigger-copy slot.

    The outer production's trigger is the composed production's trigger, so
    directives pass through unchanged; only internal DISE-branch targets are
    rebased.
    """
    out: List[ReplacementInstr] = []
    for rinstr in outer_spec.instrs:
        if rinstr.is_dise_branch:
            out.append(
                ReplacementInstr(
                    opcode=rinstr.opcode, ra=rinstr.ra, rb=rinstr.rb,
                    rc=rinstr.rc, imm=Lit(rinstr.imm.value + base_offset),
                )
            )
        else:
            out.append(rinstr)
    return out


def apply_to_spec(outer_set: ProductionSet, spec: ReplacementSpec,
                  inner_pattern: Optional[PatternSpec] = None,
                  composed_on_fill=False,
                  name: Optional[str] = None) -> ReplacementSpec:
    """Execute ``outer_set``'s productions on a replacement sequence spec.

    ``inner_pattern`` (when given) describes the triggers this spec replaces,
    so trigger-copy slots can be statically expanded too.
    """
    inner_used, _ = spec_dedicated_usage(spec)

    out: List[ReplacementInstr] = []
    #: original offset -> new offset, for retargeting the inner sequence's
    #: own DISE branches.  Inlined outer instructions are rebased at splice
    #: time and recorded as already-fixed.
    offset_map: Dict[int, int] = {}
    already_fixed: Set[int] = set()

    for offset, rinstr in enumerate(spec.instrs):
        offset_map[offset] = len(out)
        if rinstr.is_trigger_copy:
            if inner_pattern is None:
                out.append(rinstr)
                continue
            verdicts = [
                (p, _pattern_subsumes(p.pattern, inner_pattern))
                for p in outer_set.productions
            ]
            production = _select_outer_production(outer_set, verdicts)
            if production is None:
                out.append(rinstr)
                continue
            outer_spec = _outer_spec_for(outer_set, production)
            outer_spec = _resolve_conflicts(outer_spec, inner_used)
            spliced = _splice_at_trigger(outer_spec, len(out))
            already_fixed.update(range(len(out), len(out) + len(spliced)))
            out.extend(spliced)
            continue
        verdicts = [
            (p, _pattern_matches_rinstr(p.pattern, rinstr))
            for p in outer_set.productions
        ]
        production = _select_outer_production(outer_set, verdicts)
        if production is None:
            out.append(rinstr)
            continue
        outer_spec = _outer_spec_for(outer_set, production)
        outer_spec = _resolve_conflicts(outer_spec, inner_used)
        inlined = _inline_at_slot(outer_spec, rinstr, len(out))
        already_fixed.update(range(len(out), len(out) + len(inlined)))
        out.extend(inlined)

    out = _retarget_dise_branches(out, offset_map, already_fixed)
    return ReplacementSpec(
        instrs=tuple(out),
        name=name or (spec.name + "+inlined"),
        composed_on_fill=composed_on_fill or spec.composed_on_fill,
    )


def _outer_spec_for(outer_set: ProductionSet,
                    production: Production) -> ReplacementSpec:
    if production.tagged:
        raise ComposeError(
            "cannot statically inline a tagged production (the replacement "
            "depends on runtime tag bits)"
        )
    return outer_set.replacement(production.seq_id)


def _retarget_dise_branches(out: List[ReplacementInstr],
                            offset_map: Dict[int, int],
                            already_fixed: Set[int]) -> List[ReplacementInstr]:
    """Fix the inner sequence's DISE-branch DISEPC targets after inlining.

    Outer-originated branches (indices in ``already_fixed``) were rebased at
    splice time and are left alone.
    """
    fixed = []
    for index, rinstr in enumerate(out):
        if rinstr.is_dise_branch and index not in already_fixed:
            old_target = rinstr.imm.value
            if old_target not in offset_map:
                raise ComposeError(
                    f"DISE branch target {old_target} vanished during inlining"
                )
            fixed.append(
                ReplacementInstr(
                    opcode=rinstr.opcode,
                    ra=rinstr.ra, rb=rinstr.rb, rc=rinstr.rc,
                    imm=Lit(offset_map[old_target]),
                )
            )
        else:
            fixed.append(rinstr)
    return fixed


# ----------------------------------------------------------------------
# Public composition operations
# ----------------------------------------------------------------------
def nest(inner: ProductionSet, outer: ProductionSet, name=None,
         composed_on_fill=False) -> ProductionSet:
    """Nested composition: the result behaves as ``outer(inner(stream))``.

    Figure 5 (bottom left): nesting store-address tracing within memory
    fault isolation — the composed set is MFI's productions plus the SAT
    production with MFI inlined into its replacement sequence.
    """
    result = ProductionSet(
        name or f"{outer.name}({inner.name})",
        scope="kernel" if "kernel" in (inner.scope, outer.scope) else "user",
    )

    inner_patterns = [p.pattern for p in inner.productions]
    next_id = 0

    # Inner productions with the outer set executed on their sequences.
    for production in inner.productions:
        if production.tagged:
            spec = None  # tagged: compose every dictionary entry below
            continue
        composed_spec = apply_to_spec(
            outer, inner.replacement(production.seq_id),
            inner_pattern=production.pattern,
            composed_on_fill=composed_on_fill,
        )
        seq_id = next_id
        next_id += 1
        result.add_replacement(seq_id, composed_spec)
        result.add_production(production.pattern, seq_id=seq_id,
                              name=production.name)

    # Tagged inner productions: compose the whole dictionary, keep tag ids.
    tagged_inner = [p for p in inner.productions if p.tagged]
    if tagged_inner:
        if result.replacements:
            raise ComposeError(
                "mixing direct and tagged inner productions in one nest() is "
                "not supported; nest them separately"
            )
        for seq_id, spec in inner.replacements.items():
            composed_spec = apply_to_spec(
                outer, spec, inner_pattern=None,
                composed_on_fill=composed_on_fill,
            )
            result.add_replacement(seq_id, composed_spec)
        for production in tagged_inner:
            result.productions.append(production)
        next_id = max(result.replacements, default=-1) + 1

    # Outer productions for instructions the inner set does not touch.  Skip
    # patterns identical to an inner pattern (the composed entry covers them).
    for production in outer.productions:
        if any(production.pattern == p for p in inner_patterns):
            continue
        if production.tagged:
            raise ComposeError(
                "tagged outer productions cannot be carried into a nest() "
                "result alongside remapped ids"
            )
        spec = outer.replacement(production.seq_id)
        seq_id = next_id
        next_id += 1
        result.add_replacement(seq_id, spec)
        result.add_production(production.pattern, seq_id=seq_id,
                              name=production.name)
    return result


def merge_nonnested(first: ProductionSet, second: ProductionSet,
                    name=None) -> ProductionSet:
    """Non-nested composition of two transparent ACFs (Figure 5, right).

    Productions with identical patterns are merged by concatenating their
    replacement sequences with a single trigger instance; both sequences
    must end with their (sole) trigger copy — the shape for which simple
    concatenation preserves both meanings.  Other productions are unioned.
    """
    result = ProductionSet(
        name or f"{first.name}|{second.name}",
        scope="kernel" if "kernel" in (first.scope, second.scope) else "user",
    )
    if any(p.tagged for p in first.productions + second.productions):
        raise ComposeError("non-nested merge of tagged productions unsupported")

    second_by_pattern = {p.pattern: p for p in second.productions}
    merged_patterns = set()
    for production in first.productions:
        match = second_by_pattern.get(production.pattern)
        spec_a = first.replacement(production.seq_id)
        if match is None:
            result.define(production.pattern, spec_a, name=production.name)
            continue
        spec_b = second.replacement(match.seq_id)
        merged = concatenate_specs(spec_a, spec_b)
        result.define(production.pattern, merged,
                      name=f"{production.name}|{match.name}")
        merged_patterns.add(production.pattern)
    for production in second.productions:
        if production.pattern in merged_patterns:
            continue
        result.define(production.pattern,
                      second.replacement(production.seq_id),
                      name=production.name)
    return result


def concatenate_specs(spec_a: ReplacementSpec,
                      spec_b: ReplacementSpec) -> ReplacementSpec:
    """Concatenate two sequences keeping a single, final trigger instance."""
    for spec in (spec_a, spec_b):
        offsets = spec.trigger_copy_offsets
        if offsets != (len(spec) - 1,):
            raise ComposeError(
                "simple non-nested merge requires each sequence to end with "
                f"its sole trigger copy; {spec.name!r} does not"
            )
        if any(r.is_dise_branch for r in spec.instrs):
            raise ComposeError(
                "simple non-nested merge of sequences with internal control "
                "flow is unsupported"
            )
    used_a, _ = spec_dedicated_usage(spec_a)
    spec_b = _resolve_conflicts(spec_b, used_a)
    instrs = tuple(spec_a.instrs[:-1]) + tuple(spec_b.instrs)
    return ReplacementSpec(
        instrs=instrs,
        name=f"{spec_a.name}|{spec_b.name}",
        composed_on_fill=spec_a.composed_on_fill or spec_b.composed_on_fill,
    )
