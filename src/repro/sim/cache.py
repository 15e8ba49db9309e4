"""Set-associative cache model with LRU replacement.

Used for the instruction cache, data cache, and unified L2 of the timing
model (Section 4: 32 KB I and D caches, unified 1 MB L2).  The model tracks
hits and misses only — contents are never stored, since the simulators keep
architectural state separately.

Two implementations share these semantics.  :class:`Cache` is the live
per-access model the reference cycle engine calls: each set is an ordered
dict of resident tags (LRU order), so lookups are O(1).
:func:`replay_hierarchy` computes a whole trace's outcomes for the outcome
engine instead, replaying each level once over the line stream that
reaches it with NumPy passes (:func:`lru_misses`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 1
    name: str = "cache"

    def __post_init__(self):
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ValueError("cache dimensions must be positive")
        lines = self.size_bytes // self.line_bytes
        if lines == 0 or self.size_bytes % self.line_bytes:
            raise ValueError("size must be a positive multiple of line size")
        if lines % self.assoc:
            raise ValueError("line count must be a multiple of associativity")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.assoc


class Cache:
    """One cache level.  ``access`` returns True on hit."""

    __slots__ = ("config", "_sets", "_offset_bits", "_num_sets", "_assoc",
                 "accesses", "misses")

    def __init__(self, config: CacheConfig):
        self.config = config
        # One LRU-ordered dict per set, pre-allocated so the access path is
        # a plain list index.
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(config.num_sets)
        ]
        self._offset_bits = config.line_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self.accesses = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Access the line containing ``addr``; fill on miss; True on hit."""
        self.accesses += 1
        line = addr >> self._offset_bits
        entry_set = self._sets[line % self._num_sets]
        tag = line // self._num_sets
        if tag in entry_set:
            entry_set.move_to_end(tag)
            return True
        self.misses += 1
        if len(entry_set) >= self._assoc:
            entry_set.popitem(last=False)
        entry_set[tag] = True
        return False

    def probe(self, addr: int) -> bool:
        """Check residence without updating state or statistics."""
        line = addr >> self._offset_bits
        return (line // self._num_sets) in self._sets[line % self._num_sets]

    def invalidate(self):
        for entry_set in self._sets:
            entry_set.clear()

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


# ----------------------------------------------------------------------
# Phase-A outcome pass (see repro.sim.cycle, "outcome" engine)
# ----------------------------------------------------------------------
#: Packed per-op hierarchy outcome codes.  Bits 0..1 describe the fetch
#: access (0 = no access or IL1 hit, 1 = L2 hit, 2 = L2 miss); bits 2..3
#: describe the load access the same way (stores and DL1 hits are 0 —
#: stores retire via the store buffer and add no latency).
FETCH_L2_HIT = 1
FETCH_L2_MISS = 2
MEM_SHIFT = 2


class HierarchyOutcomes:
    """Result of one :func:`replay_hierarchy` pass: the packed per-op
    outcome column plus the access/miss totals the timing model reports."""

    __slots__ = ("codes", "il1_accesses", "il1_misses", "dl1_accesses",
                 "dl1_misses", "l2_misses")

    def __init__(self, codes, il1_accesses, il1_misses, dl1_accesses,
                 dl1_misses, l2_misses):
        self.codes = codes
        self.il1_accesses = il1_accesses
        self.il1_misses = il1_misses
        self.dl1_accesses = dl1_accesses
        self.dl1_misses = dl1_misses
        self.l2_misses = l2_misses


def lru_misses(lines, num_sets, assoc):
    """Miss mask of one LRU level, cold at the start, over ``lines``.

    ``lines`` is a uint64 array of line numbers (address >> offset bits)
    in access order; the result is a bool array aligned with it.  Sets
    evolve independently, so a stable sort by set index lays out each
    set's accesses in their own order.  A repeat of the set's MRU line
    hits and changes no LRU state, so repeats are collapsed out first
    (equal lines always share a set, so comparing neighbours is enough).
    In the collapsed stream every direct-mapped access misses, and a
    2-way access hits iff its line equals the line two collapsed accesses
    back: after each access the set holds exactly the last two distinct
    lines.  Any other associativity walks the collapsed stream once.
    """
    n = len(lines)
    order = None
    if num_sets > 1:
        # Narrow set indices sort by radix (8 or 16 bits) instead of merge.
        sets = (lines % np.uint64(num_sets)).astype(
            np.min_scalar_type(num_sets - 1))
        order = np.argsort(sets, kind="stable")
        lines = lines[order]
    miss = np.ones(n, dtype=bool)
    miss[1:] = lines[1:] != lines[:-1]
    if assoc > 1:
        heads = np.flatnonzero(miss)
        stream = lines[heads]
        if assoc == 2:
            head_miss = np.ones(len(stream), dtype=bool)
            head_miss[2:] = stream[2:] != stream[:-2]
        else:
            head_miss = _lru_walk(stream.tolist(), assoc)
        miss[heads] = head_miss
    if order is None:
        return miss
    out = np.empty(n, dtype=bool)
    out[order] = miss
    return out


def _lru_walk(stream, assoc):
    """:func:`lru_misses` for associativities above 2, over the collapsed,
    set-sorted ``stream``.  One LRU-ordered dict of ``assoc`` lines serves
    every set in turn: the lines of sets already walked are less recent
    than any line of the current set and never match it, so they are the
    first to be evicted."""
    miss = np.ones(len(stream), dtype=bool)
    resident = OrderedDict()
    for k, line in enumerate(stream):
        if line in resident:
            resident.move_to_end(line)
            miss[k] = False
        else:
            if len(resident) >= assoc:
                resident.popitem(last=False)
            resident[line] = True
    return miss


def _level_misses(config, addrs):
    """Miss mask of one level (None = perfect) over the uint64 ``addrs``."""
    if config is None:
        return np.zeros(len(addrs), dtype=bool)
    # Shift in uint64: addresses at or above 2**63 keep their line number.
    lines = addrs >> np.uint64(config.line_bytes.bit_length() - 1)
    return lru_misses(lines, config.num_sets, config.assoc)


def replay_hierarchy(columns, il1_config, dl1_config, l2_config,
                     passes=1) -> HierarchyOutcomes:
    """Replay a trace's address stream through the {IL1, DL1, L2} hierarchy.

    Cache behaviour is a pure function of the address stream and the
    geometry, so it can be simulated once per (trace, geometry) and the
    resulting outcome column replayed under any placement/width/window
    configuration — the decoupled-outcome move of the cycle simulator's
    "outcome" engine.

    Each level replays only the accesses that reach it, as one
    :func:`lru_misses` pass: IL1 the fetch ops' lines, DL1 the memory
    ops' lines, and L2 the IL1 misses merged with the DL1 *load* misses
    (stores retire via the store buffer and never reach L2) in the
    reference loop's order — op by op, the fetch before the data access.
    L2 contents depend on that interleave, so L2 outcomes (and the packed
    codes) are keyed by all three geometries together.

    ``passes=2`` models ``warm_start``: each level's stream is tiled, the
    first copy only evolves cache state and the second records outcomes
    and counters — exactly the reference engine's warm pass followed by
    its measured pass.
    """
    # Imported here (not at module level) to keep this leaf module free of
    # an import cycle with repro.sim.trace consumers.
    from repro.sim.trace import META_FETCH, META_MEM, META_STORE

    n = len(columns.pc)
    meta = np.frombuffer(columns.meta, dtype=np.uint64)
    fetch_ops = np.flatnonzero(meta & META_FETCH)
    mem_ops = np.flatnonzero(meta & META_MEM)
    fetch_addrs = np.tile(
        np.frombuffer(columns.pc, dtype=np.uint64)[fetch_ops], passes)
    mem_addrs = np.tile(
        np.frombuffer(columns.mem, dtype=np.uint64)[mem_ops], passes)
    is_load = np.tile((meta[mem_ops] & META_STORE) == 0, passes)
    il1_miss = _level_misses(il1_config, fetch_addrs)
    dl1_miss = _level_misses(dl1_config, mem_addrs)

    # The L2 stream in access order: slot 2*(p*n + i) is op i's fetch in
    # pass p and the slot after it the op's data access.
    pass_base = n * np.arange(passes)[:, None]
    fetch_to_l2 = np.flatnonzero(il1_miss)
    load_to_l2 = np.flatnonzero(dl1_miss & is_load)
    fetch_slots = 2 * (fetch_ops + pass_base).ravel()
    mem_slots = 2 * (mem_ops + pass_base).ravel() + 1
    order = np.argsort(np.concatenate(
        (fetch_slots[fetch_to_l2], mem_slots[load_to_l2])), kind="stable")
    l2_addrs = np.concatenate(
        (fetch_addrs[fetch_to_l2], mem_addrs[load_to_l2]))[order]
    l2_miss = np.empty(len(order), dtype=bool)
    l2_miss[order] = _level_misses(l2_config, l2_addrs)

    # Per-access outcome: 0 = L1 hit (or store), FETCH_L2_HIT, FETCH_L2_MISS.
    fetch_code = np.zeros(len(fetch_addrs), dtype=np.uint8)
    fetch_code[fetch_to_l2] = FETCH_L2_HIT + l2_miss[:len(fetch_to_l2)]
    mem_code = np.zeros(len(mem_addrs), dtype=np.uint8)
    mem_code[load_to_l2] = FETCH_L2_HIT + l2_miss[len(fetch_to_l2):]

    # The recorded pass is the last copy of each tiled stream.
    fetch_last = (passes - 1) * len(fetch_ops)
    mem_last = (passes - 1) * len(mem_ops)
    fetch_code = fetch_code[fetch_last:]
    mem_code = mem_code[mem_last:]
    codes = np.zeros(n, dtype=np.uint8)
    codes[fetch_ops] = fetch_code
    codes[mem_ops] |= mem_code << MEM_SHIFT
    l2_misses = int(np.count_nonzero(fetch_code == FETCH_L2_MISS)
                    + np.count_nonzero(mem_code == FETCH_L2_MISS))
    return HierarchyOutcomes(
        codes.tobytes(),
        len(fetch_ops), int(np.count_nonzero(il1_miss[fetch_last:])),
        len(mem_ops), int(np.count_nonzero(dl1_miss[mem_last:])),
        l2_misses,
    )


class PerfectCache:
    """A cache that always hits (the paper's 'perfect' I-cache points)."""

    __slots__ = ("accesses", "misses")

    def __init__(self):
        self.accesses = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        self.accesses += 1
        return True

    def probe(self, addr: int) -> bool:
        return True

    def invalidate(self):
        pass

    @property
    def hits(self) -> int:
        return self.accesses

    @property
    def miss_rate(self) -> float:
        return 0.0
