"""Unit and property tests for the cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cache import (
    FETCH_L2_HIT,
    FETCH_L2_MISS,
    MEM_SHIFT,
    Cache,
    CacheConfig,
    PerfectCache,
    replay_hierarchy,
)
from repro.sim.memory import Memory
from repro.sim.trace import META_FETCH, META_MEM, META_STORE, OpColumns


def make_cache(size=1024, assoc=2, line=64):
    return Cache(CacheConfig(size_bytes=size, assoc=assoc, line_bytes=line))


class TestGeometry:
    def test_derived_counts(self):
        config = CacheConfig(size_bytes=32 * 1024, assoc=2, line_bytes=64)
        assert config.num_lines == 512
        assert config.num_sets == 256

    @pytest.mark.parametrize("kwargs", [
        dict(size_bytes=0, assoc=1),
        dict(size_bytes=100, assoc=1, line_bytes=64),   # not a multiple
        dict(size_bytes=128, assoc=3, line_bytes=64),   # lines % assoc
        dict(size_bytes=64, assoc=1, line_bytes=0),
        dict(size_bytes=192, assoc=1, line_bytes=48),   # not a power of 2
    ])
    def test_bad_geometry(self, kwargs):
        with pytest.raises(ValueError):
            CacheConfig(**kwargs)


class TestBehaviour:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        assert cache.access(0x1000) is False
        assert cache.access(0x1000) is True
        assert cache.access(0x1004) is True, "same line"
        assert cache.misses == 1

    def test_line_granularity(self):
        cache = make_cache(line=64)
        cache.access(0x1000)
        assert cache.access(0x103F) is True
        assert cache.access(0x1040) is False

    def test_conflict_eviction_direct_mapped(self):
        cache = make_cache(size=128, assoc=1, line=64)   # 2 sets
        cache.access(0x0)
        cache.access(0x80)    # same set, evicts 0x0
        assert cache.access(0x0) is False

    def test_associativity_avoids_conflict(self):
        cache = make_cache(size=256, assoc=2, line=64)   # 2 sets, 2-way
        cache.access(0x0)
        cache.access(0x100)   # same set, second way
        assert cache.access(0x0) is True

    def test_lru_replacement(self):
        cache = make_cache(size=128, assoc=2, line=64)   # 1 set, 2-way
        cache.access(0x0)
        cache.access(0x40)
        cache.access(0x0)     # touch 0x0: 0x40 becomes LRU
        cache.access(0x80)    # evicts 0x40
        assert cache.access(0x0) is True
        assert cache.access(0x40) is False

    def test_probe_does_not_mutate(self):
        cache = make_cache()
        cache.access(0x1000)
        before = cache.accesses
        assert cache.probe(0x1000) is True
        assert cache.probe(0x2000) is False
        assert cache.accesses == before

    def test_invalidate(self):
        cache = make_cache()
        cache.access(0x1000)
        cache.invalidate()
        assert cache.access(0x1000) is False

    def test_stats(self):
        cache = make_cache()
        cache.access(0x0)
        cache.access(0x0)
        assert cache.hits == 1
        assert cache.miss_rate == 0.5


class TestPerfectCache:
    def test_always_hits(self):
        cache = PerfectCache()
        assert cache.access(0xDEADBEEF) is True
        assert cache.miss_rate == 0.0
        assert cache.hits == cache.accesses == 1


class TestCapacityMonotonicity:
    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=400))
    def test_whole_trace_fits_big_cache(self, addrs):
        """A cache larger than the touched footprint sees only cold misses."""
        big = make_cache(size=1 << 21, assoc=4)
        lines = {a >> 6 for a in addrs}
        for addr in addrs:
            big.access(addr)
        assert big.misses == len(lines)

    @given(st.lists(st.integers(0, 1 << 14), min_size=1, max_size=300))
    def test_fully_associative_dominates_capacity(self, addrs):
        """At equal capacity, more associativity never hurts an LRU cache
        on this reference stream replayed twice."""
        stream = addrs + addrs
        low = make_cache(size=1024, assoc=1)
        high = make_cache(size=1024, assoc=16)
        for addr in stream:
            low.access(addr)
        for addr in stream:
            high.access(addr)
        assert high.misses <= low.misses * 2  # LRU anomaly guard, loose bound


def scalar_hierarchy(columns, il1_config, dl1_config, l2_config, passes):
    """The per-access oracle for :func:`replay_hierarchy`: one live cache
    per level, every op's fetch then its data access, ``passes`` times,
    recording the last pass."""
    il1, dl1, l2 = (Cache(c) if c is not None else PerfectCache()
                    for c in (il1_config, dl1_config, l2_config))
    codes = bytearray(len(columns.pc))
    l2_misses = 0
    for p in range(passes):
        for cache in (il1, dl1, l2):
            cache.accesses = cache.misses = 0
        l2_misses = 0
        for i, meta in enumerate(columns.meta):
            code = 0
            if meta & META_FETCH and not il1.access(columns.pc[i]):
                code = FETCH_L2_HIT if l2.access(columns.pc[i]) \
                    else FETCH_L2_MISS
            if meta & META_MEM:
                addr = columns.mem[i]
                if meta & META_STORE:
                    dl1.access(addr)
                elif not dl1.access(addr):
                    code |= (FETCH_L2_HIT if l2.access(addr)
                             else FETCH_L2_MISS) << MEM_SHIFT
            l2_misses += (code & 3 == FETCH_L2_MISS) + \
                (code >> MEM_SHIFT == FETCH_L2_MISS)
            codes[i] = code
    return (bytes(codes), il1.accesses, il1.misses, dl1.accesses,
            dl1.misses, l2_misses)


#: Line-aligned bases, two of them at or above 2**63, so that random
#: offsets revisit lines and sets often enough to hit and to evict.
_BASES = (0, 1 << 20, 1 << 63, (1 << 64) - (1 << 12))

addresses = st.one_of(
    st.builds(lambda base, offset: base + offset,
              st.sampled_from(_BASES), st.integers(0, (1 << 12) - 1)),
    st.integers(0, (1 << 64) - 1),
)

#: (has fetch, data access: None / "load" / "store", pc, data address).
ops = st.tuples(st.booleans(), st.sampled_from((None, "load", "store")),
                addresses, addresses)


@st.composite
def geometries(draw):
    """A cache level, or None for a perfect one; set counts include
    non-powers of two, associativities include 3."""
    if draw(st.booleans()) and draw(st.booleans()):
        return None
    line = draw(st.sampled_from((16, 32, 64)))
    assoc = draw(st.sampled_from((1, 2, 3, 4, 8)))
    sets = draw(st.sampled_from((1, 2, 3, 4, 16)))
    return CacheConfig(size_bytes=line * assoc * sets, assoc=assoc,
                       line_bytes=line)


def op_columns(stream):
    columns = OpColumns()
    for has_fetch, data, pc, addr in stream:
        columns.append(pc, 0, 0, 0, None, None if data is None else addr,
                       data == "store", has_fetch, None, False, None, True,
                       None)
    return columns


class TestReplayHierarchy:
    """The outcome engine's per-level NumPy replay equals one live
    :class:`Cache` per level called access by access."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ops, max_size=80), geometries(), geometries(),
           geometries())
    def test_matches_scalar_caches(self, stream, il1, dl1, l2):
        columns = op_columns(stream)
        for passes in (1, 2):
            out = replay_hierarchy(columns, il1, dl1, l2, passes=passes)
            counters = (out.il1_accesses, out.il1_misses, out.dl1_accesses,
                        out.dl1_misses, out.l2_misses)
            assert (out.codes, *counters) == \
                scalar_hierarchy(columns, il1, dl1, l2, passes), passes
            # Plain ints, not NumPy scalars: they land in CycleResult.
            assert all(type(value) is int for value in counters)


class TestMemory:
    def test_zero_default(self):
        assert Memory().read(0x1234) == 0

    def test_word_aligned_addressing(self):
        mem = Memory()
        mem.write(0x1003, 7)
        assert mem.read(0x1000) == 7

    def test_64_bit_wrap(self):
        mem = Memory()
        mem.write(0, 1 << 70)
        assert mem.read(0) == 0

    def test_snapshot_restore(self):
        mem = Memory({0: 1})
        snap = mem.snapshot()
        mem.write(0, 2)
        mem.restore(snap)
        assert mem.read(0) == 1

    def test_equality_ignores_explicit_zeros(self):
        a = Memory({0: 0, 8: 5})
        b = Memory({8: 5})
        assert a == b
