"""Equality and memo tests for the two timing-replay engines.

The outcome engine (``REPRO_CYCLE=outcome``, the default) must be
bit-identical to the reference scalar loop for every ``CycleResult``
field, every retire-observer callback, and every published telemetry
counter — across the full 12-profile config grid the figures sweep
(placements, widths, RT geometries, perfect/real caches, warm/cold).
The memo tests pin the accelerator state's lifecycle: component columns
are reused across config sweeps, never serialized, and the reference
engine's warm-state memo evicts in true LRU order.
"""

import dataclasses

import pytest

from repro.core.config import DiseConfig
from repro.harness.trace_cache import deserialize_trace, serialize_trace
from repro.sim.cache import CacheConfig
from repro.sim.config import (
    KB,
    MachineConfig,
    dl1_config,
    il1_config,
    l2_config,
)
from repro.sim.cycle import (
    CycleSimulator,
    resolve_cycle_engine,
    simulate_trace,
)
from repro.telemetry import registry as _telemetry
from repro.workloads.generator import generate_benchmark
from repro.workloads.specint import BENCHMARK_NAMES, get_profile

SCALE = 0.1


@pytest.fixture(scope="module")
def traces():
    """One MFI trace per SPECint profile, scaled down for test runtime."""
    from repro.acf.mfi import attach_mfi

    out = {}
    for bench in BENCHMARK_NAMES:
        image = generate_benchmark(get_profile(bench), scale=SCALE)
        out[bench] = attach_mfi(image, "dise4").run()
    return out


def config_grid():
    """The axes the figures and ablations sweep: placements, widths, RT
    geometries, the Figure 6 I-cache ladder, perfect/real caches,
    replacement-branch prediction — plus cache geometries the figures do
    not sweep (direct-mapped and 4-way L1s, a 32-byte line, an L2 small
    enough to evict), which reach every path of the per-level replay."""
    base = MachineConfig()
    grid = [("base", base)]
    for placement in ("free", "stall", "pipe"):
        grid.append((f"placement-{placement}",
                     MachineConfig(dise=DiseConfig(placement=placement))))
    for width in (2, 8):
        grid.append((f"width-{width}", base.with_changes(width=width)))
    grid.append(("rt-tiny", MachineConfig(
        dise=DiseConfig(placement="pipe", rt_entries=4, rt_assoc=1))))
    grid.append(("rt-64", MachineConfig(
        dise=DiseConfig(rt_entries=64, rt_assoc=1))))
    grid.append(("rt-perfect", MachineConfig(
        dise=DiseConfig(placement="pipe", rt_perfect=True))))
    grid.append(("il1-4k", base.with_il1_size(4 * KB)))
    # Figure 6's I-cache ladder (32 KB is the base) over the real DL1/L2.
    for size in (8, 128):
        grid.append((f"il1-{size}k", base.with_il1_size(size * KB)))
    grid.append(("il1-perfect", base.with_il1_size(None)))
    for assoc in (1, 4):
        grid.append((f"l1-{assoc}-way", base.with_changes(
            il1=CacheConfig(32 * KB, assoc, name="il1"),
            dl1=CacheConfig(32 * KB, assoc, name="dl1"))))
    grid.append(("line-32", base.with_changes(
        il1=CacheConfig(32 * KB, 2, line_bytes=32, name="il1"),
        dl1=CacheConfig(32 * KB, 2, line_bytes=32, name="dl1"),
        l2=CacheConfig(1024 * KB, 4, line_bytes=32, hit_latency=12,
                       name="l2"))))
    # A 16 KB 4-way L2 under 8 KB L1s: L2 evicts, so its outcomes depend
    # on how IL1 and DL1 misses interleave.
    grid.append(("l2-16k", base.with_changes(
        il1=il1_config(8 * KB), dl1=dl1_config(8 * KB),
        l2=l2_config(16 * KB))))
    grid.append(("perfect-caches", base.with_changes(
        il1=None, dl1=None, l2=None)))
    grid.append(("no-predict-replacement", base.with_changes(
        predict_replacement_branches=False)))
    return grid


def result_fields(result):
    return {f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)}


def assert_identical(trace, config, warm_start):
    ref = simulate_trace(trace, config, warm_start=warm_start,
                         engine="reference")
    out = simulate_trace(trace, config, warm_start=warm_start,
                         engine="outcome")
    ref_fields = result_fields(ref)
    out_fields = result_fields(out)
    diffs = {name: (ref_fields[name], out_fields[name])
             for name in ref_fields if ref_fields[name] != out_fields[name]}
    assert not diffs, (config, warm_start, diffs)


class TestEngineResolution:
    def test_default_is_outcome(self, monkeypatch):
        monkeypatch.delenv("REPRO_CYCLE", raising=False)
        assert resolve_cycle_engine() == "outcome"

    def test_env_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_CYCLE", "reference")
        assert resolve_cycle_engine() == "reference"

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CYCLE", "reference")
        assert resolve_cycle_engine("outcome") == "outcome"

    def test_invalid_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_cycle_engine("speculative")
        monkeypatch.setenv("REPRO_CYCLE", "speculative")
        with pytest.raises(ValueError):
            resolve_cycle_engine()

    def test_simulator_resolves(self):
        assert CycleSimulator(engine="reference").engine == "reference"
        assert CycleSimulator().engine == resolve_cycle_engine()


class TestConfigGridEquality:
    """Every CycleResult field identical, per profile, over the grid."""

    @pytest.mark.parametrize("bench", BENCHMARK_NAMES)
    def test_profile_grid(self, traces, bench):
        trace = traces[bench]
        for _label, config in config_grid():
            assert_identical(trace, config, warm_start=True)

    def test_cold_replays(self, traces):
        trace = traces["mcf"]
        for _label, config in config_grid():
            assert_identical(trace, config, warm_start=False)

    def test_observer_and_telemetry_identical(self, traces):
        trace = traces["gcc"]
        config = MachineConfig(dise=DiseConfig(placement="stall"))
        streams = {}
        counters = {}
        for engine in ("reference", "outcome"):
            retired = []
            with _telemetry.enabled_scope(True):
                before = _telemetry.snapshot()
                simulate_trace(
                    trace, config, warm_start=True,
                    retire_observer=lambda op, t: retired.append(
                        (op.pc, t)),
                    engine=engine)
                delta = _telemetry.snapshot_delta(before,
                                                  _telemetry.snapshot())
            streams[engine] = retired
            counters[engine] = {k: v for k, v in delta.items()
                                if k.startswith("cycle.")
                                and not k.startswith("cycle.outcome.")}
        assert streams["reference"] == streams["outcome"]
        assert counters["reference"] == counters["outcome"]


def counter_value(delta, name):
    entry = delta.get(name)
    return entry["value"] if entry else 0


class TestOutcomeMemos:
    def test_sweep_reuses_component_columns(self, traces):
        """A placement/width sweep recomputes nothing after the first
        replay; an RT-geometry sweep recomputes only the RT column."""
        trace = traces["mcf"]
        base = MachineConfig()
        with _telemetry.enabled_scope(True):
            simulate_trace(trace, base, warm_start=True, engine="outcome")

            def delta_for(config):
                before = _telemetry.snapshot()
                simulate_trace(trace, config, warm_start=True,
                               engine="outcome")
                return _telemetry.snapshot_delta(before,
                                                 _telemetry.snapshot())

            sweep = delta_for(MachineConfig(
                dise=DiseConfig(placement="stall")))
            # Same components, different placement: every Phase A column
            # is a memo hit.
            for component in ("mem", "ctrl", "rt"):
                assert counter_value(
                    sweep, f"cycle.outcome.{component}.misses"
                ) == 0, (component, sweep)
            rt_sweep = delta_for(MachineConfig(
                dise=DiseConfig(rt_entries=64, rt_assoc=1)))
            assert counter_value(rt_sweep, "cycle.outcome.rt.misses") == 1
            assert counter_value(rt_sweep, "cycle.outcome.mem.misses") == 0
            assert counter_value(rt_sweep, "cycle.outcome.ctrl.misses") == 0

    def test_memos_are_transient_across_serialization(self, traces):
        """An RDTC3 round-trip carries no memo state and recomputes
        correctly."""
        trace = traces["vortex"]
        config = MachineConfig()
        original = simulate_trace(trace, config, warm_start=True,
                                  engine="outcome")
        assert trace._outcome_memos, "outcome replay left no memo state"
        assert trace._static_cols is not None
        restored = deserialize_trace(serialize_trace(trace))
        assert restored._outcome_memos is None
        assert restored._static_cols is None
        assert restored._warm_states is None
        replayed = simulate_trace(restored, config, warm_start=True,
                                  engine="outcome")
        assert result_fields(replayed) == result_fields(original)


class TestWarmMemoLRU:
    def test_interleaved_sweep_keeps_hot_entry(self, traces):
        """An 8+1-geometry interleaved sweep keeps the hot geometry
        resident: hits refresh recency, so the 9 cold geometries evict
        each other instead of the entry every other replay touches."""
        from repro.sim.cycle import _WARM_MEMO_LIMIT

        trace = traces["gzip"]
        hot = MachineConfig()
        hot_signature = CycleSimulator(hot)._warm_signature()
        cold = [hot.with_il1_size((4 + i) * KB)
                for i in range(_WARM_MEMO_LIMIT + 1)]
        assert len({CycleSimulator(c)._warm_signature() for c in cold}
                   | {hot_signature}) == _WARM_MEMO_LIMIT + 2

        simulate_trace(trace, hot, warm_start=True, engine="reference")
        for config in cold:
            simulate_trace(trace, config, warm_start=True,
                           engine="reference")
            # The interleaved hot replay must hit the memo every time.
            states = trace._warm_states
            assert hot_signature in states
            simulate_trace(trace, hot, warm_start=True, engine="reference")
        assert hot_signature in trace._warm_states
        assert len(trace._warm_states) <= _WARM_MEMO_LIMIT
