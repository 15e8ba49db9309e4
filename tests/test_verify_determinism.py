"""Determinism pins: every benchmark profile replays bit-identically.

The bisector re-runs executions and assumes the re-run retires exactly the
same stream; these tests pin that assumption for the whole SPECint profile
set, serially and under parallel fan-out, by requiring the same-seed
double-run ``full``-projection observation digests to match exactly.
"""

import pytest

from repro.acf.mfi import attach_mfi
from repro.harness.runner import FUNCTIONAL_DISE, MAX_STEPS
from repro.verify.campaign import observation_digests
from repro.verify.observe import Observer
from repro.workloads import BENCHMARK_NAMES, generate_by_name

SCALE = 0.02


def test_profile_set_is_complete():
    assert len(BENCHMARK_NAMES) == 12


def test_double_run_digests_identical_serial():
    first = observation_digests(BENCHMARK_NAMES, scale=SCALE, jobs=1)
    second = observation_digests(BENCHMARK_NAMES, scale=SCALE, jobs=1)
    assert first == second
    assert set(first) == set(BENCHMARK_NAMES)
    for name, (digest, count) in first.items():
        assert count > 0, name
        assert len(digest) == 64, name


def test_parallel_digests_match_serial(monkeypatch):
    serial = observation_digests(BENCHMARK_NAMES, scale=SCALE, jobs=1)
    monkeypatch.setenv("REPRO_JOBS", "2")
    parallel = observation_digests(BENCHMARK_NAMES, scale=SCALE)
    assert parallel == serial


def _mfi_outcomes(tier):
    """Per profile, the MFI dise3 run's outputs, fault code, retirement
    and expansion counts and full-projection digest on one tier."""
    outcomes = {}
    for name in BENCHMARK_NAMES:
        observer = Observer("full")
        installation = attach_mfi(generate_by_name(name, scale=SCALE),
                                  "dise3")
        result = installation.run(FUNCTIONAL_DISE, record_trace=False,
                                  max_steps=MAX_STEPS, observer=observer,
                                  dispatch=tier)
        outcomes[name] = (tuple(result.outputs), result.fault_code,
                          result.instructions, result.expansions,
                          observer.hexdigest())
    return outcomes


def test_dispatch_tiers_digest_identical(monkeypatch):
    """Translated and generic dispatch retire bit-identical streams.

    The full-projection observation digest covers every retirement's
    architectural effects, so equality here means the superblock
    translation cache is observationally invisible on all 12 profiles,
    for plain installations and under MFI dise3, whose expansions the
    translated tier pre-binds.
    """
    digests = {}
    mfi = {}
    for tier in ("generic", "translated"):
        monkeypatch.setenv("REPRO_DISPATCH", tier)
        digests[tier] = observation_digests(BENCHMARK_NAMES, scale=SCALE,
                                            jobs=1)
        mfi[tier] = _mfi_outcomes(tier)
    assert digests["translated"] == digests["generic"]
    assert mfi["translated"] == mfi["generic"]
    assert all(expansions > 0 for *_, expansions, _digest
               in mfi["translated"].values())


def test_digests_distinguish_profiles():
    digests = observation_digests(BENCHMARK_NAMES, scale=SCALE, jobs=1)
    values = [digest for digest, _ in digests.values()]
    assert len(set(values)) == len(values)


@pytest.mark.parametrize("bench", BENCHMARK_NAMES)
def test_each_profile_double_run(bench):
    first = observation_digests([bench], scale=SCALE, jobs=1)
    second = observation_digests([bench], scale=SCALE, jobs=1)
    assert first == second
