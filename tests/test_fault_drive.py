"""The campaign's drive against the per-step drive it replaced.

``repro.faults.campaign`` runs a state-corruption fault on the translated
tier: it reads, from the variant's unfaulted trace, how many retirements
come before the fault's dynamic site, runs that many, corrupts the
register and runs the rest.  The oracle here is the drive that preceded
it, kept verbatim: one ``Machine.step()`` at a time on the generic tier,
counting app-level arrivals at the site and firing on the *visit*-th.

Every fault of small campaigns (both MFI variants, all seven classes, a
hang and a crash) plus hand-made edge specs must give equal result dicts,
``error`` details included, and must fire at the same retirement.
"""

import numpy as np
import pytest

import repro.faults.campaign as campaign
from repro.acf.base import AcfInstallation
from repro.core.directives import Lit
from repro.errors import ExecutionError, ExecutionTimeout
from repro.faults import FAULT_CLASSES
from repro.faults.campaign import (
    _CAMPAIGN_DISE,
    _bench_for,
    _fault_task,
    _plan_fault,
    _run_variant,
    _summarize,
    CampaignConfig,
)
from repro.faults.inject import FaultSpec, mutate_image, state_mutator
from repro.sim.trace import META_FETCH

#: Seed 17 over bzip2 and gzip has a hang and a crash among its faults.
DISE3 = CampaignConfig(seed=17, faults=40, benchmarks=("bzip2", "gzip"))
DISE4 = CampaignConfig(seed=5, faults=24, benchmarks=("bzip2", "gzip"),
                       variant="dise4")


def _stepwise_drive(machine, site_index, visit, mutator, reg, max_steps):
    """Run to halt, applying the state corruption at the fault's dynamic
    site (the *visit*-th time control reaches it at app level)."""
    fired = mutator is None
    visits = 0
    steps = 0
    while not machine.halted and steps < max_steps:
        if (not fired and machine._exp is None
                and machine.idx == site_index):
            visits += 1
            if visits == visit:
                mutator(machine, reg)
                fired = True
        machine.step()
        steps += 1
    if not machine.halted:
        raise ExecutionTimeout(
            f"faulted run did not halt within {max_steps} dynamic "
            "instructions", steps=max_steps, index=machine.idx,
        )


def _stepwise_variant(spec, bench, mfi, mutator):
    """One faulted program under one variant, stepped on the generic
    tier."""
    base = bench.mfi if mfi else bench.plain
    if mutator is None:
        installation = AcfInstallation(
            image=mutate_image(spec, bench.image),
            production_sets=base.production_sets,
            init_machine=base.init_machine, name=base.name,
        )
        site_index = reg = None
    else:
        installation = base
        site_index = bench.image.index_of_addr[spec.site_pc]
        reg = bench.image.instructions[site_index].rs
    machine = installation.make_machine(
        _CAMPAIGN_DISE if mfi else None, record_trace=False,
        dispatch="generic",
    )
    try:
        _stepwise_drive(machine, site_index, spec.visit, mutator, reg,
                        bench.max_steps)
    except ExecutionTimeout as exc:
        return {"status": "hang", "error": exc.details()}
    except ExecutionError as exc:
        return {"status": "crash", "error": exc.details()}
    return _summarize(machine.fault_code, machine.halted,
                      machine.outputs, machine.mem)


def _recording(mutator, fired):
    """Wrap a state mutator to log where it fires: (retirements, index,
    at app level)."""
    if mutator is None:
        return None

    def record(machine, reg):
        fired.append((machine.instructions, machine.idx,
                      machine._exp is None))
        mutator(machine, reg)

    return record


def _both_drives(spec, bench, mfi, monkeypatch):
    """Result dicts and firing points of both drives for one variant."""
    fired_new, fired_old = [], []
    monkeypatch.setattr(campaign, "state_mutator",
                        lambda s: _recording(state_mutator(s), fired_new))
    new = _run_variant(spec, bench, mfi)
    old = _stepwise_variant(
        spec, bench, mfi, _recording(state_mutator(spec), fired_old))
    return (new, fired_new), (old, fired_old)


def _campaign_specs(config):
    for index in range(config.faults):
        _, _, _, bench, spec = _plan_fault(_fault_task(config, index).params)
        if spec is not None:
            yield bench, spec


class TestDriveEquivalence:
    @pytest.mark.parametrize("config", [DISE3, DISE4],
                             ids=["dise3-seed17", "dise4-seed5"])
    def test_campaign_faults_match_stepwise_drive(self, config,
                                                  monkeypatch):
        statuses = set()
        for bench, spec in _campaign_specs(config):
            for mfi in (False, True):
                new, old = _both_drives(spec, bench, mfi, monkeypatch)
                assert new == old, (spec, mfi)
                statuses.add(new[0]["status"])
                if state_mutator(spec) is not None:
                    # Every planted visit exists in the unfaulted run.
                    assert len(new[1]) == 1 and new[1][0][2], (spec, mfi)
        if config is DISE3:
            assert {"hang", "crash", "halt", "fault"} <= statuses

    def test_both_configs_cover_every_class(self):
        classes = {spec.fault_class for config in (DISE3, DISE4)
                   for _, spec in _campaign_specs(config)}
        assert classes == set(FAULT_CLASSES)

    @pytest.mark.parametrize("variant", ["dise3", "dise4"])
    def test_visit_beyond_last_arrival_never_fires(self, variant,
                                                   monkeypatch):
        bench = _bench_for("gzip", 0.05, variant, 2_000_000)
        pc, _, _ = bench.profile.loads[0]
        arrivals = max(visit for site, visit, _ in bench.profile.loads
                       if site == pc)
        spec = FaultSpec("edge-late", "gzip", "oob_load", pc, arrivals + 1,
                         guarded=True, detail=(("value", 3 << 26),))
        for mfi in (False, True):
            new, old = _both_drives(spec, bench, mfi, monkeypatch)
            assert new == old
            assert new[1] == []
            assert new[0] == (bench.mfi_base if mfi else bench.plain_base)

    @pytest.mark.parametrize("variant", ["dise3", "dise4"])
    def test_arrival_at_step_zero(self, variant, monkeypatch):
        bench = _bench_for("bzip2", 0.05, variant, 2_000_000)
        entry_pc = bench.image.addresses[bench.image.entry_index]
        spec = FaultSpec("edge-entry", "bzip2", "heap_overrun", entry_pc, 1,
                         guarded=False, detail=(("delta", 1 << 12),))
        for mfi in (False, True):
            assert bench.arrival(mfi, entry_pc, 1) == 0
            new, old = _both_drives(spec, bench, mfi, monkeypatch)
            assert new == old
            assert new[1] == [(0, bench.image.entry_index, True)]

    @pytest.mark.parametrize("variant", ["dise3", "dise4"])
    def test_no_body_reenters_disepc_zero(self, variant):
        """A branch back to DISEPC 0 would record a second fetch op for
        one arrival, and the arrival count would overshoot."""
        bench = _bench_for("gzip", 0.05, variant, 2_000_000)
        for pset in bench.mfi.production_sets:
            for spec in pset.replacements.values():
                for rinstr in spec:
                    assert not (rinstr.is_dise_branch
                                and rinstr.imm == Lit(0)), rinstr
        trace = bench.mfi.run(_CAMPAIGN_DISE, max_steps=bench.max_steps)
        meta = np.frombuffer(trace.columns.meta, dtype=np.uint64)
        assert np.count_nonzero(meta & META_FETCH) == trace.app_instructions

    @pytest.mark.parametrize("mfi", [False, True])
    def test_budget_spent_after_the_fault(self, mfi):
        """No planted state fault hangs, so cut the budget short, inside
        the MFI check's replacement body: the timeout must name the
        whole budget and stop at the same PC:DISEPC as the stepwise
        drive's."""
        bench, spec = next((bench, spec)
                           for bench, spec in _campaign_specs(DISE3)
                           if state_mutator(spec) is not None)
        base = bench.mfi if mfi else bench.plain
        site_index = bench.image.index_of_addr[spec.site_pc]
        reg = bench.image.instructions[site_index].rs
        arrival = bench.arrival(mfi, spec.site_pc, spec.visit)
        budget = arrival + 2
        stops = []
        for dispatch in (None, "generic"):
            machine = base.make_machine(_CAMPAIGN_DISE if mfi else None,
                                        record_trace=False,
                                        dispatch=dispatch)
            with pytest.raises(ExecutionTimeout) as exc:
                if dispatch is None:
                    campaign._drive(machine, arrival, state_mutator(spec),
                                    reg, budget)
                else:
                    _stepwise_drive(machine, site_index, spec.visit,
                                    state_mutator(spec), reg, budget)
            stops.append((exc.value.details(), machine.instructions,
                          machine.idx, machine._disepc, list(machine.regs)))
        assert stops[0] == stops[1]
        assert stops[0][0]["steps"] == budget
        assert stops[0][3] == (2 if mfi else 0)
