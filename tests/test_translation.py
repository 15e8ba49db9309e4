"""Superblock translation cache: precise state, invalidation, sharing.

The translated dispatch tier pre-decodes basic blocks (including
instantiated DISE replacement bodies) into pre-bound handler thunks that
live in an image-wide store shared by every machine running the same
production set.  These tests pin the properties the tier must preserve:

* precise PC:DISEPC state — checkpoints taken at any retirement boundary
  (including mid-sequence) restore and replay bit-identically, and the
  step budget / :class:`ExecutionTimeout` fires after exactly the same
  number of dynamic instructions as the interpretive tiers;
* production-set invalidation — controller swaps re-bind a live machine
  to the store entry for the new active set without destroying warm
  translations for other sets; in-place invalidation clears everything;
* cross-machine sharing — a fresh machine on a warm image starts with
  the translated superblocks already attached, even under a different
  controller holding an equal production set;
* observational equivalence — serialized traces, verify-observer digests,
  and interrupted-and-resumed fault campaigns agree with the generic
  reference tier.
"""

import json

import pytest

from repro.core.controller import DiseController
from repro.core.language import parse_productions
from repro.errors import ExecutionTimeout
from repro.faults.campaign import (
    CampaignConfig,
    CampaignInterrupted,
    run_campaign,
)
from repro.harness.trace_cache import serialize_trace
from repro.isa.build import Imm, bis, bne, halt, out, stq, subq
from repro.isa.registers import dise_reg
from repro.program.builder import ProgramBuilder
from repro.sim.functional import Machine
from repro.verify.observe import Observer

from conftest import A1, T0, ZERO

TIERS = ("generic", "translated")

#: The MFI-style store check from the precise-state tests: every store's
#: address is segment-checked against $dr2 before it retires.  The branch
#: target is never taken when $dr2 is seeded correctly.
MFI_PSET = """
P1: T.OPCLASS == store -> R1
R1:
    srl   T.RS, #26, $dr1
    xor   $dr1, $dr2, $dr1
    bne   $dr1, @0x400100
    T.INSN
"""

#: A second, distinguishable production set for swap tests: count every
#: store in $dr0 instead of checking it.
AUDIT_PSET = """
P1: T.OPCLASS == store -> R1
R1:
    addq  $dr0, #1, $dr0
    T.INSN
"""


def build_loop_image(trips=4):
    """A store loop: the loop entry is revisited, so the warmup gate
    admits it and the translated tier actually builds superblocks (a
    straight-line program would run entirely interpretively)."""
    b = ProgramBuilder()
    b.alloc_data("buf", 1, init=[0])
    b.label("main")
    b.load_address(A1, "buf")
    b.emit(bis(ZERO, Imm(trips), T0))
    b.label("loop")
    b.emit(stq(T0, 0, A1))
    b.emit(subq(T0, Imm(1), T0))
    b.emit(bne(T0, "loop"))
    b.emit(out(T0))
    b.emit(halt())
    b.label("handler")
    b.emit(out(ZERO))
    b.emit(halt())
    return b.build()


def make_machine(dispatch, image=None, controller=None, observer=None,
                 source=MFI_PSET):
    if image is None:
        image = build_loop_image()
    if controller is None:
        controller = DiseController()
        controller.install(parse_productions(source))
    machine = Machine(image, controller=controller, dispatch=dispatch,
                      observer=observer)
    machine.regs[dise_reg(2)] = image.data_base >> 26
    return machine


class TestObservationalEquivalence:
    def test_outcomes_identical_across_tiers(self):
        results = {tier: make_machine(tier).run() for tier in TIERS}
        reference, result = results["generic"], results["translated"]
        assert result.outputs == reference.outputs
        assert result.final_regs == reference.final_regs
        assert result.instructions == reference.instructions
        assert result.expansions == reference.expansions
        assert result.final_memory == reference.final_memory

    def test_serialized_traces_byte_identical_across_tiers(self):
        blobs = {tier: serialize_trace(make_machine(tier).run())
                 for tier in TIERS}
        assert blobs["translated"] == blobs["generic"]

    def test_observer_digests_identical_across_tiers(self):
        digests = {}
        for tier in TIERS:
            observer = Observer("full")
            make_machine(tier, observer=observer).run()
            digests[tier] = (observer.hexdigest(), observer.count)
        assert digests["translated"] == digests["generic"]
        assert digests["generic"][1] > 0


    def test_only_the_two_tiers_are_selectable(self, monkeypatch):
        with pytest.raises(ValueError):
            make_machine("fast")
        monkeypatch.setenv("REPRO_DISPATCH", "fast")
        with pytest.raises(ValueError):
            make_machine(None)
        monkeypatch.setenv("REPRO_DISPATCH", "generic")
        assert make_machine(None).dispatch == "generic"


class TestPreciseStateTranslated:
    def test_timeout_checkpoints_identical_across_tiers(self):
        """The step budget retires the same dynamic-instruction prefix in
        every tier: interrupting at any count yields identical precise
        state, superblock boundaries notwithstanding."""
        total = make_machine("generic").run().instructions
        for budget in range(1, total):
            states = {}
            for tier in TIERS:
                machine = make_machine(tier)
                with pytest.raises(ExecutionTimeout):
                    machine.run(max_steps=budget)
                states[tier] = machine.checkpoint()
            assert states["translated"] == states["generic"], budget

    def test_checkpoint_restore_translated_at_every_boundary(self):
        """Interrupt a translated run anywhere — including mid-sequence —
        restore into a fresh translated machine, and finish: the outcome
        matches the generic reference run."""
        reference = make_machine("generic").run()
        total = reference.instructions
        saw_mid_sequence = False
        for interrupt_at in range(1, total):
            machine = make_machine("translated")
            with pytest.raises(ExecutionTimeout):
                machine.run(max_steps=interrupt_at)
            state = machine.checkpoint()
            saw_mid_sequence = saw_mid_sequence or state["disepc"] > 0
            resumed = make_machine("translated")
            resumed.restore(state)
            result = resumed.run()
            assert result.outputs == reference.outputs, interrupt_at
            assert result.final_regs == reference.final_regs, interrupt_at
            assert (result.final_memory
                    == reference.final_memory), interrupt_at
        assert saw_mid_sequence, "no interrupt landed inside an expansion"


class TestInvalidation:
    def test_production_swap_rebinds_and_preserves_warm_entries(self):
        image = build_loop_image()
        controller = DiseController()
        controller.install(parse_productions(MFI_PSET))
        machine = make_machine("translated", image=image,
                               controller=controller)
        machine.run()
        store = image._translation_store
        sig_mfi = controller.engine.production_signature
        assert machine._blocks is store[sig_mfi][0]
        assert machine._blocks, "loop entry should have been translated"

        # Swap to the audit set: the invalidation listener re-binds the
        # machine to the new signature's (empty) entry...
        controller.uninstall("acf")
        controller.install(parse_productions(AUDIT_PSET, name="audit"))
        sig_audit = controller.engine.production_signature
        assert sig_audit != sig_mfi
        assert machine._blocks is store[sig_audit][0]
        assert not machine._blocks
        # ...while the MFI translations stay warm under their own key.
        assert store[sig_mfi][0]

        # Swapping back re-attaches the warm entry.
        controller.uninstall("audit")
        controller.install(parse_productions(MFI_PSET))
        assert controller.engine.production_signature == sig_mfi
        assert machine._blocks is store[sig_mfi][0]
        assert machine._blocks

    def test_mid_run_production_swap_matches_generic(self):
        """A live machine survives an external production-set swap: the
        listener re-binds it and the rest of the run retires under the new
        set, identically in every tier."""
        outcomes = {}
        for tier in TIERS:
            machine = make_machine(tier)
            with pytest.raises(ExecutionTimeout):
                machine.run(max_steps=9)
            controller = machine.controller
            controller.uninstall("acf")
            controller.install(parse_productions(AUDIT_PSET, name="audit"))
            result = machine.run()
            outcomes[tier] = (result.outputs, result.final_regs,
                              result.instructions, result.expansions)
        assert outcomes["translated"] == outcomes["generic"]
        # The audit set really took over: the store counter is non-zero.
        assert outcomes["generic"][1][dise_reg(0)] > 0

    def test_invalidate_translations_clears_the_whole_store(self):
        image = build_loop_image()
        machine = make_machine("translated", image=image)
        machine.run()
        assert machine._blocks
        machine.invalidate_translations()
        assert not machine._blocks
        assert not machine._steps
        assert sum(len(entry[0]) for entry
                   in image._translation_store.values()) == 0


class TestSharedStore:
    def test_fresh_machine_starts_warm(self):
        image = build_loop_image()
        controller = DiseController()
        controller.install(parse_productions(MFI_PSET))
        first = make_machine("translated", image=image,
                             controller=controller)
        reference = first.run()
        assert first._blocks

        second = make_machine("translated", image=image,
                              controller=controller)
        assert second._blocks is first._blocks, \
            "machines on one image+productions must share translations"
        result = second.run()
        assert result.outputs == reference.outputs
        assert result.final_regs == reference.final_regs

    def test_sharing_is_by_production_content_not_controller(self):
        """The store key is the engine's content signature, so an equal
        production set under a *different* controller reuses the warm
        translations (the fault campaign builds one machine per fault)."""
        image = build_loop_image()
        first = make_machine("translated", image=image)
        reference = first.run()
        assert first._blocks

        other = DiseController()
        other.install(parse_productions(MFI_PSET))
        second = make_machine("translated", image=image, controller=other)
        assert second._blocks is first._blocks
        result = second.run()
        assert result.outputs == reference.outputs
        assert result.final_regs == reference.final_regs

    def test_distinct_production_sets_do_not_share(self):
        image = build_loop_image()
        first = make_machine("translated", image=image)
        first.run()
        second = make_machine("translated", image=image, source=AUDIT_PSET)
        assert second._blocks is not first._blocks
        assert not second._blocks


class TestFaultCampaignUnderTranslation:
    CONFIG = CampaignConfig(seed=7, faults=12, benchmarks=("bzip2",),
                            scale=0.05, checkpoint_every=4)

    def test_interrupted_campaign_resumes_across_tiers(self, tmp_path,
                                                       monkeypatch):
        """Faults computed under the translation cache carry the same
        outcome digests as the generic path: interrupt a translated
        campaign, resume it generically, and the merged report matches an
        all-generic reference bit for bit."""
        monkeypatch.setenv("REPRO_DISPATCH", "generic")
        reference = run_campaign(self.CONFIG)
        ckpt = str(tmp_path / "campaign.json")
        monkeypatch.setenv("REPRO_DISPATCH", "translated")
        with pytest.raises(CampaignInterrupted):
            run_campaign(self.CONFIG, checkpoint_path=ckpt, stop_after=5)
        monkeypatch.setenv("REPRO_DISPATCH", "generic")
        resumed = run_campaign(self.CONFIG, checkpoint_path=ckpt,
                               resume=True)
        assert json.dumps(resumed, sort_keys=True) == \
            json.dumps(reference, sort_keys=True)
