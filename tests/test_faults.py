"""Fault-injection subsystem: taxonomy, campaign driver, determinism.

The heavyweight check is the module-scoped 200-fault mini-campaign over two
synthetic benchmarks, which backs the paper's central MFI claim: every
fault that leaves the legal segment is contained by the production set,
with zero false positives on unfaulted controls.
"""

import json
import random

import pytest

from repro.errors import CampaignError, CheckpointError
from repro.faults import (
    FAULT_CLASSES,
    MFI_GUARDED_CLASSES,
    CampaignConfig,
    CampaignInterrupted,
    load_report,
    render_summary,
    run_campaign,
)
from repro.faults.campaign import save_report
from repro.faults.inject import (
    SiteProfile,
    make_fault,
    mutate_image,
    profile_sites,
    replace_instruction,
    state_mutator,
)
from repro.acf.base import plain_installation
from repro.acf.mfi import attach_mfi, ensure_error_stub
from repro.isa.opcodes import OpClass
from repro.program.builder import SEGMENT_SHIFT
from repro.sim.functional import ZERO
from repro.sim.memory import MASK64
from repro.workloads import BENCHMARK_NAMES
from repro.workloads.generator import generate_by_name

SEED = 20031
MINI = CampaignConfig(seed=SEED, faults=200, benchmarks=("bzip2", "gzip"),
                      scale=0.05)


@pytest.fixture(scope="module")
def mini_report():
    return run_campaign(MINI)


@pytest.fixture(scope="module")
def profiled():
    image = ensure_error_stub(generate_by_name("gzip", scale=0.05))
    trace = plain_installation(image).run(max_steps=2_000_000)
    return image, profile_sites(image, trace)


class TestInjection:
    def test_profile_finds_sites_of_every_kind(self, profiled):
        _, profile = profiled
        assert profile.loads and profile.stores and profile.jumps
        assert profile.mem_sites and profile.executed

    def test_profiled_bases_stay_in_data_segment(self, profiled):
        image, profile = profiled
        data_seg = image.data_base >> SEGMENT_SHIFT
        for _, _, base in profile.loads + profile.stores:
            assert base >> SEGMENT_SHIFT == data_seg

    def test_make_fault_is_deterministic(self, profiled):
        image, profile = profiled
        for fault_class in FAULT_CLASSES:
            a = make_fault(random.Random("s"), "f0", "gzip", fault_class,
                           profile, image)
            b = make_fault(random.Random("s"), "f0", "gzip", fault_class,
                           profile, image)
            assert a == b
            assert a is not None        # gzip offers every class a site

    def test_guarded_classes_always_leave_the_segment(self, profiled):
        image, profile = profiled
        rng = random.Random(99)
        for i in range(50):
            for fault_class in sorted(MFI_GUARDED_CLASSES):
                spec = make_fault(rng, f"f{i}", "gzip", fault_class,
                                  profile, image)
                assert spec.guarded
                value = spec.detail_dict()["value"]
                assert value >> SEGMENT_SHIFT not in (
                    image.text_base >> SEGMENT_SHIFT,
                    image.data_base >> SEGMENT_SHIFT,
                )

    def test_unknown_class_rejected(self, profiled):
        image, profile = profiled
        with pytest.raises(CampaignError):
            make_fault(random.Random(0), "f0", "gzip", "meteor_strike",
                       profile, image)

    def test_replace_instruction_preserves_layout(self, profiled):
        image, profile = profiled
        spec = make_fault(random.Random(1), "f0", "gzip", "corrupt_disp",
                          profile, image)
        mutated = mutate_image(spec, image)
        assert mutated is not image
        assert mutated.addresses == image.addresses
        assert mutated.sizes == image.sizes
        index = image.index_of_addr[spec.site_pc]
        assert mutated.instructions[index] != image.instructions[index]
        diffs = [i for i, (a, b) in enumerate(
            zip(mutated.instructions, image.instructions)) if a != b]
        assert diffs == [index]

    def test_bitflip_decodes_to_a_different_instruction(self, profiled):
        from repro.isa.encoding import decode, encode

        image, profile = profiled
        spec = make_fault(random.Random(2), "f0", "gzip", "bitflip",
                          profile, image)
        index = image.index_of_addr[spec.site_pc]
        original = image.instructions[index]
        flipped = decode(encode(original) ^ (1 << spec.detail_dict()["bit"]))
        assert flipped != original

    def test_state_mutators_only_for_state_classes(self, profiled):
        image, profile = profiled
        rng = random.Random(3)
        for fault_class in FAULT_CLASSES:
            spec = make_fault(rng, "f0", "gzip", fault_class, profile,
                              image)
            has_mutator = state_mutator(spec) is not None
            assert has_mutator == (
                fault_class not in ("corrupt_disp", "bitflip")
            )
            if not has_mutator:
                assert mutate_image(spec, image) is not image
            else:
                assert mutate_image(spec, image) is image

    def test_retargeted_branch_follows_its_new_displacement(self, profiled):
        image, _ = profiled
        branch_idx = next(
            i for i, instr in enumerate(image.instructions)
            if instr.is_branch and image.target_index[i] is not None
        )
        instr = image.instructions[branch_idx]
        mutated = replace_instruction(
            image, branch_idx, instr.with_fields(imm=instr.imm + 1)
        )
        expected = image.index_of_addr.get(
            image.addresses[branch_idx] + 4 + (instr.imm + 1) * 4
        )
        assert mutated.target_index[branch_idx] == expected


def _profile_sites_from_ops(image, trace):
    """The per-``Op`` profiling loop, kept as the column walk's oracle."""
    index_of_addr = image.index_of_addr
    visits = {}
    loads, stores, jumps = [], [], []
    mem_sites, seen_mem = [], set()
    executed, seen_exec = [], set()
    for op in trace.ops:
        pc = op.pc
        idx = index_of_addr.get(pc)
        if idx is None:
            continue
        visit = visits.get(pc, 0) + 1
        visits[pc] = visit
        if pc not in seen_exec:
            seen_exec.add(pc)
            executed.append(pc)
        instr = image.instructions[idx]
        opclass = instr.opclass
        if opclass in (OpClass.LOAD, OpClass.STORE):
            base_reg = instr.rb
            if base_reg is None or base_reg == ZERO or base_reg >= 32:
                continue
            if op.mem_addr is None:
                continue
            base = (op.mem_addr - (instr.imm or 0)) & MASK64
            (loads if opclass is OpClass.LOAD else stores).append(
                (pc, visit, base)
            )
            if pc not in seen_mem:
                seen_mem.add(pc)
                mem_sites.append(pc)
        elif opclass is OpClass.INDIRECT_JUMP:
            target_reg = instr.rb
            if target_reg is None or target_reg == ZERO or target_reg >= 32:
                continue
            jumps.append((pc, visit, None))
    return SiteProfile(loads=loads, stores=stores, jumps=jumps,
                       mem_sites=mem_sites, executed=executed)


class TestProfileSites:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_column_walk_matches_op_walk(self, name):
        """Equal on the plain profiling trace and on an MFI trace, whose
        replacement ops carry their trigger's pc."""
        image = ensure_error_stub(generate_by_name(name, scale=0.05))
        for installation in (plain_installation(image),
                             attach_mfi(image, variant="dise3")):
            trace = installation.run(max_steps=2_000_000)
            profile = profile_sites(image, trace)
            assert profile == _profile_sites_from_ops(image, trace)
            assert profile.loads and profile.stores and profile.jumps


class TestMiniCampaign:
    """The ISSUE's acceptance campaign, scaled to CI."""

    def test_guarded_classes_fully_contained(self, mini_report):
        classes = mini_report["summary"]["classes"]
        for name in MFI_GUARDED_CLASSES:
            counts = classes[name]
            assert counts["total"] > 0
            assert counts["containment_rate"] == 1.0, (
                f"{name}: {counts}"
            )
        guarded = mini_report["summary"]["guarded"]
        assert guarded["total"] > 0
        assert guarded["contained"] == guarded["total"]

    def test_no_false_positives_on_controls(self, mini_report):
        assert mini_report["summary"]["false_positives"] == 0
        for bench, control in mini_report["control"].items():
            assert not control["false_positive"], bench
            assert control["outputs_match"], bench

    def test_every_fault_has_a_classified_outcome(self, mini_report):
        assert len(mini_report["faults"]) == MINI.faults
        from repro.faults import OUTCOMES

        for record in mini_report["faults"]:
            assert record["outcome"] in OUTCOMES

    def test_same_seed_runs_are_bit_identical(self, mini_report):
        again = run_campaign(MINI)
        assert json.dumps(again, sort_keys=True) == \
            json.dumps(mini_report, sort_keys=True)

    def test_report_round_trips_through_disk(self, mini_report, tmp_path):
        path = str(tmp_path / "report.json")
        save_report(mini_report, path)
        assert load_report(path) == mini_report
        # Deterministic serialization: saving twice yields identical bytes.
        path2 = str(tmp_path / "report2.json")
        save_report(mini_report, path2)
        assert (tmp_path / "report.json").read_bytes() == \
            (tmp_path / "report2.json").read_bytes()

    def test_summary_renders(self, mini_report):
        text = render_summary(mini_report)
        assert "MFI fault-injection campaign" in text
        assert "oob_load" in text and "bitflip" in text
        assert "False positives" in text


class TestCheckpointResume:
    CONFIG = CampaignConfig(seed=7, faults=30, benchmarks=("bzip2",),
                            scale=0.05, checkpoint_every=5)

    def test_interrupt_then_resume_is_identical(self, tmp_path):
        reference = run_campaign(self.CONFIG)
        ckpt = str(tmp_path / "campaign.json")
        with pytest.raises(CampaignInterrupted):
            run_campaign(self.CONFIG, checkpoint_path=ckpt, stop_after=11)
        resumed = run_campaign(self.CONFIG, checkpoint_path=ckpt,
                               resume=True)
        assert json.dumps(resumed, sort_keys=True) == \
            json.dumps(reference, sort_keys=True)

    def test_checkpoint_config_mismatch_refuses(self, tmp_path):
        ckpt = str(tmp_path / "campaign.json")
        with pytest.raises(CampaignInterrupted):
            run_campaign(self.CONFIG, checkpoint_path=ckpt, stop_after=3)
        other = CampaignConfig(seed=8, faults=30, benchmarks=("bzip2",),
                               scale=0.05)
        with pytest.raises(CheckpointError):
            run_campaign(other, checkpoint_path=ckpt, resume=True)

    def test_resume_without_path_refuses(self):
        with pytest.raises(CheckpointError):
            run_campaign(self.CONFIG, resume=True)

    def test_validation(self):
        with pytest.raises(CampaignError):
            run_campaign(CampaignConfig(faults=0))
        with pytest.raises(CampaignError):
            run_campaign(CampaignConfig(classes=("meteor_strike",)))
        with pytest.raises(CampaignError):
            run_campaign(CampaignConfig(benchmarks=()))
        with pytest.raises(CampaignError):
            run_campaign(
                CampaignConfig(faults=1, benchmarks=("nonsense",))
            )
