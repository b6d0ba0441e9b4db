"""Unit and integration tests for the hierarchy allocator."""

import pytest

from repro.alloc import AllocationConfig, allocate_kernel
from repro.ir import parse_kernel
from repro.ir.registers import gpr
from repro.levels import Level
from repro.sim import WarpInput, build_traces
from repro.sim.verify import verify_trace


def _allocated_levels(kernel):
    """Map (position, slot) -> read level and position -> write levels."""
    reads = {}
    writes = {}
    for ref, instruction in kernel.instructions():
        if instruction.src_anns:
            for slot, _ in instruction.gpr_reads():
                reads[(ref.position, slot)] = instruction.src_anns[slot]
        if instruction.dst_ann and instruction.gpr_write() is not None:
            writes[ref.position] = instruction.dst_ann.levels
    return reads, writes


class TestTwoLevelAllocation:
    def test_chain_values_go_to_orf(self, straight_kernel):
        result = allocate_kernel(
            straight_kernel, AllocationConfig(orf_entries=3)
        )
        orf = result.assignments_for_level(Level.ORF)
        allocated_regs = {a.web.reg for a in orf}
        assert gpr(4) in allocated_regs or gpr(5) in allocated_regs

    def test_long_latency_results_stay_mrf(self, straight_kernel):
        allocate_kernel(straight_kernel, AllocationConfig(orf_entries=3))
        _, writes = _allocated_levels(straight_kernel)
        assert writes[0] == (Level.MRF,)  # the ldg result

    def test_live_out_values_dual_write(self, straight_kernel):
        allocate_kernel(straight_kernel, AllocationConfig(orf_entries=3))
        _, writes = _allocated_levels(straight_kernel)
        # R6 (position 3) is read in-strand (stg) AND in the next
        # strand: ORF + MRF.
        assert set(writes[3]) == {Level.ORF, Level.MRF}

    def test_entry_bounds_respected(self, straight_kernel):
        result = allocate_kernel(
            straight_kernel, AllocationConfig(orf_entries=2)
        )
        for assignment in result.assignments_for_level(Level.ORF):
            for entry in assignment.entries:
                assert 0 <= entry < 2

    def test_one_entry_orf_still_works(self, loop_kernel):
        result = allocate_kernel(
            loop_kernel, AllocationConfig(orf_entries=1)
        )
        for assignment in result.assignments_for_level(Level.ORF):
            assert assignment.entries == (0,)


class TestThreeLevelAllocation:
    def test_lrf_used(self, loop_kernel):
        result = allocate_kernel(
            loop_kernel, AllocationConfig(orf_entries=3, use_lrf=True)
        )
        assert result.assignments_for_level(Level.LRF)

    def test_lrf_values_not_in_orf(self, loop_kernel):
        result = allocate_kernel(
            loop_kernel, AllocationConfig(orf_entries=3, use_lrf=True)
        )
        lrf_webs = {a.web.web_id for a in
                    result.assignments_for_level(Level.LRF)}
        orf_webs = {a.web.web_id for a in
                    result.assignments_for_level(Level.ORF)}
        # Same web never allocated twice... web ids are per-strand, so
        # compare identities instead.
        lrf_ids = {id(a.web) for a in
                   result.assignments_for_level(Level.LRF)}
        orf_ids = {id(a.web) for a in
                   result.assignments_for_level(Level.ORF)}
        assert not lrf_ids & orf_ids

    def test_shared_consumed_values_avoid_lrf(self):
        kernel = parse_kernel(
            """
            .kernel s
            .livein R0 R1
            entry:
                iadd R2, R0, 1
                stg [R1], R2
                iadd R3, R0, 2
                iadd R4, R3, 3
                stg [R1], R4
                exit
            """
        )
        result = allocate_kernel(
            kernel, AllocationConfig(orf_entries=3, use_lrf=True)
        )
        for assignment in result.assignments_for_level(Level.LRF):
            # R2 and R4 feed stores (shared datapath): LRF-ineligible.
            assert assignment.web.reg == gpr(3)

    def test_split_lrf_slot_binding(self):
        kernel = parse_kernel(
            """
            .kernel sl
            .livein R0 R1
            entry:
                iadd R2, R0, 1
                iadd R3, R0, R2
                iadd R4, R3, 7
                iadd R5, R4, R4
                stg [R1], R5
                exit
            """
        )
        result = allocate_kernel(
            kernel,
            AllocationConfig(orf_entries=3, use_lrf=True, split_lrf=True),
        )
        for assignment in result.assignments_for_level(Level.LRF):
            slots = assignment.web.read_slots()
            if slots:
                (slot,) = slots
                assert assignment.entries == (slot,)

    def test_multi_slot_value_not_in_split_lrf(self):
        kernel = parse_kernel(
            """
            .kernel ms
            .livein R0 R1
            entry:
                iadd R2, R0, 1
                iadd R3, R2, R0
                iadd R4, R0, R2
                stg [R1], R3
                stg [R1], R4
                exit
            """
        )
        result = allocate_kernel(
            kernel,
            AllocationConfig(orf_entries=3, use_lrf=True, split_lrf=True),
        )
        for assignment in result.assignments_for_level(Level.LRF):
            # R2 is read in slot 0 (of R3's def) and slot 1 (of R4's):
            # must not be in the split LRF.
            assert assignment.web.reg != gpr(2)


class TestOptimisations:
    def test_read_operand_allocation(self):
        kernel = parse_kernel(
            """
            .kernel ro
            .livein R0 R1
            entry:
                iadd R2, R0, 1
                iadd R3, R0, 2
                iadd R4, R0, 3
                iadd R5, R0, 4
                stg [R1], R5
                exit
            """
        )
        result = allocate_kernel(kernel, AllocationConfig(orf_entries=3))
        assert result.read_assignments
        (assignment,) = [
            a for a in result.read_assignments if a.candidate.reg == gpr(0)
        ]
        first = assignment.covered_reads[0]
        instruction = kernel.instruction_at(first.site.ref)
        annotation = instruction.src_anns[first.site.slot]
        assert annotation.level is Level.MRF
        assert annotation.orf_write_entry is not None
        for read in assignment.covered_reads[1:]:
            instruction = kernel.instruction_at(read.site.ref)
            annotation = instruction.src_anns[read.site.slot]
            assert annotation.level is Level.ORF

    def test_read_operands_disabled(self):
        kernel = parse_kernel(
            """
            .kernel ro2
            .livein R0 R1
            entry:
                iadd R2, R0, 1
                iadd R3, R0, 2
                stg [R1], R3
                exit
            """
        )
        result = allocate_kernel(
            kernel,
            AllocationConfig(orf_entries=3, enable_read_operands=False),
        )
        assert result.read_assignments == []

    def test_partial_range_under_pressure(self):
        """With a 1-entry ORF and competing values, a long-lived value
        gets a shortened range (Section 4.3)."""
        kernel = parse_kernel(
            """
            .kernel pr
            .livein R0 R1
            entry:
                iadd R2, R0, 1
                iadd R3, R2, 1
                iadd R4, R3, R2
                iadd R5, R4, R3
                iadd R6, R5, R4
                iadd R7, R6, R5
                stg [R1], R7
                stg [R1], R2
                exit
            """
        )
        result = allocate_kernel(kernel, AllocationConfig(orf_entries=1))
        assert any(a.partial for a in result.web_assignments) or all(
            len(a.covered_reads) <= len(a.web.coverable_reads)
            for a in result.web_assignments
        )

    def test_block_scope_baseline(self, hammock_kernel):
        """The Section 4.2 baseline cannot allocate across blocks."""
        result = allocate_kernel(
            hammock_kernel, AllocationConfig.baseline_two_level()
        )
        for assignment in result.web_assignments:
            blocks = {
                d.ref.block_index
                for d in assignment.web.defs
                if d.ref is not None
            }
            blocks |= {
                r.site.ref.block_index for r in assignment.covered_reads
            }
            assert len(blocks) <= 1

    def test_forward_branch_allocation(self, hammock_kernel):
        """Figure 10(c): both hammock defs share one ORF entry and the
        merge read hits the ORF."""
        result = allocate_kernel(
            hammock_kernel, AllocationConfig(orf_entries=3)
        )
        hammock_webs = [
            a for a in result.web_assignments if len(a.web.defs) == 2
        ]
        assert hammock_webs
        (assignment,) = hammock_webs
        for definition in assignment.web.defs:
            instruction = hammock_kernel.instruction_at(definition.ref)
            assert instruction.dst_ann.orf_entry == assignment.entries[0]


class TestSummary:
    def test_summary_counts(self, loop_kernel):
        result = allocate_kernel(
            loop_kernel, AllocationConfig.best_paper_config()
        )
        summary = result.summary()
        assert summary["strands"] == result.partition.num_strands
        assert summary["orf_values"] == len(
            result.assignments_for_level(Level.ORF)
        )

    def test_allocation_is_repeatable(self, loop_kernel):
        config = AllocationConfig.best_paper_config()
        first = allocate_kernel(loop_kernel, config).summary()
        second = allocate_kernel(loop_kernel, config).summary()
        assert first == second


class TestEndToEndValidity:
    @pytest.mark.parametrize(
        "config",
        [
            AllocationConfig(orf_entries=1),
            AllocationConfig(orf_entries=3),
            AllocationConfig(orf_entries=8),
            AllocationConfig(orf_entries=3, use_lrf=True),
            AllocationConfig.best_paper_config(),
            AllocationConfig.baseline_two_level(),
        ],
    )
    def test_all_fixtures_verify(
        self, config, straight_kernel, loop_kernel, hammock_kernel,
        uncertain_kernel,
    ):
        inputs = [WarpInput({gpr(0): 0, gpr(1): 500, gpr(2): 4,
                             gpr(6): 9})]
        for kernel in (
            straight_kernel, loop_kernel, hammock_kernel, uncertain_kernel
        ):
            result = allocate_kernel(kernel, config)
            traces = build_traces(kernel, inputs)
            for trace in traces.warp_traces:
                verify_trace(kernel, result.partition, trace)


class TestStrandReport:
    def test_rows_cover_all_strands(self, loop_kernel):
        result = allocate_kernel(
            loop_kernel, AllocationConfig.best_paper_config()
        )
        report = result.strand_report()
        assert len(report) == result.partition.num_strands
        assert sum(r["instructions"] for r in report) == (
            loop_kernel.num_instructions
        )

    def test_savings_nonnegative(self, loop_kernel):
        result = allocate_kernel(
            loop_kernel, AllocationConfig.best_paper_config()
        )
        for row in result.strand_report():
            assert row["estimated_savings_pj"] >= 0.0

    def test_counts_match_summary(self, straight_kernel):
        result = allocate_kernel(
            straight_kernel, AllocationConfig.best_paper_config()
        )
        report = result.strand_report()
        summary = result.summary()
        assert sum(r["orf_values"] for r in report) == (
            summary["orf_values"]
        )
        assert sum(r["lrf_values"] for r in report) == (
            summary["lrf_values"]
        )


class TestEnergyModelReuse:
    def test_configs_share_one_model_per_orf_size_and_split(self):
        config = AllocationConfig(orf_entries=5, use_lrf=True)
        assert config.energy_model() is config.energy_model()
        assert AllocationConfig(orf_entries=5).energy_model() is (
            config.energy_model()
        )
        split = AllocationConfig(orf_entries=5, use_lrf=True, split_lrf=True)
        assert split.energy_model() is not config.energy_model()
        assert split.energy_model().split_lrf

    def test_second_allocation_computes_no_operand_energy(
        self, loop_kernel, monkeypatch
    ):
        """The second single-config allocation of a config finds every
        operand energy in its model's memo."""
        from repro.energy.model import EnergyModel

        calls = []
        original = EnergyModel._per_entry_access

        def counting(self, level, is_read):
            calls.append((level, is_read))
            return original(self, level, is_read)

        monkeypatch.setattr(EnergyModel, "_per_entry_access", counting)
        config = AllocationConfig(orf_entries=6, use_lrf=True)
        allocate_kernel(loop_kernel.clone(), config)
        calls.clear()
        result = allocate_kernel(loop_kernel.clone(), config)
        assert result.web_assignments
        assert calls == []
