"""Compiled trace layer: differential equivalence against the scalar
oracle, columnar compilation, dedup, histogram, and cache behaviour."""

import pytest

from repro.engine.hashing import traceset_fingerprint
from repro.hierarchy.counters import AccessCounters
from repro.ir import parse_kernel
from repro.ir.registers import gpr
from repro.levels import Level
from repro.sim import (
    DivergentWarpInput,
    Scheme,
    SchemeKind,
    WarpInput,
    build_divergent_traces,
    build_traces,
    evaluate_traces,
    usage_histogram,
)
from repro.sim.compiled import (
    baseline_counters,
    compile_traces,
    compiled_enabled,
    hardware_counters,
    merge_scaled,
    operand_table,
    software_counters,
)
from repro.sim.runner import evaluate_traces_batch
from repro.workloads import all_workloads

#: Every scheme kind the paper evaluates, including the Section 7
#: backward-branch-flush hardware variant.
ALL_KIND_SCHEMES = [
    Scheme(SchemeKind.BASELINE),
    Scheme(SchemeKind.SW_TWO_LEVEL, 3),
    Scheme(SchemeKind.SW_THREE_LEVEL, 3),
    Scheme(SchemeKind.SW_THREE_LEVEL, 3, split_lrf=True),
    Scheme(SchemeKind.HW_TWO_LEVEL, 3),
    Scheme(SchemeKind.HW_THREE_LEVEL, 3),
    Scheme(SchemeKind.HW_TWO_LEVEL, 3, flush_on_backward_branch=True),
]

#: The 12 hardware schemes of the bench harness (Figure 11/12 sweep):
#: every entry size under both hardware kinds.
HW_SWEEP_SCHEMES = [
    Scheme(kind, entries)
    for entries in (1, 2, 3, 4, 6, 8)
    for kind in (SchemeKind.HW_TWO_LEVEL, SchemeKind.HW_THREE_LEVEL)
]

#: A kernel with a guard-squashed non-branch write: @P0 iadd executes
#: with a failing guard for some inputs (reads counted, write squashed).
GUARDED_ASM = """
.kernel guarded
.livein R0 R1
entry:
    ldg R3, [R0]
    setp P0, R3, 50
    @P0 iadd R4, R3, 1
    @!P0 iadd R4, R3, 2
    imul R5, R4, R4
    stg [R1], R5
    exit
"""

DIVERGENT_ASM = """
.kernel hammock
.livein R0 R1
entry:
    ldg R3, [R0]
    setp P0, R3, 100
    @P0 bra small
big:
    imul R6, R3, 3
    bra merge
small:
    iadd R6, R3, 7
merge:
    stg [R1], R6
    exit
"""


def _assert_paths_agree(traces, schemes=ALL_KIND_SCHEMES):
    for scheme in schemes:
        scalar = evaluate_traces(traces, scheme, use_compiled=False)
        compiled = evaluate_traces(traces, scheme, use_compiled=True)
        assert compiled.counters == scalar.counters, scheme.name
        assert compiled.baseline == scalar.baseline, scheme.name
        assert (
            compiled.dynamic_instructions == scalar.dynamic_instructions
        )


class TestDifferentialEquivalence:
    """The acceptance bar: compiled accounting == scalar oracle."""

    @pytest.mark.parametrize(
        "spec",
        all_workloads(0.5),
        ids=lambda spec: spec.name,
    )
    def test_full_suite_all_scheme_kinds(self, spec):
        traces = build_traces(spec.kernel, spec.warp_inputs)
        _assert_paths_agree(traces)

    def test_guard_squashed_writes(self):
        from repro.sim import Memory

        kernel = parse_kernel(GUARDED_ASM)
        memory = Memory(global_mem={0: 10, 64: 200})
        traces = build_traces(
            kernel,
            [
                WarpInput({gpr(0): base, gpr(1): 900}, memory=memory)
                for base in (0, 64)
            ],
        )
        # Both guard outcomes appear in the trace set: some issue was
        # squashed, some passed.
        compiled = compile_traces(traces)
        assert any(
            issued > passed
            for issued, passed in zip(compiled.issued, compiled.passed)
        )
        assert any(compiled.passed)
        _assert_paths_agree(traces)

    def test_divergent_traces(self):
        kernel = parse_kernel(DIVERGENT_ASM)
        warp_inputs = [
            DivergentWarpInput(
                [
                    {gpr(0): 10 * t + 3 * w, gpr(1): 900 + t}
                    for t in range(8)
                ]
            )
            for w in range(3)
        ]
        traces = build_divergent_traces(kernel, warp_inputs)
        _assert_paths_agree(traces)

    def test_entry_sweep_software(self, loop_kernel, loop_inputs):
        traces = build_traces(loop_kernel, loop_inputs)
        schemes = [
            Scheme(kind, entries, split_lrf=split)
            for entries in (1, 2, 4, 8)
            for kind, split in (
                (SchemeKind.SW_TWO_LEVEL, False),
                (SchemeKind.SW_THREE_LEVEL, True),
            )
        ]
        _assert_paths_agree(traces, schemes)


class TestBatchedHardware:
    """The one-pass hardware walk: 12 schemes, exact counter equality."""

    @pytest.mark.parametrize(
        "scheme", HW_SWEEP_SCHEMES, ids=lambda s: s.name
    )
    def test_sweep_matches_scalar_oracle(self, scheme):
        """Every hardware scheme of the sweep, batched in one pass,
        equals the scalar oracle exactly — per counter key."""
        for spec in all_workloads(0.4):
            traces = build_traces(spec.kernel, spec.warp_inputs)
            batched = hardware_counters(
                compile_traces(traces), HW_SWEEP_SCHEMES
            )
            scalar = evaluate_traces(traces, scheme, use_compiled=False)
            assert batched[scheme] == scalar.counters, spec.name

    def test_sweep_on_divergent_traces(self):
        kernel = parse_kernel(DIVERGENT_ASM)
        warp_inputs = [
            DivergentWarpInput(
                [
                    {gpr(0): 10 * t + 3 * w, gpr(1): 900 + t}
                    for t in range(8)
                ]
            )
            for w in range(3)
        ]
        traces = build_divergent_traces(kernel, warp_inputs)
        batched = hardware_counters(
            compile_traces(traces), HW_SWEEP_SCHEMES
        )
        for scheme in HW_SWEEP_SCHEMES:
            scalar = evaluate_traces(traces, scheme, use_compiled=False)
            assert batched[scheme] == scalar.counters, scheme.name

    def test_sweep_on_guard_squashed_traces(self):
        from repro.sim import Memory

        kernel = parse_kernel(GUARDED_ASM)
        memory = Memory(global_mem={0: 10, 64: 200})
        traces = build_traces(
            kernel,
            [
                WarpInput({gpr(0): base, gpr(1): 900}, memory=memory)
                for base in (0, 64)
            ],
        )
        batched = hardware_counters(
            compile_traces(traces), HW_SWEEP_SCHEMES
        )
        for scheme in HW_SWEEP_SCHEMES:
            scalar = evaluate_traces(traces, scheme, use_compiled=False)
            assert batched[scheme] == scalar.counters, scheme.name

    def test_backward_flush_variant(self, loop_kernel, loop_inputs):
        """flush_on_backward_branch is honoured by the columnar walks."""
        traces = build_traces(loop_kernel, loop_inputs)
        schemes = [
            Scheme(kind, 3, flush_on_backward_branch=flush)
            for kind in (SchemeKind.HW_TWO_LEVEL, SchemeKind.HW_THREE_LEVEL)
            for flush in (False, True)
        ]
        batched = hardware_counters(compile_traces(traces), schemes)
        for scheme in schemes:
            scalar = evaluate_traces(traces, scheme, use_compiled=False)
            assert batched[scheme] == scalar.counters, scheme.name

    def test_batch_agrees_with_single(self, loop_kernel, loop_inputs):
        """evaluate_traces_batch == [evaluate_traces] for a mixed list."""
        traces = build_traces(loop_kernel, loop_inputs)
        schemes = ALL_KIND_SCHEMES
        batch = evaluate_traces_batch(traces, schemes)
        singles = [evaluate_traces(traces, s) for s in schemes]
        for batched, single in zip(batch, singles):
            assert batched.scheme == single.scheme
            assert batched.counters == single.counters, single.scheme.name
            assert batched.baseline == single.baseline
            assert (
                batched.dynamic_instructions
                == single.dynamic_instructions
            )

    def test_batch_scalar_fallback(self, loop_kernel, loop_inputs):
        traces = build_traces(loop_kernel, loop_inputs)
        compiled = evaluate_traces_batch(
            traces, HW_SWEEP_SCHEMES, use_compiled=True
        )
        scalar = evaluate_traces_batch(
            traces, HW_SWEEP_SCHEMES, use_compiled=False
        )
        for a, b in zip(compiled, scalar):
            assert a.counters == b.counters, a.scheme.name

    def test_rejects_non_hardware_schemes(self, loop_kernel, loop_inputs):
        traces = build_traces(loop_kernel, loop_inputs)
        with pytest.raises(ValueError):
            hardware_counters(
                compile_traces(traces), [Scheme(SchemeKind.BASELINE)]
            )


class TestCompilation:
    def test_columns_match_events(self, loop_kernel, loop_inputs):
        traces = build_traces(loop_kernel, loop_inputs)
        compiled = compile_traces(traces)
        assert compiled.dynamic_instructions == traces.dynamic_instructions
        for warp_index, trace in enumerate(traces.warp_traces):
            unique = compiled.unique[compiled.warp_to_unique[warp_index]]
            assert [event.ref.position for event in trace] == list(
                unique.positions
            )
            assert [event.guard_passed for event in trace] == [
                bool(flag) for flag in unique.guards
            ]
            assert [event.branch_taken for event in trace] == [
                bool(flag) for flag in unique.branches
            ]

    def test_compiled_form_is_cached(self, loop_kernel, loop_inputs):
        traces = build_traces(loop_kernel, loop_inputs)
        assert compile_traces(traces) is compile_traces(traces)

    def test_histogram_totals(self, loop_kernel, loop_inputs):
        traces = build_traces(loop_kernel, loop_inputs)
        compiled = compile_traces(traces)
        assert sum(compiled.issued) == traces.dynamic_instructions
        assert len(compiled.issued) == loop_kernel.num_instructions
        assert all(
            0 <= passed <= issued
            for issued, passed in zip(compiled.issued, compiled.passed)
        )

    def test_identical_warps_deduplicate(self, straight_kernel):
        inputs = [
            WarpInput({gpr(0): 0, gpr(1): 100, gpr(2): 5})
            for _ in range(4)
        ]
        traces = build_traces(straight_kernel, inputs)
        assert len(traces.warp_traces) == 4
        assert traces.unique_trace_count == 1
        compiled = compile_traces(traces)
        assert compiled.unique[0].multiplicity == 4
        assert compiled.first_warp == [0]
        assert compiled.warp_to_unique == [0, 0, 0, 0]
        _assert_paths_agree(traces)

    def test_dynamic_instructions_cached(self, loop_kernel, loop_inputs):
        traces = build_traces(loop_kernel, loop_inputs)
        first = traces.dynamic_instructions
        assert traces.__dict__["_dynamic_instructions"] == first
        assert traces.dynamic_instructions == first


class TestCaches:
    def test_baseline_cached_and_isolated(self, loop_kernel, loop_inputs):
        traces = build_traces(loop_kernel, loop_inputs)
        first = evaluate_traces(
            traces, Scheme(SchemeKind.BASELINE), use_compiled=True
        )
        # Mutating a returned counters object must not poison the cache.
        first.baseline.add_read(Level.MRF, False, 10_000)
        second = evaluate_traces(
            traces, Scheme(SchemeKind.BASELINE), use_compiled=True
        )
        assert second.baseline != first.baseline
        assert second.counters == second.baseline

    def test_operand_table_facts(self, loop_kernel):
        table = operand_table(loop_kernel)
        assert operand_table(loop_kernel) is table
        for ref, instruction in loop_kernel.instructions():
            position = ref.position
            assert table.read_regs[position] == tuple(
                reg for _, reg in instruction.gpr_reads()
            )
            assert table.read_layout[position] == tuple(
                (slot, reg.num_words)
                for slot, reg in instruction.gpr_reads()
            )
            assert table.write_reg[position] == instruction.gpr_write()
            assert table.shared[position] == instruction.unit.is_shared
            assert (
                table.long_latency[position]
                == instruction.is_long_latency
            )
        # The loop kernel's backward branch is flagged; nothing else is.
        backward = [
            position
            for position, flag in enumerate(table.backward_branch)
            if flag
        ]
        assert len(backward) == 1


class TestVectorizedAccounting:
    def test_baseline_counts_match_scalar_structure(
        self, straight_kernel, straight_inputs
    ):
        traces = build_traces(straight_kernel, straight_inputs)
        counters = baseline_counters(compile_traces(traces))
        assert counters.reads(Level.ORF) == 0
        assert counters.reads(Level.LRF) == 0
        assert counters.total_reads() > 0

    def test_software_counters_require_aligned_kernel(
        self, loop_kernel, loop_inputs
    ):
        from repro.alloc import AllocationConfig, allocate_kernel

        traces = build_traces(loop_kernel, loop_inputs)
        clone = loop_kernel.clone()
        allocate_kernel(clone, AllocationConfig(orf_entries=3))
        counters = software_counters(compile_traces(traces), clone)
        assert counters.total_reads() == baseline_counters(
            compile_traces(traces)
        ).total_reads()

    def test_reallocation_in_place_refreshes_counters(self):
        """Annotating a kernel again in place (a second allocation, or
        a loaded annotation document) must not serve counters cached
        from its previous annotations."""
        from repro.alloc import AllocationConfig, allocate_kernel
        from repro.alloc.serialize import (
            annotations_from_dict,
            annotations_to_dict,
        )
        from repro.workloads import get_workload

        spec = get_workload("matrixmul", 0.5)
        compiled = compile_traces(
            build_traces(spec.kernel, spec.warp_inputs)
        )
        kernel = spec.kernel.clone()
        allocate_kernel(kernel, AllocationConfig(orf_entries=1))
        first = software_counters(compiled, kernel)
        document = annotations_to_dict(kernel)

        config = AllocationConfig(orf_entries=8, use_lrf=True, split_lrf=True)
        allocate_kernel(kernel, config)
        fresh = allocate_kernel(spec.kernel.clone(), config).kernel
        second = software_counters(compiled, kernel)
        assert second == software_counters(compiled, fresh)
        assert second != first

        annotations_from_dict(kernel, document)
        assert software_counters(compiled, kernel) == first

    def test_merge_scaled_keeps_integers(self):
        into = AccessCounters()
        delta = AccessCounters()
        delta.add_read(Level.MRF, False, 3)
        merge_scaled(into, delta, 4)
        assert into.counts[(Level.MRF, True, False)] == 12
        assert isinstance(into.counts[(Level.MRF, True, False)], int)


class TestUsageHistogramDedup:
    def test_identical_warps_scale(self, straight_kernel):
        one = build_traces(
            straight_kernel,
            [WarpInput({gpr(0): 0, gpr(1): 100, gpr(2): 5})],
        )
        four = build_traces(
            straight_kernel,
            [
                WarpInput({gpr(0): 0, gpr(1): 100, gpr(2): 5})
                for _ in range(4)
            ],
        )
        single = usage_histogram(one)
        scaled = usage_histogram(four)
        assert scaled.total_values == 4 * single.total_values
        assert scaled.read_counts == {
            key: 4 * value for key, value in single.read_counts.items()
        }
        assert scaled.lifetimes == {
            key: 4 * value for key, value in single.lifetimes.items()
        }

    def test_matches_per_warp_walk(self, loop_kernel, loop_inputs):
        from repro.analysis.usage import (
            UsageHistogram,
            ValueUsageTracker,
        )

        traces = build_traces(loop_kernel, loop_inputs)
        expected = UsageHistogram()
        for trace in traces.warp_traces:
            tracker = ValueUsageTracker()
            for event in trace:
                tracker.observe(event.instruction, event.guard_passed)
            tracker.finish()
            expected.add_tracker(tracker)
        actual = usage_histogram(traces)
        assert actual == expected


class TestFingerprints:
    @staticmethod
    def _loop_traces(kernel, trip_counts):
        return build_traces(
            kernel,
            [
                WarpInput({gpr(0): 0, gpr(1): 1000, gpr(2): trips})
                for trips in trip_counts
            ],
        )

    def test_fingerprint_stable_and_distinct(self, loop_kernel):
        traces = self._loop_traces(loop_kernel, (5, 9))
        again = self._loop_traces(loop_kernel, (5, 9))
        assert traceset_fingerprint(traces) == traceset_fingerprint(again)
        fewer = self._loop_traces(loop_kernel, (5,))
        assert traceset_fingerprint(traces) != traceset_fingerprint(fewer)

    def test_fingerprint_sensitive_to_warp_order_multiplicity(
        self, loop_kernel
    ):
        ab = self._loop_traces(loop_kernel, (5, 9))
        ba = self._loop_traces(loop_kernel, (9, 5))
        aa = self._loop_traces(loop_kernel, (5, 5))
        assert traceset_fingerprint(ab) != traceset_fingerprint(ba)
        assert traceset_fingerprint(ab) != traceset_fingerprint(aa)

    def test_fingerprint_hashes_columns_not_data(self, straight_kernel):
        """Warps that differ only in data values account identically,
        so they share a fingerprint — that equivalence is what makes
        the dedup (and the engine cache) pay off."""
        low = build_traces(
            straight_kernel,
            [WarpInput({gpr(0): 0, gpr(1): 100, gpr(2): 5})],
        )
        high = build_traces(
            straight_kernel,
            [WarpInput({gpr(0): 8, gpr(1): 200, gpr(2): 9})],
        )
        assert traceset_fingerprint(low) == traceset_fingerprint(high)


class TestToggle:
    def test_env_toggle(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMPILED", raising=False)
        assert compiled_enabled()
        monkeypatch.setenv("REPRO_COMPILED", "0")
        assert not compiled_enabled()
        monkeypatch.setenv("REPRO_COMPILED", "off")
        assert not compiled_enabled()
        monkeypatch.setenv("REPRO_COMPILED", "1")
        assert compiled_enabled()
