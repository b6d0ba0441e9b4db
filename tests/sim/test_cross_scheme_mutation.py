"""Regression tests for the cross-scheme kernel-mutation hazard.

Historically ``evaluate_traces`` ran the allocator on the *shared*
``traces.kernel`` in place.  That made every software evaluation a
side effect: the traced kernel silently accumulated the most recent
scheme's annotations, a previously returned evaluation's
``allocation.kernel`` was clobbered by the next evaluation, and any
accounting that read annotations off trace events depended on whatever
allocation happened to run last.  These tests pin the fixed contract:
evaluation is pure with respect to the trace set.
"""

from __future__ import annotations

import pytest

from repro.sim.runner import (
    allocate_for_traces,
    build_traces,
    evaluate_traces,
)
from repro.sim.schemes import Scheme, SchemeKind
from repro.workloads.suites import get_workload


@pytest.fixture(scope="module")
def traces():
    spec = get_workload("matrixmul")
    return build_traces(spec.kernel, spec.warp_inputs)


def _annotation_snapshot(kernel):
    return [
        (
            instruction.ends_strand,
            instruction.dst_ann,
            instruction.src_anns,
        )
        for _, instruction in kernel.instructions()
    ]


SW_A = Scheme(SchemeKind.SW_THREE_LEVEL, 3, split_lrf=True)
SW_B = Scheme(SchemeKind.SW_TWO_LEVEL, 8)
HW = Scheme(SchemeKind.HW_TWO_LEVEL, 3)


def test_evaluate_traces_leaves_traced_kernel_untouched(traces):
    """A software-scheme evaluation must not annotate ``traces.kernel``."""
    before = _annotation_snapshot(traces.kernel)
    evaluate_traces(traces, SW_A)
    assert _annotation_snapshot(traces.kernel) == before


def test_earlier_allocation_survives_later_evaluation(traces):
    """An evaluation's allocation must not be clobbered by the next one."""
    first = evaluate_traces(traces, SW_A)
    snapshot = _annotation_snapshot(first.allocation.kernel)
    evaluate_traces(traces, SW_B)
    assert _annotation_snapshot(first.allocation.kernel) == snapshot


def test_scheme_order_does_not_change_counters(traces):
    """SW -> HW -> SW must equal fresh single-scheme evaluations."""
    fresh = {
        scheme: evaluate_traces(traces, scheme)
        for scheme in (SW_A, HW, SW_B)
    }
    sequenced = [
        evaluate_traces(traces, scheme)
        for scheme in (SW_A, HW, SW_B, SW_A)
    ]
    assert sequenced[0].counters == fresh[SW_A].counters
    assert sequenced[1].counters == fresh[HW].counters
    assert sequenced[2].counters == fresh[SW_B].counters
    # Back-to-back repeat of the first scheme reproduces it exactly.
    assert sequenced[3].counters == fresh[SW_A].counters
    assert all(
        evaluation.baseline == fresh[SW_A].baseline
        for evaluation in sequenced
    )


def test_allocation_annotates_a_clone_not_the_original(traces):
    evaluation = evaluate_traces(traces, SW_A)
    assert evaluation.allocation is not None
    annotated = evaluation.allocation.kernel
    assert annotated is not traces.kernel
    assert (
        annotated.content_fingerprint()
        == traces.kernel.content_fingerprint()
    )
    # The clone actually carries the allocation the counters came from.
    assert any(
        instruction.dst_ann is not None or instruction.src_anns
        for _, instruction in annotated.instructions()
    )


def test_allocate_for_traces_returns_fresh_clones(traces):
    """Nothing memoizes an allocation: every call annotates a new
    clone, and the traced kernel itself is never annotated."""
    kernel = traces.kernel
    config = SW_A.allocation_config()
    first = allocate_for_traces(kernel, config)
    second = allocate_for_traces(kernel, config)
    assert first is not second
    assert first.kernel is not second.kernel
    for _, instruction in kernel.instructions():
        assert instruction.dst_ann is None
        assert instruction.src_anns is None
