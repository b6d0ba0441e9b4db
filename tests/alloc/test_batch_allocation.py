"""Batched multi-config allocation equals independent per-config runs.

``allocate_kernels_batch`` shares one scheme-independent
:class:`~repro.alloc.analysis.KernelAnalysis` across every config of a
sweep and runs only the per-config levels pass N times.  The contract
is *exact* equality with N independent ``allocate_kernel`` calls:
operand annotations (including the ``ends_strand`` bits the service
path serializes), assignment structure, summaries, and — with
recorders attached — the full provenance event stream.  The fuzz
corpus plus hypothesis-drawn seeds are the oracle, covering divergent
hammocks and guarded forward branches.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc import (
    AllocationConfig,
    allocate_kernel,
    allocate_kernels_batch,
    clear_analysis_cache,
    kernel_analysis,
)
from repro.alloc import analysis as analysis_module
from repro.alloc.serialize import annotations_to_dict
from repro.obs.provenance import ProvenanceRecorder
from repro.sim import build_traces
from repro.sim.runner import account_traces_batch, allocate_schemes
from repro.sim.schemes import scheme_for_config
from repro.tuner.space import default_space
from repro.workloads import generate_workload

from ..sim.test_fuzz_regressions import CORPUS_CONFIGS, FUZZ_CORPUS

#: The sweep the equality property runs: the corpus configs (including
#: the single-entry/no-LRF config with forward branches that exposed
#: fuzz seed 320) plus split-LRF, baseline-scoped, and
#: persistent-strand flavours — two analysis flavours in one batch.
SWEEP_CONFIGS = CORPUS_CONFIGS + [
    AllocationConfig(orf_entries=2, use_lrf=True, split_lrf=True),
    AllocationConfig.baseline_two_level(),
    AllocationConfig(orf_entries=3, assume_persistent_strands=True),
    AllocationConfig(
        orf_entries=1, use_lrf=True, allow_forward_branches=True
    ),
]


def _assignment_shape(result):
    """Comparable projection of every placement decision."""
    webs = [
        (
            a.web.strand_id,
            str(a.web.reg),
            a.level.name,
            a.entries,
            tuple(r.position for r in a.covered_reads),
            a.partial,
            a.savings,
        )
        for a in result.web_assignments
    ]
    reads = [
        (
            a.candidate.strand_id,
            str(a.candidate.reg),
            a.entries,
            tuple(r.position for r in a.covered_reads),
            a.partial,
            a.savings,
        )
        for a in result.read_assignments
    ]
    return webs, reads


def _check_batch_equals_singles(kernel, configs):
    batch_recorders = [ProvenanceRecorder() for _ in configs]
    batch = allocate_kernels_batch(
        kernel, configs, recorders=batch_recorders
    )
    for config, recorder, batched in zip(configs, batch_recorders, batch):
        # Independent run: cold analysis, nothing shared with the batch.
        clear_analysis_cache()
        single_recorder = ProvenanceRecorder()
        single = allocate_kernel(
            kernel.clone(), config, recorder=single_recorder
        )
        assert annotations_to_dict(batched.kernel) == annotations_to_dict(
            single.kernel
        )
        assert batched.summary() == single.summary()
        assert _assignment_shape(batched) == _assignment_shape(single)
        assert recorder.events == single_recorder.events
        # ends_strand bits must be stamped identically on the batched
        # clone (annotations_to_dict covers them, but be explicit: the
        # printer and serializer both consume these).
        batched_bits = [
            i.ends_strand for _, i in batched.kernel.instructions()
        ]
        single_bits = [
            i.ends_strand for _, i in single.kernel.instructions()
        ]
        assert batched_bits == single_bits


@pytest.mark.parametrize("seed", FUZZ_CORPUS)
def test_fuzz_corpus_batch_equals_singles(seed):
    """Every corpus seed: the batch is bit-equal to per-config runs."""
    spec = generate_workload(seed, num_warps=1)
    _check_batch_equals_singles(spec.kernel, SWEEP_CONFIGS)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2000))
def test_random_kernels_batch_equals_singles(seed):
    spec = generate_workload(seed, num_warps=1)
    _check_batch_equals_singles(spec.kernel, SWEEP_CONFIGS)


def test_tuner_space_batch_equals_singles():
    """Every valid point of the tuner's space, the idealised axis
    included, on corpus seed 320: the batch matches independent runs,
    and compiled accounting of each allocation matches the scalar
    oracle."""
    spec = generate_workload(320)
    space = default_space(include_ideal=True)
    configs = [space.config(a) for a in space.assignments()]
    assert len(configs) == 640
    batch = allocate_kernels_batch(spec.kernel, configs)
    clear_analysis_cache()
    for config, batched in zip(configs, batch):
        single = allocate_kernel(spec.kernel.clone(), config)
        assert annotations_to_dict(batched.kernel) == annotations_to_dict(
            single.kernel
        )
        assert _assignment_shape(batched) == _assignment_shape(single)
        assert [i.ends_strand for _, i in batched.kernel.instructions()] == [
            i.ends_strand for _, i in single.kernel.instructions()
        ]

    traces = build_traces(spec.kernel, spec.warp_inputs)
    schemes = [scheme_for_config(config) for config in configs]
    # The oracle accounts exactly the allocations the compiled path got.
    allocations = allocate_schemes(traces.kernel, schemes)
    compiled = account_traces_batch(
        traces, schemes, allocations, use_compiled=True
    )
    scalar = account_traces_batch(
        traces, schemes, allocations, use_compiled=False
    )
    for scheme, fast, oracle in zip(schemes, compiled, scalar):
        assert fast.counters == oracle.counters, scheme.name
        assert fast.baseline == oracle.baseline, scheme.name


def test_batch_result_order_matches_configs():
    spec = generate_workload(42, num_warps=1)
    results = allocate_kernels_batch(spec.kernel, SWEEP_CONFIGS)
    assert len(results) == len(SWEEP_CONFIGS)
    for config, result in zip(SWEEP_CONFIGS, results):
        assert result.config == config


def _count_analyses(monkeypatch):
    """Count fresh analyses (memo misses) from here on."""
    calls = []
    original = analysis_module.analyze_kernel

    def counting(kernel, assume_persistent=False):
        calls.append((kernel.name, assume_persistent))
        return original(kernel, assume_persistent)

    monkeypatch.setattr(analysis_module, "analyze_kernel", counting)
    return calls


def test_batch_shares_one_analysis_per_persistence_flavour(monkeypatch):
    spec = generate_workload(101, num_warps=1)
    clear_analysis_cache()
    calls = _count_analyses(monkeypatch)
    allocate_kernels_batch(spec.kernel, SWEEP_CONFIGS)
    flavours = {c.assume_persistent_strands for c in SWEEP_CONFIGS}
    assert sorted(flag for _, flag in calls) == sorted(flavours)
    allocate_kernels_batch(spec.kernel.clone(), SWEEP_CONFIGS)
    assert len(calls) == len(flavours)


def test_analysis_memo_keeps_a_hot_kernel_among_one_shot_kernels(
    monkeypatch,
):
    """LRU, not clear-at-the-bound: a kernel analysed between every
    one-shot kernel stays memoized however many pass through."""
    hot = generate_workload(7, num_warps=1).kernel
    clear_analysis_cache()
    first = kernel_analysis(hot)
    calls = _count_analyses(monkeypatch)
    one_shot = 200
    assert one_shot > analysis_module.ANALYSIS_MEMO_ENTRIES
    for seed in range(1000, 1000 + one_shot):
        kernel_analysis(generate_workload(seed, num_warps=1).kernel)
        assert kernel_analysis(hot) is first
    assert len(calls) == one_shot
    assert all(name != hot.name for name, _ in calls)


def test_analysis_cache_hits_across_clones():
    spec = generate_workload(7, num_warps=1)
    clear_analysis_cache()
    first = kernel_analysis(spec.kernel)
    again = kernel_analysis(spec.kernel.clone())
    assert again is first
    persistent = kernel_analysis(spec.kernel, assume_persistent=True)
    assert persistent is not first
    assert persistent.assume_persistent


def test_analysis_clone_is_never_annotated():
    """The analysis's pristine clone stays pristine across levels runs."""
    spec = generate_workload(211, num_warps=1)
    clear_analysis_cache()
    analysis = kernel_analysis(spec.kernel)
    allocate_kernels_batch(spec.kernel, SWEEP_CONFIGS)
    for _, instruction in analysis.kernel.instructions():
        assert instruction.dst_ann is None
        assert instruction.src_anns is None


def test_recorder_does_not_pollute_shared_analysis():
    """Recording one config of a batch leaves the cache reusable: a
    later unrecorded batch from the same cache is unchanged."""
    spec = generate_workload(320, num_warps=1)
    clear_analysis_cache()
    plain = allocate_kernels_batch(spec.kernel, SWEEP_CONFIGS)
    recorders = [ProvenanceRecorder() for _ in SWEEP_CONFIGS]
    recorded = allocate_kernels_batch(
        spec.kernel, SWEEP_CONFIGS, recorders=recorders
    )
    rerun = allocate_kernels_batch(spec.kernel, SWEEP_CONFIGS)
    for a, b, c in zip(plain, recorded, rerun):
        assert annotations_to_dict(a.kernel) == annotations_to_dict(b.kernel)
        assert annotations_to_dict(a.kernel) == annotations_to_dict(c.kernel)
    assert any(r.events for r in recorders)


def test_mismatched_analysis_flavour_rejected():
    spec = generate_workload(7, num_warps=1)
    analysis = kernel_analysis(spec.kernel, assume_persistent=True)
    with pytest.raises(ValueError):
        allocate_kernel(
            spec.kernel.clone(), AllocationConfig(), analysis=analysis
        )


def test_recorders_length_must_match_configs():
    spec = generate_workload(7, num_warps=1)
    with pytest.raises(ValueError):
        allocate_kernels_batch(
            spec.kernel, SWEEP_CONFIGS, recorders=[ProvenanceRecorder()]
        )
