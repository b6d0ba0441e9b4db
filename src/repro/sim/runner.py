"""High-level evaluation driver: kernel + warps + scheme -> counts.

Mirrors the paper's methodology (Section 5.1): execute the workload,
record the number of accesses to each level of the register file over
the whole execution, and separately record the single-level baseline's
access counts for normalisation.

Traces are materialised once per workload (:class:`TraceSet`) and
re-accounted under every scheme, exactly like the authors' custom
Ocelot trace-analysis tool.  Re-accounting normally runs on the
*compiled* trace form (:mod:`repro.sim.compiled`): stateless schemes
walk per-trace-set issue and guard-pass counts in O(static
instructions), hardware schemes simulate each unique warp trace once
and scale by multiplicity, and the baseline counters and the hardware
walk table are cached on the trace set and the kernel.
``REPRO_COMPILED=0`` (or ``use_compiled=False``) forces the original
scalar event walk, which is kept bit-for-bit as the
differential-testing oracle.

There is one evaluation path, in two steps: :func:`allocate_schemes`
allocates every software scheme of a batch together, sharing one
analysis and, across schemes whose placements coincide, one read-only
annotated clone of the kernel, and :func:`account_traces_batch` accounts
the traces under each scheme with the allocation it was handed.
:func:`evaluate_traces_batch` runs both; :func:`evaluate_traces` is a
batch of one.  Nothing here memoizes an allocation: the only state
kept across schemes is scheme-independent (the traces, the compiled
form, the allocator's analysis memo).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..alloc.allocator import (
    AllocationConfig,
    AllocationResult,
    allocate_kernel,
    allocate_kernels_batch,
)
from ..energy.model import EnergyModel
from ..analysis.usage import UsageHistogram, ValueUsageTracker
from ..hierarchy.counters import AccessCounters
from ..hierarchy.hw_lrf import HardwareThreeLevel
from ..hierarchy.rfc import RegisterFileCache
from ..ir.kernel import Kernel
from ..obs.tracer import TRACER
from .accounting import (
    BaselineAccounting,
    HardwareAccounting,
    PointLiveness,
    SoftwareAccounting,
    account_trace,
    shared_consumed_positions,
)
from .compiled import (
    CompiledTraceSet,
    baseline_counters,
    compile_traces,
    compiled_enabled,
    hardware_counters,
    software_counters,
)
from .executor import TraceEvent, WarpExecutor, WarpInput
from .schemes import Scheme, SchemeKind


@dataclass
class TraceSet:
    """Materialised dynamic traces for one kernel's warps."""

    kernel: Kernel
    warp_traces: List[List[TraceEvent]]

    @property
    def dynamic_instructions(self) -> int:
        cached = self.__dict__.get("_dynamic_instructions")
        if cached is None:
            cached = sum(len(trace) for trace in self.warp_traces)
            self.__dict__["_dynamic_instructions"] = cached
        return cached

    @property
    def unique_trace_count(self) -> int:
        """Number of distinct warp traces after content deduplication."""
        return self.compiled().unique_trace_count

    def compiled(self) -> CompiledTraceSet:
        """The columnar compiled form (built once, cached)."""
        return compile_traces(self)


def build_traces(
    kernel: Kernel, warp_inputs: Sequence[WarpInput]
) -> TraceSet:
    """Execute every warp and materialise its instruction stream."""
    with TRACER.span(
        "sim.trace", kernel=kernel.name, warps=len(warp_inputs)
    ):
        traces = [
            list(WarpExecutor(kernel, warp_input).run())
            for warp_input in warp_inputs
        ]
        return TraceSet(kernel, traces)


def build_divergent_traces(kernel: Kernel, warp_inputs) -> TraceSet:
    """Execute SIMT-divergent warps (per-thread inputs) and materialise
    their traces; the result feeds the same accounting as uniform
    traces (register file access costs are warp-level regardless of the
    active mask, Section 5.2)."""
    from .divergence import DivergentWarpExecutor

    traces = [
        list(DivergentWarpExecutor(kernel, warp_input).run())
        for warp_input in warp_inputs
    ]
    return TraceSet(kernel, traces)


@dataclass
class KernelEvaluation:
    """Access counts for one kernel under one scheme."""

    kernel_name: str
    scheme: Scheme
    counters: AccessCounters
    baseline: AccessCounters
    dynamic_instructions: int
    allocation: Optional[AllocationResult] = None


def allocate_for_traces(
    kernel: Kernel,
    config: AllocationConfig,
    model: Optional[EnergyModel] = None,
) -> AllocationResult:
    """Allocate a pristine clone of ``kernel`` — never the original.

    The traced kernel keeps whatever annotations it had; accounting
    resolves the clone's annotations by instruction position.  The
    scheme-independent analysis phase comes from the shared memo
    (:func:`repro.alloc.analysis.kernel_analysis`), so a multi-config
    sweep pays for it once per kernel.
    """
    return allocate_kernel(kernel.clone(), config, model=model)


def allocate_schemes(
    kernel: Kernel,
    schemes: Sequence[Scheme],
    model: Optional[EnergyModel] = None,
) -> List[Optional[AllocationResult]]:
    """One allocation per scheme, parallel to ``schemes``.

    Software schemes are allocated together through
    :func:`repro.alloc.allocator.allocate_kernels_batch` (one analysis
    per persistence flavour, one levels pass per scheme; schemes whose
    placements coincide share one read-only annotated clone); hardware
    and baseline schemes get ``None``.
    """
    configs = [s.allocation_config() for s in schemes if s.kind.is_software]
    if not configs:
        return [None] * len(schemes)
    fresh = iter(allocate_kernels_batch(kernel, configs, model=model))
    return [next(fresh) if s.kind.is_software else None for s in schemes]


def _cached_baseline(traces: TraceSet) -> AccessCounters:
    """The trace set's single-level counters, computed once.

    Every scheme evaluation needs the same baseline for normalisation;
    the compiled path derives it from the per-position counts and
    caches it on the trace set.  Callers get an independent copy.
    """
    cached = getattr(traces, "_baseline_counters", None)
    if cached is None:
        cached = baseline_counters(compile_traces(traces))
        traces._baseline_counters = cached
    return cached.copy()


def evaluate_traces(
    traces: TraceSet,
    scheme: Scheme,
    *,
    energy_model: Optional[EnergyModel] = None,
    use_compiled: Optional[bool] = None,
) -> KernelEvaluation:
    """Account a workload's traces under one scheme: a batch of one.

    Pure with respect to ``traces``: software schemes run the allocator
    on a clone of the kernel, so evaluating the same ``TraceSet`` under
    any sequence of schemes never leaks annotations between runs.

    ``use_compiled`` selects the accounting path explicitly; ``None``
    defers to the ``REPRO_COMPILED`` environment toggle (default on).
    Both paths produce identical counters — the scalar path is the
    oracle the compiled path is differentially tested against.
    """
    (evaluation,) = evaluate_traces_batch(
        traces, [scheme], energy_model=energy_model, use_compiled=use_compiled
    )
    return evaluation


def evaluate_traces_batch(
    traces: TraceSet,
    schemes: Sequence[Scheme],
    *,
    energy_model: Optional[EnergyModel] = None,
    use_compiled: Optional[bool] = None,
) -> List[KernelEvaluation]:
    """Account one workload under many schemes, sharing work.

    Two steps: :func:`allocate_schemes` allocates every software scheme
    in one batch, then :func:`account_traces_batch` accounts the traces
    under each scheme with its allocation.
    """
    allocations = allocate_schemes(traces.kernel, schemes, energy_model)
    return account_traces_batch(
        traces, schemes, allocations, use_compiled=use_compiled
    )


def account_traces_batch(
    traces: TraceSet,
    schemes: Sequence[Scheme],
    allocations: Sequence[Optional[AllocationResult]],
    *,
    use_compiled: Optional[bool] = None,
) -> List[KernelEvaluation]:
    """Account ``traces`` under each scheme with the given allocations.

    ``allocations`` parallels ``schemes`` (see :func:`allocate_schemes`)
    and stays attached to each software evaluation.  On the compiled
    path all hardware schemes are evaluated in a single pass per unique
    trace (:func:`repro.sim.compiled.hardware_counters`), sharing the
    per-event decode and deschedule resolution instead of walking the
    trace once per scheme, and software schemes walk each distinct
    annotated kernel once: software counters depend only on the traces
    and the annotations, and a batch's allocations that annotate alike
    share one kernel object.  Every evaluation gets counters of its
    own.  The scalar oracle still walks once per scheme.
    """
    if use_compiled is None:
        use_compiled = compiled_enabled()
    kernel = traces.kernel

    batched: dict = {}
    hardware = [s for s in schemes if s.kind.is_hardware]
    if use_compiled and hardware:
        with TRACER.span(
            "sim.account_batch", kernel=kernel.name, schemes=len(hardware)
        ):
            batched = hardware_counters(compile_traces(traces), hardware)

    # id(annotated kernel) -> its software counters, for this call.
    walked: Dict[int, AccessCounters] = {}
    evaluations: List[KernelEvaluation] = []
    for scheme, allocation in zip(schemes, allocations):
        with TRACER.span(
            "sim.account",
            kernel=kernel.name,
            scheme=scheme.name,
            compiled=use_compiled,
        ) as span:
            shared = False
            if not use_compiled:
                counters, baseline = _account_scalar(
                    traces, scheme, allocation
                )
            else:
                if scheme.kind.is_hardware:
                    counters = batched[scheme].copy()
                elif scheme.kind.is_software:
                    key = id(allocation.kernel)
                    shared = key in walked
                    if not shared:
                        walked[key] = _account_compiled(
                            traces, scheme, allocation
                        )
                    counters = walked[key].copy()
                else:
                    counters = _account_compiled(traces, scheme, allocation)
                baseline = _cached_baseline(traces)
            if span is not None and scheme.kind.is_software:
                span.attributes["counters_shared"] = shared
        evaluations.append(
            KernelEvaluation(
                kernel_name=kernel.name,
                scheme=scheme,
                counters=counters,
                baseline=baseline,
                dynamic_instructions=traces.dynamic_instructions,
                allocation=allocation,
            )
        )
    return evaluations


def _account_scalar(
    traces: TraceSet,
    scheme: Scheme,
    allocation: Optional[AllocationResult],
) -> Tuple[AccessCounters, AccessCounters]:
    """The oracle: interpret every dynamic event of every warp."""
    kernel = traces.kernel
    counters = AccessCounters()
    baseline = AccessCounters()

    liveness: Optional[PointLiveness] = None
    shared_positions = frozenset()
    if scheme.kind.is_hardware:
        liveness = PointLiveness(kernel)
        if scheme.kind is SchemeKind.HW_THREE_LEVEL:
            shared_positions = shared_consumed_positions(kernel)

    annotated = allocation.kernel if allocation is not None else None
    for trace in traces.warp_traces:
        driver = _make_driver(
            scheme, kernel, counters, liveness, shared_positions, annotated
        )
        account_trace(driver, trace)
        baseline_driver = BaselineAccounting(baseline)
        account_trace(baseline_driver, trace)
    return counters, baseline


def _account_compiled(
    traces: TraceSet,
    scheme: Scheme,
    allocation: Optional[AllocationResult],
) -> AccessCounters:
    """Account a stateless scheme by position walk over the compiled
    form (see module docstring); hardware schemes go through
    :func:`repro.sim.compiled.hardware_counters` in
    :func:`account_traces_batch`."""
    if scheme.kind is SchemeKind.BASELINE:
        return _cached_baseline(traces)
    assert scheme.kind.is_software and allocation is not None
    return software_counters(compile_traces(traces), allocation.kernel)


def _make_driver(
    scheme: Scheme,
    kernel: Kernel,
    counters: AccessCounters,
    liveness: Optional[PointLiveness],
    shared_positions,
    annotation_kernel: Optional[Kernel] = None,
    operands=None,
):
    if scheme.kind is SchemeKind.BASELINE:
        return BaselineAccounting(counters)
    if scheme.kind.is_software:
        return SoftwareAccounting(counters, annotation_kernel)
    if scheme.kind is SchemeKind.HW_TWO_LEVEL:
        model = RegisterFileCache(
            scheme.entries_per_thread,
            counters,
            flush_on_backward_branch=scheme.flush_on_backward_branch,
        )
        return HardwareAccounting(model, liveness, kernel, operands=operands)
    if scheme.kind is SchemeKind.HW_THREE_LEVEL:
        model = HardwareThreeLevel(
            scheme.entries_per_thread,
            counters,
            shared_positions,
            flush_on_backward_branch=scheme.flush_on_backward_branch,
        )
        return HardwareAccounting(
            model, liveness, kernel, three_level=True, operands=operands
        )
    raise ValueError(f"unknown scheme kind {scheme.kind}")


def usage_histogram(traces: TraceSet) -> UsageHistogram:
    """Figure 2 statistics for one workload's traces.

    Observes each *unique* warp trace once and adds its tracker with
    the trace's multiplicity — identical totals to walking every warp
    (histogram buckets are sums), at deduplicated cost.
    """
    histogram = UsageHistogram()
    compiled = compile_traces(traces)
    layout = [
        instruction for _, instruction in traces.kernel.instructions()
    ]
    for compiled_trace in compiled.unique:
        tracker = ValueUsageTracker()
        for position, guard in zip(
            compiled_trace.positions, compiled_trace.guards
        ):
            tracker.observe(layout[position], bool(guard))
        tracker.finish()
        histogram.add_tracker(
            tracker, multiplicity=compiled_trace.multiplicity
        )
    return histogram
