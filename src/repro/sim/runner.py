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
and scale by multiplicity, and the baseline counters and liveness
analyses are cached per trace set / kernel.  ``REPRO_COMPILED=0`` (or
``use_compiled=False``) forces the original scalar event walk, which
is kept bit-for-bit as the differential-testing oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, MutableMapping, Optional, Sequence, Tuple

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


#: Memo for clone-based allocations, shared across scheme evaluations.
#: Keyed on (kernel content fingerprint, allocation config, energy
#: model); both value types are frozen dataclasses, so plain dict
#: lookup gives exact-match semantics.  The model component is
#: *normalized*: ``None`` and an explicit model equal to
#: ``config.energy_model()`` map to the same key, since they produce
#: identical allocations.
AllocationMemo = MutableMapping[
    Tuple[str, AllocationConfig, Optional[EnergyModel]], AllocationResult
]


def _memo_model(
    config: AllocationConfig, model: Optional[EnergyModel]
) -> Optional[EnergyModel]:
    """The memo key's model component, with the default folded to None.

    ``allocate_kernel(model=None)`` uses ``config.energy_model()``, so
    passing that model explicitly cannot change the result; keying both
    spellings identically stops them from duplicating allocations.
    """
    if model is None or model == config.energy_model():
        return None
    return model


def allocation_memo_key(
    kernel: Kernel,
    config: AllocationConfig,
    model: Optional[EnergyModel] = None,
) -> Tuple[str, AllocationConfig, Optional[EnergyModel]]:
    """The normalized memo key for one (kernel, config, model) triple."""
    return (
        kernel.content_fingerprint(),
        config,
        _memo_model(config, model),
    )


def allocate_for_traces(
    kernel: Kernel,
    config: AllocationConfig,
    model: Optional[EnergyModel] = None,
    memo: Optional[AllocationMemo] = None,
) -> AllocationResult:
    """Allocate a pristine clone of ``kernel`` — never the original.

    The traced kernel keeps whatever annotations it had; accounting
    resolves the clone's annotations by instruction position.  With a
    ``memo``, repeated evaluations of one kernel under one config reuse
    the allocation instead of re-running the levels pass.  Even on a
    memo miss the scheme-independent analysis phase comes from the
    shared cache (:func:`repro.alloc.analysis.kernel_analysis`), so a
    multi-config sweep pays for it once per kernel.
    """
    if memo is None:
        return allocate_kernel(kernel.clone(), config, model=model)
    key = allocation_memo_key(kernel, config, model)
    allocation = memo.get(key)
    if allocation is None:
        allocation = allocate_kernel(kernel.clone(), config, model=model)
        memo[key] = allocation
    return allocation


def allocate_for_traces_batch(
    kernel: Kernel,
    configs: Sequence[AllocationConfig],
    model: Optional[EnergyModel] = None,
    memo: Optional[AllocationMemo] = None,
) -> List[AllocationResult]:
    """Allocate one kernel under many configs, sharing the analysis.

    Results match ``[allocate_for_traces(kernel, c, model, memo) for c
    in configs]`` exactly; memo misses are funneled through
    :func:`repro.alloc.allocator.allocate_kernels_batch` so the
    scheme-independent phase runs once per persistence flavour instead
    of once per config.
    """
    if memo is None:
        return allocate_kernels_batch(kernel, list(configs), model=model)
    results: List[Optional[AllocationResult]] = [None] * len(configs)
    missing: List[int] = []
    queued: set = set()
    for index, config in enumerate(configs):
        key = allocation_memo_key(kernel, config, model)
        hit = memo.get(key)
        if hit is not None:
            results[index] = hit
        elif key not in queued:
            # Duplicate keys within one batch allocate once.
            queued.add(key)
            missing.append(index)
    if missing:
        fresh = allocate_kernels_batch(
            kernel, [configs[i] for i in missing], model=model
        )
        for index, allocation in zip(missing, fresh):
            memo[
                allocation_memo_key(kernel, configs[index], model)
            ] = allocation
    for index, config in enumerate(configs):
        if results[index] is None:
            results[index] = memo[
                allocation_memo_key(kernel, config, model)
            ]
    return results  # type: ignore[return-value]


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
    allocation_memo: Optional[AllocationMemo] = None,
    use_compiled: Optional[bool] = None,
) -> KernelEvaluation:
    """Account a workload's traces under one scheme.

    Pure with respect to ``traces``: software schemes run the allocator
    on a clone of the kernel, so evaluating the same ``TraceSet`` under
    any sequence of schemes never leaks annotations between runs.

    ``use_compiled`` selects the accounting path explicitly; ``None``
    defers to the ``REPRO_COMPILED`` environment toggle (default on).
    Both paths produce identical counters — the scalar path is the
    oracle the compiled path is differentially tested against.
    """
    if use_compiled is None:
        use_compiled = compiled_enabled()
    kernel = traces.kernel

    allocation: Optional[AllocationResult] = None
    if scheme.kind.is_software:
        allocation = allocate_for_traces(
            kernel,
            scheme.allocation_config(),
            model=energy_model,
            memo=allocation_memo,
        )

    with TRACER.span(
        "sim.account",
        kernel=kernel.name,
        scheme=scheme.name,
        compiled=use_compiled,
    ):
        if use_compiled:
            counters = _account_compiled(traces, scheme, allocation)
            baseline = _cached_baseline(traces)
        else:
            counters, baseline = _account_scalar(traces, scheme, allocation)

    return KernelEvaluation(
        kernel_name=kernel.name,
        scheme=scheme,
        counters=counters,
        baseline=baseline,
        dynamic_instructions=traces.dynamic_instructions,
        allocation=allocation,
    )


def evaluate_traces_batch(
    traces: TraceSet,
    schemes: Sequence[Scheme],
    *,
    energy_model: Optional[EnergyModel] = None,
    allocation_memo: Optional[AllocationMemo] = None,
    use_compiled: Optional[bool] = None,
) -> List[KernelEvaluation]:
    """Account one workload under many schemes, sharing work.

    Semantically ``[evaluate_traces(traces, s) for s in schemes]`` —
    but all software schemes allocate through
    :func:`allocate_for_traces_batch` (one scheme-independent kernel
    analysis, one levels pass per config), and on the compiled path all
    hardware schemes are evaluated in a single pass per unique trace
    (:func:`repro.sim.compiled.hardware_counters`), sharing the
    per-event decode and deschedule resolution instead of walking the
    trace once per scheme.
    """
    if use_compiled is None:
        use_compiled = compiled_enabled()

    # Batch software allocations up front: memo misses run the levels
    # pass only, against one shared analysis.  A local memo keeps the
    # batched allocations reachable for the per-scheme evaluations even
    # when the caller did not pass one.
    software = [s for s in schemes if s.kind.is_software]
    if software:
        if allocation_memo is None:
            allocation_memo = {}
        allocate_for_traces_batch(
            traces.kernel,
            [s.allocation_config() for s in software],
            model=energy_model,
            memo=allocation_memo,
        )

    if not use_compiled:
        return [
            evaluate_traces(
                traces,
                scheme,
                energy_model=energy_model,
                allocation_memo=allocation_memo,
                use_compiled=False,
            )
            for scheme in schemes
        ]

    hardware = [s for s in schemes if s.kind.is_hardware]
    batched: dict = {}
    if hardware:
        with TRACER.span(
            "sim.account_batch",
            kernel=traces.kernel.name,
            schemes=len(hardware),
        ):
            batched = hardware_counters(compile_traces(traces), hardware)

    evaluations: List[KernelEvaluation] = []
    for scheme in schemes:
        if scheme.kind.is_hardware:
            evaluations.append(
                KernelEvaluation(
                    kernel_name=traces.kernel.name,
                    scheme=scheme,
                    counters=batched[scheme].copy(),
                    baseline=_cached_baseline(traces),
                    dynamic_instructions=traces.dynamic_instructions,
                )
            )
        else:
            evaluations.append(
                evaluate_traces(
                    traces,
                    scheme,
                    energy_model=energy_model,
                    allocation_memo=allocation_memo,
                    use_compiled=True,
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
    """Account via the compiled trace form (see module docstring)."""
    compiled = compile_traces(traces)

    if scheme.kind is SchemeKind.BASELINE:
        return _cached_baseline(traces)
    if scheme.kind.is_software:
        assert allocation is not None
        return software_counters(compiled, allocation.kernel)

    # Hardware schemes: replay each unique trace's precompiled event
    # program through the columnar cache walk (a batch of one; see
    # evaluate_traces_batch for the shared-decode multi-scheme form).
    return hardware_counters(compiled, [scheme])[scheme]


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


def evaluate_kernel(
    kernel: Kernel,
    warp_inputs: Sequence[WarpInput],
    scheme: Scheme,
) -> KernelEvaluation:
    """Convenience wrapper: trace then account under one scheme."""
    return evaluate_traces(build_traces(kernel, warp_inputs), scheme)


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
