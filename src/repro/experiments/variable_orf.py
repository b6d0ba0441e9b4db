"""Variable ORF allocation: fixed vs realistic scheduler vs oracle
(Section 7, "Variable Allocation of ORF Resources").

The paper evaluates an *oracle* policy — the scheduler knows the
register needs of future threads — and reports ~6% further savings,
noting that "a realistic scheduler would perform worse than our oracle
scheduler".  This module implements that realistic scheduler so the gap
can actually be measured:

* every kernel is compiled once per ORF size (1-8 entries), producing
  per-strand access counters for each size — the information a strand
  header would carry;
* the *header* of each static strand declares, per size, the energy the
  strand saves relative to running entirely from the MRF;
* a shared pool of ``active_warps x base_entries`` ORF entries is
  simulated: warps' strand executions interleave round-robin; at each
  strand entry the warp requests the smallest size within
  ``request_tolerance`` of its best declared savings, the scheduler
  grants what is available (no future knowledge), and the strand runs
  with the counters of the granted size (0 granted = all-MRF);
* the oracle instead charges every strand execution at its individually
  best size, ignoring pool contention — the paper's upper bound.

Access energy is charged at the base structure's Table 3 row: the pool
is the same physical array regardless of how entries are partitioned
across warps (the paper's oracle makes the same assumption).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..alloc.allocator import AllocationConfig
from ..alloc.analysis import kernel_analysis
from ..energy.accounting import compute_energy
from ..energy.model import EnergyModel
from ..hierarchy.counters import AccessCounters
from ..ir.kernel import Kernel
from ..sim.accounting import (
    BaselineAccounting,
    SoftwareAccounting,
)
from ..sim.executor import TraceEvent
from ..sim.runner import TraceSet, allocate_for_traces
from .suite_data import SuiteData

SIZES = tuple(range(1, 9))


@dataclass
class StrandExecution:
    """One dynamic execution of a strand by one warp."""

    warp: int
    strand_key: Tuple[str, int]
    #: Access counters per compiled ORF size (0 = all-MRF fallback).
    counters_by_size: Dict[int, AccessCounters]

    def energy(self, size: int, model: EnergyModel) -> float:
        return compute_energy(self.counters_by_size[size], model).total_pj


@dataclass
class VariableOrfResult:
    """Normalized energies of the three policies."""

    fixed: float
    realistic: float
    oracle: float
    #: Fraction of realistic grants that were smaller than requested.
    starved_fraction: float


def _split_executions(
    trace: Sequence[TraceEvent], strand_of_position: Dict[int, int]
) -> List[List[TraceEvent]]:
    """Split a warp trace at strand boundaries (strand change or
    position non-increase within the same strand)."""
    executions: List[List[TraceEvent]] = []
    current: List[TraceEvent] = []
    prev_strand: Optional[int] = None
    prev_position: Optional[int] = None
    for event in trace:
        position = event.ref.position
        strand = strand_of_position.get(position)
        boundary = strand != prev_strand or (
            prev_position is not None and position <= prev_position
        )
        if boundary and current:
            executions.append(current)
            current = []
        current.append(event)
        prev_strand = strand
        prev_position = position
    if current:
        executions.append(current)
    return executions


def _account_events(
    events: Sequence[TraceEvent],
    software: bool,
    annotation_kernel: Optional[Kernel] = None,
) -> AccessCounters:
    counters = AccessCounters()
    driver = (
        SoftwareAccounting(counters, annotation_kernel)
        if software
        else BaselineAccounting(counters)
    )
    for event in events:
        driver.process(event)
    driver.finish()
    return counters


def collect_strand_executions(
    items: Sequence[Tuple[object, TraceSet]],
    base_config: AllocationConfig,
) -> Tuple[List[List[StrandExecution]], AccessCounters]:
    """Per-warp ordered strand executions with per-size counters,
    plus the single-level baseline counters for normalisation.

    Warps are numbered across workloads (each simulated warp is an
    independent resident warp competing for the pool).
    """
    per_warp: List[List[StrandExecution]] = []
    baseline = AccessCounters()

    # Pass 0: split every warp's trace into executions; account the
    # all-MRF fallback and the baseline.  Strands are scheme-independent,
    # so the partition comes from the allocator's analysis.
    raw: List[
        Tuple[object, Dict[int, int], List[List[List[TraceEvent]]]]
    ] = []
    for spec, traces in items:
        strand_map = kernel_analysis(
            spec.kernel, base_config.assume_persistent_strands
        ).partition.strand_of_position
        warp_splits = [
            _split_executions(trace, strand_map)
            for trace in traces.warp_traces
        ]
        raw.append((spec, strand_map, warp_splits))
        for trace in traces.warp_traces:
            baseline.merge(_account_events(trace, software=False))

    # Per size: reallocate and account each execution.
    counters_store: Dict[
        Tuple[int, int, int], Dict[int, AccessCounters]
    ] = {}
    for workload_index, (_, _, warp_splits) in enumerate(raw):
        for warp_index, executions in enumerate(warp_splits):
            for exec_index, events in enumerate(executions):
                counters_store[
                    (workload_index, warp_index, exec_index)
                ] = {0: _account_events(events, software=False)}
    for size in SIZES:
        for workload_index, (spec, _, warp_splits) in enumerate(raw):
            config = AllocationConfig(
                orf_entries=size,
                use_lrf=base_config.use_lrf,
                split_lrf=base_config.split_lrf,
                enable_partial_ranges=base_config.enable_partial_ranges,
                enable_read_operands=base_config.enable_read_operands,
                allow_forward_branches=base_config.allow_forward_branches,
            )
            allocation = allocate_for_traces(spec.kernel, config)
            for warp_index, executions in enumerate(warp_splits):
                for exec_index, events in enumerate(executions):
                    counters_store[
                        (workload_index, warp_index, exec_index)
                    ][size] = _account_events(
                        events, software=True,
                        annotation_kernel=allocation.kernel,
                    )

    warp_counter = 0
    for workload_index, (spec, strand_map, warp_splits) in enumerate(raw):
        for warp_index, executions in enumerate(warp_splits):
            sequence: List[StrandExecution] = []
            for exec_index, events in enumerate(executions):
                strand = strand_map.get(events[0].ref.position, -1)
                sequence.append(
                    StrandExecution(
                        warp=warp_counter,
                        strand_key=(spec.name, strand),
                        counters_by_size=counters_store[
                            (workload_index, warp_index, exec_index)
                        ],
                    )
                )
            per_warp.append(sequence)
            warp_counter += 1
    return per_warp, baseline


def _strand_headers(
    per_warp: Sequence[Sequence[StrandExecution]],
    model: EnergyModel,
) -> Dict[Tuple[str, int], Dict[int, float]]:
    """Static strand headers: mean declared savings per size."""
    sums: Dict[Tuple[str, int], Dict[int, float]] = {}
    counts: Dict[Tuple[str, int], int] = {}
    for sequence in per_warp:
        for execution in sequence:
            key = execution.strand_key
            counts[key] = counts.get(key, 0) + 1
            per_size = sums.setdefault(key, {s: 0.0 for s in SIZES})
            base = execution.energy(0, model)
            for size in SIZES:
                per_size[size] += base - execution.energy(size, model)
    return {
        key: {size: total / counts[key] for size, total in per_size.items()}
        for key, per_size in sums.items()
    }


def _request_size(
    header: Dict[int, float], tolerance: float
) -> int:
    """Smallest size within ``tolerance`` of the best declared saving."""
    best = max(header.values())
    if best <= 0:
        return 0
    for size in SIZES:
        if header[size] >= (1.0 - tolerance) * best:
            return size
    return SIZES[-1]


def simulate_realistic(
    per_warp: Sequence[Sequence[StrandExecution]],
    model: EnergyModel,
    pool_entries: int,
    active_warps: int = 8,
    request_tolerance: float = 0.05,
) -> Tuple[float, float]:
    """(total pJ, starved fraction) under the realistic pool scheduler.

    Strand executions interleave round-robin across warps in windows of
    ``active_warps``; entries are granted first-come-first-served from
    the shared pool and returned at strand end (strands in this model
    run to completion within their scheduling turn, matching the
    trace-level abstraction).
    """
    headers = _strand_headers(per_warp, model)
    total_pj = 0.0
    grants = 0
    starved = 0

    queues = [list(sequence) for sequence in per_warp]
    pending = [q for q in queues if q]
    while pending:
        window = pending[:active_warps]
        available = pool_entries
        scheduled: List[Tuple[StrandExecution, int]] = []
        for queue in window:
            execution = queue.pop(0)
            request = _request_size(
                headers[execution.strand_key], request_tolerance
            )
            granted = min(request, available)
            available -= granted
            scheduled.append((execution, granted))
            grants += 1
            if granted < request:
                starved += 1
        for execution, granted in scheduled:
            total_pj += execution.energy(granted, model)
        pending = [q for q in queues if q]
    return total_pj, (starved / grants if grants else 0.0)


def oracle_energy(
    per_warp: Sequence[Sequence[StrandExecution]],
    model: EnergyModel,
) -> float:
    """Every strand execution at its individually best size (Section 7's
    oracle upper bound; ignores pool contention)."""
    total = 0.0
    for sequence in per_warp:
        for execution in sequence:
            total += min(
                execution.energy(size, model) for size in (0,) + SIZES
            )
    return total


def run_variable_orf_study(
    data: SuiteData,
    base_entries: int = 3,
    active_warps: int = 8,
) -> VariableOrfResult:
    def compute() -> Dict[str, float]:
        base_config = AllocationConfig(
            orf_entries=base_entries, use_lrf=True, split_lrf=True
        )
        model = EnergyModel(orf_entries=base_entries, split_lrf=True)
        per_warp, baseline = collect_strand_executions(
            data.items, base_config
        )
        baseline_pj = compute_energy(baseline, model).total_pj

        fixed_pj = sum(
            execution.energy(base_entries, model)
            for sequence in per_warp
            for execution in sequence
        )
        realistic_pj, starved = simulate_realistic(
            per_warp, model,
            pool_entries=base_entries * active_warps,
            active_warps=active_warps,
        )
        oracle_pj = oracle_energy(per_warp, model)
        return {
            "fixed": fixed_pj / baseline_pj,
            "realistic": realistic_pj / baseline_pj,
            "oracle": oracle_pj / baseline_pj,
            "starved_fraction": starved,
        }

    values = data.engine.memo_study(
        (
            "variable-orf",
            data.content_fingerprint(),
            str(base_entries),
            str(active_warps),
        ),
        compute,
    )
    return VariableOrfResult(
        fixed=values["fixed"],
        realistic=values["realistic"],
        oracle=values["oracle"],
        starved_fraction=values["starved_fraction"],
    )


def format_variable_orf(result: VariableOrfResult) -> str:
    lines = [
        "Variable ORF allocation (Section 7): fixed vs realistic vs "
        "oracle",
        f"  fixed 3 entries/warp:     {result.fixed:6.3f} "
        f"({100 * (1 - result.fixed):5.1f}% savings)",
        f"  realistic pool scheduler: {result.realistic:6.3f} "
        f"({100 * (1 - result.realistic):5.1f}% savings, "
        f"{100 * result.starved_fraction:.1f}% of grants starved)",
        f"  oracle per-strand sizing: {result.oracle:6.3f} "
        f"({100 * (1 - result.oracle):5.1f}% savings)",
        "",
        "paper: the oracle saves ~6 further points; a realistic "
        "scheduler 'would perform worse than our oracle' — the gap "
        "above quantifies how much.",
    ]
    return "\n".join(lines)
