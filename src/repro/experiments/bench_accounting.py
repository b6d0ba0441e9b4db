"""Scalar-vs-compiled accounting benchmark (``repro bench-accounting``).

Times the two accounting paths over the standard workload suite — the
scalar event-walk oracle against the compiled columnar/histogram path
through :func:`repro.sim.runner.account_traces_batch`, so all 12
hardware sweep configurations share one event-program pass per unique
trace) — and writes the measurements as JSON (``BENCH_accounting.json``).

Method: every software allocation is made once, before the timed
passes, and handed to the accounting step, so both passes time
*accounting*, not the allocator; the engine record memo is never
involved (cold-engine, single-process numbers); the compiled pass runs
on freshly built trace sets, so one-time trace compilation is inside
the measured region; each pass is repeated and the best wall time kept.

Schema 2 adds machine-comparable normalized costs: per family, the
nanoseconds spent per dynamic instruction per scheme
(``*_ns_per_instr``), alongside the raw wall seconds.

Schema 3 adds an ``allocation`` section (additive; every schema-2 key
is unchanged): wall time to allocate the full software sweep per-config
from cold (``single_s`` — fresh analysis for every config, the
pre-batching pipeline) against the batched path (``batch_s`` — one
:func:`~repro.alloc.analysis.analyze_kernel` per kernel via
:func:`~repro.alloc.allocator.allocate_kernels_batch`), plus the cold
decomposition into the shared analysis share (``analysis_s``) and the
per-config levels-pass share (``levels_s``).

Schema 4 replaces fixed ``repeats`` + best-of with adaptive repetition
under a statistical stopping rule (:mod:`repro.bench`): every wall time
is now the **median** of adaptively collected samples, and a top-level
``"bench"`` section carries the full per-metric evidence — samples,
median, CI bounds, repeats used, stop reason — plus the environment
fingerprint.  Speedups are marked ``comparable`` (machine-portable,
gated by ``repro bench diff``); absolute seconds and per-instruction
nanoseconds are report-only.  The legacy section keys are unchanged in
shape, so schema-3 consumers keep working.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..alloc.allocator import (
    AllocationResult,
    allocate_kernel,
    allocate_kernels_batch,
)
from ..alloc.analysis import analyze_kernel, clear_analysis_cache
from ..sim.runner import (
    TraceSet,
    account_traces_batch,
    allocate_schemes,
    build_traces,
)
from ..sim.schemes import Scheme, SchemeKind
from ..workloads.shapes import WorkloadSpec
from ..workloads.suites import all_workloads
from ..bench import (
    CiHalfWidthRule,
    bench_section,
    measure,
    metric_from_samples,
    write_report,
)

BENCH_SCHEMA = 4

#: Per trace set, one allocation per scheme (``None`` for hardware and
#: baseline schemes), parallel to the scheme list.
Allocations = List[List[Optional[AllocationResult]]]

#: ORF/RFC sizes swept per scheme family — the Figure 11/12 x-axis.
ENTRY_SWEEP = (1, 2, 3, 4, 6, 8)


def software_schemes() -> List[Scheme]:
    return [
        Scheme(kind, entries, split_lrf=split)
        for entries in ENTRY_SWEEP
        for kind, split in (
            (SchemeKind.SW_TWO_LEVEL, False),
            (SchemeKind.SW_THREE_LEVEL, False),
            (SchemeKind.SW_THREE_LEVEL, True),
        )
    ]


def hardware_schemes() -> List[Scheme]:
    return [
        Scheme(kind, entries)
        for entries in ENTRY_SWEEP
        for kind in (SchemeKind.HW_TWO_LEVEL, SchemeKind.HW_THREE_LEVEL)
    ]


def _build_suite(scale: float) -> List[TraceSet]:
    return [
        build_traces(spec.kernel, spec.warp_inputs)
        for spec in all_workloads(scale)
    ]


def _allocate(
    suite: Sequence[TraceSet], schemes: Sequence[Scheme]
) -> Allocations:
    return [allocate_schemes(traces.kernel, schemes) for traces in suite]


def _time_pass(
    suite: Sequence[TraceSet],
    schemes: Sequence[Scheme],
    allocations: Allocations,
    use_compiled: bool,
) -> float:
    started = time.perf_counter()
    for traces, allocated in zip(suite, allocations):
        account_traces_batch(
            traces, schemes, allocated, use_compiled=use_compiled
        )
    return time.perf_counter() - started


def _ratio_metric(
    name: str,
    numerator: Sequence[float],
    denominator: Sequence[float],
    rule: CiHalfWidthRule,
) -> Dict:
    """Pairwise ratio samples (e.g. speedups) from two sample sets."""
    n = min(len(numerator), len(denominator))
    ratios = [
        numerator[i] / denominator[i] if denominator[i] else 0.0
        for i in range(n)
    ]
    return metric_from_samples(
        name,
        ratios,
        unit="x",
        direction="higher",
        comparable=True,
        rule=rule,
        stop_reason="derived",
    )


def _bench_family(
    label: str,
    schemes: Sequence[Scheme],
    scale: float,
    rule: CiHalfWidthRule,
    scalar_suite: Sequence[TraceSet],
) -> Tuple[Dict[str, float], Dict[str, Dict]]:
    # Allocated once, outside the timed region; both paths account the
    # same allocations.
    allocations = _allocate(scalar_suite, schemes)
    scalar_samples, scalar_metric = measure(
        lambda i: _time_pass(
            scalar_suite, schemes, allocations, use_compiled=False
        ),
        rule,
        name=f"{label}_scalar_s",
        unit="s",
        direction="lower",
    )
    # Fresh trace sets per repeat: trace compilation and the baseline /
    # analysis caches start cold, so their cost is part of the number.
    compiled_samples, compiled_metric = measure(
        lambda i: _time_pass(
            _build_suite(scale), schemes, allocations, use_compiled=True
        ),
        rule,
        name=f"{label}_compiled_s",
        unit="s",
        direction="lower",
    )
    scalar_s = float(statistics.median(scalar_samples))
    compiled_s = float(statistics.median(compiled_samples))
    # Normalized cost (schema 2): nanoseconds per dynamic instruction
    # per scheme — comparable across machines and suite scales.
    accounted = sum(
        traces.dynamic_instructions for traces in scalar_suite
    ) * len(schemes)

    def _per_instr(entry: Dict, samples: Sequence[float]) -> Dict:
        scaled = dict(entry)
        scaled["samples"] = [
            round(v / accounted * 1e9, 2) for v in samples
        ]
        scaled["median"] = round(entry["median"] / accounted * 1e9, 2)
        scaled["ci"] = [
            round(v / accounted * 1e9, 2) for v in entry["ci"]
        ]
        scaled["unit"] = "ns/instr"
        return scaled

    metrics = {
        f"{label}_scalar_ns_per_instr": _per_instr(
            scalar_metric, scalar_samples
        ),
        f"{label}_compiled_ns_per_instr": _per_instr(
            compiled_metric, compiled_samples
        ),
        f"{label}_speedup": _ratio_metric(
            f"{label}_speedup", scalar_samples, compiled_samples, rule
        ),
    }
    row = {
        "schemes": len(schemes),
        "scalar_s": round(scalar_s, 6),
        "compiled_s": round(compiled_s, 6),
        "scalar_ns_per_instr": round(scalar_s / accounted * 1e9, 2),
        "compiled_ns_per_instr": round(compiled_s / accounted * 1e9, 2),
        "speedup": round(scalar_s / compiled_s, 2) if compiled_s else 0.0,
    }
    return row, metrics


def _bench_allocation(
    suite: Sequence[TraceSet],
    schemes: Sequence[Scheme],
    rule: CiHalfWidthRule,
) -> Tuple[Dict[str, float], Dict[str, Dict]]:
    """Time the software sweep's allocation phase, per-config vs. batched.

    ``single_s`` reproduces the pre-batching pipeline — every config
    pays a fresh scheme-independent analysis — by calling
    :func:`analyze_kernel` (uncached) per config.  ``batch_s`` clears
    the analysis cache and runs :func:`allocate_kernels_batch` cold, so
    both numbers include exactly one pipeline's worth of work and the
    ratio is the batching win.  ``analysis_s``/``levels_s`` decompose
    one cold batched run: the shared analysis share and the per-config
    levels-pass share.
    """
    configs = [
        scheme.allocation_config()
        for scheme in schemes
        if scheme.kind.is_software
    ]
    kernels = [traces.kernel for traces in suite]
    flags = sorted({config.assume_persistent_strands for config in configs})

    def _single() -> float:
        started = time.perf_counter()
        for kernel in kernels:
            for config in configs:
                analysis = analyze_kernel(
                    kernel, config.assume_persistent_strands
                )
                allocate_kernel(
                    kernel.clone(), config, analysis=analysis
                )
        return time.perf_counter() - started

    def _batch() -> float:
        clear_analysis_cache()
        started = time.perf_counter()
        for kernel in kernels:
            allocate_kernels_batch(kernel, configs)
        return time.perf_counter() - started

    single_samples, single_metric = measure(
        lambda i: _single(),
        rule,
        name="allocation_single_s",
        unit="s",
        direction="lower",
    )
    batch_samples, batch_metric = measure(
        lambda i: _batch(),
        rule,
        name="allocation_batch_s",
        unit="s",
        direction="lower",
    )
    single_s = float(statistics.median(single_samples))
    batch_s = float(statistics.median(batch_samples))

    def _analysis() -> float:
        started = time.perf_counter()
        for kernel in kernels:
            for flag in flags:
                analyses[(kernel.content_fingerprint(), flag)] = (
                    analyze_kernel(kernel, flag)
                )
        return time.perf_counter() - started

    def _levels() -> float:
        started = time.perf_counter()
        for kernel in kernels:
            for config in configs:
                analysis = analyses[
                    (
                        kernel.content_fingerprint(),
                        config.assume_persistent_strands,
                    )
                ]
                allocate_kernel(
                    kernel.clone(), config, analysis=analysis
                )
        return time.perf_counter() - started

    analyses: Dict = {}
    analysis_samples, _ = measure(
        lambda i: _analysis(),
        rule,
        name="allocation_analysis_s",
        unit="s",
        direction="lower",
    )
    levels_samples, _ = measure(
        lambda i: _levels(),
        rule,
        name="allocation_levels_s",
        unit="s",
        direction="lower",
    )
    analysis_s = float(statistics.median(analysis_samples))
    levels_s = float(statistics.median(levels_samples))
    row = {
        "configs": len(configs),
        "kernels": len(kernels),
        "single_s": round(single_s, 6),
        "batch_s": round(batch_s, 6),
        "analysis_s": round(analysis_s, 6),
        "levels_s": round(levels_s, 6),
        "speedup": round(single_s / batch_s, 2) if batch_s else 0.0,
    }
    metrics = {
        "allocation_single_s": single_metric,
        "allocation_batch_s": batch_metric,
        "allocation_speedup": _ratio_metric(
            "allocation_speedup", single_samples, batch_samples, rule
        ),
    }
    return row, metrics


def run_bench_accounting(
    scale: float = 1.0,
    repeats: int = 3,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    *,
    rule: Optional[CiHalfWidthRule] = None,
) -> Dict:
    """Measure scalar vs. compiled accounting; return the JSON payload.

    ``repeats`` sets the stopping rule's ``min_repeats`` when no
    explicit ``rule`` is given (the default rule is a bootstrap-CI
    repeater capped at ``max(repeats, 10)`` repeats).
    """
    if rule is None:
        rule = CiHalfWidthRule(
            min_repeats=repeats,
            max_repeats=max(repeats, 10),
            target=0.05,
            seed=0,
        )
    specs = list(workloads) if workloads is not None else all_workloads(scale)
    suite = [
        build_traces(spec.kernel, spec.warp_inputs) for spec in specs
    ]
    sw = software_schemes()
    hw = hardware_schemes()
    software_row, software_metrics = _bench_family(
        "software", sw, scale, rule, suite
    )
    hardware_row, hardware_metrics = _bench_family(
        "hardware", hw, scale, rule, suite
    )
    baseline_row, baseline_metrics = _bench_family(
        "baseline", [Scheme(SchemeKind.BASELINE)], scale, rule, suite
    )
    allocation_row, allocation_metrics = _bench_allocation(suite, sw, rule)
    metrics: Dict[str, Dict] = {}
    for group in (
        software_metrics,
        hardware_metrics,
        baseline_metrics,
        allocation_metrics,
    ):
        metrics.update(group)
    payload = {
        "schema": BENCH_SCHEMA,
        "scale": scale,
        "repeats": repeats,
        "suite": {
            "workloads": len(suite),
            "dynamic_instructions": sum(
                traces.dynamic_instructions for traces in suite
            ),
            "unique_traces": sum(
                traces.unique_trace_count for traces in suite
            ),
            "warp_traces": sum(
                len(traces.warp_traces) for traces in suite
            ),
            "static_instructions": sum(
                traces.kernel.num_instructions for traces in suite
            ),
        },
        "software": software_row,
        "hardware": hardware_row,
        "baseline": baseline_row,
        "allocation": allocation_row,
        "bench": bench_section("bench-accounting", metrics, rule=rule),
    }
    return payload


def format_bench_accounting(payload: Dict) -> str:
    suite = payload["suite"]
    lines = [
        "Accounting benchmark: scalar event walk vs. compiled "
        "columnar traces",
        f"  suite: {suite['workloads']} workloads, "
        f"{suite['dynamic_instructions']} dynamic / "
        f"{suite['static_instructions']} static instructions, "
        f"{suite['unique_traces']}/{suite['warp_traces']} unique warp "
        "traces",
    ]
    for family in ("software", "hardware", "baseline"):
        row = payload[family]
        lines.append(
            f"  {family:<9} {row['schemes']:>3} schemes   "
            f"scalar {row['scalar_s']:8.3f}s "
            f"({row['scalar_ns_per_instr']:8.1f} ns/instr)   "
            f"compiled {row['compiled_s']:8.3f}s "
            f"({row['compiled_ns_per_instr']:8.1f} ns/instr)   "
            f"{row['speedup']:6.2f}x"
        )
    alloc = payload.get("allocation")
    if alloc is not None:
        lines.append(
            f"  allocation {alloc['configs']} configs x "
            f"{alloc['kernels']} kernels   "
            f"per-config {alloc['single_s']:8.3f}s   "
            f"batched {alloc['batch_s']:8.3f}s "
            f"(analysis {alloc['analysis_s']:.3f}s + "
            f"levels {alloc['levels_s']:.3f}s)   "
            f"{alloc['speedup']:6.2f}x"
        )
    bench = payload.get("bench")
    if bench is not None:
        rule = bench.get("rule", {})
        env = bench.get("env", {})
        stops = sorted({
            metric.get("stop_reason", "?")
            for metric in bench.get("metrics", {}).values()
        })
        lines.append(
            f"  stopping rule: {rule.get('rule', 'fixed')} "
            f"(target {rule.get('target', '-')}, "
            f"{rule.get('min_repeats', '-')}..{rule.get('max_repeats', '-')}"
            f" repeats), stop reasons: {', '.join(stops)}"
        )
        lines.append(
            f"  env: python {env.get('python')} on {env.get('machine')} "
            f"({env.get('cpu_count')} cpus, "
            f"governor {env.get('governor') or 'n/a'})"
        )
    return "\n".join(lines)


def write_bench_accounting(path: str, payload: Dict) -> str:
    return str(write_report(path, payload))
