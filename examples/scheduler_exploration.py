#!/usr/bin/env python3
"""Two-level warp scheduler exploration (Sections 2.2 and 6).

Sweeps the active-warp count for latency-bound and compute-bound
kernels, reproducing the paper's claim that 8 active warps (of 32
resident) suffice for full throughput, and prints each kernel's strand
structure — the compiler-visible scheduling contract.

Run:  python examples/scheduler_exploration.py
"""

from repro.experiments import (
    expanded_warp_inputs,
    format_scheduler_study,
    run_scheduler_study,
)
from repro.sim import WarpExecutor
from repro.sim.scheduler import simulate_schedule
from repro.strands import partition_strands
from repro.workloads import get_workload

WORKLOADS = ["reduction", "matrixmul", "hotspot", "mandelbrot"]


def describe_strands(name: str) -> None:
    spec = get_workload(name)
    partition = partition_strands(spec.kernel)
    sizes = sorted(len(s) for s in partition.strands)
    print(
        f"  {name:<12} {spec.kernel.num_instructions:3d} instructions "
        f"in {partition.num_strands} strands "
        f"(sizes {sizes}), "
        f"{len(partition.wait_blocks)} wait blocks"
    )


def main() -> None:
    print("strand structure (the ORF/LRF allocation scope):")
    for name in WORKLOADS:
        describe_strands(name)

    print("\nIPC vs active warps (32 resident):")
    specs = [get_workload(name) for name in WORKLOADS]
    result = run_scheduler_study(specs, num_warps=32)
    print(format_scheduler_study(result))

    # Zoom in: how much does descheduling cost a load-bound kernel
    # compared to simply stalling with a huge active set?
    spec = get_workload("reduction")
    inputs = expanded_warp_inputs(spec, 32)
    traces = [
        list(WarpExecutor(spec.kernel, warp_input).run())
        for warp_input in inputs
    ]
    two_level = simulate_schedule(traces, 8)
    single_level = simulate_schedule(traces, 32)
    print(
        f"\nreduction: two-level (8 active) IPC {two_level.ipc:.3f} vs "
        f"single-level (32 active) IPC {single_level.ipc:.3f} -> "
        f"{100 * two_level.ipc / single_level.ipc:.1f}% of full "
        "performance with a quarter of the ORF/LRF storage"
    )


if __name__ == "__main__":
    main()
