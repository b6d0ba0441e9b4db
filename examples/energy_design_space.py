#!/usr/bin/env python3
"""Design-space exploration: ORF sizing, LRF variants, and ablations.

Sweeps the ORF/RFC size for every organisation over a compute-heavy
workload subset (a miniature Figure 13), ablates the paper's two
allocation optimisations, and prices the instruction-encoding overhead
— the analysis an architect would run before committing to a design
point.

Run:  python examples/energy_design_space.py
"""

from repro.energy.encoding import encoding_overhead
from repro.experiments import SuiteData, run_fig13
from repro.sim import Scheme, SchemeKind
from repro.workloads import get_workload

WORKLOADS = [
    "matrixmul", "nbody", "hotspot", "convolutionseparable",
    "montecarlo", "histogram", "mergesort", "reduction",
]


def main() -> None:
    data = SuiteData.build([get_workload(name) for name in WORKLOADS])
    print(
        f"{len(WORKLOADS)} workloads, "
        f"{data.dynamic_instructions} dynamic warp instructions\n"
    )

    result = run_fig13(data, sweep=(1, 2, 3, 4, 5, 6, 7, 8))
    names = list(result.curves)
    print(f"{'entries':>8}" + "".join(f"{name:>16}" for name in names))
    for entries in range(1, 9):
        print(
            f"{entries:>8}"
            + "".join(
                f"{result.curves[name][entries]:>16.3f}"
                for name in names
            )
        )

    print("\nbest design point per organisation:")
    for name in names:
        entries, energy = result.best(name)
        print(
            f"  {name:<16} {entries} entries/thread -> "
            f"{100 * (1 - energy):.1f}% savings"
        )

    # Ablation: what do partial ranges and read operands buy?
    print("\nablation at 3 ORF entries (two-level SW):")
    for label, kwargs in [
        ("full allocator", {}),
        ("no partial ranges", {"enable_partial_ranges": False}),
        ("no read operands", {"enable_read_operands": False}),
        ("block-scoped (Sec 4.2 baseline)", {
            "enable_partial_ranges": False,
            "enable_read_operands": False,
            "allow_forward_branches": False,
        }),
    ]:
        scheme = Scheme(SchemeKind.SW_TWO_LEVEL, 3, **kwargs)
        energy = data.normalized_energy(scheme)
        print(f"  {label:<34} {100 * (1 - energy):5.1f}% savings")

    # Price the encoding overhead against the best design.
    _, best_energy = result.best("SW LRF Split")
    savings = 1 - best_energy
    print("\nencoding overhead (Section 6.5):")
    for bits in (1, 5):
        outcome = encoding_overhead(bits, savings)
        print(
            f"  {bits} extra bit(s): net chip-wide savings "
            f"{100 * outcome.chip_wide_net_savings:.2f}%"
        )


if __name__ == "__main__":
    main()
