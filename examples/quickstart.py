#!/usr/bin/env python3
"""Quickstart: evaluate one benchmark under every register file scheme.

Builds the synthetic MatrixMul workload, executes its warps once, and
re-accounts the traces under the paper's five organisations, printing
the normalized register file energy of each (Figure 13's operating
points).

Run:  python examples/quickstart.py
"""

from repro.energy import normalized_energy
from repro.energy.chip_power import chip_power_savings
from repro.sim import Scheme, SchemeKind, build_traces, evaluate_traces
from repro.workloads import get_workload


def main() -> None:
    spec = get_workload("matrixmul")
    print(f"workload: {spec.name} ({spec.description})")
    traces = build_traces(spec.kernel, spec.warp_inputs)
    print(f"executed {traces.dynamic_instructions} warp instructions\n")

    schemes = [
        ("single-level baseline", Scheme(SchemeKind.BASELINE)),
        ("HW RFC (prior work)", Scheme(SchemeKind.HW_TWO_LEVEL, 3)),
        ("HW LRF+RFC", Scheme(SchemeKind.HW_THREE_LEVEL, 6)),
        ("SW ORF", Scheme(SchemeKind.SW_TWO_LEVEL, 3)),
        (
            "SW LRF+ORF (split) — the paper's design",
            Scheme(SchemeKind.SW_THREE_LEVEL, 3, split_lrf=True),
        ),
    ]
    print(f"{'scheme':<42}{'energy':>8}{'savings':>9}")
    best = None
    for label, scheme in schemes:
        evaluation = evaluate_traces(traces, scheme)
        energy = normalized_energy(
            evaluation.counters, evaluation.baseline, scheme.energy_model()
        )
        print(f"{label:<42}{energy:>8.3f}{100 * (1 - energy):>8.1f}%")
        best = energy

    chip = chip_power_savings(1 - best)
    print(
        f"\nthe best design saves {100 * chip.register_file_savings:.1f}% "
        f"of register file energy = "
        f"{100 * chip.sm_dynamic_power_savings:.1f}% of SM dynamic power "
        f"= {100 * chip.chip_dynamic_power_savings:.1f}% chip-wide"
    )


if __name__ == "__main__":
    main()
