"""Energy-model sensitivity study (robustness of the paper's
conclusions).

The paper's constants come from one 40 nm synthesis run (Section 5.2).
How far can they move before the conclusions change?  This study sweeps
multipliers on the MRF access energy, the wire energy, and the ORF
access energy; accesses are re-priced under each scaled model (the
allocation itself is the compiler's, made against the Table 3
constants — mirroring a binary compiled once and deployed on silicon
whose real energies drift from the model) and the study records:

* the best software design's savings,
* the hardware RFC's savings,
* whether the paper's ordering (SW split-LRF beats HW RFC) holds.

Expected outcome: the ordering is robust across the entire plausible
range — software control wins because it avoids write-back traffic and
captures MRF-resident reuse, not because of any particular constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..sim.schemes import Scheme, SchemeKind
from .suite_data import SuiteData

DEFAULT_FACTORS = (0.5, 0.75, 1.0, 1.5, 2.0)


@dataclass
class SensitivityPoint:
    component: str
    factor: float
    sw_savings: float
    hw_savings: float

    @property
    def ordering_holds(self) -> bool:
        return self.sw_savings > self.hw_savings


@dataclass
class SensitivityResult:
    points: List[SensitivityPoint] = field(default_factory=list)

    def all_orderings_hold(self) -> bool:
        return all(point.ordering_holds for point in self.points)

    def by_component(self) -> Dict[str, List[SensitivityPoint]]:
        result: Dict[str, List[SensitivityPoint]] = {}
        for point in self.points:
            result.setdefault(point.component, []).append(point)
        return result


def run_sensitivity_study(
    data: SuiteData,
    factors: Sequence[float] = DEFAULT_FACTORS,
) -> SensitivityResult:
    result = SensitivityResult()
    sw_scheme = Scheme(SchemeKind.SW_THREE_LEVEL, 3, split_lrf=True)
    hw_scheme = Scheme(SchemeKind.HW_TWO_LEVEL, 3)
    base_model = sw_scheme.energy_model()
    for component in ("mrf", "wire", "orf"):
        for factor in factors:
            model = base_model.scaled(**{component: factor})
            sw_energy = data.normalized_energy(sw_scheme, model)
            hw_energy = data.normalized_energy(hw_scheme, model)
            result.points.append(
                SensitivityPoint(
                    component=component,
                    factor=factor,
                    sw_savings=1.0 - sw_energy,
                    hw_savings=1.0 - hw_energy,
                )
            )
    return result


def format_sensitivity(result: SensitivityResult) -> str:
    lines: List[str] = []
    lines.append(
        "Energy-model sensitivity: savings vs component scaling "
        "(allocator re-tuned per model)"
    )
    lines.append(
        f"{'component':<11}{'factor':>8}{'SW split':>10}{'HW RFC':>9}"
        f"{'SW>HW':>7}"
    )
    for component, points in result.by_component().items():
        for point in points:
            lines.append(
                f"{component:<11}{point.factor:>8.2f}"
                f"{100 * point.sw_savings:>9.1f}%"
                f"{100 * point.hw_savings:>8.1f}%"
                f"{'yes' if point.ordering_holds else 'NO':>7}"
            )
    lines.append("")
    verdict = (
        "the paper's conclusion (software control beats hardware "
        "caching) holds at every point"
        if result.all_orderings_hold()
        else "WARNING: the ordering flips at some point above"
    )
    lines.append(verdict)
    return "\n".join(lines)
