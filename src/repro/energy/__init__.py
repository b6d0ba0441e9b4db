"""Energy model and accounting (Section 5.2, Tables 3-4).

Chip-wide power (:mod:`repro.energy.chip_power`) and the encoding
overhead (:mod:`repro.energy.encoding`) are imported from their
submodules by the studies that use them.
"""

from .accounting import (
    EnergyBreakdown,
    compute_energy,
    energy_savings,
    normalized_energy,
)
from .model import EnergyModel, EnergyModelError

__all__ = [
    "EnergyBreakdown",
    "EnergyModel",
    "EnergyModelError",
    "compute_energy",
    "energy_savings",
    "normalized_energy",
]
