"""Register-file organisation schemes compared in the evaluation.

The paper's figures compare five organisations:

* ``BASELINE`` — single-level MRF (the normalisation baseline);
* ``HW_TWO_LEVEL`` — hardware RFC + MRF (prior work, 'HW' in Fig 13);
* ``HW_THREE_LEVEL`` — hardware LRF + RFC + MRF ('HW LRF');
* ``SW_TWO_LEVEL`` — software ORF + MRF ('SW');
* ``SW_THREE_LEVEL`` — software LRF + ORF + MRF ('SW LRF', split or
  unified).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from ..alloc.allocator import AllocationConfig
from ..energy.model import EnergyModel


class SchemeKind(enum.Enum):
    BASELINE = "baseline"
    HW_TWO_LEVEL = "hw"
    HW_THREE_LEVEL = "hw_lrf"
    SW_TWO_LEVEL = "sw"
    SW_THREE_LEVEL = "sw_lrf"

    # Identity hash at C level, as ``repro.levels.Level`` has.
    __hash__ = object.__hash__

    @property
    def is_software(self) -> bool:
        return self in (SchemeKind.SW_TWO_LEVEL, SchemeKind.SW_THREE_LEVEL)

    @property
    def is_hardware(self) -> bool:
        return self in (SchemeKind.HW_TWO_LEVEL, SchemeKind.HW_THREE_LEVEL)

    @property
    def has_lrf(self) -> bool:
        return self in (
            SchemeKind.HW_THREE_LEVEL,
            SchemeKind.SW_THREE_LEVEL,
        )


@dataclass(frozen=True)
class Scheme:
    """One evaluated register file organisation."""

    kind: SchemeKind
    #: RFC or ORF entries per thread (1-8, the x-axis of Figs 11-13).
    entries_per_thread: int = 3
    #: Split LRF (one bank per operand slot) for SW three-level.
    split_lrf: bool = False
    #: LRF banks when split (operand slots A/B/C; ignored otherwise).
    lrf_banks: int = 3
    #: Section 4.3/4.4 optimisations (software schemes).
    enable_partial_ranges: bool = True
    enable_read_operands: bool = True
    #: Section 4.5: values may stay in the ORF across forward branches.
    allow_forward_branches: bool = True
    #: Hardware variant that flushes the RFC at backward branches
    #: (compared against in the Section 7 limit study).
    flush_on_backward_branch: bool = False
    #: Section 7 idealisation (software schemes): ORF/LRF contents
    #: survive descheduling, so strands end only at backward branches.
    #: Purely an allocation-side flag — accounting is unchanged — which
    #: is what lets the limit study's persistence variant (and the
    #: tuner's ideal space) flow through the ordinary evaluation path.
    assume_persistent_strands: bool = False

    def __post_init__(self) -> None:
        if self.kind is not SchemeKind.BASELINE and not (
            1 <= self.entries_per_thread <= 8
        ):
            raise ValueError("entries_per_thread must be in 1..8")

    @property
    def name(self) -> str:
        if self.kind is SchemeKind.BASELINE:
            return "baseline"
        suffix = f"{self.entries_per_thread}"
        if self.split_lrf and self.lrf_banks != 3:
            suffix += f"b{self.lrf_banks}"
        if self.assume_persistent_strands:
            suffix += "_persist"
        if self.kind is SchemeKind.SW_THREE_LEVEL and self.split_lrf:
            return f"sw_lrf_split_{suffix}"
        return f"{self.kind.value}_{suffix}"

    def allocation_config(self) -> AllocationConfig:
        """Allocator configuration (software schemes only)."""
        if not self.kind.is_software:
            raise ValueError(f"{self.kind} has no allocator")
        return AllocationConfig(
            orf_entries=self.entries_per_thread,
            use_lrf=self.kind is SchemeKind.SW_THREE_LEVEL,
            split_lrf=self.split_lrf,
            lrf_banks=self.lrf_banks,
            enable_partial_ranges=self.enable_partial_ranges,
            enable_read_operands=self.enable_read_operands,
            allow_forward_branches=self.allow_forward_branches,
            assume_persistent_strands=self.assume_persistent_strands,
        )

    def energy_model(self) -> EnergyModel:
        entries = (
            self.entries_per_thread
            if self.kind is not SchemeKind.BASELINE
            else 1
        )
        return EnergyModel(orf_entries=entries, split_lrf=self.split_lrf)

    def with_entries(self, entries_per_thread: int) -> "Scheme":
        return replace(self, entries_per_thread=entries_per_thread)


def scheme_for_config(config: AllocationConfig) -> Scheme:
    """The software scheme that evaluates ``config``.

    Inverse of :meth:`Scheme.allocation_config` over the software
    design space: ``scheme_for_config(c).allocation_config() == c``.
    This is how the tuner feeds :class:`AllocationConfig` candidates
    through the scheme-keyed evaluation pipeline (and its record
    memo/disk cache) unchanged.
    """
    kind = (
        SchemeKind.SW_THREE_LEVEL
        if config.use_lrf
        else SchemeKind.SW_TWO_LEVEL
    )
    return Scheme(
        kind,
        entries_per_thread=config.orf_entries,
        split_lrf=config.split_lrf,
        lrf_banks=config.lrf_banks,
        enable_partial_ranges=config.enable_partial_ranges,
        enable_read_operands=config.enable_read_operands,
        allow_forward_branches=config.allow_forward_branches,
        assume_persistent_strands=config.assume_persistent_strands,
    )


#: The paper's most energy-efficient configuration (Section 6.4):
#: SW three-level, 3-entry ORF, split LRF, all optimisations.
BEST_SCHEME = Scheme(
    SchemeKind.SW_THREE_LEVEL, entries_per_thread=3, split_lrf=True
)

#: The paper's best hardware configurations.
BEST_HW_TWO_LEVEL = Scheme(SchemeKind.HW_TWO_LEVEL, entries_per_thread=3)
BEST_HW_THREE_LEVEL = Scheme(SchemeKind.HW_THREE_LEVEL, entries_per_thread=6)
BEST_SW_TWO_LEVEL = Scheme(SchemeKind.SW_TWO_LEVEL, entries_per_thread=3)
