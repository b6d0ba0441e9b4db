"""Data model for strands (Section 4.1 of the paper).

A *strand* is a sequence of instructions in which all dependences on
long-latency instructions come from operations issued in a previous
strand.  Strands are the allocation scope of the ORF and LRF: neither
structure preserves values across strand boundaries, because the warp
may be descheduled (long-latency endpoints) or loop (backward-branch
endpoints) at a boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set, Tuple

from ..ir.kernel import InstructionRef


class EndpointKind(enum.Enum):
    """Why a strand boundary exists at a program point."""

    #: An instruction depends on a long-latency operation issued in the
    #: current strand; the warp is descheduled until all pending
    #: long-latency operations complete (Figure 5a, strand 1 -> 2).
    LONG_LATENCY = "long_latency"
    #: A backward branch ends the strand; the warp is *not* descheduled
    #: but values may not cross the boundary in the ORF/LRF.
    BACKWARD_BRANCH = "backward_branch"
    #: Block targeted by a backward branch begins a new strand.
    BACKWARD_TARGET = "backward_target"
    #: Control-flow merge where the set of pending long-latency events
    #: differs between paths (Figure 5b); the warp conservatively waits
    #: for all pending events here.
    UNCERTAINTY = "uncertainty"
    #: Control-flow merge of two different strands with consistent
    #: pending state; no deschedule, but ORF/LRF contents are unknown.
    MERGE = "merge"

    # Identity hash at C level, as ``repro.levels.Level`` has.
    __hash__ = object.__hash__

    @property
    def waits_for_pending(self) -> bool:
        """True if the warp waits for all pending long-latency events."""
        return self in (EndpointKind.LONG_LATENCY, EndpointKind.UNCERTAINTY)


#: A strand's identity: the program point (block, instr) where it starts.
StrandAnchor = Tuple[int, int]


@dataclass
class Strand:
    """One strand: the static instructions it contains.

    ``refs`` are in layout order.  A strand may span forward branches
    (Section 4.5), so its refs are not necessarily contiguous in global
    position, but positions strictly increase along every dynamic path
    through the strand (strands never contain backward branches).
    """

    strand_id: int
    anchor: StrandAnchor
    refs: Tuple[InstructionRef, ...]

    @property
    def positions(self) -> FrozenSet[int]:
        return frozenset(ref.position for ref in self.refs)

    @property
    def first_position(self) -> int:
        return min(ref.position for ref in self.refs)

    @property
    def last_position(self) -> int:
        return max(ref.position for ref in self.refs)

    def __len__(self) -> int:
        return len(self.refs)


@dataclass
class StrandPartition:
    """Result of strand partitioning for one kernel."""

    strands: Tuple[Strand, ...]
    #: Maps global instruction position -> strand id.
    strand_of_position: Dict[int, int]
    #: Positions with a strand endpoint *before* the instruction, with
    #: the endpoint's kind (intra-block LONG_LATENCY cuts).
    cut_before: Dict[int, EndpointKind]
    #: Block indices whose entry is a strand endpoint, with kind.
    entry_cuts: Dict[int, EndpointKind]
    #: Block indices at whose entry the warp must wait for all pending
    #: long-latency operations (UNCERTAINTY endpoints).
    wait_blocks: Set[int] = field(default_factory=set)
    #: Positions whose instruction carries the ``ends_strand`` bit.
    #: Recorded here so the bits can be re-stamped onto any structurally
    #: identical kernel (the batched allocator annotates per-config
    #: clones from one shared partition).
    ends_strand_positions: FrozenSet[int] = frozenset()

    def strand_of(self, ref: InstructionRef) -> Strand:
        return self.strands[self.strand_of_position[ref.position]]

    def same_strand(self, a: InstructionRef, b: InstructionRef) -> bool:
        return (
            self.strand_of_position[a.position]
            == self.strand_of_position[b.position]
        )

    @property
    def num_strands(self) -> int:
        return len(self.strands)
