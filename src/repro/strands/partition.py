"""Strand partitioning (Section 4.1 of the paper).

Rules implemented:

1. An instruction that reads (or overwrites) a register with a pending
   long-latency definition from the *current* strand ends the strand
   before itself; the warp is descheduled until all pending events
   complete, so the pending set is cleared.
2. A backward branch ends a strand (the warp is not descheduled).
3. A basic block targeted by a backward branch begins a new strand.
4. At a control-flow merge where the incoming pending sets differ
   (Figure 5b), an extra endpoint is inserted at the block start; the
   warp conservatively waits for all pending events there.
5. At a merge of two *different* strands with consistent pending state,
   a new strand begins (ORF/LRF contents would be path dependent).

The partition is a fixpoint over (strand identity, pending set) per
block.  Strand identity is anchored at the program point where the
strand begins, which keeps identities stable across iterations.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from ..analysis.cfg import ControlFlowGraph
from ..ir.instructions import Instruction
from ..ir.kernel import InstructionRef, Kernel
from ..ir.registers import Register
from .model import EndpointKind, Strand, StrandAnchor, StrandPartition

_MAX_ITERATIONS = 100


class _EdgeState(NamedTuple):
    """Dataflow fact carried along one CFG edge."""

    #: Strand continuing along this edge; None if the source terminator
    #: ended the strand (backward branch).
    strand: Optional[StrandAnchor]
    pending: FrozenSet[Register]


class _EntryState(NamedTuple):
    strand: StrandAnchor
    pending: FrozenSet[Register]
    cut: Optional[EndpointKind]


def partition_strands(
    kernel: Kernel,
    cfg: Optional[ControlFlowGraph] = None,
    assume_persistent: bool = False,
) -> StrandPartition:
    """Partition a kernel into strands and annotate ``ends_strand`` bits.

    ``assume_persistent`` implements the Section 7 idealisation in which
    ORF/LRF contents survive warp descheduling: long-latency dependences
    and pending-set uncertainty no longer end strands (backward branches
    still do).  Allocations made under this partition are *not* valid on
    real hardware; the mode exists to bound the benefit of cross-strand
    instruction scheduling.
    """
    if cfg is None:
        cfg = ControlFlowGraph(kernel)
    partitioner = _Partitioner(kernel, cfg, assume_persistent)
    return partitioner.run()


class _Partitioner:
    def __init__(
        self,
        kernel: Kernel,
        cfg: ControlFlowGraph,
        assume_persistent: bool = False,
    ) -> None:
        self.kernel = kernel
        self.cfg = cfg
        self.assume_persistent = assume_persistent
        self.backward_targets = kernel.backward_branch_targets()
        self._refs: Dict[Tuple[int, int], InstructionRef] = {}
        for ref, _ in kernel.instructions():
            self._refs[(ref.block_index, ref.instr_index)] = ref

    def run(self) -> StrandPartition:
        entry_states: Dict[int, _EntryState] = {}
        edge_states: Dict[Tuple[int, int], _EdgeState] = {}
        cut_before: Dict[int, EndpointKind] = {}

        for _ in range(_MAX_ITERATIONS):
            changed = False
            new_cuts: Dict[int, EndpointKind] = {}
            for block_index in self.cfg.reverse_postorder:
                entry = self._entry_state(
                    block_index, entry_states, edge_states
                )
                if entry_states.get(block_index) != entry:
                    entry_states[block_index] = entry
                    changed = True
                exit_edges = self._transfer(block_index, entry, new_cuts)
                for edge, state in exit_edges.items():
                    if edge_states.get(edge) != state:
                        edge_states[edge] = state
                        changed = True
            if new_cuts != cut_before:
                cut_before = new_cuts
                changed = True
            if not changed:
                break
        else:
            # Did not converge: conservatively cut every merge block.
            for block_index in self.cfg.merge_blocks():
                current = entry_states.get(block_index)
                if current is not None and current.cut is None:
                    entry_states[block_index] = _EntryState(
                        (block_index, 0),
                        frozenset(),
                        EndpointKind.UNCERTAINTY,
                    )

        return self._build_partition(entry_states, cut_before)

    # -- dataflow ------------------------------------------------------------

    def _entry_state(
        self,
        block_index: int,
        entry_states: Dict[int, _EntryState],
        edge_states: Dict[Tuple[int, int], _EdgeState],
    ) -> _EntryState:
        anchor = (block_index, 0)
        if block_index == self.cfg.entry:
            return _EntryState(anchor, frozenset(), None)

        incoming = [
            edge_states[(pred, block_index)]
            for pred in self.cfg.predecessors[block_index]
            if (pred, block_index) in edge_states
        ]
        if not incoming:
            # Not yet reached in the iteration; start fresh.
            return _EntryState(anchor, frozenset(), None)

        pendings = {state.pending for state in incoming}
        strands = {state.strand for state in incoming}
        pending_conflict = len(pendings) > 1 and not self.assume_persistent
        if len(pendings) == 1:
            common_pending = next(iter(pendings))
        elif self.assume_persistent:
            common_pending = frozenset().union(*pendings)
        else:
            common_pending = frozenset()
        strand_ended = None in strands
        strand_conflict = strand_ended or len(strands) > 1

        if block_index in self.backward_targets:
            kind = (
                EndpointKind.UNCERTAINTY
                if pending_conflict
                else EndpointKind.BACKWARD_TARGET
            )
            return _EntryState(anchor, common_pending, kind)
        if pending_conflict:
            return _EntryState(anchor, frozenset(), EndpointKind.UNCERTAINTY)
        if strand_conflict:
            kind = (
                EndpointKind.BACKWARD_BRANCH
                if strand_ended and len(strands) == 1
                else EndpointKind.MERGE
            )
            return _EntryState(anchor, common_pending, kind)
        return _EntryState(
            next(iter(strands)), common_pending, None
        )  # type: ignore[arg-type]

    def _transfer(
        self,
        block_index: int,
        entry: _EntryState,
        cuts: Dict[int, EndpointKind],
    ) -> Dict[Tuple[int, int], _EdgeState]:
        strand = entry.strand
        pending: Set[Register] = set(entry.pending)
        block = self.kernel.blocks[block_index]

        for instr_index, instruction in enumerate(block.instructions):
            # Nothing can depend on an empty pending set.
            if (
                pending
                and not self.assume_persistent
                and self._depends_on_pending(instruction, pending)
            ):
                ref = self._refs[(block_index, instr_index)]
                cuts[ref.position] = EndpointKind.LONG_LATENCY
                strand = (block_index, instr_index)
                pending.clear()
            if instruction.is_long_latency:
                written = instruction.gpr_write()
                if written is not None:
                    pending.add(written)

        frozen_pending = frozenset(pending)
        terminator_ends = self._terminator_is_backward(block_index, block)
        exit_strand = None if terminator_ends else strand

        return {
            (block_index, succ): _EdgeState(exit_strand, frozen_pending)
            for succ in self.cfg.successors[block_index]
        }

    @staticmethod
    def _depends_on_pending(
        instruction: Instruction, pending: Set[Register]
    ) -> bool:
        for _, reg in instruction.gpr_reads():
            if reg in pending:
                return True
        written = instruction.gpr_write()
        # Write-after-write on a pending register also stalls the warp.
        return written is not None and written in pending

    def _terminator_is_backward(self, block_index: int, block) -> bool:
        target = block.branch_target
        if target is None:
            return False
        return self.kernel.is_backward_edge(
            block_index, self.kernel.block_index(target)
        )

    # -- partition construction ---------------------------------------------

    def _build_partition(
        self,
        entry_states: Dict[int, _EntryState],
        cut_before: Dict[int, EndpointKind],
    ) -> StrandPartition:
        anchor_to_refs: Dict[StrandAnchor, List[InstructionRef]] = {}
        entry_cuts: Dict[int, EndpointKind] = {}
        wait_blocks: Set[int] = set()

        for block_index, block in enumerate(self.kernel.blocks):
            entry = entry_states.get(block_index)
            if entry is None:
                # Unreachable block: isolate every instruction.
                entry = _EntryState((block_index, 0), frozenset(), None)
            if entry.cut is not None:
                entry_cuts[block_index] = entry.cut
                if entry.cut.waits_for_pending:
                    wait_blocks.add(block_index)
            strand = entry.strand
            pending: Set[Register] = set(entry.pending)
            for instr_index, instruction in enumerate(block.instructions):
                ref = self._refs[(block_index, instr_index)]
                if ref.position in cut_before:
                    strand = (block_index, instr_index)
                    pending.clear()
                anchor_to_refs.setdefault(strand, []).append(ref)
                if instruction.is_long_latency:
                    written = instruction.gpr_write()
                    if written is not None:
                        pending.add(written)

        strands: List[Strand] = []
        strand_of_position: Dict[int, int] = {}
        for anchor in sorted(anchor_to_refs):
            refs = sorted(anchor_to_refs[anchor], key=lambda r: r.position)
            strand = Strand(len(strands), anchor, tuple(refs))
            for ref in refs:
                strand_of_position[ref.position] = strand.strand_id
            strands.append(strand)

        partition = StrandPartition(
            strands=tuple(strands),
            strand_of_position=strand_of_position,
            cut_before=dict(cut_before),
            entry_cuts=entry_cuts,
            wait_blocks=wait_blocks,
        )
        self._annotate_ends_strand(partition)
        return partition

    def _annotate_ends_strand(self, partition: StrandPartition) -> None:
        """Set the per-instruction ``ends_strand`` bit (Section 4.1).

        The positions carrying the bit are also recorded on the
        partition (``ends_strand_positions``) so a structurally
        identical kernel clone can be stamped without re-partitioning.
        """
        ending: Set[int] = set()
        for block in self.kernel.blocks:
            for instruction in block.instructions:
                instruction.ends_strand = False
        for block_index, block in enumerate(self.kernel.blocks):
            for instr_index, instruction in enumerate(block.instructions):
                ref = self._refs[(block_index, instr_index)]
                next_position = ref.position + 1
                is_last = instr_index == len(block.instructions) - 1
                if not is_last:
                    if next_position in partition.cut_before:
                        instruction.ends_strand = True
                        ending.add(ref.position)
                    continue
                # Last instruction of the block: strand ends if any
                # successor block entry is a cut, or the terminator is a
                # backward branch / exit.
                if instruction.opcode.is_exit:
                    instruction.ends_strand = True
                    ending.add(ref.position)
                    continue
                if self._terminator_is_backward(block_index, block):
                    instruction.ends_strand = True
                    ending.add(ref.position)
                    continue
                for succ in self.cfg.successors[block_index]:
                    if succ in partition.entry_cuts:
                        instruction.ends_strand = True
                        ending.add(ref.position)
                        break
        partition.ends_strand_positions = frozenset(ending)
