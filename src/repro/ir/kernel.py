"""Kernels: the unit of compilation and execution.

A :class:`Kernel` is an ordered list of basic blocks (layout order
defines fall-through edges and the forward/backward direction of
branches) plus the set of live-in registers that the runtime
pre-populates before the kernel starts (thread id, kernel parameters,
base addresses).  The allocator runs per kernel (Section 5.1: "our
static register allocation pass on each kernel").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterator, List, Sequence, Set, Tuple

from .basic_block import BasicBlock
from .instructions import MRF_DEST, MRF_SOURCES, Instruction
from .registers import Register

#: Instance-dict entries derived from the kernel's structure alone
#: (opcodes, operands, layout), which no annotation changes: clones
#: carry them over.
_STRUCTURAL_STATE = ("_content_fingerprint", "_operand_table")

#: Instance-dict entry derived from the annotations
#: (:func:`repro.sim.compiled.software_counters` caches its per-position
#: deltas here): dropped whenever the annotations are re-stamped.
_ANNOTATION_STATE = "_annotation_deltas"


class KernelValidationError(ValueError):
    """Raised when a kernel is structurally malformed."""


@dataclass(frozen=True)
class InstructionRef:
    """A stable reference to one static instruction within a kernel.

    ``block_index`` is the block's position in layout order and
    ``instr_index`` the instruction's position within the block.
    ``position`` is the global static issue-slot index used by the
    allocator's occupancy heuristic (Figure 7 divides energy savings by
    the number of static instruction issue slots a value occupies).
    """

    block_index: int
    instr_index: int
    position: int

    def __lt__(self, other: "InstructionRef") -> bool:
        return self.position < other.position


def _instruction_content(instruction: Instruction) -> str:
    """Canonical annotation-free text of one instruction."""
    guard = ""
    if instruction.guard is not None:
        sense = "" if instruction.guard_sense else "!"
        guard = f"@{sense}{instruction.guard} "
    operands = []
    if instruction.dst is not None:
        operands.append(str(instruction.dst))
    operands.extend(str(src) for src in instruction.srcs)
    if instruction.target is not None:
        operands.append(instruction.target)
    return f"{guard}{instruction.opcode.value} {', '.join(operands)}"


class Kernel:
    """A compiled kernel: named, ordered basic blocks plus live-ins."""

    def __init__(
        self,
        name: str,
        blocks: Sequence[BasicBlock],
        live_in: Sequence[Register] = (),
    ) -> None:
        self.name = name
        self.blocks: List[BasicBlock] = list(blocks)
        self.live_in: Tuple[Register, ...] = tuple(live_in)
        self._label_to_index: Dict[str, int] = {}
        self._refresh_labels()

    # -- structure ---------------------------------------------------------

    def _refresh_labels(self) -> None:
        self._label_to_index.clear()
        for index, block in enumerate(self.blocks):
            if block.label in self._label_to_index:
                raise KernelValidationError(
                    f"duplicate block label {block.label!r} in {self.name}"
                )
            self._label_to_index[block.label] = index

    def block_index(self, label: str) -> int:
        try:
            return self._label_to_index[label]
        except KeyError:
            raise KernelValidationError(
                f"unknown block label {label!r} in kernel {self.name}"
            ) from None

    def block(self, label: str) -> BasicBlock:
        return self.blocks[self.block_index(label)]

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def instructions(self) -> Iterator[Tuple[InstructionRef, Instruction]]:
        """All instructions in layout order with stable references."""
        position = 0
        for block_index, block in enumerate(self.blocks):
            for instr_index, instruction in enumerate(block.instructions):
                yield (
                    InstructionRef(block_index, instr_index, position),
                    instruction,
                )
                position += 1

    def instruction_at(self, ref: InstructionRef) -> Instruction:
        return self.blocks[ref.block_index].instructions[ref.instr_index]

    @property
    def num_instructions(self) -> int:
        return sum(len(block) for block in self.blocks)

    # -- CFG edges -----------------------------------------------------------

    def successors(self, block_index: int) -> Tuple[int, ...]:
        """Successor block indices of ``blocks[block_index]``."""
        block = self.blocks[block_index]
        result: List[int] = []
        target = block.branch_target
        if target is not None:
            result.append(self.block_index(target))
        if block.falls_through and block_index + 1 < len(self.blocks):
            next_index = block_index + 1
            if next_index not in result:
                result.append(next_index)
        return tuple(result)

    def predecessors_map(self) -> Dict[int, Tuple[int, ...]]:
        """Predecessor block indices for every block."""
        preds: Dict[int, List[int]] = {i: [] for i in range(len(self.blocks))}
        for index in range(len(self.blocks)):
            for succ in self.successors(index):
                preds[succ].append(index)
        return {index: tuple(plist) for index, plist in preds.items()}

    def is_backward_edge(self, src_index: int, dst_index: int) -> bool:
        """True if the CFG edge src -> dst is a backward branch.

        Following the paper (Section 4.1), a branch to a block at the
        same or an earlier layout position is backward; such branches
        end strands.
        """
        return dst_index <= src_index

    def backward_branch_targets(self) -> Set[int]:
        """Indices of blocks targeted by at least one backward branch."""
        targets: Set[int] = set()
        for index in range(len(self.blocks)):
            for succ in self.successors(index):
                if self.is_backward_edge(index, succ):
                    targets.add(succ)
        return targets

    # -- registers -----------------------------------------------------------

    def registers_used(self) -> Set[Register]:
        """All GPRs referenced anywhere in the kernel (incl. live-ins)."""
        regs: Set[Register] = {r for r in self.live_in if r.is_gpr}
        for _, instruction in self.instructions():
            written = instruction.gpr_write()
            if written is not None:
                regs.add(written)
            for _, reg in instruction.gpr_reads():
                regs.add(reg)
        return regs

    @property
    def num_architectural_registers(self) -> int:
        """Highest GPR index used plus one (MRF entries per thread)."""
        regs = self.registers_used()
        if not regs:
            return 0
        return max(reg.index + reg.num_words - 1 for reg in regs) + 1

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise KernelValidationError.

        Checks: at least one block, non-empty blocks, branch targets
        resolve, the final block does not fall off the end, and no
        instruction follows a terminator within a block.
        """
        if not self.blocks:
            raise KernelValidationError(f"kernel {self.name} has no blocks")
        self._refresh_labels()
        for index, block in enumerate(self.blocks):
            if not block.instructions:
                raise KernelValidationError(
                    f"block {block.label} in {self.name} is empty"
                )
            for position, instruction in enumerate(block.instructions):
                is_last = position == len(block.instructions) - 1
                if not is_last and (
                    instruction.opcode.is_branch or instruction.opcode.is_exit
                ):
                    raise KernelValidationError(
                        f"{block.label}: control-flow instruction "
                        f"{instruction} is not last in its block"
                    )
            target = block.branch_target
            if target is not None and target not in self._label_to_index:
                raise KernelValidationError(
                    f"{block.label}: branch to unknown label {target!r}"
                )
            if (
                index == len(self.blocks) - 1
                and block.falls_through
            ):
                raise KernelValidationError(
                    f"final block {block.label} of {self.name} falls "
                    "through past the end of the kernel"
                )

    def reset_annotations(self) -> None:
        """Strip all strand/allocation annotations from the kernel."""
        self.__dict__.pop(_ANNOTATION_STATE, None)
        for _, instruction in self.instructions():
            instruction.clear_annotations()

    def stamp_baseline(self, ends_strand_positions: AbstractSet[int]) -> None:
        """Re-stamp every instruction for a fresh allocation run.

        One pass sets ``ends_strand`` (true at the given static
        positions) and the shared single-level annotations: an MRF read
        per source slot and an MRF write for a GPR destination.
        Whatever the kernel carried before is replaced, and state
        derived from it is dropped.
        """
        self.__dict__.pop(_ANNOTATION_STATE, None)
        position = 0
        for block in self.blocks:
            for instruction in block.instructions:
                instruction.ends_strand = position in ends_strand_positions
                instruction.src_anns = MRF_SOURCES[len(instruction.srcs)]
                instruction.dst_ann = (
                    MRF_DEST if instruction.gpr_write() is not None else None
                )
                position += 1

    def clone(self) -> "Kernel":
        """A structural copy with pristine (baseline) annotations.

        Layout, labels, operands, and live-ins are preserved, so every
        :class:`InstructionRef` valid for this kernel resolves to the
        corresponding instruction of the clone.  Allocating the clone
        leaves this kernel's annotations untouched — the foundation of
        side-effect-free scheme evaluation.

        The clone shares what no annotation changes: the operands and
        operand views of every instruction (:meth:`Instruction.clone`),
        the cached content fingerprint, and the cached operand table.
        It never inherits annotations, ``ends_strand`` bits, or state
        derived from them.
        """
        blocks = [
            BasicBlock(
                block.label,
                [instruction.clone() for instruction in block.instructions],
            )
            for block in self.blocks
        ]
        copy = Kernel(self.name, blocks, self.live_in)
        for name in _STRUCTURAL_STATE:
            if name in self.__dict__:
                copy.__dict__[name] = self.__dict__[name]
        return copy

    def content_fingerprint(self) -> str:
        """SHA-256 over the kernel's architectural content.

        Covers name, live-ins, block layout, opcodes, operands, guards,
        and branch targets — but *not* compiler annotations, so a kernel
        and its (possibly allocated) clones share one fingerprint.  The
        value is cached: kernels are structurally immutable after
        construction (transforms build new kernels).
        """
        cached = self.__dict__.get("_content_fingerprint")
        if cached is None:
            import hashlib

            parts: List[str] = [self.name]
            parts.append(",".join(str(reg) for reg in self.live_in))
            for block in self.blocks:
                parts.append(block.label + ":")
                for instruction in block.instructions:
                    parts.append(_instruction_content(instruction))
            cached = hashlib.sha256(
                "\n".join(parts).encode("utf-8")
            ).hexdigest()
            self.__dict__["_content_fingerprint"] = cached
        return cached

    def __str__(self) -> str:
        header = f".kernel {self.name}"
        if self.live_in:
            header += "  ; live-in: " + ", ".join(
                str(reg) for reg in self.live_in
            )
        return "\n".join([header] + [str(block) for block in self.blocks])
