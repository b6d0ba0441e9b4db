"""Reaching-definitions analysis and def-use chains.

The allocator reasons about *register instances* — one static
definition of an architectural register together with the reads it
reaches (Section 4).  PTX is pseudo-SSA (no phi nodes, Section 4.2), so
the same architectural register can be written on both sides of a
hammock and read at the merge point (Figure 10); reaching definitions
recover exactly that structure.

Definitions come in three flavours relevant to allocation:

* ordinary in-kernel writes (allocation candidates),
* long-latency writes (global loads, texture fetches) whose results
  always land in the MRF — any in-strand consumer would have ended the
  strand, so these are never ORF/LRF candidates,
* external definitions for kernel live-in registers (thread id,
  parameters), which conceptually arrive in the MRF.

Guarded writes are *may*-definitions: they generate but do not kill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..ir.kernel import InstructionRef, Kernel
from ..ir.registers import Register
from .cfg import ControlFlowGraph


@dataclass(frozen=True)
class Definition:
    """One reaching-definitions fact: a write (or live-in) of a register."""

    def_id: int
    reg: Register
    #: Site of the write; None for external (live-in) definitions.
    ref: Optional[InstructionRef]
    is_external: bool = False
    is_long_latency: bool = False
    is_guarded: bool = False

    @property
    def mrf_pinned(self) -> bool:
        """True if this definition's value is only available in the MRF.

        External values arrive in the MRF; long-latency results are
        written to the MRF because their consumers are always in a later
        strand (Section 4.1).
        """
        return self.is_external or self.is_long_latency


@dataclass(frozen=True)
class ReadSite:
    """One static read of a register: instruction, operand slot, register."""

    ref: InstructionRef
    slot: int
    reg: Register


class ReachingDefinitions:
    """Whole-kernel reaching definitions with per-read queries."""

    def __init__(self, kernel: Kernel, cfg: ControlFlowGraph) -> None:
        self.kernel = kernel
        self.cfg = cfg
        self.definitions: List[Definition] = []
        self._def_at_ref: Dict[int, int] = {}  # position -> def_id
        self._external_defs: Dict[Register, int] = {}
        self._reads: List[ReadSite] = []
        self._read_reaching: Dict[Tuple[int, int], FrozenSet[int]] = {}
        self._def_uses: Dict[int, List[ReadSite]] = {}
        self._collect_definitions()
        defs_of_reg = self.defs_by_register()
        self._solve(defs_of_reg)
        self._record_reads(defs_of_reg)

    # -- setup -------------------------------------------------------------

    def _collect_definitions(self) -> None:
        for reg in self.kernel.live_in:
            if not reg.is_gpr:
                continue
            def_id = len(self.definitions)
            self.definitions.append(
                Definition(def_id, reg, None, is_external=True)
            )
            self._external_defs[reg] = def_id
        for ref, instruction in self.kernel.instructions():
            written = instruction.gpr_write()
            if written is None:
                continue
            def_id = len(self.definitions)
            self.definitions.append(
                Definition(
                    def_id,
                    written,
                    ref,
                    is_long_latency=instruction.is_long_latency,
                    is_guarded=instruction.guard is not None,
                )
            )
            self._def_at_ref[ref.position] = def_id

    def defs_by_register(self) -> Dict[Register, FrozenSet[int]]:
        """Every definition id of each written (or live-in) register.

        A fresh dict per call: the analyses keep none, and a read's
        reaching set is the live set intersected with its register's
        entry.
        """
        by_reg: Dict[Register, Set[int]] = {}
        for definition in self.definitions:
            by_reg.setdefault(definition.reg, set()).add(definition.def_id)
        return {reg: frozenset(ids) for reg, ids in by_reg.items()}

    def _solve(self, defs_of_reg: Dict[Register, FrozenSet[int]]) -> None:
        num_blocks = len(self.kernel.blocks)
        block_in: List[Set[int]] = [set() for _ in range(num_blocks)]
        block_out: List[Set[int]] = [set() for _ in range(num_blocks)]

        entry_in = set(self._external_defs.values())

        # Each block's transfer, summarised once as (kill, gen): it maps
        # the definitions live at entry to (live - kill) | gen.  An
        # unguarded write kills every definition of its register (its
        # own included); any write then generates its own.
        kills: List[Set[int]] = []
        gens: List[Set[int]] = []
        position = 0
        for block in self.kernel.blocks:
            kill: Set[int] = set()
            gen: Set[int] = set()
            for instruction in block.instructions:
                written = instruction.gpr_write()
                if written is not None:
                    if instruction.guard is None:
                        same = defs_of_reg[written]
                        kill |= same
                        gen -= same
                    gen.add(self._def_at_ref[position])
                position += 1
            kills.append(kill)
            gens.append(gen)

        changed = True
        while changed:
            changed = False
            for block_index in self.cfg.reverse_postorder:
                if block_index == self.cfg.entry:
                    incoming = set(entry_in)
                else:
                    incoming = set()
                for pred in self.cfg.predecessors[block_index]:
                    incoming |= block_out[pred]
                if incoming != block_in[block_index]:
                    block_in[block_index] = incoming
                    changed = True
                new_out = (incoming - kills[block_index]) | gens[block_index]
                if new_out != block_out[block_index]:
                    block_out[block_index] = new_out
                    changed = True

        self._block_in = [frozenset(s) for s in block_in]
        self._block_out = [frozenset(s) for s in block_out]

    def _record_reads(
        self, defs_of_reg: Dict[Register, FrozenSet[int]]
    ) -> None:
        no_defs: FrozenSet[int] = frozenset()
        for block_index, block in enumerate(self.kernel.blocks):
            live: Set[int] = set(self._block_in[block_index])
            if block_index == self.cfg.entry:
                live |= set(self._external_defs.values())
            for instr_index, instruction in enumerate(block.instructions):
                ref = self._ref_for(block_index, instr_index)
                for slot, reg in instruction.gpr_reads():
                    reaching = defs_of_reg.get(reg, no_defs) & live
                    site = ReadSite(ref, slot, reg)
                    self._reads.append(site)
                    self._read_reaching[(ref.position, slot)] = reaching
                    for def_id in reaching:
                        self._def_uses.setdefault(def_id, []).append(site)
                written = instruction.gpr_write()
                if written is not None:
                    if instruction.guard is None:
                        live -= defs_of_reg[written]
                    live.add(self._def_at_ref[ref.position])

    def _ref_for(self, block_index: int, instr_index: int) -> InstructionRef:
        if not hasattr(self, "_ref_cache"):
            self._ref_cache: Dict[Tuple[int, int], InstructionRef] = {}
            for ref, _ in self.kernel.instructions():
                self._ref_cache[(ref.block_index, ref.instr_index)] = ref
        return self._ref_cache[(block_index, instr_index)]

    # -- queries ----------------------------------------------------------

    def definition(self, def_id: int) -> Definition:
        return self.definitions[def_id]

    def def_at(self, ref: InstructionRef) -> Optional[Definition]:
        """The definition created by the instruction at ``ref``, if any."""
        def_id = self._def_at_ref.get(ref.position)
        if def_id is None:
            return None
        return self.definitions[def_id]

    def def_id_at(self, position: int) -> Optional[int]:
        """The id of the definition made at static ``position``, if any."""
        return self._def_at_ref.get(position)

    def reaching_defs(
        self, ref: InstructionRef, slot: int
    ) -> FrozenSet[int]:
        """Def ids reaching the given read operand."""
        return self._read_reaching.get((ref.position, slot), frozenset())

    def uses_of(self, def_id: int) -> Tuple[ReadSite, ...]:
        """All read sites this definition may reach."""
        return tuple(self._def_uses.get(def_id, ()))

    def reads(self) -> Iterator[ReadSite]:
        return iter(self._reads)

    @property
    def external_definitions(self) -> Dict[Register, int]:
        return dict(self._external_defs)
