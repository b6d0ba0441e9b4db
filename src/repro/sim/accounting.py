"""Trace-driven access accounting.

Three accounting drivers consume a warp's dynamic instruction stream:

* :class:`BaselineAccounting` — the single-level register file every
  figure normalises against: all operands read from and written to the
  MRF.
* :class:`SoftwareAccounting` — the compile-time managed hierarchy:
  operand levels come from the allocator's static annotations.  Strand
  boundaries cost nothing at run time (the compiler already wrote
  live-out values to the MRF when they were produced).
* :class:`HardwareAccounting` — drives a hardware cache model
  (:class:`RegisterFileCache` or :class:`HardwareThreeLevel`), including
  the dynamic two-level-scheduler behaviour: a read of (or write to) a
  register with an outstanding long-latency result deschedules the warp
  and flushes the cache.

Guard-squashed instructions read their operands but write nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Protocol, Set

from ..analysis.cfg import ControlFlowGraph
from ..analysis.liveness import LivenessAnalysis
from ..analysis.reaching import ReachingDefinitions
from ..hierarchy.counters import AccessCounters
from ..ir.kernel import InstructionRef, Kernel
from ..ir.registers import Register
from ..levels import Level
from .executor import TraceEvent


class PointLiveness:
    """Precomputed live-before/live-after sets per static instruction."""

    def __init__(self, kernel: Kernel) -> None:
        cfg = ControlFlowGraph(kernel)
        analysis = LivenessAnalysis(kernel, cfg)
        self._before: Dict[int, FrozenSet[Register]] = {}
        self._after: Dict[int, FrozenSet[Register]] = {}
        for ref, _ in kernel.instructions():
            self._before[ref.position] = analysis.live_before(ref)
            self._after[ref.position] = analysis.live_after(ref)

    def before(self, ref: InstructionRef) -> FrozenSet[Register]:
        return self._before[ref.position]

    def after(self, ref: InstructionRef) -> FrozenSet[Register]:
        return self._after[ref.position]

    def before_position(self, position: int) -> FrozenSet[Register]:
        return self._before[position]

    def after_position(self, position: int) -> FrozenSet[Register]:
        return self._after[position]


def shared_consumed_positions(
    kernel: Kernel, reaching: Optional[ReachingDefinitions] = None
) -> FrozenSet[int]:
    """Positions of instructions whose result may feed a shared unit.

    Used by the hardware three-level model: such results bypass the LRF
    because the shared datapath cannot read it (Section 6.2).
    ``reaching`` may supply the reaching definitions of any structurally
    identical kernel (refs resolve by position).
    """
    if reaching is None:
        reaching = ReachingDefinitions(kernel, ControlFlowGraph(kernel))
    positions: Set[int] = set()
    for definition in reaching.definitions:
        if definition.ref is None:
            continue
        for use in reaching.uses_of(definition.def_id):
            instruction = kernel.instruction_at(use.ref)
            if instruction.unit.is_shared:
                positions.add(definition.ref.position)
                break
    return frozenset(positions)


class BaselineAccounting:
    """Single-level register file: every access hits the MRF."""

    def __init__(self, counters: AccessCounters) -> None:
        self.counters = counters

    def process(self, event: TraceEvent) -> None:
        instruction = event.instruction
        shared = instruction.unit.is_shared
        for _, reg in instruction.gpr_reads():
            self.counters.add_read(Level.MRF, shared, reg.num_words)
        written = instruction.gpr_write()
        if written is not None and event.guard_passed:
            self.counters.add_write(Level.MRF, shared, written.num_words)

    def finish(self) -> None:
        """Nothing to flush in a single-level register file."""


class SoftwareAccounting:
    """Compile-time managed hierarchy: levels from static annotations.

    ``annotation_kernel`` decouples the annotations from the traced
    kernel: when given, every event's annotations are resolved by
    :class:`InstructionRef` against that (structurally identical,
    allocated) kernel instead of the instruction object embedded in the
    trace.  This lets one ``TraceSet`` be accounted under any number of
    allocation configs without the allocator ever touching the shared
    kernel the traces were executed from.
    """

    def __init__(
        self,
        counters: AccessCounters,
        annotation_kernel: Optional[Kernel] = None,
    ) -> None:
        self.counters = counters
        #: position -> annotated instruction (layout order == position).
        self._annotated: Optional[List] = None
        if annotation_kernel is not None:
            self._annotated = [
                instruction
                for _, instruction in annotation_kernel.instructions()
            ]

    def process(self, event: TraceEvent) -> None:
        instruction = event.instruction
        if self._annotated is not None:
            instruction = self._annotated[event.ref.position]
        shared = instruction.unit.is_shared
        src_anns = instruction.src_anns
        for slot, reg in instruction.gpr_reads():
            words = reg.num_words
            annotation = src_anns[slot] if src_anns else None
            if annotation is None:
                self.counters.add_read(Level.MRF, shared, words)
                continue
            self.counters.add_read(annotation.level, shared, words)
            if annotation.orf_write_entry is not None:
                # Read operand allocation: the MRF read is also written
                # into the ORF for later reads (Section 4.4).
                self.counters.add_write(Level.ORF, shared, words)
        written = instruction.gpr_write()
        if written is not None and event.guard_passed:
            words = written.num_words
            if instruction.dst_ann is None:
                self.counters.add_write(Level.MRF, shared, words)
            else:
                for level in instruction.dst_ann.levels:
                    self.counters.add_write(level, shared, words)

    def finish(self) -> None:
        """Strand endpoints cost nothing under software control."""


class _HardwareModel(Protocol):
    def read(self, reg: Register, shared_unit: bool) -> Level: ...
    def write(self, *args, **kwargs) -> Level: ...
    def on_deschedule(self, live: FrozenSet[Register]) -> None: ...
    def on_backward_branch(self, live: FrozenSet[Register]) -> None: ...
    def finish(self) -> None: ...


class HardwareAccounting:
    """Drives a hardware cache model over a warp trace.

    Maintains the warp's outstanding long-latency results; the first
    dependence on one triggers a deschedule (flush) and waits for *all*
    outstanding events, matching the two-level scheduler (Section 2.2).
    """

    def __init__(
        self,
        model: _HardwareModel,
        liveness: PointLiveness,
        kernel: Kernel,
        three_level: bool = False,
        operands=None,
    ) -> None:
        self.model = model
        self.liveness = liveness
        self.kernel = kernel
        self.three_level = three_level
        #: Optional repro.sim.compiled.StaticOperandTable: per-position
        #: operand facts, so the hot loop indexes lists instead of
        #: querying the instruction object per dynamic event.
        self._operands = operands
        self._pending: Set[Register] = set()

    def process(self, event: TraceEvent) -> None:
        if self._operands is not None:
            self._process_with_table(event)
            return
        instruction = event.instruction
        ref = event.ref
        shared = instruction.unit.is_shared

        if self._depends_on_pending(event):
            self.model.on_deschedule(self.liveness.before(ref))
            self._pending.clear()

        for _, reg in instruction.gpr_reads():
            self.model.read(reg, shared)

        if event.branch_taken and self._is_backward(event):
            self.model.on_backward_branch(self.liveness.after(ref))

        written = instruction.gpr_write()
        if written is not None and event.guard_passed:
            live_after = self.liveness.after(ref)
            if self.three_level:
                self.model.write(
                    written,
                    shared,
                    instruction.is_long_latency,
                    live_after,
                    position=ref.position,
                )
            else:
                self.model.write(
                    written, shared, instruction.is_long_latency, live_after
                )
            if instruction.is_long_latency:
                self._pending.add(written)

    def _process_with_table(self, event: TraceEvent) -> None:
        """`process` with operand queries served by the static table.

        Behaviourally identical to the instruction-object path — the
        table holds the same registers and flags, precomputed once per
        kernel — but each per-event lookup is a list index.
        """
        table = self._operands
        ref = event.ref
        position = ref.position
        reads = table.read_regs[position]
        written = table.write_reg[position]
        shared = table.shared[position]

        pending = self._pending
        if pending and (
            any(reg in pending for reg in reads)
            or (written is not None and written in pending)
        ):
            self.model.on_deschedule(self.liveness.before(ref))
            pending.clear()

        for reg in reads:
            self.model.read(reg, shared)

        if event.branch_taken and table.backward_branch[position]:
            self.model.on_backward_branch(self.liveness.after(ref))

        if written is not None and event.guard_passed:
            live_after = self.liveness.after(ref)
            long_latency = table.long_latency[position]
            if self.three_level:
                self.model.write(
                    written,
                    shared,
                    long_latency,
                    live_after,
                    position=position,
                )
            else:
                self.model.write(written, shared, long_latency, live_after)
            if long_latency:
                pending.add(written)

    def _depends_on_pending(self, event: TraceEvent) -> bool:
        if not self._pending:
            return False
        instruction = event.instruction
        for _, reg in instruction.gpr_reads():
            if reg in self._pending:
                return True
        written = instruction.gpr_write()
        return written is not None and written in self._pending

    def _is_backward(self, event: TraceEvent) -> bool:
        target = event.instruction.target
        if target is None:
            return False
        return self.kernel.is_backward_edge(
            event.ref.block_index, self.kernel.block_index(target)
        )

    def finish(self) -> None:
        self.model.finish()


def account_trace(driver, events: Iterable[TraceEvent]) -> None:
    """Run one accounting driver over a full warp trace."""
    for event in events:
        driver.process(event)
    driver.finish()
