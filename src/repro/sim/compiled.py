"""Compiled columnar traces: one-pass aggregation for re-accounting.

The paper's methodology (Section 5.1) traces each workload once and
re-accounts the same dynamic stream under every register-file
organisation.  For the *stateless* drivers — the single-level baseline
and the compile-time managed hierarchy — the cost of one dynamic event
depends only on the event's static position and its guard outcome, so
per-scheme accounting does not need to walk the event stream at all.
This module lowers a :class:`~repro.sim.runner.TraceSet` into:

* one **columnar trace** per *unique* warp (parallel arrays of static
  position, guard outcome, branch outcome, and lane masks), with
  identical warp traces deduplicated by content and carried as a
  multiplicity — uniform warps are accounted once and scaled;
* two trace-set-wide **per-position counts**, summed over all warps:
  how many times each static instruction issued (its reads happen on
  every issue) and how many of those issues passed the guard (its
  write happens only then).

Stateless accounting then collapses from O(dynamic instructions) per
scheme to a single shared O(dynamic) aggregation pass plus one walk
over the static positions per scheme (:func:`baseline_counters`,
:func:`software_counters`).  The per-position operand facts — GPR
reads with their slots and word widths, the written width, the
datapath class — come from a :class:`StaticOperandTable` built once
per kernel, so a software scheme's walk reads nothing from its
allocated kernel but the annotations.

The *stateful* hardware models (FIFO caches with liveness-gated
write-back) cannot be folded into per-position counts, but their
per-event decode is scheme-independent: which registers are read and
written,
whether the two-level scheduler deschedules the warp (a function of
the (position, guard) stream and the static dependence table alone),
and whether a taken branch is backward.  :func:`hardware_event_program`
lowers each unique trace once into a compact **event program** —
registers as small integer ids, liveness sets as bitmasks, deschedule
and flush points resolved — and :func:`hardware_counters` replays that
shared program through the columnar cache walks
(:func:`repro.hierarchy.rfc.columnar_rfc_walk`,
:func:`repro.hierarchy.hw_lrf.columnar_three_level_walk`) for every
requested hardware scheme in one pass per unique trace, scaling each
result by the trace's multiplicity.  Counters accumulate in dense slot
vectors (:data:`repro.hierarchy.counters.COUNTER_SLOTS`) and are
rehydrated at the end.

The scalar drivers in :mod:`repro.sim.accounting` remain the oracle:
``tests/sim/test_compiled.py`` proves the compiled path produces
identical :class:`AccessCounters` for every scheme kind over the full
workload suite, and ``REPRO_COMPILED=0`` disables the compiled path
entirely at run time.
"""

from __future__ import annotations

import hashlib
import os
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, List, Optional, Tuple

from ..alloc.analysis import kernel_analysis
from ..analysis.liveness import LivenessAnalysis
from ..hierarchy.counters import (
    COUNTER_SLOTS,
    SLOT_INDEX,
    AccessCounters,
    counters_from_slots,
)
from ..hierarchy.hw_lrf import columnar_three_level_walk
from ..hierarchy.rfc import columnar_rfc_walk
from ..ir.kernel import Kernel
from ..levels import Level
from .accounting import shared_consumed_positions
from .schemes import Scheme, SchemeKind


def compiled_enabled() -> bool:
    """True unless ``REPRO_COMPILED`` disables the compiled path."""
    return os.environ.get("REPRO_COMPILED", "1").lower() not in (
        "0",
        "false",
        "off",
    )


@dataclass
class CompiledTrace:
    """One unique warp trace in columnar form.

    The arrays are parallel, one slot per dynamic event; typecodes are
    fixed (``q``/``b``) so ``tobytes()`` is a stable content image.
    ``multiplicity`` counts how many of the trace set's warps executed
    exactly this stream.
    """

    positions: array
    guards: array
    branches: array
    active_masks: array
    exec_masks: array
    multiplicity: int = 1
    _digest: Optional[str] = field(default=None, repr=False, compare=False)
    #: Cached scheme-independent event program (hardware accounting).
    _hw_program: Optional[List] = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.positions)

    def content_digest(self) -> str:
        """SHA-256 over the columnar bytes (multiplicity excluded)."""
        if self._digest is None:
            hasher = hashlib.sha256()
            for column in (
                self.positions,
                self.guards,
                self.branches,
                self.active_masks,
                self.exec_masks,
            ):
                hasher.update(column.tobytes())
            self._digest = hasher.hexdigest()
        return self._digest


@dataclass
class CompiledTraceSet:
    """The compiled form of one :class:`~repro.sim.runner.TraceSet`."""

    kernel: Kernel
    #: Unique warp traces in order of first appearance.
    unique: List[CompiledTrace]
    #: Original warp index -> index into ``unique``.
    warp_to_unique: List[int]
    #: Index of the first original warp carrying each unique trace.
    first_warp: List[int]
    #: Per static position: dynamic issue count over all warps (unique
    #: counts scaled by multiplicity).
    issued: List[int]
    #: Per static position: how many of those issues passed the guard.
    passed: List[int]
    dynamic_instructions: int

    @property
    def unique_trace_count(self) -> int:
        return len(self.unique)


def compile_traces(traces) -> CompiledTraceSet:
    """Lower a trace set to columnar form (cached on the instance).

    Safe to cache: traces are immutable once materialised (the same
    invariant the engine's fingerprint cache relies on).
    """
    cached = getattr(traces, "_compiled", None)
    if cached is not None:
        return cached

    unique: List[CompiledTrace] = []
    first_warp: List[int] = []
    warp_to_unique: List[int] = []
    index_of: Dict[Tuple, int] = {}
    total = 0
    for warp_index, trace in enumerate(traces.warp_traces):
        columns = tuple(event.columns() for event in trace)
        total += len(columns)
        index = index_of.get(columns)
        if index is None:
            index = len(unique)
            index_of[columns] = index
            unique.append(
                CompiledTrace(
                    positions=array("q", (c[0] for c in columns)),
                    guards=array("b", (c[1] for c in columns)),
                    branches=array("b", (c[2] for c in columns)),
                    active_masks=array("q", (c[3] for c in columns)),
                    exec_masks=array("q", (c[4] for c in columns)),
                )
            )
            first_warp.append(warp_index)
        else:
            unique[index].multiplicity += 1
        warp_to_unique.append(index)

    num_positions = traces.kernel.num_instructions
    issued = [0] * num_positions
    passed = [0] * num_positions
    for compiled_trace in unique:
        weight = compiled_trace.multiplicity
        positions = compiled_trace.positions
        for position, count in Counter(positions).items():
            issued[position] += count * weight
        for position, count in Counter(
            compress(positions, compiled_trace.guards)
        ).items():
            passed[position] += count * weight

    compiled = CompiledTraceSet(
        kernel=traces.kernel,
        unique=unique,
        warp_to_unique=warp_to_unique,
        first_warp=first_warp,
        issued=issued,
        passed=passed,
        dynamic_instructions=total,
    )
    traces._compiled = compiled
    return compiled


# -- static operand tables -------------------------------------------------


class StaticOperandTable:
    """Per-position operand facts, derived once from a kernel.

    Everything the accounting drivers ask an instruction per dynamic
    event — GPR reads (with their operand slots), the written GPR, word
    widths, datapath class, latency class, and whether a taken branch
    is backward — indexed by the instruction's static position.  None
    of it depends on annotations, so one table serves the kernel and
    every allocated clone of it.
    """

    __slots__ = (
        "shared",
        "read_regs",
        "read_layout",
        "read_words_total",
        "write_reg",
        "write_words",
        "long_latency",
        "backward_branch",
    )

    def __init__(self, kernel: Kernel) -> None:
        self.shared: List[bool] = []
        self.read_regs: List[Tuple] = []
        #: (operand slot, word count) of each GPR read.
        self.read_layout: List[Tuple[Tuple[int, int], ...]] = []
        self.read_words_total: List[int] = []
        self.write_reg: List = []
        self.write_words: List[int] = []
        self.long_latency: List[bool] = []
        self.backward_branch: List[bool] = []
        for ref, instruction in kernel.instructions():
            reads = tuple(reg for _, reg in instruction.gpr_reads())
            written = instruction.gpr_write()
            self.shared.append(instruction.unit.is_shared)
            self.read_regs.append(reads)
            self.read_layout.append(
                tuple(
                    (slot, reg.num_words)
                    for slot, reg in instruction.gpr_reads()
                )
            )
            self.read_words_total.append(
                sum(reg.num_words for reg in reads)
            )
            self.write_reg.append(written)
            self.write_words.append(
                written.num_words if written is not None else 0
            )
            self.long_latency.append(instruction.is_long_latency)
            backward = False
            if instruction.target is not None:
                backward = kernel.is_backward_edge(
                    ref.block_index, kernel.block_index(instruction.target)
                )
            self.backward_branch.append(backward)


def operand_table(kernel: Kernel) -> StaticOperandTable:
    """The kernel's operand table (cached on the kernel instance)."""
    cached = kernel.__dict__.get("_operand_table")
    if cached is None:
        cached = StaticOperandTable(kernel)
        kernel.__dict__["_operand_table"] = cached
    return cached


# -- vectorized stateless accounting ---------------------------------------


def baseline_counters(compiled: CompiledTraceSet) -> AccessCounters:
    """Single-level accounting by position walk (MRF-only costs)."""
    table = operand_table(compiled.kernel)
    counters = AccessCounters()
    counts = counters.counts
    for position, issued in enumerate(compiled.issued):
        if not issued:
            continue
        shared = table.shared[position]
        read_words = table.read_words_total[position]
        if read_words:
            key = (Level.MRF, True, shared)
            counts[key] = counts.get(key, 0) + read_words * issued
        passed = compiled.passed[position]
        write_words = table.write_words[position]
        if passed and write_words:
            key = (Level.MRF, False, shared)
            counts[key] = counts.get(key, 0) + write_words * passed
    return counters


#: Per-position counter deltas as (dense counter slot, words): applied
#: on every issue (reads, plus read-operand ORF fills) and only when the
#: guard passed (writes).
_DeltaList = List[Tuple[int, int]]

#: Dense slot of each (level, is_read) counter on the private datapath;
#: the shared-datapath slot is one higher (see ``COUNTER_SLOTS``).
_READ_SLOT = {level: SLOT_INDEX[(level, True, False)] for level in Level}
_WRITE_SLOT = {level: SLOT_INDEX[(level, False, False)] for level in Level}


def _annotation_deltas(
    annotated_kernel: Kernel, table: StaticOperandTable
) -> Tuple[List[_DeltaList], List[_DeltaList]]:
    """(read deltas, write deltas) per position of an allocated kernel.

    Slots, word widths and the datapath class come from ``table`` (the
    operand table of any structurally identical kernel); only the
    annotations are read from ``annotated_kernel``.  Cached on the
    kernel instance, which drops the cache whenever its annotations are
    re-stamped (:meth:`~repro.ir.kernel.Kernel.reset_annotations`,
    :meth:`~repro.ir.kernel.Kernel.stamp_baseline`).
    """
    cached = annotated_kernel.__dict__.get("_annotation_deltas")
    if cached is not None:
        return cached
    read_deltas: List[_DeltaList] = []
    write_deltas: List[_DeltaList] = []
    position = 0
    for block in annotated_kernel.blocks:
        for instruction in block.instructions:
            shared = table.shared[position]
            src_anns = instruction.src_anns
            reads: _DeltaList = []
            for slot, words in table.read_layout[position]:
                annotation = src_anns[slot] if src_anns else None
                if annotation is None:
                    reads.append((_READ_SLOT[Level.MRF] + shared, words))
                    continue
                reads.append((_READ_SLOT[annotation.level] + shared, words))
                if annotation.orf_write_entry is not None:
                    # Read operand allocation (Section 4.4): the MRF
                    # read is also written into the ORF, guard or no
                    # guard.
                    reads.append((_WRITE_SLOT[Level.ORF] + shared, words))
            writes: _DeltaList = []
            words = table.write_words[position]
            if words:
                if instruction.dst_ann is None:
                    writes.append((_WRITE_SLOT[Level.MRF] + shared, words))
                else:
                    for level in instruction.dst_ann.levels:
                        writes.append((_WRITE_SLOT[level] + shared, words))
            read_deltas.append(reads)
            write_deltas.append(writes)
            position += 1
    result = (read_deltas, write_deltas)
    annotated_kernel.__dict__["_annotation_deltas"] = result
    return result


def software_counters(
    compiled: CompiledTraceSet, annotated_kernel: Kernel
) -> AccessCounters:
    """Software-scheme accounting by position walk.

    ``annotated_kernel`` is the allocator's output — structurally
    identical to the traced kernel, so positions align (the same
    position-based resolution the scalar driver uses).  Counter keys
    appear in position order, reads before writes, so the counters'
    insertion order (which energy summation follows) is fixed.
    """
    read_deltas, write_deltas = _annotation_deltas(
        annotated_kernel, operand_table(compiled.kernel)
    )
    totals: Dict[int, int] = {}
    passed_counts = compiled.passed
    for position, issued in enumerate(compiled.issued):
        if not issued:
            continue
        for slot, words in read_deltas[position]:
            totals[slot] = totals.get(slot, 0) + words * issued
        passed = passed_counts[position]
        if passed:
            for slot, words in write_deltas[position]:
                totals[slot] = totals.get(slot, 0) + words * passed
    return AccessCounters(
        {COUNTER_SLOTS[slot]: count for slot, count in totals.items()}
    )


def merge_scaled(
    into: AccessCounters, delta: AccessCounters, multiplicity: int
) -> None:
    """``into += delta * multiplicity`` (integer counts stay integral)."""
    counts = into.counts
    for key, count in delta.counts.items():
        counts[key] = counts.get(key, 0) + count * multiplicity


# -- columnar hardware accounting ------------------------------------------


class HardwareStaticTable:
    """Int-lowered static facts for the columnar hardware walks.

    Registers are renamed to dense ids (``words[id]`` holds the word
    count); per position the table carries the read id/width pairs, the
    written id (-1 for none), datapath class, latency class, backward
    branch targets, the shared-consumed LRF bypass flag, and the
    live-before/live-after sets as bitmasks over register ids.  Only
    registers the kernel reads or writes get ids: liveness masks are
    consulted exclusively for cache-resident registers, and residency
    only ever holds written registers.
    """

    __slots__ = (
        "words",
        "read_items",
        "write_id",
        "write_words",
        "shared",
        "long_latency",
        "shared_consumed",
        "backward_branch",
        "live_before_masks",
        "live_after_masks",
    )

    def __init__(self, kernel: Kernel) -> None:
        # The control flow and reaching definitions come from the
        # allocator's scheme-independent analysis (memoized by content),
        # so every scheme of a kernel shares one derivation.
        analysis = kernel_analysis(kernel)
        shared_positions = shared_consumed_positions(
            kernel, analysis.reaching
        )
        table = operand_table(kernel)
        reg_ids: Dict = {}
        self.words: List[int] = []

        def rid(reg) -> int:
            index = reg_ids.get(reg)
            if index is None:
                index = len(reg_ids)
                reg_ids[reg] = index
                self.words.append(reg.num_words)
            return index

        num_positions = len(table.shared)
        self.read_items: List[Tuple[Tuple[int, int], ...]] = []
        self.write_id: List[int] = []
        for position in range(num_positions):
            self.read_items.append(
                tuple(
                    (rid(reg), reg.num_words)
                    for reg in table.read_regs[position]
                )
            )
            written = table.write_reg[position]
            self.write_id.append(-1 if written is None else rid(written))
        self.write_words = table.write_words
        self.shared = table.shared
        self.long_latency = table.long_latency
        self.backward_branch = table.backward_branch
        self.shared_consumed = [
            position in shared_positions
            for position in range(num_positions)
        ]

        def mask(regs) -> int:
            result = 0
            for reg in regs:
                index = reg_ids.get(reg)
                if index is not None:
                    result |= 1 << index
            return result

        # The sets PointLiveness answers per point, as bitmasks, in one
        # backward sweep per block from its live-out set: a guard-free
        # write kills its register, then the reads make theirs live.
        liveness = LivenessAnalysis(kernel, analysis.cfg)
        self.live_before_masks = [0] * num_positions
        self.live_after_masks = [0] * num_positions
        position = num_positions
        for index in reversed(range(len(kernel.blocks))):
            live = mask(liveness.live_out[index])
            for instruction in reversed(kernel.blocks[index].instructions):
                position -= 1
                self.live_after_masks[position] = live
                written = self.write_id[position]
                if written >= 0 and instruction.guard is None:
                    live &= ~(1 << written)
                for read_id, _ in self.read_items[position]:
                    live |= 1 << read_id
                self.live_before_masks[position] = live


def hardware_static_table(kernel: Kernel) -> HardwareStaticTable:
    """The kernel's hardware walk table (cached on the instance)."""
    cached = kernel.__dict__.get("_hw_static_table")
    if cached is None:
        cached = HardwareStaticTable(kernel)
        kernel.__dict__["_hw_static_table"] = cached
    return cached


def hardware_event_program(
    compiled_trace: CompiledTrace, table: HardwareStaticTable
) -> List[Tuple]:
    """Lower one unique trace to its scheme-independent event program.

    Resolves everything the hardware walks share across schemes — per
    event: datapath class, read (id, words) pairs, the deschedule
    flush mask (None when the two-level scheduler keeps the warp
    scheduled), the backward-branch flush mask (None unless a backward
    branch was taken), the written id (-1 when nothing is written:
    no destination or guard squash), its width and latency class, and
    the live-after mask for eviction write-back decisions.

    Deschedule points replicate
    :class:`repro.sim.accounting.HardwareAccounting`: dependence is
    checked against the *static* written register even when the guard
    fails, while a result joins the pending set only when the guard
    passed and the operation is long-latency.  Cached per trace.
    """
    cached = compiled_trace._hw_program
    if cached is not None:
        return cached

    read_items = table.read_items
    write_ids = table.write_id
    program: List[Tuple] = []
    pending = 0
    for position, guard, branch in zip(
        compiled_trace.positions,
        compiled_trace.guards,
        compiled_trace.branches,
    ):
        reads = read_items[position]
        static_write = write_ids[position]
        desched = False
        if pending:
            if any(pending >> rid & 1 for rid, _ in reads) or (
                static_write >= 0 and pending >> static_write & 1
            ):
                desched = True
                pending = 0
        long_latency = table.long_latency[position]
        write_id = static_write if guard else -1
        if write_id >= 0 and long_latency:
            pending |= 1 << write_id
        backward = branch and table.backward_branch[position]
        live_after = table.live_after_masks[position]
        program.append(
            (
                int(table.shared[position]),
                reads,
                table.live_before_masks[position] if desched else None,
                live_after if backward else None,
                write_id,
                table.write_words[position],
                long_latency,
                live_after,
                table.shared_consumed[position],
            )
        )
    compiled_trace._hw_program = program
    return program


def hardware_counters(
    compiled: CompiledTraceSet, schemes: List[Scheme]
) -> Dict[Scheme, AccessCounters]:
    """Account every hardware scheme in one pass per unique trace.

    Each unique trace's event program is built (or fetched) once and
    replayed through the columnar cache walk of every requested scheme;
    per-trace slot vectors are scaled by multiplicity into per-scheme
    accumulators.  All schemes must be hardware kinds.
    """
    for scheme in schemes:
        if not scheme.kind.is_hardware:
            raise ValueError(f"{scheme.name} is not a hardware scheme")
    table = hardware_static_table(compiled.kernel)
    num_slots = len(SLOT_INDEX)
    totals: Dict[Scheme, List[int]] = {
        scheme: [0] * num_slots for scheme in schemes
    }
    for compiled_trace in compiled.unique:
        program = hardware_event_program(compiled_trace, table)
        multiplicity = compiled_trace.multiplicity
        for scheme in schemes:
            if scheme.kind is SchemeKind.HW_TWO_LEVEL:
                slots = columnar_rfc_walk(
                    program,
                    table.words,
                    scheme.entries_per_thread,
                    flush_on_backward_branch=(
                        scheme.flush_on_backward_branch
                    ),
                )
            else:
                slots = columnar_three_level_walk(
                    program,
                    table.words,
                    scheme.entries_per_thread,
                    flush_on_backward_branch=(
                        scheme.flush_on_backward_branch
                    ),
                )
            accumulator = totals[scheme]
            for index in range(num_slots):
                accumulator[index] += slots[index] * multiplicity
    return {
        scheme: counters_from_slots(slots)
        for scheme, slots in totals.items()
    }
