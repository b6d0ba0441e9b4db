"""The compile-time hierarchy allocator (Section 4).

``allocate_kernel`` runs the full pipeline on one kernel:

1. partition the kernel into strands (Section 4.1);
2. build register instances and read-operand groups per strand;
3. per strand, greedily allocate instances to the LRF (three-level
   configurations, Section 4.6) and then to the ORF (Figure 7),
   prioritised by energy savings per occupied issue slot, with partial
   range allocation (Section 4.3) and read operand allocation
   (Section 4.4) as configured;
4. annotate every instruction operand with its hierarchy level.

Steps 1–2 are scheme-independent and factored into
:mod:`repro.alloc.analysis` (:class:`KernelAnalysis`, cached by kernel
content fingerprint); steps 3–4 are the per-config *levels pass*.
``allocate_kernels_batch`` exploits the split: one analysis, one levels
pass per configuration — the workhorse of multi-config sweeps.

The allocator never changes program semantics: it only decides where
each value lives.  Any value whose location would be ambiguous at a
read (mixed reaching definitions, Figure 10) is kept available in the
MRF.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..energy.model import EnergyModel
from ..ir.instructions import DestAnnotation, SourceAnnotation
from ..ir.kernel import Kernel
from ..levels import Level
from ..obs.provenance import ProvenanceRecorder
from ..obs.tracer import TRACER
from ..strands.model import StrandPartition
from .analysis import KernelAnalysis, kernel_analysis
from .intervals import EntryFile
from .savings import (
    priority,
    read_operand_savings,
    value_allocation_savings,
)
from .webs import (
    ReadOperandCandidate,
    StrandValues,
    Web,
    WebRead,
)


@dataclass(frozen=True)
class AllocationConfig:
    """Configuration of the software-managed hierarchy.

    ``orf_entries`` is per thread (the paper sweeps 1-8; 3 is the most
    energy-efficient, Section 6.4).  ``use_lrf`` enables the three-level
    hierarchy; ``split_lrf`` gives each operand slot its own LRF bank.
    ``enable_partial_ranges`` and ``enable_read_operands`` toggle the
    Section 4.3/4.4 optimisations (off reproduces the baseline
    algorithm of Section 4.2).  ``allow_forward_branches`` lets values
    stay in the ORF across forward branches (Section 4.5); off restricts
    allocation to single basic blocks as in the baseline algorithm.
    """

    orf_entries: int = 3
    use_lrf: bool = False
    split_lrf: bool = False
    enable_partial_ranges: bool = True
    enable_read_operands: bool = True
    allow_forward_branches: bool = True
    #: Number of LRF banks when split (one per operand slot A/B/C).
    lrf_banks: int = 3
    #: Section 7 idealisation: ORF/LRF contents survive descheduling,
    #: so strands end only at backward branches.  NOT realisable in
    #: hardware; used by the limit study to bound cross-strand
    #: scheduling benefits.
    assume_persistent_strands: bool = False

    def energy_model(self) -> EnergyModel:
        return EnergyModel(
            orf_entries=self.orf_entries, split_lrf=self.split_lrf
        )

    @staticmethod
    def baseline_two_level(orf_entries: int = 3) -> "AllocationConfig":
        """Section 4.2 baseline: ORF only, no optimisations, block scope."""
        return AllocationConfig(
            orf_entries=orf_entries,
            use_lrf=False,
            enable_partial_ranges=False,
            enable_read_operands=False,
            allow_forward_branches=False,
        )

    @staticmethod
    def best_paper_config() -> "AllocationConfig":
        """The paper's most energy-efficient design (Section 6.4):
        3-entry ORF with a split LRF, all optimisations on."""
        return AllocationConfig(orf_entries=3, use_lrf=True, split_lrf=True)

    # -- serialization -----------------------------------------------------
    #
    # The JSON image is the config's cross-process form (the tune API,
    # tuner frontiers, explain --json); until now configs only crossed
    # process boundaries via pickle.  ``from_dict`` validates so a
    # hand-written document cannot silently build a config the
    # allocator would misinterpret.

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-able image; ``from_dict`` round-trips it."""
        return {
            spec.name: getattr(self, spec.name)
            for spec in dataclasses.fields(self)
        }

    @staticmethod
    def from_dict(obj: Dict[str, Any]) -> "AllocationConfig":
        """Build a validated config from its JSON image.

        Raises :class:`ValueError` naming the offending field on
        unknown keys, wrong types, ``orf_entries < 1``, ``lrf_banks``
        outside 1..3, a non-default ``lrf_banks`` without
        ``split_lrf`` (the field is ignored unless the LRF is split,
        so a mismatch means the document does not describe the config
        it would build), or ``split_lrf`` without ``use_lrf``.
        """
        if not isinstance(obj, dict):
            raise ValueError("config must be an object")
        specs = {spec.name: spec for spec in dataclasses.fields(
            AllocationConfig
        )}
        unknown = set(obj) - set(specs)
        if unknown:
            raise ValueError(
                f"unknown config field(s): {', '.join(sorted(unknown))}"
            )
        kwargs: Dict[str, Any] = {}
        for name, spec in specs.items():
            if name not in obj:
                continue
            value = obj[name]
            if spec.type == "int":
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError(f"{name} must be an integer")
            elif not isinstance(value, bool):
                raise ValueError(f"{name} must be a boolean")
            kwargs[name] = value
        config = AllocationConfig(**kwargs)
        if config.orf_entries < 1:
            raise ValueError(
                f"orf_entries must be >= 1, got {config.orf_entries}"
            )
        if not 1 <= config.lrf_banks <= 3:
            raise ValueError(
                f"lrf_banks must be in 1..3, got {config.lrf_banks}"
            )
        if not config.split_lrf and config.lrf_banks != 3:
            raise ValueError(
                f"lrf_banks={config.lrf_banks} mismatches "
                "split_lrf=False (banks are only meaningful with a "
                "split LRF; omit the field or use the default 3)"
            )
        if config.split_lrf and not config.use_lrf:
            raise ValueError("split_lrf requires use_lrf")
        return config


@dataclass
class WebAssignment:
    """Where one register instance was placed."""

    web: Web
    level: Level
    #: ORF entry indices (len == width_words) or the LRF bank in [0].
    entries: Tuple[int, ...]
    #: Reads serviced from the allocated level (position order).
    covered_reads: Tuple[WebRead, ...]
    #: True if the range was shortened (Section 4.3).
    partial: bool
    #: Estimated energy saved (pJ per dynamic execution of the strand).
    savings: float


@dataclass
class ReadOperandAssignment:
    """A read operand cached in the ORF (Section 4.4)."""

    candidate: ReadOperandCandidate
    entries: Tuple[int, ...]
    covered_reads: Tuple[WebRead, ...]
    partial: bool
    savings: float


@dataclass
class AllocationResult:
    """Outcome of allocating one kernel."""

    kernel: Kernel
    config: AllocationConfig
    partition: StrandPartition
    strand_values: List[StrandValues]
    web_assignments: List[WebAssignment] = field(default_factory=list)
    read_assignments: List[ReadOperandAssignment] = field(
        default_factory=list
    )

    def assignments_for_level(self, level: Level) -> List[WebAssignment]:
        return [a for a in self.web_assignments if a.level is level]

    @property
    def num_webs(self) -> int:
        return sum(len(sv.webs) for sv in self.strand_values)

    def summary(self) -> Dict[str, int]:
        return {
            "strands": self.partition.num_strands,
            "webs": self.num_webs,
            "lrf_values": len(self.assignments_for_level(Level.LRF)),
            "orf_values": len(self.assignments_for_level(Level.ORF)),
            "partial_ranges": sum(
                1 for a in self.web_assignments if a.partial
            ),
            "read_operands": len(self.read_assignments),
        }

    def strand_report(self) -> List[Dict[str, object]]:
        """Per-strand allocation quality: instance counts, how many
        landed in each level, and the estimated static energy saved.

        Useful when diagnosing why a kernel under-uses the hierarchy
        (e.g. the paper's Reduction: tiny strands, nothing to allocate).
        """
        by_strand: Dict[int, Dict[str, object]] = {}
        for values in self.strand_values:
            by_strand[values.strand.strand_id] = {
                "strand": values.strand.strand_id,
                "instructions": len(values.strand),
                "webs": len(values.webs),
                "lrf_values": 0,
                "orf_values": 0,
                "read_operands": 0,
                "estimated_savings_pj": 0.0,
            }
        for assignment in self.web_assignments:
            row = by_strand[assignment.web.strand_id]
            key = (
                "lrf_values"
                if assignment.level is Level.LRF
                else "orf_values"
            )
            row[key] += 1  # type: ignore[operator]
            row["estimated_savings_pj"] += assignment.savings  # type: ignore[operator]
        for assignment in self.read_assignments:
            row = by_strand[assignment.candidate.strand_id]
            row["read_operands"] += 1  # type: ignore[operator]
            row["estimated_savings_pj"] += assignment.savings  # type: ignore[operator]
        return [by_strand[key] for key in sorted(by_strand)]


def allocate_kernel(
    kernel: Kernel,
    config: AllocationConfig,
    model: Optional[EnergyModel] = None,
    recorder: Optional[ProvenanceRecorder] = None,
    analysis: Optional[KernelAnalysis] = None,
) -> AllocationResult:
    """Run the full allocation pipeline on a kernel (annotates in place).

    The scheme-independent phase comes from the shared analysis cache
    (:func:`repro.alloc.analysis.kernel_analysis`); only the per-config
    levels pass runs here.  ``analysis`` may supply the phase
    explicitly (it must describe a structurally identical kernel under
    ``config``'s persistence flag); batch sweeps pass one analysis to
    many configs.

    ``recorder`` (kept out of :class:`AllocationConfig`, which is
    hashed into memo keys) collects a provenance trail of every
    allocation decision; attaching one never changes the result — nor
    the shared analysis, which records nothing.
    """
    with TRACER.span("alloc.kernel", kernel=kernel.name):
        if analysis is None:
            analysis = kernel_analysis(
                kernel, config.assume_persistent_strands
            )
        elif analysis.assume_persistent != config.assume_persistent_strands:
            raise ValueError(
                "analysis was computed with assume_persistent="
                f"{analysis.assume_persistent} but config requires "
                f"{config.assume_persistent_strands}"
            )
        return _levels_pass(kernel, analysis, config, model, recorder)


def allocate_kernels_batch(
    kernel: Kernel,
    configs: Sequence[AllocationConfig],
    model: Optional[EnergyModel] = None,
    recorders: Optional[Sequence[Optional[ProvenanceRecorder]]] = None,
) -> List[AllocationResult]:
    """Allocate one kernel under many configs, sharing the analysis.

    Semantically ``[allocate_kernel(kernel.clone(), c) for c in
    configs]`` — each config annotates its own pristine clone — but the
    scheme-independent phase runs once per distinct
    ``assume_persistent_strands`` flavour instead of once per config.
    ``model`` (optional) applies to every config; ``recorders``, when
    given, is parallel to ``configs`` and attaches per-config
    provenance without touching the shared analysis.
    """
    if recorders is not None and len(recorders) != len(configs):
        raise ValueError("recorders must parallel configs")
    results: List[AllocationResult] = []
    analyses: Dict[bool, KernelAnalysis] = {}
    with TRACER.span(
        "alloc.levels_batch", kernel=kernel.name, configs=len(configs)
    ):
        for index, config in enumerate(configs):
            flag = config.assume_persistent_strands
            analysis = analyses.get(flag)
            if analysis is None:
                analysis = kernel_analysis(kernel, flag)
                analyses[flag] = analysis
            results.append(
                allocate_kernel(
                    kernel.clone(),
                    config,
                    model=model,
                    recorder=recorders[index] if recorders else None,
                    analysis=analysis,
                )
            )
    return results


def _levels_pass(
    kernel: Kernel,
    analysis: KernelAnalysis,
    config: AllocationConfig,
    model: Optional[EnergyModel],
    recorder: Optional[ProvenanceRecorder],
) -> AllocationResult:
    """The per-config phase: stamp strand bits, place values, annotate.

    ``kernel`` must be structurally identical to ``analysis.kernel``;
    every ref in the analysis resolves by position.  The analysis is
    read-only here — partitions and strand values are shared across
    all configs built from them.  One stamp sets every instruction's
    strand bit and shared single-level annotations; placing a value
    then replaces only the annotations it changes.
    """
    kernel.stamp_baseline(analysis.partition.ends_strand_positions)
    if model is None:
        model = config.energy_model()

    result = AllocationResult(
        kernel, config, analysis.partition, analysis.strand_values
    )
    with TRACER.span("alloc.levels"):
        for values in analysis.strand_values:
            _allocate_strand(
                kernel, values, config, model, result, recorder
            )
    return result


# ---------------------------------------------------------------------------
# per-strand allocation
# ---------------------------------------------------------------------------


def _allocate_strand(
    kernel: Kernel,
    values: StrandValues,
    config: AllocationConfig,
    model: EnergyModel,
    result: AllocationResult,
    recorder: Optional[ProvenanceRecorder] = None,
) -> None:
    lrf_assigned: Dict[int, WebAssignment] = {}
    if config.use_lrf:
        lrf_assigned = _lrf_pass(
            kernel, values, config, model, result, recorder
        )
    _orf_pass(
        kernel, values, config, model, result, lrf_assigned, recorder
    )


def _web_positions(web: Web, covered: Sequence[WebRead]) -> List[int]:
    positions = [d.ref.position for d in web.defs if d.ref is not None]
    positions.extend(read.position for read in covered)
    return sorted(set(positions))


def _web_scope_ok(web: Web, config: AllocationConfig) -> bool:
    """Baseline block-scope restriction (Section 4.2)."""
    return (
        config.allow_forward_branches
        or web.block_scoped_reads is not None
    )


def _scoped_reads(web: Web, config: AllocationConfig) -> List[WebRead]:
    """Coverable reads, restricted to block scope for the baseline."""
    if config.allow_forward_branches:
        return web.coverable_reads
    return web.block_scoped_reads or []


def _lrf_pass(
    kernel: Kernel,
    values: StrandValues,
    config: AllocationConfig,
    model: EnergyModel,
    result: AllocationResult,
    recorder: Optional[ProvenanceRecorder] = None,
) -> Dict[int, WebAssignment]:
    """Allocate instances to the LRF first (Section 4.6)."""
    strand_id = values.strand.strand_id
    num_banks = config.lrf_banks if config.split_lrf else 1
    banks = EntryFile(num_banks)

    # Entries carry the push-time savings: covered never changes
    # between push and pop, so recomputing at pop would yield the
    # identical float.
    heap: List[
        Tuple[float, int, Web, List[WebRead], Optional[int], float]
    ] = []
    for seq, web in enumerate(values.webs):
        if web.width_words != 1 or not web.all_private:
            if recorder is not None:
                recorder.record(
                    "skip", strand_id, "web", web.reg,
                    level="LRF",
                    positions=_web_positions(web, web.coverable_reads),
                    reason="wide_or_shared",
                )
            continue
        if not _web_scope_ok(web, config):
            if recorder is not None:
                recorder.record(
                    "skip", strand_id, "web", web.reg,
                    level="LRF",
                    positions=_web_positions(web, web.coverable_reads),
                    reason="block_scope",
                )
            continue
        covered = _scoped_reads(web, config)
        bank = _lrf_bank_for(web, covered, config)
        if bank is None:
            if recorder is not None:
                recorder.record(
                    "skip", strand_id, "web", web.reg,
                    level="LRF",
                    positions=_web_positions(web, covered),
                    reason="multi_slot_split_lrf",
                )
            continue
        partial_excludes = len(covered) != len(web.coverable_reads)
        savings = value_allocation_savings(
            web, covered, Level.LRF, model,
            force_mrf_write=partial_excludes,
        )
        if savings <= 0:
            if recorder is not None:
                recorder.record(
                    "skip", strand_id, "web", web.reg,
                    level="LRF",
                    positions=_web_positions(web, covered),
                    reason="no_savings", savings=round(savings, 6),
                )
            continue
        begin, end = _web_interval(web, covered)
        if recorder is not None:
            recorder.record(
                "candidate", strand_id, "web", web.reg,
                level="LRF",
                positions=_web_positions(web, covered),
                savings=round(savings, 6),
                priority=round(priority(savings, begin, end), 6),
                bank=bank, reads=len(covered),
            )
        heapq.heappush(
            heap,
            (-priority(savings, begin, end), seq, web, covered, bank, savings),
        )

    assigned: Dict[int, WebAssignment] = {}
    while heap:
        _, _, web, covered, bank, savings = heapq.heappop(heap)
        begin, end = _web_interval(web, covered)
        if config.split_lrf:
            if not banks.is_available(bank, begin, end):
                if recorder is not None:
                    recorder.record(
                        "fail", strand_id, "web", web.reg,
                        level="LRF",
                        positions=_web_positions(web, covered),
                        reason="bank_busy", bank=bank,
                    )
                continue
            entry = bank
        else:
            entry = banks.find_free(begin, end)
            if entry is None:
                if recorder is not None:
                    recorder.record(
                        "fail", strand_id, "web", web.reg,
                        level="LRF",
                        positions=_web_positions(web, covered),
                        reason="no_free_bank",
                    )
                continue
        banks.allocate(entry, begin, end)
        assignment = WebAssignment(
            web=web,
            level=Level.LRF,
            entries=(entry,),
            covered_reads=tuple(covered),
            partial=False,
            savings=savings,
        )
        assigned[web.web_id] = assignment
        result.web_assignments.append(assignment)
        _annotate_web(kernel, assignment, config)
        if recorder is not None:
            recorder.record(
                "place", strand_id, "web", web.reg,
                level="LRF",
                positions=_web_positions(web, covered),
                entry=entry, savings=round(savings, 6),
                reads=len(covered),
            )
    return assigned


def _lrf_bank_for(
    web: Web, covered: Sequence[WebRead], config: AllocationConfig
) -> Optional[int]:
    """Which LRF bank a web may use; None if LRF-ineligible.

    With a split LRF, a value read from more than one operand slot must
    go to the ORF instead (Section 3.2).  With a unified LRF there is a
    single bank 0.
    """
    if not config.split_lrf:
        return 0
    slots = {read.site.slot for read in covered}
    if len(slots) > 1:
        return None
    if not slots:
        return 0  # dead value: any bank; use bank 0
    (slot,) = slots
    if slot >= config.lrf_banks:
        return None
    return slot


def _orf_pass(
    kernel: Kernel,
    values: StrandValues,
    config: AllocationConfig,
    model: EnergyModel,
    result: AllocationResult,
    lrf_assigned: Dict[int, WebAssignment],
    recorder: Optional[ProvenanceRecorder] = None,
) -> None:
    """Greedy ORF allocation with partial ranges and read operands."""
    strand_id = values.strand.strand_id
    orf = EntryFile(config.orf_entries)

    # Items: ("web", web) and ("read", candidate), one shared queue.
    # Entries carry the push-time savings so the first allocation
    # attempt does not recompute the identical value.
    heap: List[Tuple[float, int, str, object, List[WebRead], float]] = []
    seq = 0
    for web in values.webs:
        if web.web_id in lrf_assigned:
            continue
        if not _web_scope_ok(web, config):
            if recorder is not None:
                recorder.record(
                    "skip", strand_id, "web", web.reg,
                    level="ORF",
                    positions=_web_positions(web, web.coverable_reads),
                    reason="block_scope",
                )
            continue
        covered = _scoped_reads(web, config)
        partial_excludes = len(covered) != len(web.coverable_reads)
        savings = value_allocation_savings(
            web, covered, Level.ORF, model,
            force_mrf_write=partial_excludes,
        )
        if savings <= 0:
            if recorder is not None:
                recorder.record(
                    "skip", strand_id, "web", web.reg,
                    level="ORF",
                    positions=_web_positions(web, covered),
                    reason="no_savings", savings=round(savings, 6),
                )
            continue
        begin, end = _web_interval(web, covered)
        if recorder is not None:
            recorder.record(
                "candidate", strand_id, "web", web.reg,
                level="ORF",
                positions=_web_positions(web, covered),
                savings=round(savings, 6),
                priority=round(priority(savings, begin, end), 6),
                reads=len(covered), width=web.width_words,
            )
        heapq.heappush(
            heap,
            (-priority(savings, begin, end), seq, "web", web, covered, savings),
        )
        seq += 1

    if config.enable_read_operands:
        for candidate in values.read_candidates:
            covered = list(candidate.coverable_reads)
            if not config.allow_forward_branches:
                blocks = {r.site.ref.block_index for r in covered}
                if len(blocks) != 1:
                    if recorder is not None:
                        recorder.record(
                            "skip", strand_id, "read_operand",
                            candidate.reg, level="ORF",
                            positions=[r.position for r in covered],
                            reason="block_scope",
                        )
                    continue
            savings = read_operand_savings(candidate, covered, model)
            if savings <= 0:
                if recorder is not None:
                    recorder.record(
                        "skip", strand_id, "read_operand",
                        candidate.reg, level="ORF",
                        positions=[r.position for r in covered],
                        reason="no_savings", savings=round(savings, 6),
                    )
                continue
            begin = covered[0].position
            end = covered[-1].position
            if recorder is not None:
                recorder.record(
                    "candidate", strand_id, "read_operand",
                    candidate.reg, level="ORF",
                    positions=[r.position for r in covered],
                    savings=round(savings, 6),
                    priority=round(priority(savings, begin, end), 6),
                    reads=len(covered),
                )
            heapq.heappush(
                heap,
                (
                    -priority(savings, begin, end),
                    seq,
                    "read",
                    candidate,
                    covered,
                    savings,
                ),
            )
            seq += 1

    while heap:
        _, _, kind, item, covered, savings = heapq.heappop(heap)
        if kind == "web":
            _try_allocate_web(
                kernel, item, covered, orf, config, model, result,
                recorder, strand_id, savings=savings,
            )
        else:
            _try_allocate_read_operand(
                kernel, item, covered, orf, config, model, result,
                recorder, strand_id, savings=savings,
            )


def _try_allocate_web(
    kernel: Kernel,
    web: Web,
    covered: List[WebRead],
    orf: EntryFile,
    config: AllocationConfig,
    model: EnergyModel,
    result: AllocationResult,
    recorder: Optional[ProvenanceRecorder] = None,
    strand_id: int = -1,
    savings: Optional[float] = None,
) -> None:
    full_covered_count = len(covered)
    while True:
        if savings is None:
            partial = len(covered) != len(web.coverable_reads)
            savings = value_allocation_savings(
                web, covered, Level.ORF, model, force_mrf_write=partial
            )
        if savings <= 0:
            if recorder is not None:
                recorder.record(
                    "fail", strand_id, "web", web.reg,
                    level="ORF",
                    positions=_web_positions(web, covered),
                    reason="no_savings_after_trim"
                    if len(covered) != full_covered_count
                    else "no_savings",
                    savings=round(savings, 6),
                )
            return
        begin, end = _web_interval(web, covered)
        entries = orf.find_free_group(begin, end, web.width_words)
        if entries is not None:
            for entry in entries:
                orf.allocate(entry, begin, end)
            assignment = WebAssignment(
                web=web,
                level=Level.ORF,
                entries=tuple(entries),
                covered_reads=tuple(covered),
                partial=len(covered) != full_covered_count,
                savings=savings,
            )
            result.web_assignments.append(assignment)
            _annotate_web(kernel, assignment, config)
            if recorder is not None:
                recorder.record(
                    "place", strand_id, "web", web.reg,
                    level="ORF",
                    positions=_web_positions(web, covered),
                    entries=list(entries),
                    savings=round(savings, 6),
                    partial=len(covered) != full_covered_count,
                    reads=len(covered),
                    range=[begin, end],
                )
            return
        # Partial range allocation (Section 4.3): reassign the last read
        # in the strand to the MRF and retry with a shorter range.
        if not config.enable_partial_ranges or not covered:
            if recorder is not None:
                recorder.record(
                    "fail", strand_id, "web", web.reg,
                    level="ORF",
                    positions=_web_positions(web, covered),
                    reason="orf_full", range=[begin, end],
                )
            return
        if recorder is not None:
            recorder.record(
                "trim", strand_id, "web", web.reg,
                level="ORF",
                positions=_web_positions(web, covered),
                dropped_read=covered[-1].position,
                range=[begin, end],
            )
        covered = covered[:-1]
        savings = None


def _try_allocate_read_operand(
    kernel: Kernel,
    candidate: ReadOperandCandidate,
    covered: List[WebRead],
    orf: EntryFile,
    config: AllocationConfig,
    model: EnergyModel,
    result: AllocationResult,
    recorder: Optional[ProvenanceRecorder] = None,
    strand_id: int = -1,
    savings: Optional[float] = None,
) -> None:
    full_covered_count = len(covered)
    while len(covered) >= 2:
        if savings is None:
            savings = read_operand_savings(candidate, covered, model)
        if savings <= 0:
            if recorder is not None:
                recorder.record(
                    "fail", strand_id, "read_operand", candidate.reg,
                    level="ORF",
                    positions=[r.position for r in covered],
                    reason="no_savings", savings=round(savings, 6),
                )
            return
        begin = covered[0].position
        end = covered[-1].position
        # Read-operand ranges are *closed* occupancy: the entry is
        # filled in the first read's read phase and must survive until
        # the last read's read phase, so they conflict with any web
        # window touching either boundary (fuzz seed 320).
        entries = orf.find_free_group(
            begin, end, candidate.width_words, closed=True
        )
        if entries is not None:
            for entry in entries:
                orf.allocate(entry, begin, end, closed=True)
            assignment = ReadOperandAssignment(
                candidate=candidate,
                entries=tuple(entries),
                covered_reads=tuple(covered),
                partial=len(covered) != full_covered_count,
                savings=savings,
            )
            result.read_assignments.append(assignment)
            _annotate_read_operand(kernel, assignment)
            if recorder is not None:
                recorder.record(
                    "place", strand_id, "read_operand", candidate.reg,
                    level="ORF",
                    positions=[r.position for r in covered],
                    entries=list(entries),
                    savings=round(savings, 6),
                    partial=len(covered) != full_covered_count,
                    reads=len(covered),
                    range=[begin, end],
                )
            return
        if not config.enable_partial_ranges:
            if recorder is not None:
                recorder.record(
                    "fail", strand_id, "read_operand", candidate.reg,
                    level="ORF",
                    positions=[r.position for r in covered],
                    reason="orf_full", range=[begin, end],
                )
            return
        if recorder is not None:
            recorder.record(
                "trim", strand_id, "read_operand", candidate.reg,
                level="ORF",
                positions=[r.position for r in covered],
                dropped_read=covered[-1].position,
                range=[begin, end],
            )
        covered = covered[:-1]
        savings = None


def _web_interval(
    web: Web, covered: Sequence[WebRead]
) -> Tuple[int, int]:
    begin, last_def = web.def_span
    end = covered[-1].position if covered else begin
    return begin, max(end, last_def)


# ---------------------------------------------------------------------------
# annotation
# ---------------------------------------------------------------------------


def _annotate_web(
    kernel: Kernel, assignment: WebAssignment, config: AllocationConfig
) -> None:
    web = assignment.web
    level = assignment.level
    entry = assignment.entries[0]
    needs_mrf = web.needs_mrf_write or len(assignment.covered_reads) != len(
        web.coverable_reads
    )
    levels: Tuple[Level, ...] = (level,) + (
        (Level.MRF,) if needs_mrf else ()
    )
    orf_entry = entry if level is Level.ORF else None
    lrf_bank = entry if level is Level.LRF else None
    # Annotations are frozen, so every definition shares one and every
    # covered read another.
    dest = DestAnnotation(
        levels=levels, orf_entry=orf_entry, lrf_bank=lrf_bank
    )
    for definition in web.defs:
        if definition.ref is None:
            continue
        kernel.instruction_at(definition.ref).dst_ann = dest
    source = SourceAnnotation(
        level=level, orf_entry=orf_entry, lrf_bank=lrf_bank
    )
    for read in assignment.covered_reads:
        instruction = kernel.instruction_at(read.site.ref)
        anns = list(instruction.src_anns or ())
        anns[read.site.slot] = source
        instruction.src_anns = tuple(anns)


def _annotate_read_operand(
    kernel: Kernel, assignment: ReadOperandAssignment
) -> None:
    entry = assignment.entries[0]
    first, *rest = assignment.covered_reads
    instruction = kernel.instruction_at(first.site.ref)
    anns = list(instruction.src_anns or ())
    anns[first.site.slot] = SourceAnnotation(
        level=Level.MRF, orf_write_entry=entry
    )
    instruction.src_anns = tuple(anns)
    source = SourceAnnotation(level=Level.ORF, orf_entry=entry)
    for read in rest:
        instruction = kernel.instruction_at(read.site.ref)
        anns = list(instruction.src_anns or ())
        anns[read.site.slot] = source
        instruction.src_anns = tuple(anns)
