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
pass per configuration — the workhorse of multi-config sweeps.  Step 3
decides each strand from that strand's values and a few config fields
and energies, so a batch runs each distinct strand pass once, prices
each strand's ORF candidates once per forward-branch scope and ORF
energies, and annotates one kernel per distinct placement.

The allocator never changes program semantics: it only decides where
each value lives.  Any value whose location would be ambiguous at a
read (mixed reaching definitions, Figure 10) is kept available in the
MRF.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass, field
from typing import (
    Any,
    Container,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

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
        """The default-table model for this config's ORF size and LRF
        split: one shared instance per pair, so its operand-energy memo
        stays warm from one allocation to the next."""
        key = (self.orf_entries, self.split_lrf)
        model = _MODELS.get(key)
        if model is None:
            model = _MODELS[key] = EnergyModel(
                orf_entries=self.orf_entries, split_lrf=self.split_lrf
            )
        return model

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


#: (orf_entries, split_lrf) -> the model ``energy_model()`` returns.
#: Models are frozen and at most 16 keys have a Table 3 row.
_MODELS: Dict[Tuple[int, bool], EnergyModel] = {}


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

    Equal to ``[allocate_kernel(kernel.clone(), c) for c in configs]``
    in every annotation and assignment, but the scheme-independent
    phase runs once per distinct ``assume_persistent_strands`` flavour
    instead of once per config.  ``model`` (optional) applies to every
    config; ``recorders``, when given, is parallel to ``configs`` and
    attaches per-config provenance without touching the shared
    analysis.

    A batch of two or more configs also shares the levels pass (see
    :func:`_shared_levels_pass`): each distinct strand pass runs once,
    the ORF passes that run walk one priced candidate queue per
    (persistence flavour, strand, forward-branch scope, ORF energies),
    and results whose placements annotate the kernel identically hold
    one annotated clone, so a result's kernel is read-only and may be
    another result's too.  A batch of one, and each config with a
    recorder, annotates its own pristine clone and builds its own
    queues, so provenance events keep their order.  Nothing is kept
    across calls.
    """
    if recorders is not None and len(recorders) != len(configs):
        raise ValueError("recorders must parallel configs")
    results: List[AllocationResult] = []
    analyses: Dict[bool, KernelAnalysis] = {}
    # The batch's shared passes, queues and kernels; dropped on return.
    shared: Optional[Dict[Any, Any]] = {} if len(configs) > 1 else None
    # ORF queues built by configs that allocate alone, one per strand.
    own_queues = 0
    with TRACER.span(
        "alloc.levels_batch", kernel=kernel.name, configs=len(configs)
    ) as span:
        for index, config in enumerate(configs):
            flag = config.assume_persistent_strands
            analysis = analyses.get(flag)
            if analysis is None:
                analysis = kernel_analysis(kernel, flag)
                if shared is not None:
                    shared["flavour", flag] = _equivalent_flavour(
                        analysis, analyses
                    )
                analyses[flag] = analysis
            recorder = recorders[index] if recorders else None
            if shared is None or recorder is not None:
                result = allocate_kernel(
                    kernel.clone(),
                    config,
                    model=model,
                    recorder=recorder,
                    analysis=analysis,
                )
                own_queues += len(analysis.strand_values)
            else:
                result = _levels_pass(
                    kernel, analysis, config, model, None, shared
                )
            results.append(result)
        if span is not None:
            span.attributes.update(
                _sharing_counts(results, shared, own_queues)
            )
    return results


def _equivalent_flavour(
    analysis: KernelAnalysis, analyses: Dict[bool, KernelAnalysis]
) -> bool:
    """The flavour whose annotated kernels ``analysis``'s configs share:
    that of an earlier analysis of the batch, ``analyses``, if any.

    Where the persistence idealisation cuts no strand, both flavours
    partition the kernel alike and build equal strand values; their
    placements then annotate equal kernels, so they key kernels by the
    flavour first seen.
    """
    for flag, other in analyses.items():
        if (
            other.partition.ends_strand_positions
            == analysis.partition.ends_strand_positions
            and other.strand_values == analysis.strand_values
        ):
            return flag
    return analysis.assume_persistent


def _sharing_counts(
    results: Sequence[AllocationResult],
    shared: Optional[Dict[Any, Any]],
    own_queues: int,
) -> Dict[str, int]:
    """What a batch shared, for its ``alloc.levels_batch`` span: strand
    passes run, strand passes looked up from an earlier config, ORF
    candidate queues built (``own_queues`` by the configs that
    allocated alone), and distinct annotated kernels."""
    passes = sum(
        len(result.strand_values) * (2 if result.config.use_lrf else 1)
        for result in results
    )
    looked_up = shared.get("looked_up", 0) if shared else 0
    queues = shared.get("queues_built", 0) if shared else 0
    return {
        "strand_passes_run": passes - looked_up,
        "strand_passes_looked_up": looked_up,
        "orf_queues_built": queues + own_queues,
        "annotated_kernels": len({id(result.kernel) for result in results}),
    }


def _levels_pass(
    kernel: Kernel,
    analysis: KernelAnalysis,
    config: AllocationConfig,
    model: Optional[EnergyModel],
    recorder: Optional[ProvenanceRecorder],
    shared: Optional[Dict[Any, Any]] = None,
) -> AllocationResult:
    """The per-config phase: stamp strand bits, place values, annotate.

    ``kernel`` must be structurally identical to ``analysis.kernel``;
    every ref in the analysis resolves by position.  The analysis is
    read-only here — partitions and strand values are shared across
    all configs built from them.  One stamp sets every instruction's
    strand bit and shared single-level annotations; placing a value
    then replaces only the annotations it changes.

    With ``shared`` (the state of one :func:`allocate_kernels_batch`
    call), ``kernel`` is the batch's own kernel and stays untouched:
    see :func:`_shared_levels_pass`.
    """
    if shared is not None:
        return _shared_levels_pass(
            kernel, analysis, config, model or config.energy_model(), shared
        )
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


class _StrandPass(NamedTuple):
    """One strand's LRF or ORF pass, as every config of a batch whose
    pass inputs match sees it."""

    webs: Tuple[WebAssignment, ...]
    reads: Tuple[ReadOperandAssignment, ...]
    #: Ids of the webs placed (all the ORF pass reads of an LRF pass).
    taken: FrozenSet[int]
    #: What the placements write into the kernel (see
    #: :func:`_placement_writes`).
    writes: FrozenSet[Tuple[int, ...]]


def _shared_levels_pass(
    kernel: Kernel,
    analysis: KernelAnalysis,
    config: AllocationConfig,
    model: EnergyModel,
    shared: Dict[Any, Any],
) -> AllocationResult:
    """The levels pass of one config of a batch that shares work.

    No pass decision reads annotations: a strand's LRF pass reads the
    strand's values, the LRF split and banks, the forward-branch scope
    and the MRF and LRF energies; its ORF pass reads the ORF size, the
    three optimisation toggles, the MRF and ORF energies, and which
    webs the LRF took.  So each distinct pass runs once per batch,
    placing without annotating, and every later config with the same
    inputs looks it up in ``shared``.  The ORF passes that do run
    share their candidate queues too: a queue reads only the strand,
    the forward-branch scope and the MRF and ORF energies (see
    :func:`_orf_queue`), so each is priced and sorted once per batch.
    Configs whose placements write the same annotations then share one
    clone of ``kernel``, stamped and annotated once; each result still
    gets its own config and assignment lists.
    """
    flag = analysis.assume_persistent
    # Equal models become one, whose operand-energy memo then serves
    # the whole batch.
    entry = shared.get(("model", model))
    if entry is None:
        entry = shared["model", model] = (model, _pass_energies(model))
    model, (lrf_energies, orf_energies) = entry
    lrf_table = None
    if config.use_lrf:
        lrf_inputs = (
            "lrf",
            flag,
            config.split_lrf,
            config.lrf_banks if config.split_lrf else 1,
            config.allow_forward_branches,
            lrf_energies,
        )
        lrf_table = shared.get(lrf_inputs)
        if lrf_table is None:
            lrf_table = shared[lrf_inputs] = {}
    orf_inputs = (
        "orf",
        flag,
        config.orf_entries,
        config.enable_partial_ranges,
        config.enable_read_operands,
        config.allow_forward_branches,
        orf_energies,
    )
    orf_table = shared.get(orf_inputs)
    if orf_table is None:
        orf_table = shared[orf_inputs] = {}
    # Strand -> ORF queue, for every ORF pass that prices alike.
    queue_inputs = (
        "queue", flag, config.allow_forward_branches, orf_energies
    )
    queues = shared.get(queue_inputs)
    if queues is None:
        queues = shared[queue_inputs] = {}
    # Collects each pass's placements (the kernel is never touched).
    sink = AllocationResult(
        kernel, config, analysis.partition, analysis.strand_values
    )

    # Equal keys annotate equal kernels: same strand bits, and per
    # strand the same LRF and ORF writes (a config without an LRF pass
    # writes what an LRF pass that placed nothing writes).
    kernel_key: List[Any] = ["kernel", shared["flavour", flag]]
    web_assignments: List[WebAssignment] = []
    read_assignments: List[ReadOperandAssignment] = []
    looked_up = queues_built = 0
    with TRACER.span("alloc.levels"):
        for values in analysis.strand_values:
            strand_id = values.strand.strand_id
            taken: FrozenSet[int] = frozenset()
            lrf_writes: FrozenSet[Tuple[int, ...]] = frozenset()
            if lrf_table is not None:
                lrf = lrf_table.get(strand_id)
                if lrf is None:
                    placed = _lrf_pass(None, values, config, model, sink)
                    lrf = lrf_table[strand_id] = _take_pass(sink, placed)
                else:
                    looked_up += 1
                web_assignments.extend(lrf.webs)
                taken = lrf.taken
                lrf_writes = lrf.writes
            orf = orf_table.get((strand_id, taken))
            if orf is None:
                queue = queues.get(strand_id)
                if queue is None:
                    queue = queues[strand_id] = _orf_queue(
                        values, config, model
                    )
                    queues_built += 1
                _orf_pass(
                    None, values, config, model, sink, taken, queue=queue
                )
                orf = orf_table[strand_id, taken] = _take_pass(sink, ())
            else:
                looked_up += 1
            web_assignments.extend(orf.webs)
            read_assignments.extend(orf.reads)
            kernel_key.append(lrf_writes)
            kernel_key.append(orf.writes)
    if looked_up:
        shared["looked_up"] = shared.get("looked_up", 0) + looked_up
    if queues_built:
        shared["queues_built"] = shared.get("queues_built", 0) + queues_built

    key = tuple(kernel_key)
    annotated = shared.get(key)
    if annotated is None:
        annotated = shared[key] = kernel.clone()
        annotated.stamp_baseline(analysis.partition.ends_strand_positions)
        # Placements never share an operand slot, so their order does
        # not matter (see _placement_writes).
        for web_assignment in web_assignments:
            _annotate_web(annotated, web_assignment, config)
        for read_assignment in read_assignments:
            _annotate_read_operand(annotated, read_assignment)
    return AllocationResult(
        annotated,
        config,
        analysis.partition,
        analysis.strand_values,
        web_assignments,
        read_assignments,
    )


def _pass_energies(
    model: EnergyModel,
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """The energies an LRF pass and an ORF pass read.  LRF candidates
    are on the private datapath only (:attr:`Web.all_private`)."""
    lrf = tuple(
        energy(level)
        for level in (Level.MRF, Level.LRF)
        for energy in (model.read_energy, model.write_energy)
    )
    orf = tuple(
        energy(level, on_shared_unit)
        for energy in (model.read_energy, model.write_energy)
        for level in (Level.MRF, Level.ORF)
        for on_shared_unit in (False, True)
    )
    return lrf, orf


def _take_pass(sink: AllocationResult, taken: Iterable[int]) -> _StrandPass:
    """The placements one pass appended to ``sink``, which is emptied
    for the next pass."""
    webs = tuple(sink.web_assignments)
    reads = tuple(sink.read_assignments)
    sink.web_assignments.clear()
    sink.read_assignments.clear()
    return _StrandPass(
        webs, reads, frozenset(taken), _placement_writes(webs, reads)
    )


def _placement_writes(
    webs: Sequence[WebAssignment], reads: Sequence[ReadOperandAssignment]
) -> FrozenSet[Tuple[int, ...]]:
    """What one strand's placements write into the kernel, as ints.

    Placements never share an operand slot: a web owns its definitions
    and reads, and a read-operand group owns reads that no in-strand
    definition reaches.  So the set of these items fixes the strand's
    annotations whatever the placement order, and equal sets annotate
    equally.  A web's covered reads are a prefix of its coverable reads
    or of their block-scoped subsequence, so their count and last read
    say which reads they are; a read-operand group's are a prefix of
    its coverable reads, whose first read names the group.  Web items
    have six fields and read-operand items four, so the two never meet.
    """
    items: List[Tuple[int, ...]] = []
    for placed in webs:
        covered = placed.covered_reads
        last = covered[-1].site if covered else None
        items.append((
            placed.web.web_id,
            placed.level is Level.LRF,
            placed.entries[0],
            len(covered),
            last.ref.position if last else -1,
            last.slot if last else -1,
        ))
    for group in reads:
        first = group.covered_reads[0].site
        items.append((
            first.ref.position,
            first.slot,
            group.entries[0],
            len(group.covered_reads),
        ))
    return frozenset(items)


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
    kernel: Optional[Kernel],
    values: StrandValues,
    config: AllocationConfig,
    model: EnergyModel,
    result: AllocationResult,
    recorder: Optional[ProvenanceRecorder] = None,
) -> Dict[int, WebAssignment]:
    """Allocate instances to the LRF first (Section 4.6).  Placements
    go to ``result``; a ``kernel`` of None is left unannotated."""
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
        if kernel is not None:
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


#: One ORF candidate: (web, read-operand group, covered reads, savings
#: at those reads), exactly one of web and group not None.  Carrying
#: the savings spares a first placement attempt pricing it again.
_Queued = Tuple[
    Optional[Web], Optional[ReadOperandCandidate], List[WebRead], float
]


def _orf_queue(
    values: StrandValues,
    config: AllocationConfig,
    model: EnergyModel,
    lrf_assigned: Container[int] = (),
    read_operands: bool = True,
    recorder: Optional[ProvenanceRecorder] = None,
) -> List[_Queued]:
    """One strand's priced ORF candidates in the order the greedy pass
    tries them (Figure 7): highest priority first, webs before
    read-operand groups, then strand order.

    Pricing reads the strand's values, the forward-branch scope and
    the model's MRF and ORF energies, nothing else of the config.  So a
    batch builds one queue of every web and group per strand and scope
    (the defaults), and each of its ORF passes skips what its config
    excludes.  A pass of its own leaves out the ``lrf_assigned`` webs
    and, unless ``read_operands``, every group, and records each
    candidate's fate in strand order as it prices it.
    """
    strand_id = values.strand.strand_id
    # (-priority, webs first, strand order) is unique per candidate, so
    # sorting never compares candidates, and the order is the one a
    # heap keyed on push order would pop.
    ranked: List[Tuple[float, int, int, _Queued]] = []
    for index, web in enumerate(values.webs):
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
        ranked.append((
            -priority(savings, begin, end), 0, index,
            (web, None, covered, savings),
        ))

    if read_operands:
        for index, candidate in enumerate(values.read_candidates):
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
            ranked.append((
                -priority(savings, begin, end), 1, index,
                (None, candidate, covered, savings),
            ))
    ranked.sort()
    return [queued for _, _, _, queued in ranked]


def _orf_pass(
    kernel: Optional[Kernel],
    values: StrandValues,
    config: AllocationConfig,
    model: EnergyModel,
    result: AllocationResult,
    lrf_assigned: Container[int],
    recorder: Optional[ProvenanceRecorder] = None,
    queue: Optional[Sequence[_Queued]] = None,
) -> None:
    """Greedy ORF allocation with partial ranges and read operands;
    ``lrf_assigned`` holds the ids of the webs the LRF took.  As in
    :func:`_lrf_pass`, a ``kernel`` of None is left unannotated.

    ``queue`` is a batch's shared :func:`_orf_queue` for this strand
    and scope; without one the pass builds (and records) its own.
    Either way it tries the same candidates in the same order.
    """
    strand_id = values.strand.strand_id
    read_operands = config.enable_read_operands
    if queue is None:
        queue = _orf_queue(
            values, config, model, lrf_assigned, read_operands, recorder
        )
    orf = EntryFile(config.orf_entries)
    for web, group, covered, savings in queue:
        if web is not None:
            if web.web_id not in lrf_assigned:
                _try_allocate_web(
                    kernel, web, covered, orf, config, model, result,
                    recorder, strand_id, savings=savings,
                )
        elif read_operands:
            _try_allocate_read_operand(
                kernel, group, covered, orf, config, model, result,
                recorder, strand_id, savings=savings,
            )


def _try_allocate_web(
    kernel: Optional[Kernel],
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
            if kernel is not None:
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
    kernel: Optional[Kernel],
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
            if kernel is not None:
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
