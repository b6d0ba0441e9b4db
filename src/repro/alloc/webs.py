"""Register instances ("webs") — the allocation unit of Section 4.

A *register instance* is one value: a set of in-strand definitions of an
architectural register that feed a common set of reads.  PTX is
pseudo-SSA without phi nodes, so a hammock that writes R1 on both sides
and reads it at the merge (Figure 10c) yields one instance with two
definitions; both must target the same ORF entry for the merge read to
be serviced from the ORF.

Correctness hinges on *strand-local* dataflow: the ORF and LRF do not
survive strand boundaries, so a definition only "reaches" a read for
allocation purposes along paths that stay inside the strand.  A value
flowing around a backward branch (a loop-carried dependence) re-enters
the strand from the MRF even though its static definition sits in the
same strand.  :class:`_LocalReaching` recomputes reaching definitions
with all facts killed at strand boundaries; a read whose global
reaching set exceeds its strand-local one is *mixed* and must encode an
MRF read (Figure 10a/10b), though its instance may still profitably
write the ORF for other reads.

Reads with an *empty* strand-local reaching set consume an MRF-resident
value and feed read operand allocation (Section 4.4, Figure 8b).  Such
a read may be redirected to the ORF only if the group's first read —
the one that fetches from the MRF and fills the ORF entry — executes on
every intra-strand path leading to it ("definitely precedes" it).

Divergence adds a second soundness condition beyond dataflow.  Under
SIMT execution the taken side of a guarded forward branch runs first,
so between a fill (definition or read-operand fetch) and a later read
the warp may execute the *other* hammock arm.  If that interleaved
region crosses a strand boundary, the warp is descheduled there and
the ORF/LRF contents are lost before the read executes, even though
both endpoints sit in the same strand (fuzz seed 320 at the default
config: the R11 read at the hammock's fall arm is serviced after the
taken arm's strand-ending ``ldg``).  :class:`_DivergenceHazards`
detects the class statically and such reads are excluded from
coverability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..analysis.cfg import ControlFlowGraph
from ..analysis.postdom import PostDominatorTree
from ..analysis.reaching import Definition, ReachingDefinitions, ReadSite
from ..ir.instructions import FunctionalUnit, Instruction, Opcode
from ..ir.kernel import InstructionRef, Kernel
from ..ir.registers import Register
from ..strands.model import Strand, StrandPartition


@dataclass
class WebRead:
    """One read of a register instance."""

    site: ReadSite
    #: True if the consuming unit is on the shared datapath.
    shared_unit: bool
    #: True if the value may arrive from outside the strand on some
    #: path, forcing this read to come from the MRF.
    mixed: bool
    #: True if divergent taken-side-first interleaving can deschedule
    #: the warp between the fill and this read (another hammock arm
    #: containing a strand boundary runs in between), forcing this
    #: read to come from the MRF.
    divergence_unsafe: bool = False

    @property
    def position(self) -> int:
        return self.site.ref.position


@dataclass
class Web:
    """One register instance within a strand."""

    web_id: int
    strand_id: int
    reg: Register
    #: In-strand, non-pinned definitions (>= 1).
    defs: List[Definition]
    #: Producing units for each definition (parallel to ``defs``).
    def_units: List[FunctionalUnit]
    reads: List[WebRead] = field(default_factory=list)
    #: True if the value may be read outside this strand execution
    #: (a later strand, or a later iteration around a backward branch)
    #: and must therefore also be written to the MRF (Figure 6).
    live_out: bool = False

    @cached_property
    def width_words(self) -> int:
        return self.reg.num_words

    @cached_property
    def def_span(self) -> Tuple[int, int]:
        """(first, last) static position of the in-strand definitions.

        Cached like :attr:`coverable_reads`: ``defs`` is final once
        :func:`build_strand_values` returns, and every allocation
        window of every config starts from this span.
        """
        positions = [d.ref.position for d in self.defs if d.ref is not None]
        return min(positions), max(positions)

    @cached_property
    def block_scoped_reads(self) -> Optional[List[WebRead]]:
        """Coverable reads under the baseline block scope (Section 4.2).

        The coverable reads in the block holding every definition, or
        None when the definitions span blocks (the web is then out of
        scope).  Cached like :attr:`coverable_reads`, and likewise not
        to be mutated.
        """
        blocks = {d.ref.block_index for d in self.defs if d.ref is not None}
        if len(blocks) != 1:
            return None
        (block,) = blocks
        return [
            read
            for read in self.coverable_reads
            if read.site.ref.block_index == block
        ]

    @cached_property
    def coverable_reads(self) -> List[WebRead]:
        """Reads redirectable to the ORF/LRF, by position.

        Cached: ``reads`` is final once :func:`build_strand_values`
        returns, and a batched sweep queries this once per config per
        web.  Callers must not mutate the returned list (the allocator
        only rebinds slices of it).
        """
        return sorted(
            (
                read
                for read in self.reads
                if not read.mixed and not read.divergence_unsafe
            ),
            key=lambda read: read.position,
        )

    @cached_property
    def needs_mrf_write(self) -> bool:
        """True if the value must reach the MRF even when allocated."""
        return self.live_out or any(
            read.mixed or read.divergence_unsafe for read in self.reads
        )

    @cached_property
    def all_private(self) -> bool:
        """True if every def and every coverable read uses the ALUs.

        Only such instances are LRF-eligible (Section 3.2: the LRF is
        reachable exclusively from the private datapath).
        """
        if any(unit.is_shared for unit in self.def_units):
            return False
        return all(not read.shared_unit for read in self.coverable_reads)

    def read_slots(self) -> Set[int]:
        """Operand slots used by coverable reads (split-LRF eligibility)."""
        return {read.site.slot for read in self.coverable_reads}


@dataclass
class ReadOperandCandidate:
    """A group of in-strand reads of an MRF-resident value (Section 4.4).

    ``reads`` holds every strand-local-undefined read of the register in
    the strand; ``coverable_reads`` is the subset that may legally be
    redirected to the ORF (the first read plus all reads it definitely
    precedes).
    """

    strand_id: int
    reg: Register
    reads: List[WebRead]
    coverable_reads: List[WebRead] = field(default_factory=list)

    @property
    def width_words(self) -> int:
        return self.reg.num_words

    @property
    def first_position(self) -> int:
        return self.reads[0].position


@dataclass
class StrandValues:
    """All allocation inputs for one strand."""

    strand: Strand
    webs: List[Web]
    read_candidates: List[ReadOperandCandidate]


def build_strand_values(
    kernel: Kernel,
    partition: StrandPartition,
    reaching: ReachingDefinitions,
    cfg: Optional[ControlFlowGraph] = None,
) -> List[StrandValues]:
    """Build register instances and read-operand groups for every strand.

    ``cfg`` may carry the kernel's already-built control-flow graph so
    the divergence-hazard analysis does not rebuild it.
    """
    builder = _WebBuilder(kernel, partition, reaching, cfg=cfg)
    return builder.build()


# ---------------------------------------------------------------------------
# strand-local reaching definitions
# ---------------------------------------------------------------------------


class _LocalReaching:
    """Reaching definitions with all facts killed at strand boundaries.

    The intra-strand subgraph is acyclic (backward edges always target
    strand-entry cuts), so a single pass over blocks in layout order
    suffices: every intra-strand predecessor of a block precedes it in
    layout order.
    """

    def __init__(
        self,
        kernel: Kernel,
        partition: StrandPartition,
        reaching: ReachingDefinitions,
    ) -> None:
        self.kernel = kernel
        self.partition = partition
        self.reaching = reaching
        #: (position, slot) -> frozenset of strand-locally reaching defs.
        self.read_local: Dict[Tuple[int, int], FrozenSet[int]] = {}
        self._compute()

    def _compute(self) -> None:
        kernel = self.kernel
        cut_before = self.partition.cut_before
        entry_cuts = self.partition.entry_cuts
        reaching = self.reaching
        defs_of_reg = reaching.defs_by_register()
        no_defs: FrozenSet[int] = frozenset()
        read_local = self.read_local

        num_blocks = len(kernel.blocks)
        block_out: List[Set[int]] = [set() for _ in range(num_blocks)]
        preds = kernel.predecessors_map()

        # Blocks in layout order, so positions simply count up.
        position = 0
        for block_index, block in enumerate(kernel.blocks):
            if block_index in entry_cuts or block_index == 0:
                live: Set[int] = set()
            else:
                live = set()
                for pred in preds[block_index]:
                    if pred < block_index:
                        live |= block_out[pred]
            for instruction in block.instructions:
                if position in cut_before:
                    live.clear()
                for slot, reg in instruction.gpr_reads():
                    read_local[(position, slot)] = (
                        defs_of_reg.get(reg, no_defs) & live
                    )
                written = instruction.gpr_write()
                if written is not None:
                    if instruction.guard is None:
                        live -= defs_of_reg[written]
                    live.add(reaching.def_id_at(position))
                position += 1
            block_out[block_index] = live

    def local_defs(self, ref: InstructionRef, slot: int) -> FrozenSet[int]:
        return self.read_local.get((ref.position, slot), frozenset())


# ---------------------------------------------------------------------------
# divergence hazards
# ---------------------------------------------------------------------------


class _DivergenceHazards:
    """Static model of divergent taken-side-first interleaving.

    Every guarded forward branch is a potential hammock: the taken
    region ``[taken, reconv)`` executes before the fall region
    ``[fall, taken)``, where ``reconv`` is the first position of the
    branch block's immediate post-dominator (the reconvergence point).
    A fill at ``p`` cannot service a read at ``q`` from the ORF/LRF if
    any position range executed between them — under that reordering —
    leaves the read's strand: the warp is descheduled there and the
    upper levels are flushed.
    """

    def __init__(
        self,
        kernel: Kernel,
        partition: StrandPartition,
        first_pos: List[int],
        cfg: Optional[ControlFlowGraph] = None,
    ) -> None:
        self._strand_of = partition.strand_of_position
        num_positions = first_pos[-1]
        if cfg is None:
            cfg = ControlFlowGraph(kernel)
        postdom = PostDominatorTree(cfg)
        #: (branch position, taken-region begin, reconvergence position)
        self._hammocks: List[Tuple[int, int, int]] = []
        for block_index, block in enumerate(kernel.blocks):
            position = first_pos[block_index]
            for instr_index, instruction in enumerate(block.instructions):
                if instruction.opcode is not Opcode.BRA:
                    continue
                if instruction.guard is None:
                    continue
                branch = position + instr_index
                target = first_pos[kernel.block_index(instruction.target)]
                if target <= branch:
                    # Backward branches end strands; no in-strand range
                    # can span them.
                    continue
                ipd = postdom.immediate_post_dominator(block_index)
                reconv = first_pos[ipd] if ipd is not None else num_positions
                self._hammocks.append((branch, target, reconv))

    def unsafe(self, avail_positions, read_position: int) -> bool:
        """True if some fill-to-read span is broken by interleaving."""
        q = read_position
        strand_id = self._strand_of.get(q)
        for b, taken, reconv in self._hammocks:
            if b >= q:
                continue
            for p in avail_positions:
                if p >= q or reconv <= p:
                    continue
                segments = _intervening_segments(p, q, b, taken, reconv)
                if segments is None:
                    continue
                if any(
                    self._leaves_strand(lo, hi, strand_id)
                    for lo, hi in segments
                ):
                    return True
        return False

    def _leaves_strand(self, begin: int, end: int, strand_id) -> bool:
        strand_of = self._strand_of
        return any(
            strand_of.get(s) != strand_id for s in range(begin, end)
        )


def _intervening_segments(
    p: int, q: int, b: int, taken: int, reconv: int
) -> Optional[List[Tuple[int, int]]]:
    """Position ranges executed between fill ``p`` and read ``q``.

    Models one hammock's reordering (taken region ``[taken, reconv)``
    before fall region ``[fall, taken)``); returns None when the
    hammock cannot interleave anything between the pair.  Ranges are
    half-open and mildly conservative: linear spans may include
    positions on statically skipped paths.
    """
    fall = b + 1
    in_fall_q = fall <= q < taken
    in_taken_q = taken <= q < reconv
    if p <= b:
        if in_taken_q:
            # The taken side runs first, straight from the fill.
            return [(p, b + 1), (taken, q)]
        if in_fall_q:
            # The whole taken region runs before the fall arm.
            return [(p, b + 1), (taken, reconv), (fall, q)]
        return [(p, q)]
    in_fall_p = fall <= p < taken
    in_taken_p = taken <= p < reconv
    if in_taken_p:
        if in_taken_q:
            return [(p, q)]
        if in_fall_q:
            # Rest of the taken arm, then the fall arm up to the read.
            return [(p, reconv), (fall, q)]
        return [(p, reconv), (fall, taken), (reconv, q)]
    if in_fall_p:
        if in_fall_q:
            # Same arm; the taken side ran entirely before the fill.
            return [(p, q)]
        return [(p, taken), (reconv, q)]
    # p >= reconv: the hammock is entirely before the fill.
    return None


# ---------------------------------------------------------------------------
# web construction
# ---------------------------------------------------------------------------


class _WebBuilder:
    def __init__(
        self,
        kernel: Kernel,
        partition: StrandPartition,
        reaching: ReachingDefinitions,
        cfg: Optional[ControlFlowGraph] = None,
    ) -> None:
        self.kernel = kernel
        self.partition = partition
        self.reaching = reaching
        self.local = _LocalReaching(kernel, partition, reaching)
        #: Each block's first static position, then the kernel's length.
        self._first_pos = _block_first_positions(kernel)
        self.hazards = _DivergenceHazards(
            kernel, partition, self._first_pos, cfg=cfg
        )
        #: Instructions by static position.
        self._instructions: List[Instruction] = [
            instruction
            for block in kernel.blocks
            for instruction in block.instructions
        ]
        #: def_id -> set of (position, slot) reads it locally reaches.
        self._local_uses: Dict[int, Set[Tuple[int, int]]] = {}
        for key, def_ids in self.local.read_local.items():
            for def_id in def_ids:
                self._local_uses.setdefault(def_id, set()).add(key)

    def build(self) -> List[StrandValues]:
        return [
            self._build_for_strand(strand)
            for strand in self.partition.strands
        ]

    # -- per-strand construction ---------------------------------------------

    def _build_for_strand(self, strand: Strand) -> StrandValues:
        in_strand_defs = self._collect_defs(strand)

        parent: Dict[int, int] = {d: d for d in in_strand_defs}

        def find(def_id: int) -> int:
            root = def_id
            while parent[root] != root:
                root = parent[root]
            while parent[def_id] != root:
                parent[def_id], def_id = root, parent[def_id]
            return root

        def union(a: int, b: int) -> None:
            root_a, root_b = find(a), find(b)
            if root_a != root_b:
                parent[root_b] = root_a

        read_info: List[Tuple[ReadSite, FrozenSet[int], bool]] = []
        external_reads: List[ReadSite] = []

        for ref in strand.refs:
            instruction = self._instructions[ref.position]
            for slot, reg in instruction.gpr_reads():
                global_ids = self.reaching.reaching_defs(ref, slot)
                web_ids = self.local.local_defs(ref, slot) & in_strand_defs
                site = ReadSite(ref, slot, reg)
                if not web_ids:
                    external_reads.append(site)
                    continue
                # Mixed if any path may deliver the value from outside
                # the strand (or from a pinned definition).
                mixed = web_ids != global_ids
                read_info.append((site, web_ids, mixed))
                ids = sorted(web_ids)
                for other in ids[1:]:
                    union(ids[0], other)

        webs = self._assemble_webs(strand, in_strand_defs, find, read_info)
        candidates = self._assemble_read_candidates(strand, external_reads)
        return StrandValues(strand, webs, candidates)

    def _collect_defs(self, strand: Strand) -> Set[int]:
        """In-strand, non-pinned (allocatable) definition ids."""
        result: Set[int] = set()
        for ref in strand.refs:
            definition = self.reaching.def_at(ref)
            if definition is None or definition.mrf_pinned:
                continue
            result.add(definition.def_id)
        return result

    def _assemble_webs(
        self,
        strand: Strand,
        in_strand_defs: Set[int],
        find,
        read_info: List[Tuple[ReadSite, FrozenSet[int], bool]],
    ) -> List[Web]:
        groups: Dict[int, List[int]] = {}
        for def_id in in_strand_defs:
            groups.setdefault(find(def_id), []).append(def_id)

        webs: List[Web] = []
        web_of_root: Dict[int, Web] = {}
        for root, def_ids in sorted(groups.items()):
            defs = [self.reaching.definition(d) for d in sorted(def_ids)]
            units = [
                self._instructions[d.ref.position].unit
                for d in defs
                if d.ref is not None
            ]
            web = Web(
                web_id=len(webs),
                strand_id=strand.strand_id,
                reg=defs[0].reg,
                defs=defs,
                def_units=units,
                live_out=self._is_live_out(defs),
            )
            webs.append(web)
            web_of_root[root] = web

        for site, web_ids, mixed in read_info:
            root = find(next(iter(web_ids)))
            web = web_of_root[root]
            instruction = self._instructions[site.ref.position]
            def_positions = tuple(
                d.ref.position for d in web.defs if d.ref is not None
            )
            web.reads.append(
                WebRead(
                    site=site,
                    shared_unit=instruction.unit.is_shared,
                    mixed=mixed,
                    divergence_unsafe=self.hazards.unsafe(
                        def_positions, site.ref.position
                    ),
                )
            )
        for web in webs:
            web.reads.sort(key=lambda read: read.position)
        return webs

    def _is_live_out(self, defs: List[Definition]) -> bool:
        """True if some use of the value is *not* strand-locally fed.

        A use in a later strand, or a loop-carried use reached around a
        backward branch, does not appear among the definition's
        strand-local uses and therefore needs the value in the MRF.
        """
        for definition in defs:
            local = self._local_uses.get(definition.def_id, set())
            for use in self.reaching.uses_of(definition.def_id):
                if (use.ref.position, use.slot) not in local:
                    return True
        return False

    # -- read operand candidates ---------------------------------------------

    def _assemble_read_candidates(
        self,
        strand: Strand,
        external_reads: List[ReadSite],
    ) -> List[ReadOperandCandidate]:
        by_reg: Dict[Register, List[WebRead]] = {}
        for site in external_reads:
            instruction = self._instructions[site.ref.position]
            by_reg.setdefault(site.reg, []).append(
                WebRead(
                    site=site,
                    shared_unit=instruction.unit.is_shared,
                    mixed=False,
                )
            )
        successors = _strand_successors(self.kernel, strand, self._first_pos)
        candidates: List[ReadOperandCandidate] = []
        for reg in sorted(by_reg, key=lambda r: (r.reg_class.value, r.index)):
            reads = sorted(by_reg[reg], key=lambda read: read.position)
            coverable = _definitely_preceded_subset(
                strand, reads, successors
            )
            if coverable:
                fill = (coverable[0].position,)
                coverable = [coverable[0]] + [
                    read
                    for read in coverable[1:]
                    if not self.hazards.unsafe(fill, read.position)
                ]
            candidates.append(
                ReadOperandCandidate(
                    strand_id=strand.strand_id,
                    reg=reg,
                    reads=reads,
                    coverable_reads=coverable,
                )
            )
        return candidates


def _block_first_positions(kernel: Kernel) -> List[int]:
    """Each block's first static position, then the kernel's length."""
    first = [0]
    for block in kernel.blocks:
        first.append(first[-1] + len(block.instructions))
    return first


def _strand_successors(
    kernel: Kernel, strand: Strand, first_position_of_block: List[int]
) -> Dict[int, List[int]]:
    """Instruction-level successor map restricted to strand positions.

    ``first_position_of_block`` is :func:`_block_first_positions`.
    """
    positions = strand.positions

    successors: Dict[int, List[int]] = {}
    for ref in strand.refs:
        instruction = kernel.instruction_at(ref)
        succs: List[int] = []
        block = kernel.blocks[ref.block_index]
        is_last = ref.instr_index == len(block.instructions) - 1
        if instruction.opcode is Opcode.BRA:
            target_block = kernel.block_index(instruction.target)
            target_position = first_position_of_block[target_block]
            if target_position in positions:
                succs.append(target_position)
            if instruction.guard is not None:
                fall = _fall_through(
                    kernel, ref, first_position_of_block
                )
                if fall is not None and fall in positions:
                    succs.append(fall)
        elif not instruction.opcode.is_exit:
            if is_last:
                fall = _fall_through(kernel, ref, first_position_of_block)
                if fall is not None and fall in positions:
                    succs.append(fall)
            elif ref.position + 1 in positions:
                succs.append(ref.position + 1)
        successors[ref.position] = succs
    return successors


def _fall_through(
    kernel: Kernel, ref, first_position_of_block: List[int]
) -> Optional[int]:
    block = kernel.blocks[ref.block_index]
    if ref.instr_index + 1 < len(block.instructions):
        return ref.position + 1
    next_block = ref.block_index + 1
    if next_block >= len(kernel.blocks):
        return None
    return first_position_of_block[next_block]


def _definitely_preceded_subset(
    strand: Strand,
    reads: List[WebRead],
    successors: Dict[int, List[int]],
) -> List[WebRead]:
    """The first read plus every read it definitely precedes.

    A later read may be redirected to the ORF only if every intra-strand
    path from the strand's entry to it passes through the first read
    (which performs the MRF fetch and the ORF fill).  We check this by
    BFS from the strand entry with the first read's position removed:
    reads still reachable have a path avoiding the fill and stay in the
    MRF.
    """
    if not reads:
        return []
    first = reads[0]
    if len(reads) == 1:
        return [first]
    entry = strand.refs[0].position
    blocked = first.position
    reachable: Set[int] = set()
    if entry != blocked:
        frontier = [entry]
        reachable.add(entry)
        while frontier:
            current = frontier.pop()
            for succ in successors.get(current, ()):
                if succ == blocked or succ in reachable:
                    continue
                reachable.add(succ)
                frontier.append(succ)
    covered = [first]
    for read in reads[1:]:
        if read.position == first.position:
            # Another operand slot of the same instruction: the ORF
            # fill happens in this instruction's write phase, so this
            # read cannot see it and must use the MRF.
            continue
        if read.position not in reachable:
            covered.append(read)
    return covered
