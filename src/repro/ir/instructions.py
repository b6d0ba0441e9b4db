"""Instruction model for the PTX-like intermediate representation.

Each instruction mirrors a scheduled, register-allocated PTX instruction
(Section 5.1: the allocator's input is PTX that has already been
scheduled and register allocated).  Instructions carry:

* an opcode with static metadata (functional unit, latency class),
* an optional destination register and a tuple of source operands
  (registers or immediates) whose positions are the operand slots
  A/B/C used by the split-LRF design (Section 3.2),
* an optional guard predicate,
* compiler annotations filled in by strand partitioning
  (``ends_strand``) and by hierarchy allocation (``alloc``).

The functional-unit split matters to the paper: the private ALUs can
read the LRF, while the shared datapath (SFU, MEM, TEX) can only read
the ORF and MRF (Section 3.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..levels import Level
from .registers import Register


class FunctionalUnit(enum.Enum):
    """Execution resource an opcode runs on (Figure 1c)."""

    #: Per-lane private ALU; full warp-wide throughput; may read the LRF.
    ALU = "alu"
    #: Special function unit (transcendentals); shared datapath.
    SFU = "sfu"
    #: Memory port (global/shared loads and stores); shared datapath.
    MEM = "mem"
    #: Texture unit; shared datapath.
    TEX = "tex"

    # Identity hash at C level, as ``repro.levels.Level`` has.
    __hash__ = object.__hash__

    @property
    def is_shared(self) -> bool:
        """True for the shared datapath (SFU/MEM/TEX, Section 3.2)."""
        return self is not FunctionalUnit.ALU


class LatencyClass(enum.Enum):
    """Latency category, mapped to cycles by ``repro.sim.params``."""

    ALU = "alu"                  # 8 cycles (Table 2)
    SFU = "sfu"                  # 20 cycles
    SHARED_MEM = "shared_mem"    # 20 cycles
    DRAM = "dram"                # 400 cycles (long latency)
    TEXTURE = "texture"          # 400 cycles (long latency)

    # Identity hash at C level, as ``repro.levels.Level`` has.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class _OpcodeInfo:
    unit: FunctionalUnit
    latency: LatencyClass
    has_dest: bool
    num_srcs: int
    is_branch: bool = False
    is_exit: bool = False
    writes_pred: bool = False


class Opcode(enum.Enum):
    """PTX-like opcodes.

    The set covers the instruction mix of the paper's benchmark suites:
    integer/float ALU operations, fused multiply-add, transcendental SFU
    operations, global/shared memory accesses, texture fetches, and
    control flow.
    """

    # -- private ALU ----------------------------------------------------
    IADD = "iadd"
    ISUB = "isub"
    IMUL = "imul"
    IMAD = "imad"
    FADD = "fadd"
    FMUL = "fmul"
    FFMA = "ffma"
    IMIN = "imin"
    IMAX = "imax"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    MOV = "mov"
    CVT = "cvt"
    SELP = "selp"
    SETP = "setp"
    # -- SFU (transcendentals) -------------------------------------------
    RCP = "rcp"
    SQRT = "sqrt"
    RSQRT = "rsqrt"
    SIN = "sin"
    COS = "cos"
    LG2 = "lg2"
    EX2 = "ex2"
    # -- memory ----------------------------------------------------------
    LDG = "ldg"   # global load  (long latency)
    STG = "stg"   # global store
    LDS = "lds"   # shared-memory load
    STS = "sts"   # shared-memory store
    # -- texture ---------------------------------------------------------
    TEX = "tex"   # texture fetch (long latency)
    # -- control flow ----------------------------------------------------
    BRA = "bra"
    EXIT = "exit"

    # Identity hash at C level, as ``repro.levels.Level`` has:
    # :attr:`info` looks every opcode up in a dict, and Enum's own
    # ``hash(name)`` runs in Python.
    __hash__ = object.__hash__

    @property
    def info(self) -> _OpcodeInfo:
        return _OPCODE_INFO[self]

    @property
    def unit(self) -> FunctionalUnit:
        return self.info.unit

    @property
    def latency_class(self) -> LatencyClass:
        return self.info.latency

    @property
    def is_long_latency(self) -> bool:
        """True for operations that trigger warp descheduling (Section 4.1)."""
        return self in _LONG_LATENCY

    @property
    def is_branch(self) -> bool:
        return self.info.is_branch

    @property
    def is_exit(self) -> bool:
        return self.info.is_exit


_A, _S, _M, _T = (
    FunctionalUnit.ALU,
    FunctionalUnit.SFU,
    FunctionalUnit.MEM,
    FunctionalUnit.TEX,
)
_LA, _LS, _LM, _LD, _LT = (
    LatencyClass.ALU,
    LatencyClass.SFU,
    LatencyClass.SHARED_MEM,
    LatencyClass.DRAM,
    LatencyClass.TEXTURE,
)

_OPCODE_INFO = {
    Opcode.IADD: _OpcodeInfo(_A, _LA, True, 2),
    Opcode.ISUB: _OpcodeInfo(_A, _LA, True, 2),
    Opcode.IMUL: _OpcodeInfo(_A, _LA, True, 2),
    Opcode.IMAD: _OpcodeInfo(_A, _LA, True, 3),
    Opcode.FADD: _OpcodeInfo(_A, _LA, True, 2),
    Opcode.FMUL: _OpcodeInfo(_A, _LA, True, 2),
    Opcode.FFMA: _OpcodeInfo(_A, _LA, True, 3),
    Opcode.IMIN: _OpcodeInfo(_A, _LA, True, 2),
    Opcode.IMAX: _OpcodeInfo(_A, _LA, True, 2),
    Opcode.AND: _OpcodeInfo(_A, _LA, True, 2),
    Opcode.OR: _OpcodeInfo(_A, _LA, True, 2),
    Opcode.XOR: _OpcodeInfo(_A, _LA, True, 2),
    Opcode.SHL: _OpcodeInfo(_A, _LA, True, 2),
    Opcode.SHR: _OpcodeInfo(_A, _LA, True, 2),
    Opcode.MOV: _OpcodeInfo(_A, _LA, True, 1),
    Opcode.CVT: _OpcodeInfo(_A, _LA, True, 1),
    Opcode.SELP: _OpcodeInfo(_A, _LA, True, 3),
    Opcode.SETP: _OpcodeInfo(_A, _LA, True, 2, writes_pred=True),
    Opcode.RCP: _OpcodeInfo(_S, _LS, True, 1),
    Opcode.SQRT: _OpcodeInfo(_S, _LS, True, 1),
    Opcode.RSQRT: _OpcodeInfo(_S, _LS, True, 1),
    Opcode.SIN: _OpcodeInfo(_S, _LS, True, 1),
    Opcode.COS: _OpcodeInfo(_S, _LS, True, 1),
    Opcode.LG2: _OpcodeInfo(_S, _LS, True, 1),
    Opcode.EX2: _OpcodeInfo(_S, _LS, True, 1),
    Opcode.LDG: _OpcodeInfo(_M, _LD, True, 1),
    Opcode.STG: _OpcodeInfo(_M, _LA, False, 2),
    Opcode.LDS: _OpcodeInfo(_M, _LM, True, 1),
    Opcode.STS: _OpcodeInfo(_M, _LA, False, 2),
    Opcode.TEX: _OpcodeInfo(_T, _LT, True, 1),
    Opcode.BRA: _OpcodeInfo(_A, _LA, False, 0, is_branch=True),
    Opcode.EXIT: _OpcodeInfo(_A, _LA, False, 0, is_exit=True),
}


#: Opcodes of a DRAM or texture latency class (strand partitioning asks
#: every instruction).
_LONG_LATENCY = frozenset(
    opcode
    for opcode, info in _OPCODE_INFO.items()
    if info.latency in (LatencyClass.DRAM, LatencyClass.TEXTURE)
)


@dataclass(frozen=True)
class Immediate:
    """A literal operand (integer or float)."""

    value: Union[int, float]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return str(self.value)


#: A source operand: an architectural register or a literal.
Operand = Union[Register, Immediate]

#: Operand slot names (A/B/C) used by the split LRF (Section 3.2).
SLOT_NAMES = ("A", "B", "C")


@dataclass(frozen=True)
class SourceAnnotation:
    """Where one source operand is read from, after allocation.

    ``orf_write_entry`` implements *read operand allocation*
    (Section 4.4): the first read of an MRF-resident value can
    additionally be written into the ORF so later reads hit the ORF.

    A frozen value object: the allocator replaces annotations rather
    than editing them, so one instance may be shared by any number of
    operand slots and instructions.
    """

    level: Level = Level.MRF
    #: ORF entry index the value is read from (when ``level`` is ORF).
    orf_entry: Optional[int] = None
    #: Split-LRF bank (operand slot index) read from (when level is LRF).
    lrf_bank: Optional[int] = None
    #: If set, this MRF read is also written into the given ORF entry.
    orf_write_entry: Optional[int] = None


@dataclass(frozen=True)
class DestAnnotation:
    """Where the produced value is written, after allocation.

    A value may be written to the MRF and at most one of LRF/ORF in the
    same instruction (Section 4.6: "we allow a value to be written to
    either the LRF or the ORF but not both").  Frozen and shareable,
    like :class:`SourceAnnotation`.
    """

    levels: Tuple[Level, ...] = (Level.MRF,)
    orf_entry: Optional[int] = None
    lrf_bank: Optional[int] = None

    def writes(self, level: Level) -> bool:
        return level in self.levels


#: The single-level baseline annotations: an MRF write, and one MRF
#: read per source slot.  Shared by every unallocated instruction (the
#: annotations are frozen), indexed by source arity.
MRF_DEST = DestAnnotation()
MRF_SOURCES: Tuple[Tuple[SourceAnnotation, ...], ...] = tuple(
    (SourceAnnotation(),) * arity
    for arity in range(
        max(info.num_srcs for info in _OPCODE_INFO.values()) + 1
    )
)


@dataclass
class Instruction:
    """One scheduled machine instruction.

    Mutable compiler annotations (``ends_strand``, ``dst_ann``,
    ``src_anns``) are attached by the strand partitioner and allocator;
    a freshly built instruction reads and writes only the MRF, matching
    the paper's single-level baseline.
    """

    opcode: Opcode
    dst: Optional[Register] = None
    srcs: Tuple[Operand, ...] = ()
    #: Guard predicate: execute only if ``guard`` has value ``guard_sense``.
    guard: Optional[Register] = None
    guard_sense: bool = True
    #: Branch target label (``BRA`` only).
    target: Optional[str] = None
    #: Set by strand partitioning: this instruction ends a strand.
    ends_strand: bool = False
    #: Allocation annotations (None until the allocator runs).
    dst_ann: Optional[DestAnnotation] = None
    src_anns: Optional[Tuple[SourceAnnotation, ...]] = None

    def __post_init__(self) -> None:
        info = self.opcode.info
        if info.has_dest and self.dst is None:
            raise ValueError(f"{self.opcode.value} requires a destination")
        if not info.has_dest and self.dst is not None:
            raise ValueError(f"{self.opcode.value} takes no destination")
        if info.is_branch and self.target is None:
            raise ValueError("BRA requires a branch target")
        if not info.is_branch and self.target is not None:
            raise ValueError(f"{self.opcode.value} takes no branch target")
        if len(self.srcs) != info.num_srcs:
            raise ValueError(
                f"{self.opcode.value} takes {info.num_srcs} sources, "
                f"got {len(self.srcs)}"
            )
        if info.writes_pred and self.dst is not None and not self.dst.is_pred:
            raise ValueError("SETP must write a predicate register")
        if (
            not info.writes_pred
            and self.dst is not None
            and self.dst.is_pred
        ):
            raise ValueError(
                f"{self.opcode.value} cannot write a predicate register"
            )

    # -- structural queries used throughout the compiler ------------------
    #
    # ``opcode``/``srcs``/``dst`` never change after construction, so the
    # derived operand views are computed once — the accounting drivers
    # call them for every dynamic instruction.

    @property
    def unit(self) -> FunctionalUnit:
        return self.opcode.unit

    @property
    def is_long_latency(self) -> bool:
        return self.opcode.is_long_latency

    def src_registers(self) -> Tuple[Tuple[int, Register], ...]:
        """(slot index, register) for each register source operand."""
        cached = self.__dict__.get("_src_registers")
        if cached is None:
            cached = tuple(
                (slot, src)
                for slot, src in enumerate(self.srcs)
                if isinstance(src, Register)
            )
            self.__dict__["_src_registers"] = cached
        return cached

    def gpr_reads(self) -> Tuple[Tuple[int, Register], ...]:
        """(slot, register) for each *GPR* source (predicates excluded).

        These are the reads that hit the register file hierarchy and are
        counted by the accounting machinery.
        """
        cached = self.__dict__.get("_gpr_reads")
        if cached is None:
            cached = tuple(
                (slot, src)
                for slot, src in self.src_registers()
                if src.is_gpr
            )
            self.__dict__["_gpr_reads"] = cached
        return cached

    def gpr_write(self) -> Optional[Register]:
        """The written GPR, or None (predicate writes are excluded)."""
        if self.dst is not None and self.dst.is_gpr:
            return self.dst
        return None

    def clone(self) -> "Instruction":
        """A structural copy with no compiler annotations.

        The copy is validated like any new instruction.  It shares
        everything immutable: operands, guard, target, and the operand
        views (:meth:`src_registers`, :meth:`gpr_reads`), which are
        computed on this instruction first if need be.  It never
        inherits ``ends_strand`` or the allocation annotations: it
        starts from the single-level baseline, ready for a fresh
        strand-partition/allocation run that cannot disturb this
        instruction's annotations (or vice versa).
        """
        copy = Instruction(
            opcode=self.opcode,
            dst=self.dst,
            srcs=self.srcs,
            guard=self.guard,
            guard_sense=self.guard_sense,
            target=self.target,
        )
        views = copy.__dict__
        views["_gpr_reads"] = self.gpr_reads()
        views["_src_registers"] = self.src_registers()
        return copy

    def clear_annotations(self) -> None:
        """Reset all compiler annotations to the single-level baseline."""
        self.ends_strand = False
        self.dst_ann = None
        self.src_anns = None

    def ensure_default_annotations(self) -> None:
        """Attach MRF-only annotations if the allocator has not run."""
        if self.dst_ann is None and self.gpr_write() is not None:
            self.dst_ann = MRF_DEST
        if self.src_anns is None:
            self.src_anns = MRF_SOURCES[len(self.srcs)]

    def __str__(self) -> str:
        parts = []
        if self.guard is not None:
            sense = "" if self.guard_sense else "!"
            parts.append(f"@{sense}{self.guard}")
        parts.append(self.opcode.value)
        operands = []
        if self.dst is not None:
            operands.append(str(self.dst))
        operands.extend(str(s) for s in self.srcs)
        if self.target is not None:
            operands.append(self.target)
        if operands:
            parts.append(", ".join(operands))
        text = " ".join(parts)
        if self.ends_strand:
            text += "  ; end-strand"
        return text
