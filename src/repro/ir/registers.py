"""Register model for the PTX-like intermediate representation.

The paper's machine exposes a flat architectural register namespace of 32
general-purpose registers per thread (the MRF provides 32 entries per
thread, Section 2).  PTX additionally has predicate registers used for
branching; predicates live in a separate, tiny storage structure on real
GPUs, so they are *not* candidates for the ORF/LRF hierarchy and are not
counted as main-register-file traffic (the paper counts an average of 1.6
register reads and 0.8 register writes per instruction, excluding
predicates).

Values wider than 32 bits are stored across multiple consecutive 32-bit
registers (Section 3.2); ``Register.width`` records the logical width and
``Register.num_words`` how many 32-bit MRF/ORF entries it occupies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RegClass(enum.Enum):
    """Architectural storage class of a register."""

    #: 32-bit general purpose register (candidate for LRF/ORF allocation).
    GPR = "gpr"
    #: 1-bit predicate register (never allocated to the hierarchy).
    PRED = "pred"

    # Identity hash at C level, as ``repro.levels.Level`` has: every
    # ``Register`` hash (the dataflow sets key on registers) hashes its
    # class, and Enum's own ``hash(name)`` runs in Python.
    __hash__ = object.__hash__


#: Logical register widths supported by PTX in the paper's workloads.
VALID_WIDTHS = (32, 64, 128)


@dataclass(frozen=True, order=True)
class Register:
    """An architectural register reference.

    Parameters
    ----------
    index:
        The architectural register number (``R0``..``R31`` for GPRs,
        ``P0``.. for predicates).
    reg_class:
        GPR or predicate.
    width:
        Logical width in bits.  Values wider than 32 bits occupy
        ``width // 32`` consecutive 32-bit entries (Section 3.2 notes
        that 99.5% of the paper's instructions use 32-bit values).
    """

    index: int
    reg_class: RegClass = RegClass.GPR
    width: int = 32

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"register index must be >= 0, got {self.index}")
        if self.reg_class is RegClass.GPR and self.width not in VALID_WIDTHS:
            raise ValueError(
                f"GPR width must be one of {VALID_WIDTHS}, got {self.width}"
            )
        if self.reg_class is RegClass.PRED and self.width != 32:
            # Predicates are logically 1 bit; we canonicalise their width
            # to 32 so dataflow code can treat all registers uniformly.
            object.__setattr__(self, "width", 32)

    @property
    def num_words(self) -> int:
        """Number of 32-bit storage words this register occupies."""
        return max(1, self.width // 32)

    @property
    def is_gpr(self) -> bool:
        return self.reg_class is RegClass.GPR

    @property
    def is_pred(self) -> bool:
        return self.reg_class is RegClass.PRED

    @property
    def name(self) -> str:
        """Assembly name, e.g. ``R3``, ``RD4`` (64-bit), or ``P1``."""
        return f"{_NAME_PREFIXES[self.reg_class, self.width]}{self.index}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


#: Assembly-name prefix of each valid (class, width); a kernel's content
#: fingerprint names every operand register.
_NAME_PREFIXES = {
    (RegClass.GPR, 32): "R",
    (RegClass.GPR, 64): "RD",
    (RegClass.GPR, 128): "RQ",
    (RegClass.PRED, 32): "P",
}


def gpr(index: int, width: int = 32) -> Register:
    """Shorthand constructor for a general-purpose register."""
    return Register(index, RegClass.GPR, width)


def pred(index: int) -> Register:
    """Shorthand constructor for a predicate register."""
    return Register(index, RegClass.PRED)


def parse_register(text: str) -> Register:
    """Parse an assembly register name (``R3``, ``RD2``, ``RQ1``, ``P0``).

    Raises
    ------
    ValueError
        If the text is not a well-formed register name.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty register name")
    upper = text.upper()
    if upper.startswith("RD"):
        return gpr(_parse_index(upper[2:], text), width=64)
    if upper.startswith("RQ"):
        return gpr(_parse_index(upper[2:], text), width=128)
    if upper.startswith("R"):
        return gpr(_parse_index(upper[1:], text))
    if upper.startswith("P"):
        return pred(_parse_index(upper[1:], text))
    raise ValueError(f"not a register name: {text!r}")


def _parse_index(digits: str, original: str) -> int:
    if not digits.isdigit():
        raise ValueError(f"not a register name: {original!r}")
    return int(digits)
