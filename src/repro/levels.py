"""The levels of the register file hierarchy.

Shared by the compiler (allocation annotations), the hardware models, and
the energy accounting.  Section 3 of the paper defines the three-level
hierarchy: a one-entry-per-thread last result file (LRF), a small operand
register file (ORF), and the large main register file (MRF).
"""

from __future__ import annotations

import enum


class Level(enum.Enum):
    """A level of the register file hierarchy.

    Ordered from cheapest (closest to the ALUs) to most expensive: the
    LRF costs the least energy per access, the MRF the most.
    """

    LRF = "lrf"
    ORF = "orf"
    MRF = "mrf"

    # Identity hash at C level: levels key the energy memos and access
    # counters the allocator and accounting query millions of times a
    # sweep, and Enum's own ``hash(name)`` runs in Python.  Both are
    # per-process (string hashes are randomized), so no output can
    # depend on which one is used.
    __hash__ = object.__hash__

    @property
    def rank(self) -> int:
        """0 for LRF, 1 for ORF, 2 for MRF (cheapest first)."""
        return _RANKS[self]

    def __lt__(self, other: "Level") -> bool:
        if not isinstance(other, Level):
            return NotImplemented
        return self.rank < other.rank

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value.upper()


_RANKS = {Level.LRF: 0, Level.ORF: 1, Level.MRF: 2}

#: The hierarchy from cheapest to most expensive.
ALL_LEVELS = (Level.LRF, Level.ORF, Level.MRF)
