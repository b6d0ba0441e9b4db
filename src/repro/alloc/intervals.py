"""Interval-based entry availability for the ORF and LRF.

Each ORF/LRF entry can hold one value over a range of static issue
slots; two values may share an entry only if their occupancy intervals
are disjoint.  Intervals are expressed in global layout positions,
which strictly increase along every dynamic path within a strand
(strands contain no backward branches), so interval disjointness is a
sound — mildly conservative across hammock arms — sharing condition.

Two window flavours exist, distinguished by ``closed``:

* **Value windows** (webs, ``closed=False``): occupancy starts at the
  *write phase* of the defining slot and ends at the *read phase* of
  the last covered read.  Reads happen before writes within a slot, so
  a value last read at slot N and a value defined at slot N may share
  an entry — unless both begin at N (both write the entry in N's write
  phase).
* **Read-operand windows** (Section 4.4 groups, ``closed=True``):
  occupancy spans the whole group inclusively.  The entry is filled in
  the *read phase* of the first read and must still be observable in
  the read phase of the last read; under SIMT divergence the boundary
  slots can be revisited on another path before the group is done
  (fuzz seed 320: a web defined at the group's final slot clobbered
  the entry between divergent arm executions).  A closed window
  therefore conflicts with *any* window it touches, in either
  direction — placed read-operand ranges are entry occupancy for webs,
  and vice versa.

:class:`EntryFile` keeps each entry's occupancy as one int bitmask over
*half-slots*: slot ``p``'s read phase is bit ``2p`` and its write phase
bit ``2p + 1``.  A value window covers its begin's write phase through
its end's read phase (at least the begin's write phase, so a dead value
still claims the slot it is written in); a closed window covers both
phases of every slot it spans.  Two windows conflict exactly when their
masks intersect, so an availability check is one ``&`` per entry
instead of one :func:`windows_conflict` call per placed window; the
tests check the masks against the predicate exhaustively.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

#: One occupancy window: (begin, end, closed).
Window = Tuple[int, int, bool]


def windows_conflict(a: Window, b: Window) -> bool:
    """True if two occupancy windows cannot share one entry.

    This predicate is the single source of truth for entry sharing:
    :class:`EntryFile` enforces it through :func:`window_mask`, the
    tests check those masks against it for every pair of small
    windows, and the property tests re-check the allocator's output
    against it.
    """
    begin_a, end_a, closed_a = a
    begin_b, end_b, closed_b = b
    if closed_a or closed_b:
        # Inclusive overlap: a closed (read-operand) window owns its
        # boundary slots outright.
        return begin_a <= end_b and begin_b <= end_a
    # Two value windows: write-phase begin vs. read-phase end allows
    # boundary sharing, except when both write the entry in the same
    # slot's write phase.
    return begin_a == begin_b or (begin_a < end_b and begin_b < end_a)


def window_mask(begin: int, end: int, closed: bool = False) -> int:
    """The half-slots one occupancy window covers, as a bitmask (see
    the module docstring); two masks intersect exactly when
    :func:`windows_conflict` holds for their windows."""
    if begin > end:
        raise ValueError(f"empty interval [{begin}, {end}]")
    if closed:
        low, high = 2 * begin, 2 * end + 1
    else:
        low = 2 * begin + 1
        high = max(2 * end, low)
    return ((1 << (high - low + 1)) - 1) << low


class EntryFile:
    """Availability tracker for an N-entry register file level."""

    def __init__(self, num_entries: int) -> None:
        if num_entries < 0:
            raise ValueError("num_entries must be >= 0")
        #: Per entry, the union of its placed windows' masks.
        self._occupied = [0] * num_entries

    @property
    def num_entries(self) -> int:
        return len(self._occupied)

    def find_free(
        self, begin: int, end: int, closed: bool = False
    ) -> Optional[int]:
        """Lowest-index entry free over [begin, end], or None."""
        window = window_mask(begin, end, closed)
        for index, occupied in enumerate(self._occupied):
            if not occupied & window:
                return index
        return None

    def find_free_group(
        self, begin: int, end: int, count: int, closed: bool = False
    ) -> Optional[List[int]]:
        """``count`` distinct free entries over [begin, end], or None.

        Wide (64/128-bit) values occupy multiple 32-bit entries
        (Section 3.2: "the compiler allocates multiple entries to store
        the value in the ORF").
        """
        free: List[int] = []
        if count <= 0:
            return free
        window = window_mask(begin, end, closed)
        for index, occupied in enumerate(self._occupied):
            if not occupied & window:
                free.append(index)
                if len(free) == count:
                    return free
        return None

    def allocate(
        self, entry_index: int, begin: int, end: int, closed: bool = False
    ) -> None:
        window = window_mask(begin, end, closed)
        if self._occupied[entry_index] & window:
            raise ValueError(
                f"interval [{begin}, {end}] overlaps an existing allocation"
            )
        self._occupied[entry_index] |= window

    def is_available(
        self, entry_index: int, begin: int, end: int, closed: bool = False
    ) -> bool:
        return not self._occupied[entry_index] & window_mask(
            begin, end, closed
        )
