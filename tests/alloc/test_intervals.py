"""Unit tests for the ORF/LRF entry-interval allocator."""

import itertools

import pytest

from repro.alloc.intervals import EntryFile, window_mask, windows_conflict


class TestSingleEntry:
    def test_disjoint_windows_share(self):
        entries = EntryFile(1)
        entries.allocate(0, 1, 3)
        assert entries.is_available(0, 5, 8)

    def test_overlap_conflicts(self):
        entries = EntryFile(1)
        entries.allocate(0, 1, 5)
        assert not entries.is_available(0, 3, 8)
        assert not entries.is_available(0, 2, 4)
        assert not entries.is_available(0, 0, 2)

    def test_touching_windows_share(self):
        """Phase semantics: A's last read at slot N (read phase) and
        B's definition at slot N (write phase) can share an entry."""
        entries = EntryFile(1)
        entries.allocate(0, 1, 5)
        assert entries.is_available(0, 5, 9)
        entries.allocate(0, 5, 9)

    def test_same_begin_conflicts(self):
        """Two values written in the same slot's write phase collide,
        even when one is a dead (zero-length) window."""
        entries = EntryFile(1)
        entries.allocate(0, 5, 5)
        assert not entries.is_available(0, 5, 9)
        assert not entries.is_available(0, 5, 5)

    def test_dead_window_inside_live_range_conflicts(self):
        entries = EntryFile(1)
        entries.allocate(0, 2, 8)
        assert not entries.is_available(0, 5, 5)

    def test_dead_window_at_end_shares(self):
        entries = EntryFile(1)
        entries.allocate(0, 2, 8)
        assert entries.is_available(0, 8, 8)

    def test_double_allocate_raises(self):
        entries = EntryFile(1)
        entries.allocate(0, 1, 5)
        with pytest.raises(ValueError):
            entries.allocate(0, 2, 4)


class TestMultiEntry:
    def test_find_free_prefers_lowest(self):
        entries = EntryFile(3)
        assert entries.find_free(0, 5) == 0
        entries.allocate(0, 0, 5)
        assert entries.find_free(0, 5) == 1

    def test_find_free_none_when_full(self):
        entries = EntryFile(2)
        entries.allocate(0, 0, 5)
        entries.allocate(1, 0, 5)
        assert entries.find_free(2, 4) is None

    def test_find_free_group_wide_values(self):
        entries = EntryFile(3)
        group = entries.find_free_group(0, 5, 2)
        assert group == [0, 1]
        for entry in group:
            entries.allocate(entry, 0, 5)
        assert entries.find_free_group(2, 4, 2) is None
        assert entries.find_free_group(2, 4, 1) == [2]

    def test_empty_interval_rejected(self):
        entries = EntryFile(1)
        with pytest.raises(ValueError):
            entries.find_free(5, 3)

    def test_zero_entries(self):
        entries = EntryFile(0)
        assert entries.find_free(0, 1) is None

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            EntryFile(-1)


class TestHalfSlotMasks:
    #: Every window over positions 0-12, both flavours.
    WINDOWS = [
        (begin, end, closed)
        for begin in range(13)
        for end in range(begin, 13)
        for closed in (False, True)
    ]

    def test_mask_verdicts_equal_windows_conflict(self):
        """Exhaustively: an entry holding window ``a`` admits window
        ``b`` exactly when ``windows_conflict`` says they may share."""
        for a, b in itertools.product(self.WINDOWS, repeat=2):
            entries = EntryFile(1)
            entries.allocate(0, *a)
            assert entries.is_available(0, *b) == (
                not windows_conflict(a, b)
            ), (a, b)

    def test_mask_layout(self):
        # Slot p: read phase bit 2p, write phase bit 2p + 1.
        assert window_mask(2, 4) == 0b1111 << 5  # write 2 .. read 4
        assert window_mask(3, 3) == 1 << 7  # a dead value: write 3
        assert window_mask(2, 4, closed=True) == 0b111111 << 4
        with pytest.raises(ValueError):
            window_mask(4, 3)
