"""Property tests (hypothesis) for EntryFile interval sharing.

The allocator's soundness rests on the interval invariants of
``repro.alloc.intervals``: two values written in the same slot can
never share an entry; a value last read at slot N and a value defined
at slot N *can* (reads precede writes within a slot); a *closed*
read-operand window owns its boundary slots outright (fuzz seed 320);
and group allocation for wide values never hands out the same entry
twice.  ``windows_conflict`` is the single source of truth; these
tests pin ``EntryFile`` to it and the conflict relation's own algebra
(symmetry, reflexivity-for-closed).  A one-entry ``EntryFile`` stands
for a single entry; ``EntryFile`` keeps occupancy as bitmasks, so the
tests track the windows they place to build the expected verdicts.
"""

from hypothesis import given, strategies as st

from repro.alloc.intervals import EntryFile, windows_conflict

# Layout positions are small non-negative ints; keep the domain tight
# so hypothesis explores collisions rather than sparse misses.
_POS = st.integers(min_value=0, max_value=40)


@st.composite
def _interval(draw):
    begin = draw(_POS)
    end = draw(st.integers(min_value=begin, max_value=begin + 40))
    return begin, end


@st.composite
def _interval_list(draw):
    return draw(st.lists(_interval(), min_size=0, max_size=12))


def _filled(intervals):
    """A one-entry file greedily holding every compatible interval, and
    the windows it placed."""
    entry = EntryFile(1)
    placed = []
    for begin, end in intervals:
        if entry.is_available(0, begin, end):
            entry.allocate(0, begin, end)
            placed.append((begin, end, False))
    return entry, placed


@given(_interval(), st.integers(min_value=0, max_value=40))
def test_same_begin_windows_always_conflict(interval, other_span):
    """Two values defined in the same slot both write the entry in that
    slot's write phase — they may never share, whatever their ends."""
    begin, end = interval
    entry = EntryFile(1)
    entry.allocate(0, begin, end)
    assert not entry.is_available(0, begin, begin + other_span)


@given(_interval(), st.integers(min_value=0, max_value=40))
def test_back_to_back_windows_share(interval, tail):
    """A value last read at slot N coexists with a value defined at N:
    reads happen before writes within a slot."""
    begin, end = interval
    entry = EntryFile(1)
    entry.allocate(0, begin, end)
    if end != begin:  # same-begin is the write/write conflict above
        assert entry.is_available(0, end, end + tail)
        entry.allocate(0, end, end + tail)  # and allocating really works
    # The mirror image: a window ending exactly at this one's begin.
    fresh = EntryFile(1)
    fresh.allocate(0, begin, end)
    if begin >= 1 and begin - tail != begin:
        earlier = max(0, begin - max(1, tail))
        if earlier != begin:
            assert fresh.is_available(0, earlier, begin)


@given(_interval_list(), _interval(), st.booleans())
def test_availability_matches_windows_conflict(intervals, probe, closed):
    """is_available() gives one verdict for all placed windows; the
    verdict must match ``windows_conflict`` against each exactly."""
    begin, end = probe
    entry, placed = _filled(intervals)
    expected = not any(
        windows_conflict((begin, end, closed), other) for other in placed
    )
    assert entry.is_available(0, begin, end, closed=closed) == expected


@given(_interval(), _interval(), st.booleans(), st.booleans())
def test_windows_conflict_is_symmetric(a, b, closed_a, closed_b):
    wa = (a[0], a[1], closed_a)
    wb = (b[0], b[1], closed_b)
    assert windows_conflict(wa, wb) == windows_conflict(wb, wa)


@given(_interval(), st.integers(min_value=0, max_value=40), st.booleans())
def test_closed_window_owns_its_boundaries(interval, tail, other_closed):
    """A closed (read-operand) window conflicts with any window touching
    either endpoint — the seed-320 sharing is rejected in both
    directions, whatever the other window's flavour."""
    begin, end = interval
    entry = EntryFile(1)
    entry.allocate(0, begin, end, closed=True)
    # Back-to-back at the end slot: rejected (the group's last read
    # still occupies the entry in that slot's read phase).
    assert not entry.is_available(0, end, end + tail, closed=other_closed)
    # And at the begin slot, from the left.
    earlier = max(0, begin - tail)
    assert not entry.is_available(0, earlier, begin, closed=other_closed)


@given(_interval_list(), _interval(), st.integers(min_value=1, max_value=6))
def test_find_free_group_never_double_books(intervals, probe, count):
    begin, end = probe
    entries = EntryFile(6)
    for index, (b, e) in enumerate(intervals):
        slot = index % entries.num_entries
        if entries.is_available(slot, b, e):
            entries.allocate(slot, b, e)
    group = entries.find_free_group(begin, end, count)
    if group is None:
        free = sum(
            entries.is_available(i, begin, end)
            for i in range(entries.num_entries)
        )
        assert free < count
        return
    assert len(group) == count
    assert len(set(group)) == count  # distinct entries
    for slot in group:
        assert entries.is_available(slot, begin, end)
        entries.allocate(slot, begin, end)  # all simultaneously bookable
    # After booking the group, none of its entries admits a same-begin
    # window again.
    for slot in group:
        assert not entries.is_available(slot, begin, end)


@given(_interval_list(), _interval())
def test_find_free_matches_group_of_one(intervals, probe):
    begin, end = probe
    entries = EntryFile(4)
    for index, (b, e) in enumerate(intervals):
        slot = index % entries.num_entries
        if entries.is_available(slot, b, e):
            entries.allocate(slot, b, e)
    single = entries.find_free(begin, end)
    group = entries.find_free_group(begin, end, 1)
    if single is None:
        assert group is None
    else:
        assert group == [single]
        # find_free is lowest-index-first.
        for slot in range(single):
            assert not entries.is_available(slot, begin, end)
