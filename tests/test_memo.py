"""The bounded LRU ``Memo``: order, bound, counters, thread safety."""

import sys
import threading

import pytest

from repro.engine.metrics import RunMetrics
from repro.memo import Memo


def test_get_returns_stored_value_or_default():
    memo = Memo("demo", 4)
    assert memo.get("a") is None
    assert memo.get("a", "fallback") == "fallback"
    memo.put("a", 1)
    assert memo.get("a") == 1
    # A stored None is still distinguishable with a sentinel default.
    missing = object()
    memo.put("none", None)
    assert memo.get("none", missing) is None


def test_bound_evicts_least_recently_used():
    memo = Memo("demo", 3)
    for key in "abc":
        memo.put(key, key.upper())
    assert memo.get("a") == "A"  # "a" is now the most recently used
    memo.put("d", "D")
    assert len(memo) == 3
    assert memo.get("b") is None  # the least recently used went first
    assert [memo.get(key) for key in "acd"] == ["A", "C", "D"]
    # Re-putting a present key refreshes it without growing the memo.
    memo.put("a", "A2")
    memo.put("e", "E")
    assert len(memo) == 3
    assert memo.get("c") is None
    assert memo.get("a") == "A2"


def test_counters_and_gauge_use_the_memo_name():
    metrics = RunMetrics()
    memo = Memo("record", 2, metrics)
    assert metrics.gauges["record_memo_entries"] == 0.0
    memo.put("a", 1)
    memo.put("b", 2)
    memo.get("a")
    memo.get("a")
    memo.get("missing")
    memo.put("c", 3)
    memo.put("d", 4)
    assert metrics.counters["record_memo_hits"] == 2
    assert metrics.counters["record_evictions"] == 2
    assert metrics.gauges["record_memo_entries"] == 2.0
    # Misses are the owner's to count ("computed fresh").
    assert "record_misses" not in metrics.counters
    memo.clear()
    assert len(memo) == 0
    assert metrics.gauges["record_memo_entries"] == 0.0


def test_rejects_an_empty_bound():
    with pytest.raises(ValueError):
        Memo("demo", 0)


def test_concurrent_get_and_put_keep_the_bound_and_the_counts():
    metrics = RunMetrics()
    memo = Memo("shared", 16, metrics)
    threads = 8
    rounds = 500
    hits = [0] * threads
    sizes = []
    barrier = threading.Barrier(threads)

    def worker(index: int) -> None:
        # Each thread owns its keys, so every put after a miss inserts
        # a new entry and the eviction count is exact.
        barrier.wait()
        for step in range(rounds):
            key = (index, step % 5)
            if memo.get(key) is not None:
                hits[index] += 1
            else:
                memo.put(key, step + 1)
            sizes.append(len(memo))

    pool = [
        threading.Thread(target=worker, args=(index,))
        for index in range(threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert len(sizes) == threads * rounds
    assert max(sizes) <= 16
    assert len(memo) == 16
    assert metrics.counters.get("shared_memo_hits", 0) == sum(hits)
    puts = threads * rounds - sum(hits)
    assert metrics.counters["shared_evictions"] == puts - 16
