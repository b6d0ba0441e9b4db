"""One bounded in-memory memo: LRU order, a hit counter, an entry gauge.

Every memo that outlives a single call — the allocator's analysis
cache, the workers' trace memo, the engine's record and study memos,
the service's result memo — is a :class:`Memo`.  A memo only bounds
its entry count; the bound is a module constant at each owner, sized
so that no benchmark workload evicts.

With a ``metrics`` sink (anything with ``count(name, amount)`` and
``gauge(name, value)``, such as :class:`repro.engine.metrics.RunMetrics`)
the memo counts ``<name>_memo_hits`` and ``<name>_evictions`` and
keeps the gauge ``<name>_memo_entries`` current.  Misses are not
counted here: the owner counts ``<name>_misses`` where it computes a
value, because a value found on disk is not a miss.

A lock guards every operation.  The service's thread-executor fallback
runs jobs on threads that share the module-level memos.

This module imports nothing from the package, so ``repro.alloc`` and
``repro.sim`` can use it without an import cycle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Generic, Hashable, Optional, TypeVar

V = TypeVar("V")


class Memo(Generic[V]):
    """A bounded key-value memo that evicts the least recently used."""

    def __init__(
        self, name: str, max_entries: int, metrics: Optional[Any] = None
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.name = name
        self.max_entries = max_entries
        self.metrics = metrics
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self._lock = threading.Lock()
        self._publish_size()

    def get(self, key: Hashable, default: Optional[V] = None) -> Optional[V]:
        """The value under ``key`` (now most recently used), or
        ``default`` when absent."""
        with self._lock:
            if key not in self._entries:
                return default
            self._entries.move_to_end(key)
            if self.metrics is not None:
                self.metrics.count(f"{self.name}_memo_hits")
            return self._entries[key]

    def put(self, key: Hashable, value: V) -> None:
        """Store ``value`` as most recently used; evict past the bound."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = len(self._entries) - self.max_entries
            for _ in range(evicted):
                self._entries.popitem(last=False)
            if self.metrics is not None and evicted > 0:
                self.metrics.count(f"{self.name}_evictions", evicted)
            self._publish_size()

    def discard(self, key: Hashable) -> None:
        """Drop ``key``'s entry, if there is one."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self._publish_size()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._publish_size()

    def __contains__(self, key: Hashable) -> bool:
        """Whether ``key`` has an entry; neither a hit nor a use."""
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def _publish_size(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                f"{self.name}_memo_entries", float(len(self._entries))
            )
