"""Content-addressed on-disk cache.

Layout: ``<root>/<kind>/<key[:2]>/<key>.<json|pkl>`` where ``key`` is a
SHA-256 hex fingerprint of everything that determines the entry's
value.  Writes are atomic (temp file + ``os.replace``) so concurrent
runs sharing one cache directory can only ever observe complete
entries.  Unreadable or corrupt entries are treated as misses and
removed — the cache is a pure accelerator, never a source of truth —
and counted as ``disk_cache_corrupt_entries`` when the cache was given
a metrics sink.

Evaluation records and study results are JSON (inspectable, durable);
trace sets are pickled (an order of magnitude faster to round-trip and
never loaded from outside the cache directory the run itself names).

With ``max_bytes`` set the cache is bounded: whenever the running size
estimate crosses the cap after a write, entries are pruned
oldest-mtime-first until the directory fits again.  Eviction can only
cost recomputation (every entry is a pure function of its key), so the
cap trades disk for warm-start speed and nothing else.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from typing import Any, List, Optional, Tuple


class DiskCache:
    """Content-addressed file store rooted at one directory."""

    def __init__(
        self,
        root: str,
        max_bytes: Optional[int] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive when set")
        self.root = root
        self.max_bytes = max_bytes
        #: Counter sink (anything with ``count(name)``), e.g. the owner's
        #: :class:`~repro.engine.metrics.RunMetrics`.
        self.metrics = metrics
        try:
            os.makedirs(root, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ValueError(
                f"cache dir {root!r} exists and is not a directory"
            ) from None
        # Running size estimate; exact numbers are re-measured on prune.
        self._estimated_bytes = (
            sum(size for _, _, size in self._entries())
            if max_bytes is not None
            else 0
        )

    def _path(self, kind: str, key: str, suffix: str) -> str:
        return os.path.join(self.root, kind, key[:2], f"{key}.{suffix}")

    def _read(self, path: str, loader) -> Optional[Any]:
        try:
            with open(path, "rb") as handle:
                return loader(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, pickle.UnpicklingError, EOFError):
            # Corrupt or torn entry: drop it, count it, report a miss.
            try:
                os.remove(path)
            except OSError:
                pass
            if self.metrics is not None:
                self.metrics.count("disk_cache_corrupt_entries")
            return None

    def _write(self, path: str, payload: bytes) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            mode="wb", dir=directory, delete=False
        )
        try:
            with handle:
                handle.write(payload)
            os.replace(handle.name, path)
        except OSError:
            try:
                os.remove(handle.name)
            except OSError:
                pass
            return
        if self.max_bytes is not None:
            self._estimated_bytes += len(payload)
            if self._estimated_bytes > self.max_bytes:
                self._prune()

    # -- size cap ----------------------------------------------------------

    def _entries(self) -> List[Tuple[str, float, int]]:
        """Every cache entry as (path, mtime, size)."""
        entries: List[Tuple[str, float, int]] = []
        for dirpath, _, filenames in os.walk(self.root):
            for filename in filenames:
                path = os.path.join(dirpath, filename)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                entries.append((path, stat.st_mtime, stat.st_size))
        return entries

    def _prune(self) -> None:
        """Delete oldest-mtime entries until the cache fits the cap."""
        entries = self._entries()
        total = sum(size for _, _, size in entries)
        if self.max_bytes is not None and total > self.max_bytes:
            # Ties on mtime break by path so pruning is deterministic.
            for path, _, size in sorted(entries, key=lambda e: (e[1], e[0])):
                if total <= self.max_bytes:
                    break
                try:
                    os.remove(path)
                except OSError:
                    continue
                total -= size
        self._estimated_bytes = total

    # -- JSON entries ------------------------------------------------------

    def get_json(self, kind: str, key: str) -> Optional[Any]:
        return self._read(
            self._path(kind, key, "json"),
            lambda handle: json.loads(handle.read().decode("utf-8")),
        )

    def put_json(self, kind: str, key: str, value: Any) -> None:
        payload = json.dumps(value, sort_keys=True).encode("utf-8")
        self._write(self._path(kind, key, "json"), payload)

    # -- pickle entries ----------------------------------------------------

    def get_pickle(self, kind: str, key: str) -> Optional[Any]:
        return self._read(self._path(kind, key, "pkl"), pickle.load)

    def put_pickle(self, kind: str, key: str, value: Any) -> None:
        self._write(
            self._path(kind, key, "pkl"),
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
        )
