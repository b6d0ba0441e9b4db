"""Run metrics: per-stage wall time, cache/job counters, gauges, and
latency histograms.

Every engine run accumulates one :class:`RunMetrics`.  The JSON schema
(``schema`` = 3) is::

    {
      "schema": 3,
      "stages":   {"traces": 0.41, "evaluate": 3.2, "prefetch": 1.8},
      "counters": {"record_memo_hits": 120, "record_disk_hits": 36,
                   "record_misses": 42, "trace_cache_hits": 36,
                   "jobs_submitted": 42, "jobs_completed": 42, ...},
      "gauges":   {"record_memo_entries": 78, "service_in_flight": 3},
      "histograms": {
        "http_request_seconds": {"bounds": [...], "bucket_counts": [...],
                                 "sum": 1.25, "count": 240}
      }
    }

Stage values are wall-clock seconds summed over all entries into that
stage; counters are monotone event counts; gauges are point-in-time
samples (last write wins — the allocation service publishes its
in-flight count here); histograms are fixed-bucket latency
distributions (:class:`repro.obs.registry.Histogram`).

Cache counters follow one pattern per memo name — ``record`` and
``study`` (the engine), ``service`` (the server's result memo):

* ``<name>_memo_hits`` — served from the in-memory memo;
* ``<name>_disk_hits`` — served from the on-disk cache;
* ``<name>_misses`` — computed fresh (``service_misses`` equals the
  server's ``jobs_executed``);
* ``<name>_evictions`` — entries the bounded memo dropped;
* gauge ``<name>_memo_entries`` — entries held now.

The memo itself (:class:`repro.memo.Memo`) counts the hits and
evictions and sets the gauge; the owner counts disk hits and misses
where it reads the disk or computes.  Also counted:
``trace_cache_hits``/``_misses`` and ``jobs_submitted``/``_completed``/
``_failed``.

Unknown keys must be ignored by consumers so the schema can grow:
schema 2 added ``gauges``, schema 3 added ``histograms``, and readers
of older documents must treat the missing key as empty.

``stage`` additionally opens a tracer span (``repro.obs.tracer``) and,
when a :class:`repro.obs.profiling.StageProfiler` is installed, runs
the body under per-stage cProfile — both no-ops by default.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence

from ..obs import profiling
from ..obs.registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    Histogram,
    render_prometheus,
)
from ..obs.tracer import TRACER

SCHEMA_VERSION = 3

#: Counter prefixes that belong to the service layer (request dedup,
#: memoisation in front of the engine) rather than the engine caches.
SERVICE_COUNTER_PREFIXES = ("service_", "inflight_")

#: Counter prefix of the tuner's per-search pricing memo.
TUNER_COUNTER_PREFIX = "tuner_"


@dataclass
class RunMetrics:
    """Wall-time per stage, monotone event counters, point-in-time
    gauges, and fixed-bucket histograms for one run."""

    stages: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Accumulate wall time spent in the ``with`` body into
        ``stages[name]`` (re-entrant across separate calls), observe it
        into the ``stage_{name}_seconds`` histogram, and open a tracer
        span.  Profiled per stage when a StageProfiler is installed."""
        with ExitStack() as stack:
            stack.enter_context(TRACER.span(f"stage.{name}"))
            profiler = profiling.current()
            if profiler is not None:
                stack.enter_context(profiler.stage(name))
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                self.stages[name] = self.stages.get(name, 0.0) + elapsed
                self.observe(f"stage_{name}_seconds", elapsed)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Record a point-in-time sample; the last write wins."""
        self.gauges[name] = value

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> Histogram:
        """Get-or-create a named histogram (first caller fixes buckets)."""
        existing = self.histograms.get(name)
        if existing is None:
            existing = Histogram(buckets)
            self.histograms[name] = existing
        return existing

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> None:
        self.histogram(name, buckets).observe(value)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "stages": {
                name: round(seconds, 6)
                for name, seconds in sorted(self.stages.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunMetrics":
        """Rehydrate from any schema ≥ 1 document (missing keys empty)."""
        metrics = cls(
            stages=dict(data.get("stages", {})),  # type: ignore[arg-type]
            counters=dict(data.get("counters", {})),  # type: ignore[arg-type]
            gauges=dict(data.get("gauges", {})),  # type: ignore[arg-type]
        )
        for name, payload in data.get("histograms", {}).items():  # type: ignore[union-attr]
            metrics.histograms[name] = Histogram.from_dict(payload)
        return metrics

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_prometheus(self, namespace: str = "repro") -> str:
        """Prometheus text exposition v0.0.4 of the current snapshot."""
        return render_prometheus(self.to_dict(), namespace=namespace)

    def write(self, path: str) -> None:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    def summary(self) -> str:
        """One-line human summary for CLI stderr.

        Engine cache hits/misses exclude service-layer dedup counters
        (``service_*``, ``inflight_*``) and the tuner's pricing memo
        (``tuner_*``) — each group is reported on its own, and only
        when non-zero, so the engine cache line counts engine caches.
        """
        stage_text = " ".join(
            f"{name}={seconds:.2f}s"
            for name, seconds in sorted(self.stages.items())
        )
        # group -> [hits, misses]
        totals = {"cache": [0, 0], "service": [0, 0], "tuner": [0, 0]}
        for name, count in self.counters.items():
            if name.endswith("_hits"):
                slot = 0
            elif name.endswith("_misses"):
                slot = 1
            else:
                continue
            if name.startswith(SERVICE_COUNTER_PREFIXES):
                group = "service"
            elif name.startswith(TUNER_COUNTER_PREFIX):
                group = "tuner"
            else:
                group = "cache"
            totals[group][slot] += count
        hits, misses = totals.pop("cache")
        text = f"engine: {stage_text} cache_hits={hits} cache_misses={misses}"
        for group, (hits, misses) in totals.items():
            if hits or misses:
                text += f" {group}_hits={hits} {group}_misses={misses}"
        return text
