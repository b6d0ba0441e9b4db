"""The experiment engine: memoized, optionally parallel evaluation.

One :class:`ExperimentEngine` instance serves a whole CLI run.  It
layers two content-addressed stores:

* in-memory memos (:class:`~repro.memo.Memo`, bounded LRU) of
  evaluation records — (trace-set fingerprint, scheme) to record;
  deduplicates identical evaluations across figures within one run (the
  sensitivity sweep alone re-evaluates the same pair thirty times) —
  and of study results;
* an optional on-disk :class:`DiskCache` holding evaluation records,
  study results (JSON) and trace sets (pickle) across runs.

Allocations are not memoized: every record miss allocates its own
clone, and the scheme-independent analysis behind it is shared through
:func:`repro.alloc.analysis.kernel_analysis`.

Parallelism is a *prefetch*: the parent computes the exact job list a
figure run will need, fans cache misses across a
``concurrent.futures`` process pool, and stores results in submission
order.  Figure drivers then run serially and hit the memo, so their
merge order — and therefore the formatted output — is byte-identical
to a serial run.  Workers rebuild workloads from the registry by name
(see :mod:`repro.engine.jobs`); evaluation is deterministic, so a
record's value does not depend on which process computed it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..ir.kernel import Kernel
from ..memo import Memo
from ..obs.tracer import TRACER
from ..sim.executor import WarpInput
from ..sim.runner import (
    KernelEvaluation,
    TraceSet,
    build_traces,
    evaluate_traces_batch,
)
from ..sim.schemes import Scheme
from ..workloads.suites import BENCHMARK_NAMES
from .cache import DiskCache
from .hashing import digest, warp_inputs_fingerprint
from .jobs import EvaluationJob, run_evaluation_job
from .metrics import RunMetrics
from .records import (
    evaluation_from_payload,
    payload_is_valid,
    record_key,
    record_payload,
    trace_payload_is_valid,
    traceset_from_payload,
    traceset_to_payload,
)


#: Evaluation records one engine keeps in memory.  ``repro all`` holds
#: 1,764; the service's per-worker tune engine is bounded by it.
RECORD_MEMO_ENTRIES = 4096
#: Study results one engine keeps in memory.
STUDY_MEMO_ENTRIES = 64

_MISSING = object()


class ExperimentEngine:
    """Memoized experiment evaluation with optional fan-out."""

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        metrics: Optional[RunMetrics] = None,
        cache_max_bytes: Optional[int] = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.cache = (
            DiskCache(cache_dir, max_bytes=cache_max_bytes)
            if cache_dir
            else None
        )
        self.metrics = metrics if metrics is not None else RunMetrics()
        self._records: "Memo[Dict[str, Any]]" = Memo(
            "record", RECORD_MEMO_ENTRIES, self.metrics
        )
        self._studies = Memo("study", STUDY_MEMO_ENTRIES, self.metrics)

    # -- traces ------------------------------------------------------------

    def build_traces(
        self, kernel: Kernel, warp_inputs: Sequence[WarpInput]
    ) -> TraceSet:
        """Execute the workload's warps, or load them from the cache."""
        with self.metrics.stage("traces"):
            if self.cache is None:
                return build_traces(kernel, warp_inputs)
            key = digest(
                "traces",
                kernel.content_fingerprint(),
                warp_inputs_fingerprint(warp_inputs),
            )
            payload = self.cache.get_pickle("traces", key)
            if payload is not None and trace_payload_is_valid(
                payload, kernel
            ):
                self.metrics.count("trace_cache_hits")
                return traceset_from_payload(kernel, payload)
            self.metrics.count("trace_cache_misses")
            traces = build_traces(kernel, warp_inputs)
            self.cache.put_pickle("traces", key, traceset_to_payload(traces))
            return traces

    # -- evaluation records ------------------------------------------------

    def _lookup_record(self, key: str) -> Optional[Dict[str, Any]]:
        payload = self._records.get(key)
        if payload is not None:
            return payload
        if self.cache is not None:
            payload = self.cache.get_json("records", key)
            if payload is not None and payload_is_valid(payload):
                self.metrics.count("record_disk_hits")
                self._records.put(key, payload)
                return payload
        return None

    def _store_record(self, key: str, payload: Dict[str, Any]) -> None:
        self._records.put(key, payload)
        if self.cache is not None:
            self.cache.put_json("records", key, payload)

    def evaluate(self, traces: TraceSet, scheme: Scheme) -> KernelEvaluation:
        """Account ``traces`` under ``scheme``: a batch of one."""
        (evaluation,) = self.evaluate_batch(traces, [scheme])
        return evaluation

    def evaluate_batch(
        self, traces: TraceSet, schemes: Sequence[Scheme]
    ) -> List[KernelEvaluation]:
        """Account ``traces`` under every scheme, memoized at every layer.

        Records already in the memo (or on disk) are served from there
        and counted as hits.  The rest are evaluated together through
        :func:`~repro.sim.runner.evaluate_traces_batch`, so all
        software schemes share one kernel analysis (and, on the
        compiled path, hardware schemes share one trace walk), and
        each is counted once in ``record_misses``.  Every record comes
        back through :func:`evaluation_from_payload`, so a fresh record
        is identical to one served from the memo.
        """
        keys = [record_key(traces, scheme) for scheme in schemes]
        payloads: Dict[str, Dict[str, Any]] = {}
        missing: Dict[str, Scheme] = {}
        for scheme, key in zip(schemes, keys):
            if key in payloads or key in missing:
                continue
            payload = self._lookup_record(key)
            if payload is None:
                missing[key] = scheme
            else:
                payloads[key] = payload
        if missing:
            self.metrics.count("record_misses", len(missing))
            with self.metrics.stage("evaluate"):
                with TRACER.span(
                    "engine.evaluate",
                    kernel=traces.kernel.name,
                    schemes=len(missing),
                ):
                    evaluations = evaluate_traces_batch(
                        traces, list(missing.values())
                    )
            for key, evaluation in zip(missing, evaluations):
                payloads[key] = record_payload(evaluation)
                self._store_record(key, payloads[key])
        return [
            evaluation_from_payload(payloads[key], scheme)
            for scheme, key in zip(schemes, keys)
        ]

    # -- study-level memoization -------------------------------------------

    def memo_study(
        self, parts: Sequence[str], compute: Callable[[], Any]
    ) -> Any:
        """Memoize a pure, JSON-serializable study result.

        ``parts`` must fingerprint every input the study depends on
        (suite fingerprint, configs, models, parameters); ``compute``
        runs on a miss.
        """
        key = digest("study", *parts)
        value = self._studies.get(key, _MISSING)
        if value is not _MISSING:
            return value
        if self.cache is not None:
            cached = self.cache.get_json("studies", key)
            if cached is not None:
                self.metrics.count("study_disk_hits")
                self._studies.put(key, cached["value"])
                return cached["value"]
        self.metrics.count("study_misses")
        with self.metrics.stage("studies"):
            value = compute()
        self._studies.put(key, value)
        if self.cache is not None:
            self.cache.put_json("studies", key, {"schema": 1, "value": value})
        return value

    # -- parallel prefetch -------------------------------------------------

    def prefetch(
        self,
        items: Sequence[Tuple[Any, TraceSet]],
        schemes: Sequence[Scheme],
        scale: float = 1.0,
    ) -> None:
        """Fill the record memo for every (workload, scheme) pair.

        Cache misses for registry workloads fan out across a process
        pool when ``jobs > 1``; anything that cannot be shipped to a
        worker (non-registry workloads, pool start-up failure) is
        evaluated inline, so prefetch never changes results — only
        where and when they are computed.
        """
        pool_jobs: List[Tuple[str, EvaluationJob]] = []
        pool_items: List[Tuple[TraceSet, Scheme]] = []
        inline: List[Tuple[TraceSet, Scheme]] = []
        seen = set()
        for spec, traces in items:
            for scheme in schemes:
                key = record_key(traces, scheme)
                if key in seen or self._lookup_record(key) is not None:
                    continue
                seen.add(key)
                name = getattr(spec, "name", None)
                if self.jobs > 1 and name in BENCHMARK_NAMES:
                    pool_jobs.append(
                        (key, EvaluationJob(name, scale, scheme))
                    )
                    pool_items.append((traces, scheme))
                else:
                    inline.append((traces, scheme))

        if pool_jobs:
            self.metrics.count("jobs_submitted", len(pool_jobs))
            with self.metrics.stage("prefetch"):
                try:
                    from concurrent.futures import ProcessPoolExecutor

                    chunksize = max(1, len(pool_jobs) // (self.jobs * 4))
                    with ProcessPoolExecutor(
                        max_workers=self.jobs
                    ) as pool:
                        results = list(
                            pool.map(
                                run_evaluation_job,
                                [job for _, job in pool_jobs],
                                chunksize=chunksize,
                            )
                        )
                    for (key, _), payload in zip(pool_jobs, results):
                        self._store_record(key, payload)
                    self.metrics.count("jobs_completed", len(pool_jobs))
                except Exception:
                    # Pool unavailable (restricted environment) or a
                    # worker died: fall back to computing inline.
                    self.metrics.count("jobs_failed", len(pool_jobs))
                    inline.extend(pool_items)

        # Inline evaluations are grouped per trace set so batched
        # misses share one kernel analysis across schemes.
        grouped: Dict[int, Tuple[TraceSet, List[Scheme]]] = {}
        for traces, scheme in inline:
            entry = grouped.setdefault(id(traces), (traces, []))
            entry[1].append(scheme)
        for traces, batch in grouped.values():
            self.evaluate_batch(traces, batch)
