"""The experiment engine: memoized, optionally parallel evaluation.

One :class:`ExperimentEngine` instance serves a whole CLI run.  It
layers three content-addressed stores:

* an in-memory *record* memo — (trace-set fingerprint, scheme) to
  evaluation record; deduplicates identical evaluations across figures
  within one run (the sensitivity sweep alone re-evaluates the same
  pair thirty times);
* an in-memory *allocation* memo — (kernel fingerprint, allocation
  config, energy model) to ``AllocationResult``; every software-scheme
  evaluation allocates a clone, so this is what keeps cloning free;
* an optional on-disk :class:`DiskCache` holding evaluation records,
  study results (JSON) and trace sets (pickle) across runs.

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
from ..obs.tracer import TRACER
from ..sim.executor import WarpInput
from ..sim.runner import (
    AllocationMemo,
    KernelEvaluation,
    TraceSet,
    build_traces,
    evaluate_traces,
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
        self.allocation_memo: AllocationMemo = {}
        self._records: Dict[str, Dict[str, Any]] = {}
        self._studies: Dict[str, Any] = {}

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
            self.metrics.count("record_memo_hits")
            return payload
        if self.cache is not None:
            payload = self.cache.get_json("records", key)
            if payload is not None and payload_is_valid(payload):
                self.metrics.count("record_disk_hits")
                self._records[key] = payload
                return payload
        return None

    def _store_record(self, key: str, payload: Dict[str, Any]) -> None:
        self._records[key] = payload
        if self.cache is not None:
            self.cache.put_json("records", key, payload)

    def evaluate(self, traces: TraceSet, scheme: Scheme) -> KernelEvaluation:
        """Account ``traces`` under ``scheme``, memoized at every layer."""
        return self._evaluate_keyed(
            traces, scheme, record_key(traces, scheme)
        )

    def _evaluate_keyed(
        self, traces: TraceSet, scheme: Scheme, key: str
    ) -> KernelEvaluation:
        payload = self._lookup_record(key)
        if payload is not None:
            return evaluation_from_payload(payload, scheme)
        self.metrics.count("record_misses")
        with self.metrics.stage("evaluate"):
            with TRACER.span(
                "engine.evaluate",
                kernel=traces.kernel.name,
                scheme=scheme.name,
            ):
                evaluation = evaluate_traces(
                    traces, scheme, allocation_memo=self.allocation_memo
                )
        self._store_record(key, record_payload(evaluation))
        return evaluation

    def evaluate_batch(
        self, traces: TraceSet, schemes: Sequence[Scheme]
    ) -> List[KernelEvaluation]:
        """Account ``traces`` under every scheme, sharing batched work.

        Record-memo misses are evaluated together through
        :func:`~repro.sim.runner.evaluate_traces_batch`, so all
        software schemes share one kernel analysis (and, on the
        compiled path, hardware schemes share one trace walk).  The
        returned records are identical to per-scheme :meth:`evaluate`
        calls — which is how they are served, from the freshly filled
        memo.  Each scheme's record key is hashed once per call.
        """
        keys = [record_key(traces, scheme) for scheme in schemes]
        missing: Dict[str, Scheme] = {}
        for scheme, key in zip(schemes, keys):
            if key in missing or self._lookup_record(key) is not None:
                continue
            missing[key] = scheme
        if missing:
            self.metrics.count("record_misses", len(missing))
            with self.metrics.stage("evaluate"):
                with TRACER.span(
                    "engine.evaluate_batch",
                    kernel=traces.kernel.name,
                    schemes=len(missing),
                ):
                    evaluations = evaluate_traces_batch(
                        traces,
                        list(missing.values()),
                        allocation_memo=self.allocation_memo,
                    )
            for key, evaluation in zip(missing, evaluations):
                self._store_record(key, record_payload(evaluation))
        return [
            self._evaluate_keyed(traces, scheme, key)
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
        if key in self._studies:
            self.metrics.count("study_memo_hits")
            return self._studies[key]
        if self.cache is not None:
            cached = self.cache.get_json("studies", key)
            if cached is not None:
                self.metrics.count("study_disk_hits")
                self._studies[key] = cached["value"]
                return cached["value"]
        self.metrics.count("study_misses")
        with self.metrics.stage("studies"):
            value = compute()
        self._studies[key] = value
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
        inline: List[Tuple[str, TraceSet, Scheme]] = []
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
                else:
                    inline.append((key, traces, scheme))

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
                    by_key = {
                        record_key(traces, scheme): (traces, scheme)
                        for _, traces in items
                        for scheme in schemes
                    }
                    for key, _ in pool_jobs:
                        if self._records.get(key) is None:
                            traces, scheme = by_key[key]
                            self.evaluate(traces, scheme)

        # Inline evaluations are grouped per trace set so batched
        # misses share one kernel analysis across schemes.
        grouped: Dict[int, Tuple[TraceSet, List[Scheme]]] = {}
        for key, traces, scheme in inline:
            entry = grouped.setdefault(id(traces), (traces, []))
            entry[1].append(scheme)
        for traces, batch in grouped.values():
            self.evaluate_batch(traces, batch)
