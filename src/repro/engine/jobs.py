"""Process-pool jobs: picklable descriptions, deterministic rebuilds.

A job never carries a kernel or a trace across the process boundary —
only the workload's registry name, the suite scale, and the (frozen,
picklable) scheme.  Workers rebuild the workload with
:func:`repro.workloads.suites.get_workload`, which is deterministic, so
a worker's evaluation record is bit-identical to the record the parent
would have computed itself.  That property is what lets the parent
merge pool results in submission order and still produce byte-identical
figure output.

Each worker process keeps one bounded memo of registry trace sets
(:func:`workload_traces`), shared with the service's workers, so a
worker that receives several schemes for one workload traces it once.
Allocations are not memoized; the allocator's analysis memo already
shares the costly scheme-independent phase across schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..memo import Memo
from ..sim.runner import TraceSet, build_traces, evaluate_traces
from ..sim.schemes import Scheme
from ..workloads.suites import get_workload
from .records import record_payload


@dataclass(frozen=True)
class EvaluationJob:
    """Evaluate one registry workload under one scheme."""

    workload: str
    scale: float
    scheme: Scheme


#: Registry trace sets one worker process keeps: the suite holds 36
#: workloads; service requests may name any scale.
WORKLOAD_TRACE_ENTRIES = 64

#: (workload name, scale) -> TraceSet, per worker process.
_TRACE_SETS: "Memo[TraceSet]" = Memo("traces", WORKLOAD_TRACE_ENTRIES)


def workload_traces(workload: str, scale: float) -> TraceSet:
    """The registry workload's trace set, built once per process."""
    key = (workload, scale)
    traces = _TRACE_SETS.get(key)
    if traces is None:
        spec = get_workload(workload, scale)
        traces = build_traces(spec.kernel, spec.warp_inputs)
        _TRACE_SETS.put(key, traces)
    return traces


def run_evaluation_job(job: EvaluationJob) -> Dict[str, Any]:
    """Worker entry point: returns the JSON evaluation record."""
    traces = workload_traces(job.workload, job.scale)
    return record_payload(evaluate_traces(traces, job.scheme))
