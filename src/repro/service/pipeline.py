"""Worker-side compute for the allocation service.

:func:`run_service_job` is the only function crossing the process
boundary: a canonical job dict in (see
:func:`repro.service.protocol.normalize_request`), a JSON result dict
out.  Like :mod:`repro.engine.jobs`, nothing heavyweight is pickled —
workers rebuild benchmarks from the registry and re-parse IR text.
Registry trace sets come from the engine workers' bounded memo
(:func:`repro.engine.jobs.workload_traces`); IR-text jobs parse and
trace directly, since the server's result memo already absorbs
repeated requests.

Jobs are single-scheme, but the allocator's scheme-independent
analysis phase (:mod:`repro.alloc.analysis`) is memoized per process by
kernel content fingerprint — so a worker handling N schemes of one
kernel analyses it once and runs only the per-config levels pass N
times, the same sharing the in-process engine gets from
``evaluate_traces_batch``.

Evaluation results embed the engine's record payload verbatim
(:func:`repro.engine.records.record_payload`), which is what makes a
service response byte-comparable to the direct engine path.

Tune jobs run the whole design-space search in the worker
(:func:`repro.tuner.runner.run_tune`) against a per-process
:class:`~repro.engine.ExperimentEngine`, whose bounded record memo
carries candidate evaluations across tune requests landing on the same
worker.
"""

from __future__ import annotations

from typing import Any, Dict

from ..alloc.serialize import annotations_to_dict
from ..engine.jobs import workload_traces
from ..engine.records import record_payload
from ..ir.parser import parse_kernels
from ..sim.runner import (
    TraceSet,
    allocate_for_traces,
    build_traces,
    evaluate_traces,
)
from ..workloads.suites import get_workload
from .protocol import scheme_from_json, warps_from_json

RESULT_SCHEMA = 1

#: Per-process engine for tune jobs: the search evaluates dozens of
#: schemes per request, and the engine's record memo carries candidate
#: evaluations across tune requests hitting the same worker.
_TUNE_ENGINE = None


def _tune_engine():
    global _TUNE_ENGINE
    if _TUNE_ENGINE is None:
        from ..engine import ExperimentEngine

        _TUNE_ENGINE = ExperimentEngine()
    return _TUNE_ENGINE


def _probe() -> str:
    """Round-trip probe the server uses to vet the process pool."""
    return "ok"


def _job_traces(payload: Dict[str, Any]) -> TraceSet:
    if payload.get("benchmark") is not None:
        return workload_traces(payload["benchmark"], payload["scale"])
    kernel = parse_kernels(payload["kernel"])[0]
    return build_traces(kernel, warps_from_json(payload["warps"]))


def run_service_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Compute one normalised service job.  Pure: the result depends
    only on the payload, never on worker state or call order."""
    op = payload["op"]
    if op == "tune":
        from ..tuner import run_tune
        from ..tuner.space import space_from_dict

        tune = payload["tune"]
        traces = _job_traces(payload)
        result = run_tune(
            traces,
            space=space_from_dict(tune["space"]),
            strategy=tune["strategy"],
            objective=tune["objective"],
            budget=tune["budget"],
            seed=tune["seed"],
            engine=_tune_engine(),
        )
        return {
            "schema": RESULT_SCHEMA,
            "op": op,
            "kernel": result["kernel"],
            "tuner": result,
        }
    scheme = scheme_from_json(payload["scheme"])
    if op == "evaluate":
        traces = _job_traces(payload)
        evaluation = evaluate_traces(traces, scheme)
        return {
            "schema": RESULT_SCHEMA,
            "op": op,
            "kernel": evaluation.kernel_name,
            "scheme": scheme.name,
            "record": record_payload(evaluation),
        }
    if op == "allocate":
        if payload.get("benchmark") is not None:
            kernel = get_workload(
                payload["benchmark"], payload["scale"]
            ).kernel
        else:
            kernel = parse_kernels(payload["kernel"])[0]
        allocation = allocate_for_traces(kernel, scheme.allocation_config())
        return {
            "schema": RESULT_SCHEMA,
            "op": op,
            "kernel": kernel.name,
            "scheme": scheme.name,
            "summary": allocation.summary(),
            "strands": allocation.strand_report(),
            "annotations": annotations_to_dict(allocation.kernel),
        }
    raise ValueError(f"unknown service op {op!r}")
