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
registry benchmark analyses it once and runs only the per-config
levels pass N times, the same sharing the in-process engine gets from
``evaluate_traces_batch``.  An IR-text kernel is analysed for its own
job only: the job parses it once and, when it ends, forgets the
analyses it added (:func:`repro.alloc.analysis.forget_analysis`), so a
stream of distinct kernels leaves a worker's memo as it found it.
Inside the job the memo still serves every batch (a text tune analyses
once per persistence flavour), and an analysis that was memoized
before the job (a registry benchmark's kernel sent as text) stays.

A kernel that parses but cannot run on its warps raises
:class:`~repro.service.protocol.KernelExecutionError` (422).

Evaluation results embed the engine's record payload verbatim
(:func:`repro.engine.records.record_payload`), which is what makes a
service response byte-comparable to the direct engine path.

Tune jobs run the whole design-space search in the worker
(:func:`repro.tuner.runner.run_tune`) on the fresh
:class:`~repro.engine.ExperimentEngine` it makes, dropped when the job
ends: the search's records serve its own batches and no later job, so
a tune's reply does not depend on which tunes its worker ran before.
A repeated tune is answered by the server's result memo and disk
cache.

The server calls the job through :func:`reported_call`, which returns
the worker's pid and the entry counts of its two module-level memos
next to the result, for the ``worker_*_memo_entries`` gauges.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Optional

from ..alloc import analysis
from ..alloc.serialize import annotations_to_dict
from ..engine import jobs
from ..engine.records import record_payload
from ..ir.kernel import Kernel
from ..ir.parser import parse_kernels
from ..sim.executor import ExecutionError
from ..sim.runner import allocate_for_traces, build_traces, evaluate_traces
from ..workloads.suites import get_workload
from .protocol import KernelExecutionError, scheme_from_json, warps_from_json

RESULT_SCHEMA = 1

def _probe() -> str:
    """Round-trip probe the server uses to vet the process pool."""
    return "ok"


def reported_call(fn: Callable[..., Any], *args: Any) -> Dict[str, Any]:
    """``fn(*args)`` plus a report of the process that ran it.

    Returns ``{"result": ..., "worker": {"pid", "analysis", "traces"}}``,
    the last two the entry counts of the analysis and trace-set memos,
    which live in each pool worker and nowhere the server can read.
    """
    result = fn(*args)
    return {
        "result": result,
        "worker": {
            "pid": os.getpid(),
            "analysis": len(analysis._ANALYSES),
            "traces": len(jobs._TRACE_SETS),
        },
    }


def run_service_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Compute one normalised service job.  Pure: the result depends
    only on the payload, never on worker state or call order."""
    if payload.get("benchmark") is not None:
        return _compute(payload, None)
    kernel = parse_kernels(payload["kernel"])[0]
    # A kernel sent as text is seldom analysed again: keep only what
    # was memoized before this job.
    held = analysis.memoized_flavours(kernel)
    try:
        return _compute(payload, kernel)
    finally:
        analysis.forget_analysis(kernel, keep=held)


def _compute(
    payload: Dict[str, Any], kernel: Optional[Kernel]
) -> Dict[str, Any]:
    """Run ``payload`` on its IR-text ``kernel``, or on its registry
    benchmark when ``kernel`` is None."""
    op = payload["op"]
    if op == "allocate":
        scheme = scheme_from_json(payload["scheme"])
        if kernel is None:
            kernel = get_workload(
                payload["benchmark"], payload["scale"]
            ).kernel
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
    if op not in ("evaluate", "tune"):
        raise ValueError(f"unknown service op {op!r}")
    if kernel is None:
        traces = jobs.workload_traces(payload["benchmark"], payload["scale"])
    else:
        try:
            traces = build_traces(kernel, warps_from_json(payload["warps"]))
        except ExecutionError as error:
            raise KernelExecutionError(str(error)) from None
    if op == "evaluate":
        scheme = scheme_from_json(payload["scheme"])
        evaluation = evaluate_traces(traces, scheme)
        return {
            "schema": RESULT_SCHEMA,
            "op": op,
            "kernel": evaluation.kernel_name,
            "scheme": scheme.name,
            "record": record_payload(evaluation),
        }
    from ..tuner import run_tune
    from ..tuner.space import space_from_dict

    tune = payload["tune"]
    result = run_tune(
        traces,
        space=space_from_dict(tune["space"]),
        strategy=tune["strategy"],
        objective=tune["objective"],
        budget=tune["budget"],
        seed=tune["seed"],
    )
    return {
        "schema": RESULT_SCHEMA,
        "op": op,
        "kernel": result["kernel"],
        "tuner": result,
    }
