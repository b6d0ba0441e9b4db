"""Worker-side analysis sharing: N schemes of one kernel, one analysis.

Service jobs are single-scheme, so the batching win inside a worker
process comes from the allocator's shared analysis memo — every
scheme's ``allocate_for_traces`` hits the same
:class:`~repro.alloc.analysis.KernelAnalysis` entry for the kernel.
This runs :func:`run_service_job` in-process (the worker entry point is
a plain function) and counts the fresh analyses.

A kernel sent as IR text is analysed for its own job only: the job
forgets the analyses it added, so distinct kernels leave the memo as
they found it, while an entry memoized before the job stays.
"""

import pytest

from repro.alloc import analysis as analysis_module
from repro.alloc.analysis import clear_analysis_cache, memoized_flavours
from repro.ir.printer import format_kernel
from repro.service.pipeline import run_service_job
from repro.service.protocol import normalize_request
from repro.sim.schemes import Scheme, SchemeKind
from repro.workloads.generators import generate_workload
from repro.workloads.suites import get_workload


def _allocate_job(scheme: Scheme):
    return normalize_request(
        "allocate",
        {
            "benchmark": "vectoradd",
            "scheme": {
                "kind": scheme.kind.value,
                "entries_per_thread": scheme.entries_per_thread,
                "split_lrf": scheme.split_lrf,
            },
        },
    ).payload


def test_worker_shares_one_analysis_across_schemes(monkeypatch):
    schemes = [
        Scheme(SchemeKind.SW_TWO_LEVEL, entries)
        for entries in (1, 2, 3)
    ] + [
        Scheme(SchemeKind.SW_THREE_LEVEL, 3),
        Scheme(SchemeKind.SW_THREE_LEVEL, 3, split_lrf=True),
    ]
    clear_analysis_cache()
    analysed = []
    original = analysis_module.analyze_kernel

    def counting(kernel, assume_persistent=False):
        analysed.append(kernel.name)
        return original(kernel, assume_persistent)

    monkeypatch.setattr(analysis_module, "analyze_kernel", counting)
    results = [run_service_job(_allocate_job(s)) for s in schemes]
    # Five schemes, one kernel, one persistence flavour: one analysis.
    assert analysed == ["vectoradd"]
    assert len({r["kernel"] for r in results}) == 1
    assert all(r["annotations"] for r in results)


# -- IR-text jobs: analyses scoped to the job ------------------------------


def _text_body(seed: int, op: str, scheme=None):
    """A distinct fuzz kernel as IR text, with its warps for evaluate
    and tune."""
    spec = generate_workload(seed, num_warps=1)
    body = {"kernel": format_kernel(spec.kernel)}
    if op != "allocate":
        body["warps"] = [
            {"live_in": {str(reg): value
                         for reg, value in warp.live_in_values.items()}}
            for warp in spec.warp_inputs
        ]
    if scheme is not None:
        body["scheme"] = scheme
    return body


@pytest.fixture
def analysed(monkeypatch):
    """The ``assume_persistent`` flag of every fresh analysis."""
    flags = []
    original = analysis_module.analyze_kernel

    def counting(kernel, assume_persistent=False):
        flags.append(assume_persistent)
        return original(kernel, assume_persistent)

    monkeypatch.setattr(analysis_module, "analyze_kernel", counting)
    return flags


def test_text_jobs_leave_the_analysis_memo_as_they_found_it(analysed):
    clear_analysis_cache()
    run_service_job(_allocate_job(Scheme(SchemeKind.SW_TWO_LEVEL, 2)))
    assert len(analysis_module._ANALYSES) == 1
    for seed in range(6):
        op = ("allocate", "evaluate")[seed % 2]
        analysed.clear()
        job = normalize_request(op, _text_body(100 + seed, op))
        assert run_service_job(job.payload)["op"] == op
        # One analysis per job, then gone: the registry entry stays.
        assert analysed == [False]
        assert len(analysis_module._ANALYSES) == 1


def test_text_tune_analyses_once_per_flavour_and_forgets_both(analysed):
    clear_analysis_cache()
    body = _text_body(7, "tune")
    body.update(
        strategy="exhaustive",
        budget=128,
        space={"parameters": {"assume_persistent_strands": [False, True]}},
    )
    result = run_service_job(normalize_request("tune", body).payload)
    # The exhaustive tuner hands the oracle 64 configs per call, so
    # 128 evaluations span two calls; the memo serves the second.
    assert len(result["tuner"]["trace"]) == 128
    assert sorted(analysed) == [False, True]
    assert len(analysis_module._ANALYSES) == 0


def test_a_text_copy_of_a_registry_kernel_keeps_its_analysis(analysed):
    clear_analysis_cache()
    run_service_job(_allocate_job(Scheme(SchemeKind.SW_TWO_LEVEL, 2)))
    registry = get_workload("vectoradd", 1.0).kernel
    assert memoized_flavours(registry) == (False,)
    analysed.clear()
    for persistent in (False, True):
        body = {
            "kernel": format_kernel(registry),
            "scheme": {"kind": "sw", "assume_persistent_strands": persistent},
        }
        run_service_job(normalize_request("allocate", body).payload)
    # The entry that was there before stays and serves the copy; the
    # persistent flavour the second job added is forgotten.
    assert analysed == [True]
    assert memoized_flavours(registry) == (False,)
    assert len(analysis_module._ANALYSES) == 1
