"""Worker-side analysis sharing: N schemes of one kernel, one analysis.

Service jobs are single-scheme, so the batching win inside a worker
process comes from the allocator's shared analysis memo — every
scheme's ``allocate_for_traces`` hits the same
:class:`~repro.alloc.analysis.KernelAnalysis` entry for the kernel.
This runs :func:`run_service_job` in-process (the worker entry point is
a plain function) and counts the fresh analyses.
"""

from repro.alloc import analysis as analysis_module
from repro.alloc.analysis import clear_analysis_cache
from repro.service.pipeline import run_service_job
from repro.service.protocol import normalize_request
from repro.sim.schemes import Scheme, SchemeKind


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
