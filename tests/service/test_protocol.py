"""Protocol and pipeline unit tests: request normalisation, scheme and
warp codecs, dedup fingerprints, and equivalence of the worker-side
compute to the direct engine path."""

import hashlib
import json

import pytest

from repro.alloc.serialize import annotations_from_dict
from repro.engine.records import record_payload
from repro.ir.parser import parse_kernel
from repro.service.loadgen import LOADGEN_KERNEL, build_plan
from repro.service.pipeline import run_service_job
from repro.service.protocol import (
    BadRequest,
    ParseError,
    body_key,
    normalize_request,
    scheme_from_json,
    scheme_to_json,
    warps_from_json,
)
from repro.sim.runner import build_traces, evaluate_traces
from repro.sim.schemes import BEST_SCHEME, Scheme, SchemeKind
from repro.workloads.suites import get_workload

SW_JSON = {"kind": "sw_lrf", "entries_per_thread": 3, "split_lrf": True}


# -- scheme codec ----------------------------------------------------------


def test_scheme_round_trip():
    for scheme in (
        BEST_SCHEME,
        Scheme(SchemeKind.HW_TWO_LEVEL, 5, flush_on_backward_branch=True),
        Scheme(SchemeKind.BASELINE),
    ):
        assert scheme_from_json(scheme_to_json(scheme)) == scheme


@pytest.mark.parametrize(
    "bad",
    [
        {"kind": "warp-drive"},
        {"kind": "sw", "entries_per_thread": "three"},
        {"kind": "sw", "entries_per_thread": 0},
        {"kind": "sw", "split_lrf": "yes"},
        {"kind": "sw", "bogus_field": 1},
        "sw",
    ],
)
def test_scheme_rejects_bad_json(bad):
    with pytest.raises(BadRequest):
        scheme_from_json(bad)


# -- warp codec ------------------------------------------------------------


def test_warps_from_json_builds_inputs():
    inputs = warps_from_json(
        [{"live_in": {"R2": 5, "R1": 2.5}, "max_instructions": 1000}]
    )
    assert len(inputs) == 1
    values = {str(reg): val for reg, val in inputs[0].live_in_values.items()}
    assert values == {"R2": 5, "R1": 2.5}
    assert inputs[0].max_instructions == 1000


@pytest.mark.parametrize(
    "bad",
    [
        [],
        [{"live_in": {"XYZ": 1}}],
        [{"live_in": {"R0": "zero"}}],
        [{"max_instructions": 0}],
        [{"unknown": True}],
        [{}] * 65,
    ],
)
def test_warps_rejects_bad_json(bad):
    with pytest.raises(BadRequest):
        warps_from_json(bad)


# -- normalisation ---------------------------------------------------------


def test_normalize_benchmark_request():
    job = normalize_request(
        "evaluate",
        {"benchmark": "VectorAdd", "scale": 2, "scheme": SW_JSON},
    )
    assert job.op == "evaluate"
    assert job.payload["benchmark"] == "vectoradd"
    assert job.payload["scale"] == 2.0


def test_body_key_is_the_routing_hash():
    """The ring position of every request depends on this formula."""
    body = json.dumps({"benchmark": "vectoradd"}).encode("utf-8")
    assert body_key("evaluate", body) == hashlib.sha256(
        b"evaluate\0" + body
    ).hexdigest()
    assert body_key("allocate", body) != body_key("evaluate", body)
    assert body_key("evaluate", body + b" ") != body_key("evaluate", body)


def test_normalize_fingerprint_dedups_respellings():
    """Two textual spellings of one kernel share a fingerprint; any
    semantic difference splits it."""
    base = {"kernel": LOADGEN_KERNEL, "scheme": SW_JSON}
    respelled = {
        # Extra comments and blank lines; same kernel content.
        "kernel": "# a comment\n" + LOADGEN_KERNEL.replace(
            "entry:", "entry:\n\n"
        ),
        "scheme": dict(SW_JSON),
    }
    fp = normalize_request("evaluate", base).fingerprint
    assert fp == normalize_request("evaluate", respelled).fingerprint
    # Lower-case register names, bracketed operands and hex immediates.
    for kernel in (
        LOADGEN_KERNEL.replace("R", "r").replace("P0", "p0"),
        LOADGEN_KERNEL.replace("ffma R4, R3, R1, R2",
                               "ffma [R4], [R3], R1, [ R2 ]"),
        LOADGEN_KERNEL.replace("iadd R0, R0, 4", "iadd R0, R0, 0x4")
        .replace("mov R5, 0", "mov R5, 0X0"),
    ):
        assert kernel != LOADGEN_KERNEL
        assert fp == normalize_request(
            "evaluate", {"kernel": kernel, "scheme": SW_JSON}
        ).fingerprint
    other_scheme = dict(SW_JSON, entries_per_thread=4)
    assert fp != normalize_request(
        "evaluate", {"kernel": LOADGEN_KERNEL, "scheme": other_scheme}
    ).fingerprint
    assert fp != normalize_request(
        "evaluate",
        {
            "kernel": LOADGEN_KERNEL,
            "warps": [{"live_in": {"R2": 9}}],
            "scheme": SW_JSON,
        },
    ).fingerprint
    assert fp != normalize_request(
        "allocate", {"kernel": LOADGEN_KERNEL, "scheme": SW_JSON}
    ).fingerprint


@pytest.mark.parametrize(
    "body,fault",
    [
        ({}, BadRequest),
        ({"kernel": "x", "benchmark": "vectoradd"}, BadRequest),
        ({"benchmark": "nope"}, BadRequest),
        ({"benchmark": "vectoradd", "scale": -1}, BadRequest),
        ({"benchmark": "vectoradd", "warps": [{}]}, BadRequest),
        ({"kernel": LOADGEN_KERNEL, "scale": 2.0}, BadRequest),
        ({"kernel": "definitely not asm\n"}, ParseError),
        ({"kernel": ".kernel a\nentry:\n exit\n.kernel b\nentry:\n exit\n"},
         ParseError),
        ({"kernel": LOADGEN_KERNEL, "unknown_field": 1}, BadRequest),
    ],
)
def test_normalize_rejects_bad_requests(body, fault):
    with pytest.raises(fault):
        normalize_request("evaluate", body)


def test_allocate_requires_software_scheme():
    with pytest.raises(BadRequest):
        normalize_request(
            "allocate",
            {"kernel": LOADGEN_KERNEL, "scheme": {"kind": "hw"}},
        )
    with pytest.raises(BadRequest):
        normalize_request(
            "allocate",
            {"kernel": LOADGEN_KERNEL, "warps": [{}], "scheme": SW_JSON},
        )


# -- pipeline equivalence --------------------------------------------------


def test_evaluate_job_matches_direct_engine_path():
    job = normalize_request(
        "evaluate",
        {"benchmark": "vectoradd", "scale": 1.0, "scheme": SW_JSON},
    )
    result = run_service_job(job.payload)
    spec = get_workload("vectoradd", 1.0)
    traces = build_traces(spec.kernel, spec.warp_inputs)
    direct = record_payload(
        evaluate_traces(traces, scheme_from_json(SW_JSON))
    )
    assert json.dumps(result["record"], sort_keys=True) == json.dumps(
        direct, sort_keys=True
    )


def test_evaluate_text_kernel_job():
    job = normalize_request(
        "evaluate",
        {
            "kernel": LOADGEN_KERNEL,
            "warps": [{"live_in": {"R1": 2, "R2": 5}}],
            "scheme": SW_JSON,
        },
    )
    result = run_service_job(job.payload)
    assert result["kernel"] == "svc_saxpy"
    assert result["record"]["dynamic_instructions"] > 0


def test_allocate_job_annotations_apply_cleanly():
    job = normalize_request(
        "allocate", {"kernel": LOADGEN_KERNEL, "scheme": SW_JSON}
    )
    result = run_service_job(job.payload)
    assert result["summary"]["strands"] >= 1
    assert result["strands"]
    # The returned annotation document round-trips onto a fresh parse
    # of the same kernel — the 'ship it next to the binary' contract.
    kernel = parse_kernel(LOADGEN_KERNEL)
    annotations_from_dict(kernel, result["annotations"])


def test_loadgen_plan_is_mixed_and_deterministic():
    plan = build_plan(96, 8)
    assert len(plan) == 96
    assert plan == build_plan(96, 8)
    ops = {spec["op"] for spec in plan}
    assert ops == {"evaluate", "allocate"}
    assert any(spec["expect"] == 400 for spec in plan)
    assert sum(1 for spec in plan if spec["expect"] == 200) > 80
    # The seed block is identical so in-flight dedup has a target.
    assert plan[0] == plan[1]
