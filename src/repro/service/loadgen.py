"""Load generator and benchmark for the allocation service.

Builds a deterministic mixed plan — evaluate requests over registry
benchmarks × schemes (with deliberate repeats so dedup has something
to hit), IR-text allocate/evaluate requests, and a sprinkle of invalid
requests that must come back 400 — then fires it twice (cold, then
warm through the server's result memo) from ``concurrency`` persistent
async connections.  Connections are opened *before* the first phase
starts and reused across both phases, so connection-setup noise never
lands inside a measured percentile.

Measures per-request latency (p50/p95/p99), throughput, dedup hit rate
(in-flight + memo + disk, as a delta over the server's counters), and
verifies that every unique successful response is byte-identical to
the direct engine path (:func:`repro.service.pipeline.run_service_job`
in this process).  Writes the whole payload to ``BENCH_service.json``.

The target is one ``repro serve``; the dedup counters are deltas of
its ``/metrics``.  The run is ``ok`` only if the dedup hits reach the
exact floor ``200 responses − distinct valid fingerprints in the
plan``: every repeat of a fingerprint was served without recomputing
it.

Schema history: schema 2 added ``p95_ms``; schema 3 added the
sharded-mode ``cluster`` / ``baseline`` / ``comparison`` sections and
the ``shards`` field; schema 4 made the warm phase adaptive — the plan
re-fires against the warm server until a statistical stopping rule
(:mod:`repro.bench`) says the throughput samples are stable — and
added the shared ``"bench"`` section plus a ``phases.warm_runs`` list
of per-run stats (``phases.warm`` is the merge over all warm runs);
schema 5 dropped the schema-3 sharded-mode keys and added ``role`` and
``dedup.floor``; **schema 6** drops ``role``, since one server is the
only target.

Each request runs under **one** ``loadgen.request`` span carrying
``status`` and ``retries`` attributes: the client-side 429/503 retry
loop happens inside the span, so a retried request is one span with
``retries >= 1``, never two spans.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, List, Optional, Tuple

from ..bench import (
    CiHalfWidthRule,
    bench_section,
    metric_from_samples,
    write_report,
)
from ..obs.exporters import write_chrome_trace
from ..obs.tracer import TRACER
from .client import AsyncServiceClient, ServiceClient
from .pipeline import run_service_job
from .protocol import ServiceJob, normalize_request

BENCH_SCHEMA = 6

DEFAULT_BENCHMARKS = ("vectoradd", "reduction", "matrixmul", "histogram")

_SCHEMES = (
    {"kind": "sw_lrf", "entries_per_thread": 3, "split_lrf": True},
    {"kind": "sw", "entries_per_thread": 3},
    {"kind": "hw", "entries_per_thread": 3},
    {"kind": "baseline"},
)

#: A small hand-written kernel exercising the IR-text path.
LOADGEN_KERNEL = """\
.kernel svc_saxpy
.livein R0 R1 R2
entry:
    mov R5, 0
loop:
    ldg R3, [R0]
    ffma R4, R3, R1, R2
    iadd R5, R5, R4
    stg [R0], R4
    iadd R0, R0, 4
    iadd R2, R2, -1
    setp P0, 0, R2
    @P0 bra loop
done:
    exit
"""

_INVALID_BODIES = (
    {"kernel": "this is not assembly\n"},
    {"benchmark": "no-such-benchmark"},
    {"benchmark": "vectoradd", "scheme": {"kind": "warp-drive"}},
)

#: Response fields added by the serving tier, not the computation.
_ENVELOPE_KEYS = ("fingerprint", "served_from")


def build_plan(
    total: int,
    concurrency: int,
    benchmarks=DEFAULT_BENCHMARKS,
) -> List[Dict[str, Any]]:
    """A deterministic mixed request plan of exactly ``total`` specs."""
    plan: List[Dict[str, Any]] = []

    def evaluate_spec(body: Dict[str, Any]) -> Dict[str, Any]:
        return {"op": "evaluate", "body": body, "expect": 200}

    # Seed the front of the plan with one identical request repeated
    # across the full concurrency width: on a cold server these race,
    # which is precisely what in-flight dedup exists for.
    seed_body = {
        "benchmark": benchmarks[0],
        "scale": 1.0,
        "scheme": _SCHEMES[0],
    }
    for _ in range(min(max(concurrency, 2), total)):
        plan.append(evaluate_spec(dict(seed_body)))

    index = 0
    while len(plan) < total:
        slot = len(plan)
        if slot % 16 == 7:
            body = dict(_INVALID_BODIES[index % len(_INVALID_BODIES)])
            plan.append({"op": "evaluate", "body": body, "expect": 400})
        elif slot % 8 == 3:
            plan.append(
                {
                    "op": "allocate",
                    "body": {
                        "kernel": LOADGEN_KERNEL,
                        "scheme": {
                            "kind": "sw_lrf",
                            "entries_per_thread": 1 + index % 4,
                            "split_lrf": True,
                        },
                    },
                    "expect": 200,
                }
            )
        elif slot % 8 == 5:
            plan.append(
                evaluate_spec(
                    {
                        "kernel": LOADGEN_KERNEL,
                        "warps": [
                            {"live_in": {"R1": 2, "R2": 4 + index % 3}}
                        ],
                        "scheme": _SCHEMES[index % 2],
                    }
                )
            )
        else:
            # Stride the scheme index so every benchmark meets every
            # scheme instead of locking to one (benchmark, scheme) pair
            # per residue class.
            body = {
                "benchmark": benchmarks[index % len(benchmarks)],
                "scale": 1.0,
                "scheme": _SCHEMES[
                    (index // len(benchmarks)) % len(_SCHEMES)
                ],
            }
            plan.append(evaluate_spec(body))
        index += 1
    return plan


async def _run_phase(
    clients: List[AsyncServiceClient],
    plan: List[Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], float]:
    """Fire the plan over pre-connected clients; returns
    (per-request results, wall seconds)."""
    results: List[Optional[Dict[str, Any]]] = [None] * len(plan)
    queue: "asyncio.Queue[int]" = asyncio.Queue()
    for index in range(len(plan)):
        queue.put_nowait(index)

    async def worker(client: AsyncServiceClient) -> None:
        while True:
            try:
                index = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            spec = plan[index]
            started = time.perf_counter()
            # One span per logical request: the retry loop runs inside
            # it, so a retried request is a single span with its final
            # status and a ``retries`` count, never multiple spans.
            with TRACER.span(
                "loadgen.request", op=spec["op"], index=index
            ) as span:
                try:
                    status, payload, retries = (
                        await client.request_with_retries(
                            "POST", f"/v1/{spec['op']}", spec["body"]
                        )
                    )
                    results[index] = {
                        "status": status,
                        "latency_s": time.perf_counter() - started,
                        "payload": payload,
                        "retries": retries,
                    }
                    if span is not None:
                        span.attributes["status"] = status
                        span.attributes["retries"] = retries
                except Exception as error:  # noqa: BLE001 - recorded
                    results[index] = {
                        "status": None,
                        "latency_s": time.perf_counter() - started,
                        "error": f"{type(error).__name__}: {error}",
                    }
                    if span is not None:
                        span.attributes["status"] = None
                        span.attributes["error"] = type(error).__name__

    started = time.perf_counter()
    await asyncio.gather(
        *[worker(client) for client in clients], return_exceptions=True
    )
    wall = time.perf_counter() - started
    # Index-aligned with the plan; anything a crashed worker left
    # behind counts as dropped.
    filled = [
        result
        if result is not None
        else {"status": None, "latency_s": 0.0, "error": "not executed"}
        for result in results
    ]
    return filled, wall


async def _run_phases(
    host: str,
    port: int,
    plan: List[Dict[str, Any]],
    concurrency: int,
    timeout: float,
    rule: Optional[CiHalfWidthRule] = None,
    retries: int = 0,
) -> Tuple[
    Tuple[List[Dict[str, Any]], float],
    List[Tuple[List[Dict[str, Any]], float]],
    str,
]:
    """Run the plan cold once, then warm adaptively.

    All phases share one set of keep-alive connections, opened before
    the first phase's clock starts.  The warm phase re-fires the whole
    plan until ``rule`` declares the per-run throughput samples stable
    (exactly one warm run when ``rule`` is ``None``).  Returns
    ``(cold, warm_runs, warm_stop_reason)``.
    """
    clients = [
        AsyncServiceClient(
            host, port, timeout=timeout,
            retries=retries, backoff_seed=index,
        )
        for index in range(concurrency)
    ]
    try:
        for client in clients:
            try:
                await client.connect()
            except OSError:
                pass  # workers reconnect lazily; failures get recorded
        cold = await _run_phase(clients, plan)
        warm_runs = [await _run_phase(clients, plan)]
        stop_reason = "fixed_repeats"
        if rule is not None:
            samples = [
                len(plan) / max(wall, 1e-9) for _, wall in warm_runs
            ]
            reason = rule.check(samples)
            while reason is None:
                warm_runs.append(await _run_phase(clients, plan))
                samples.append(
                    len(plan) / max(warm_runs[-1][1], 1e-9)
                )
                reason = rule.check(samples)
            stop_reason = reason
        return cold, warm_runs, stop_reason
    finally:
        for client in clients:
            await client.close()


def _merge_warm(
    warm_runs: List[Tuple[List[Dict[str, Any]], float]]
) -> Tuple[List[Dict[str, Any]], float]:
    """All warm runs as one result list plus the summed wall time."""
    merged = [
        result for results, _ in warm_runs for result in results
    ]
    return merged, sum(wall for _, wall in warm_runs)


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[index]


def _latency_summary(latencies: List[float]) -> Dict[str, float]:
    ordered = sorted(latencies)
    return {
        "p50_ms": round(_percentile(ordered, 0.50) * 1e3, 3),
        "p95_ms": round(_percentile(ordered, 0.95) * 1e3, 3),
        "p99_ms": round(_percentile(ordered, 0.99) * 1e3, 3),
    }


def _phase_stats(
    results: List[Dict[str, Any]], wall: float
) -> Dict[str, Any]:
    latencies = [
        result["latency_s"]
        for result in results
        if result["status"] is not None
    ]
    return {
        "requests": len(results),
        "wall_s": round(wall, 6),
        "requests_per_s": round(len(results) / wall, 2) if wall else 0.0,
        **_latency_summary(latencies),
    }


_DEDUP_COUNTERS = (
    "inflight_dedup_hits",
    "service_memo_hits",
    "service_disk_hits",
)


def _dedup_delta(before: Dict, after: Dict) -> Dict[str, int]:
    def counters(snapshot: Dict) -> Dict[str, int]:
        return snapshot.get("counters", {})

    return {
        name: counters(after).get(name, 0) - counters(before).get(name, 0)
        for name in _DEDUP_COUNTERS
    }


def _dedup_payload(
    counters: Dict[str, int], ok_responses: int, distinct: int
) -> Dict[str, Any]:
    """Dedup counters, hit rate, and the exact floor the hits must reach.

    Each 200 is either the one computation of its fingerprint or a
    dedup hit, so ``hits >= ok_responses - distinct`` (``distinct``
    valid fingerprints in the plan).
    """
    hits = sum(counters.values())
    return {
        **counters,
        "total_hits": hits,
        "floor": max(0, ok_responses - distinct),
        "rate": round(hits / ok_responses, 4) if ok_responses else 0.0,
    }


def _verify_results(
    jobs: Dict[int, ServiceJob],
    responses: Dict[int, Dict[str, Any]],
) -> Dict[str, int]:
    """Recompute each unique successful request through the direct
    engine path and demand byte-identical result payloads."""
    compared = 0
    mismatches = 0
    seen = set()
    for index, job in jobs.items():
        response = responses.get(index)
        if response is None or job.fingerprint in seen:
            continue
        seen.add(job.fingerprint)
        local = run_service_job(job.payload)
        remote = {
            key: value
            for key, value in response.items()
            if key not in _ENVELOPE_KEYS
        }
        compared += 1
        if json.dumps(local, sort_keys=True) != json.dumps(
            remote, sort_keys=True
        ):
            mismatches += 1
    return {"compared": compared, "mismatches": mismatches}


def _tally(
    plan: List[Dict[str, Any]],
    phase_results: List[List[Dict[str, Any]]],
) -> Tuple[int, int, Dict[str, int], int]:
    """(dropped, unexpected, status_counts, ok_responses).

    ``phase_results`` is one plan-aligned result list per executed
    phase (cold plus every warm run).
    """
    all_results = [r for results in phase_results for r in results]
    dropped = sum(1 for r in all_results if r["status"] is None)
    unexpected = 0
    status_counts: Dict[str, int] = {}
    for results in phase_results:
        for index, result in enumerate(results):
            status = result["status"]
            status_counts[str(status)] = (
                status_counts.get(str(status), 0) + 1
            )
            if status is not None and status != plan[index]["expect"]:
                unexpected += 1
    ok_responses = sum(1 for r in all_results if r["status"] == 200)
    return dropped, unexpected, status_counts, ok_responses


# -- entry points ----------------------------------------------------------


def run_loadgen(
    host: str = "127.0.0.1",
    port: int = 8077,
    *,
    requests: int = 300,
    concurrency: int = 8,
    timeout: float = 60.0,
    benchmarks=DEFAULT_BENCHMARKS,
    verify: bool = True,
    trace_out: Optional[str] = None,
    rule: Optional[CiHalfWidthRule] = None,
    retries: int = 0,
) -> Dict[str, Any]:
    """Drive a running service and return the benchmark payload.

    ``rule`` (default: a bootstrap-CI repeater, 3..6 runs, 5% target)
    governs how many times the warm phase re-fires the plan; pass an
    explicit rule to tighten or loosen the stability bar.
    """
    if rule is None:
        rule = CiHalfWidthRule(max_repeats=6)
    if trace_out:
        TRACER.configure(enabled=True)
    plan = build_plan(requests, concurrency, benchmarks)
    jobs = {
        index: normalize_request(spec["op"], spec["body"])
        for index, spec in enumerate(plan)
        if spec["expect"] == 200
    }
    control = ServiceClient(host, port, timeout=timeout)
    before = control.metrics()

    (cold_results, cold_wall), warm_runs, warm_stop = asyncio.run(
        _run_phases(
            host, port, plan, concurrency, timeout,
            rule=rule, retries=retries,
        )
    )
    warm_results, warm_wall = _merge_warm(warm_runs)

    dropped, unexpected, status_counts, ok_responses = _tally(
        plan, [cold_results] + [results for results, _ in warm_runs]
    )

    dedup = _dedup_payload(
        _dedup_delta(before, control.metrics()),
        ok_responses,
        distinct=len({job.fingerprint for job in jobs.values()}),
    )

    verification = {"compared": 0, "mismatches": 0}
    if verify:
        first_ok: Dict[int, Dict[str, Any]] = {}
        for index, result in enumerate(cold_results):
            if result["status"] == 200:
                first_ok[index] = result["payload"]
        verification = _verify_results(jobs, first_ok)

    warm_run_stats = [
        _phase_stats(results, wall) for results, wall in warm_runs
    ]
    payload = {
        "schema": BENCH_SCHEMA,
        "requests": requests,
        "concurrency": concurrency,
        "phases": {
            "cold": _phase_stats(cold_results, cold_wall),
            "warm": _phase_stats(warm_results, warm_wall),
            "warm_runs": warm_run_stats,
        },
        "status_counts": dict(sorted(status_counts.items())),
        "dropped": dropped,
        "unexpected_statuses": unexpected,
        "dedup": dedup,
        "verify": verification,
    }
    metrics = {
        "cold_requests_per_s": metric_from_samples(
            "cold_requests_per_s",
            [payload["phases"]["cold"]["requests_per_s"]],
            unit="req/s",
            direction="higher",
            stop_reason="single_run",
        ),
        "warm_requests_per_s": metric_from_samples(
            "warm_requests_per_s",
            [stats["requests_per_s"] for stats in warm_run_stats],
            unit="req/s",
            direction="higher",
            rule=rule,
            stop_reason=warm_stop,
        ),
        "warm_p50_ms": metric_from_samples(
            "warm_p50_ms",
            [stats["p50_ms"] for stats in warm_run_stats],
            unit="ms",
            direction="lower",
            rule=rule,
            stop_reason=warm_stop,
        ),
        "warm_p99_ms": metric_from_samples(
            "warm_p99_ms",
            [stats["p99_ms"] for stats in warm_run_stats],
            unit="ms",
            direction="lower",
            rule=rule,
            stop_reason=warm_stop,
        ),
        "dedup_rate": metric_from_samples(
            "dedup_rate",
            [dedup["rate"]],
            unit="frac",
            direction="higher",
            comparable=True,
            stop_reason="derived",
        ),
    }
    payload["bench"] = bench_section("loadgen", metrics, rule=rule)
    payload["ok"] = (
        dropped == 0
        and unexpected == 0
        and verification["mismatches"] == 0
        and dedup["total_hits"] >= dedup["floor"]
    )
    if trace_out:
        write_chrome_trace(trace_out, TRACER.drain())
    return payload


def write_loadgen(path: str, payload: Dict[str, Any]) -> str:
    return str(write_report(path, payload))


def _format_phase_rows(
    lines: List[str], phases: Dict[str, Any]
) -> None:
    for name in ("cold", "warm"):
        stats = phases[name]
        lines.append(
            f"{name:>6}{stats['requests']:>7}{stats['wall_s']:>9.2f}"
            f"{stats['requests_per_s']:>9.1f}{stats['p50_ms']:>9.2f}"
            f"{stats.get('p95_ms', 0.0):>9.2f}"
            f"{stats['p99_ms']:>9.2f}"
        )


def format_loadgen(payload: Dict[str, Any]) -> str:
    dedup = payload["dedup"]
    verify = payload["verify"]
    lines = [
        "service loadgen "
        f"({payload['requests']} requests x2 phases, "
        f"concurrency {payload['concurrency']})",
        f"{'phase':>6}{'reqs':>7}{'wall s':>9}{'req/s':>9}"
        f"{'p50 ms':>9}{'p95 ms':>9}{'p99 ms':>9}",
    ]
    _format_phase_rows(lines, payload["phases"])
    lines.append(
        f"dropped={payload['dropped']} "
        f"unexpected={payload['unexpected_statuses']} "
        f"statuses={payload['status_counts']}"
    )
    lines.append(
        "dedup: "
        + " ".join(f"{k}={dedup[k]}" for k in _DEDUP_COUNTERS)
        + f" rate={dedup['rate']:.2%} "
        f"(hits {dedup['total_hits']}, floor {dedup['floor']})"
    )
    lines.append(
        f"verify: {verify['compared']} compared, "
        f"{verify['mismatches']} mismatches"
    )
    bench = payload.get("bench")
    if bench is not None:
        warm = bench["metrics"].get("warm_requests_per_s")
        if warm is not None:
            lines.append(
                f"warm throughput: median {warm['median']:.1f} req/s "
                f"over {warm['repeats']} run(s) "
                f"(ci [{warm['ci'][0]:.1f}, {warm['ci'][1]:.1f}], "
                f"stop: {warm['stop_reason']})"
            )
    lines.append("RESULT: " + ("ok" if payload["ok"] else "FAILED"))
    return "\n".join(lines)
