"""Loadgen's checks and its warm-phase stopping rule.

Every 200 is either the single computation of its fingerprint or a
dedup hit, so ``hits >= 200 responses - distinct valid fingerprints``.
The floor is checked on synthetic counters, then end to end: a small
verified plan against one server must pass with the hits exactly at
the floor.  The default rule takes at least three warm runs.  Last,
``repro bench diff`` must still read the committed report against a
fresh schema-6 payload.
"""

import json
from pathlib import Path

from repro.bench import CiHalfWidthRule
from repro.cli import main
from repro.service import loadgen
from repro.service.loadgen import (
    _dedup_delta,
    _dedup_payload,
    run_loadgen,
    write_loadgen,
)

from tests.service.test_server import running_server

COUNTERS = ("inflight_dedup_hits", "service_memo_hits", "service_disk_hits")

#: The committed loadgen report, as ``repro loadgen`` writes it (schema 6).
COMMITTED_BENCH = Path(__file__).resolve().parents[2] / "BENCH_service.json"


def small_run_options():
    return dict(
        requests=24,
        concurrency=4,
        benchmarks=("vectoradd",),
        rule=CiHalfWidthRule(min_repeats=2, max_repeats=2, seed=0),
    )


def test_dedup_floor_on_synthetic_counters():
    before = {"counters": {"service_memo_hits": 5, "http_requests": 9}}
    after = {
        "counters": {
            "inflight_dedup_hits": 3,
            "service_memo_hits": 45,
            "service_disk_hits": 2,
            "http_requests": 90,
        }
    }
    delta = _dedup_delta(before, after)
    assert delta == dict(zip(COUNTERS, (3, 40, 2)))

    dedup = _dedup_payload(delta, ok_responses=60, distinct=15)
    assert dedup["total_hits"] == dedup["floor"] == 45
    assert dedup["rate"] == 0.75

    # One fingerprint computed twice leaves the hits one short of the
    # floor.
    short = _dedup_payload(
        dict(delta, service_memo_hits=39), ok_responses=60, distinct=15
    )
    assert short["total_hits"] == short["floor"] - 1

    # Fewer successes than fingerprints: nothing had to dedup.
    assert _dedup_payload(
        dict.fromkeys(COUNTERS, 0), ok_responses=5, distinct=15
    )["floor"] == 0


def test_single_server_run_verifies_and_meets_dedup_floor():
    with running_server() as server:
        payload = run_loadgen(port=server.port, **small_run_options())

    assert payload["ok"], payload
    assert payload["dropped"] == payload["unexpected_statuses"] == 0
    # A fresh server computes each fingerprint exactly once.
    assert payload["dedup"]["total_hits"] == payload["dedup"]["floor"]
    assert payload["verify"]["compared"] > 0
    assert payload["verify"]["mismatches"] == 0
    assert payload["schema"] == 6
    assert "role" not in payload


def test_default_rule_takes_three_warm_runs_of_equal_wall_time(
    monkeypatch,
):
    async def same_wall(clients, plan):
        return [
            {"status": spec["expect"], "latency_s": 0.001, "payload": {}}
            for spec in plan
        ], 1.0

    monkeypatch.setattr(loadgen, "_run_phase", same_wall)
    with running_server() as server:
        payload = run_loadgen(
            port=server.port, requests=8, concurrency=2, verify=False
        )
    warm = payload["bench"]["metrics"]["warm_requests_per_s"]
    assert len(payload["phases"]["warm_runs"]) == warm["repeats"] == 3
    assert warm["stop_reason"] == "ci_half_width"


def test_bench_diff_reads_committed_report_against_schema_6(
    tmp_path, capsys
):
    with running_server() as server:
        payload = run_loadgen(
            port=server.port, verify=False, **small_run_options()
        )
    fresh = write_loadgen(str(tmp_path / "BENCH_service.json"), payload)
    assert json.loads(Path(fresh).read_text())["schema"] == 6
    code = main(["bench", "diff", str(COMMITTED_BENCH), fresh])
    assert code in (0, 1), capsys.readouterr()
    assert "dedup_rate" in capsys.readouterr().out
