"""Loadgen's dedup floor: the check that routing keeps dedup.

Every 200 is either the single computation of its fingerprint or a
dedup hit, so ``hits >= 200 responses - distinct valid fingerprints``
holds on one server and on a cluster alike.  The floor is checked on
synthetic counters, then end to end: the same small plan against an
in-process 2-shard cluster and against one server must both pass and
report the same dedup rate.  Last, ``repro bench diff`` must still read
the committed report against a fresh schema-5 payload.
"""

import json
from pathlib import Path

from repro.bench import CiHalfWidthRule
from repro.cli import main
from repro.service.loadgen import (
    _dedup_delta,
    _dedup_payload,
    run_loadgen,
    write_loadgen,
)

from tests.service.test_cluster import running_cluster
from tests.service.test_server import running_server

COUNTERS = ("inflight_dedup_hits", "service_memo_hits", "service_disk_hits")

#: The committed loadgen report, as ``repro loadgen`` writes it (schema 5).
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

    # One fingerprint computed twice (say, split across two shards)
    # leaves the hits one short of the floor.
    short = _dedup_payload(
        dict(delta, service_memo_hits=39), ok_responses=60, distinct=15
    )
    assert short["total_hits"] == short["floor"] - 1

    # Fewer successes than fingerprints: nothing had to dedup.
    assert _dedup_payload(
        dict.fromkeys(COUNTERS, 0), ok_responses=5, distinct=15
    )["floor"] == 0


def test_cluster_run_is_ok_with_single_server_dedup_rate():
    options = small_run_options()
    with running_cluster(num_shards=2) as (coordinator, _):
        clustered = run_loadgen(port=coordinator.port, **options)
    with running_server() as server:
        single = run_loadgen(port=server.port, verify=False, **options)

    assert clustered["role"] == "coordinator"
    assert single["role"] == "server"
    for payload in (clustered, single):
        assert payload["ok"], payload
        assert payload["dropped"] == payload["unexpected_statuses"] == 0
        # Fresh servers compute each fingerprint exactly once.
        assert payload["dedup"]["total_hits"] == payload["dedup"]["floor"]
    assert clustered["verify"]["compared"] > 0
    assert clustered["verify"]["mismatches"] == 0
    assert clustered["dedup"]["rate"] == single["dedup"]["rate"]
    assert clustered["schema"] == single["schema"] == 5
    for key in ("shards", "cluster", "baseline", "comparison"):
        assert key not in clustered


def test_bench_diff_reads_committed_report_against_schema_5(
    tmp_path, capsys
):
    with running_server() as server:
        payload = run_loadgen(
            port=server.port, verify=False, **small_run_options()
        )
    fresh = write_loadgen(str(tmp_path / "BENCH_service.json"), payload)
    assert json.loads(Path(fresh).read_text())["schema"] == 5
    code = main(["bench", "diff", str(COMMITTED_BENCH), fresh])
    assert code in (0, 1), capsys.readouterr()
    assert "dedup_rate" in capsys.readouterr().out
