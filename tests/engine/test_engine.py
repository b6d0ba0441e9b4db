"""Unit tests for the experiment engine: hashing, records, cache,
memoization, metrics, and serial/parallel prefetch determinism."""

import json
import os
import pickle

import pytest

from repro.engine import ExperimentEngine
from repro.engine.cache import DiskCache
from repro.engine.hashing import (
    dataclass_fingerprint,
    digest,
    traceset_fingerprint,
    warp_inputs_fingerprint,
)
from repro.engine.metrics import RunMetrics
from repro.engine.records import (
    evaluation_from_payload,
    record_key,
    record_payload,
    trace_payload_is_valid,
    traceset_from_payload,
    traceset_to_payload,
)
from repro.sim.runner import build_traces, evaluate_traces
from repro.sim.schemes import BEST_SCHEME, Scheme, SchemeKind
from repro.workloads.suites import get_workload

SW = Scheme(SchemeKind.SW_THREE_LEVEL, 3, split_lrf=True)
HW = Scheme(SchemeKind.HW_TWO_LEVEL, 3)


@pytest.fixture(scope="module")
def spec():
    return get_workload("vectoradd")


@pytest.fixture(scope="module")
def traces(spec):
    return build_traces(spec.kernel, spec.warp_inputs)


# -- hashing ---------------------------------------------------------------


def test_digest_is_order_sensitive():
    assert digest("a", "b") != digest("b", "a")
    assert digest("a", "b") != digest("ab")


def test_kernel_fingerprint_ignores_annotations(spec):
    before = spec.kernel.content_fingerprint()
    clone = spec.kernel.clone()
    for _, instruction in clone.instructions():
        instruction.ensure_default_annotations()
        instruction.ends_strand = True
    assert clone.content_fingerprint() == before


def test_traceset_fingerprint_is_stable(spec, traces):
    again = build_traces(spec.kernel, spec.warp_inputs)
    assert traceset_fingerprint(traces) == traceset_fingerprint(again)
    other_spec = get_workload("scalarprod")
    other = build_traces(other_spec.kernel, other_spec.warp_inputs)
    assert traceset_fingerprint(traces) != traceset_fingerprint(other)


def test_warp_inputs_fingerprint_distinguishes_inputs(spec):
    fp = warp_inputs_fingerprint(spec.warp_inputs)
    assert fp == warp_inputs_fingerprint(spec.warp_inputs)
    assert fp != warp_inputs_fingerprint(spec.warp_inputs[:1])


def test_scheme_fingerprint_distinguishes_schemes():
    assert dataclass_fingerprint(SW) != dataclass_fingerprint(HW)
    assert dataclass_fingerprint(SW) == dataclass_fingerprint(
        Scheme(SchemeKind.SW_THREE_LEVEL, 3, split_lrf=True)
    )


# -- record round-trip -----------------------------------------------------


def test_record_payload_round_trip(traces):
    evaluation = evaluate_traces(traces, SW)
    payload = record_payload(evaluation)
    json.dumps(payload)  # must be JSON-serializable
    restored = evaluation_from_payload(payload, SW)
    assert restored.counters == evaluation.counters
    assert restored.baseline == evaluation.baseline
    assert restored.dynamic_instructions == evaluation.dynamic_instructions
    assert restored.kernel_name == evaluation.kernel_name
    assert restored.allocation is None


def test_traceset_payload_round_trip(spec, traces):
    payload = traceset_to_payload(traces)
    blob = pickle.loads(pickle.dumps(payload))
    assert trace_payload_is_valid(blob, spec.kernel)
    restored = traceset_from_payload(spec.kernel, blob)
    assert traceset_fingerprint(restored) == traceset_fingerprint(traces)
    # A different kernel rejects the payload instead of mislabelling it.
    other = get_workload("scalarprod").kernel
    assert not trace_payload_is_valid(blob, other)


# -- disk cache ------------------------------------------------------------


def test_disk_cache_json_round_trip(tmp_path):
    cache = DiskCache(str(tmp_path))
    assert cache.get_json("records", "k1") is None
    cache.put_json("records", "k1", {"a": 1})
    assert cache.get_json("records", "k1") == {"a": 1}


def test_disk_cache_max_bytes_prunes_oldest(tmp_path):
    cache = DiskCache(str(tmp_path), max_bytes=400)
    for index in range(8):
        cache.put_json("records", f"key{index:02d}", {"v": "x" * 80})
        # Backdate in insertion order so "oldest" is unambiguous even
        # on filesystems with coarse mtimes.
        path = cache._path("records", f"key{index:02d}", "json")
        os.utime(path, (1_000_000 + index, 1_000_000 + index))
        cache._prune()
    total = sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(tmp_path)
        for name in names
    )
    assert total <= 400
    # The newest entry always survives; the oldest were evicted.
    assert cache.get_json("records", "key07") == {"v": "x" * 80}
    assert cache.get_json("records", "key00") is None


def test_disk_cache_max_bytes_validation(tmp_path):
    with pytest.raises(ValueError):
        DiskCache(str(tmp_path), max_bytes=0)
    # Uncapped cache never prunes.
    cache = DiskCache(str(tmp_path))
    cache.put_json("records", "k", {"a": 1})
    assert cache.get_json("records", "k") == {"a": 1}


def test_disk_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = DiskCache(str(tmp_path))
    cache.put_json("records", "deadbeef", {"a": 1})
    path = tmp_path / "records" / "de" / "deadbeef.json"
    path.write_text("{not json")
    assert cache.get_json("records", "deadbeef") is None
    assert not path.exists()  # corrupt entry removed
    cache.put_json("records", "deadbeef", {"a": 2})
    assert cache.get_json("records", "deadbeef") == {"a": 2}


def test_disk_cache_counts_the_corrupt_entries_it_drops(tmp_path):
    metrics = RunMetrics()
    cache = DiskCache(str(tmp_path), metrics=metrics)
    cache.put_json("records", "ab01", {"a": 1})
    cache.put_pickle("traces", "cd02", {"b": [1, 2, 3]})
    json_path = tmp_path / "records" / "ab" / "ab01.json"
    pickle_path = tmp_path / "traces" / "cd" / "cd02.pkl"
    json_path.write_bytes(json_path.read_bytes()[:-3])  # torn record
    pickle_path.write_bytes(b"\x00garbage, not a pickle")

    assert cache.get_json("records", "ab01") is None
    assert cache.get_pickle("traces", "cd02") is None
    assert not json_path.exists() and not pickle_path.exists()
    assert metrics.counters["disk_cache_corrupt_entries"] == 2
    # A plain miss is not a corrupt entry.
    assert cache.get_json("records", "ef03") is None
    assert metrics.counters["disk_cache_corrupt_entries"] == 2
    # An engine hands its own metrics to its cache.
    engine = ExperimentEngine(cache_dir=str(tmp_path / "engine"))
    assert engine.cache.metrics is engine.metrics


# -- engine memoization ----------------------------------------------------


def test_engine_evaluate_memoizes(traces):
    engine = ExperimentEngine()
    first = engine.evaluate(traces, SW)
    second = engine.evaluate(traces, SW)
    assert engine.metrics.counters["record_misses"] == 1
    assert engine.metrics.counters["record_memo_hits"] == 1
    assert first.counters == second.counters
    plain = evaluate_traces(traces, SW)
    assert first.counters == plain.counters
    assert first.baseline == plain.baseline


def test_engine_evaluate_batch_matches_per_scheme(traces):
    schemes = [
        Scheme(SchemeKind.SW_TWO_LEVEL, 2),
        SW,
        HW,
        Scheme(SchemeKind.BASELINE),
    ]
    batched = ExperimentEngine()
    batch = batched.evaluate_batch(traces, schemes)
    serial = ExperimentEngine()
    singles = [serial.evaluate(traces, s) for s in schemes]
    for got, want in zip(batch, singles):
        assert got.counters == want.counters
        assert got.baseline == want.baseline
        assert got.dynamic_instructions == want.dynamic_instructions
    # The batch filled the record memo; re-evaluating any scheme hits.
    before = dict(batched.metrics.counters)
    batched.evaluate(traces, schemes[0])
    assert (
        batched.metrics.counters["record_memo_hits"]
        > before.get("record_memo_hits", 0)
    )


def test_engine_counts_only_records_present_before_the_call(traces):
    """A fresh exhaustive tune reads back nothing it did not compute;
    the same tune on the warm engine is all hits."""
    from repro.tuner import run_tune
    from repro.tuner.space import default_space

    engine = ExperimentEngine()
    counters = engine.metrics.counters
    first = run_tune(
        traces, strategy="exhaustive", budget=320, engine=engine
    )
    distinct = first["evaluations"]["distinct"]
    assert distinct == len(list(default_space().assignments()))
    assert counters.get("record_memo_hits", 0) == 0
    assert counters["record_misses"] == distinct
    assert first["evaluations"]["fresh"] == distinct

    second = run_tune(
        traces, strategy="exhaustive", budget=320, engine=engine
    )
    assert counters["record_memo_hits"] == distinct
    assert counters["record_misses"] == distinct
    assert second["evaluations"]["fresh"] == 0


def test_engine_disk_cache_survives_restart(tmp_path, traces):
    first = ExperimentEngine(cache_dir=str(tmp_path))
    cold = first.evaluate(traces, SW)
    assert first.metrics.counters["record_misses"] == 1

    second = ExperimentEngine(cache_dir=str(tmp_path))
    warm = second.evaluate(traces, SW)
    assert second.metrics.counters.get("record_misses", 0) == 0
    assert second.metrics.counters["record_disk_hits"] == 1
    assert warm.counters == cold.counters
    assert warm.baseline == cold.baseline


def test_engine_build_traces_cache(tmp_path, spec, traces):
    engine = ExperimentEngine(cache_dir=str(tmp_path))
    cold = engine.build_traces(spec.kernel, spec.warp_inputs)
    assert engine.metrics.counters["trace_cache_misses"] == 1
    warm = engine.build_traces(spec.kernel, spec.warp_inputs)
    assert engine.metrics.counters["trace_cache_hits"] == 1
    assert traceset_fingerprint(cold) == traceset_fingerprint(traces)
    assert traceset_fingerprint(warm) == traceset_fingerprint(traces)


def test_memo_study(tmp_path):
    engine = ExperimentEngine(cache_dir=str(tmp_path))
    calls = []

    def compute():
        calls.append(1)
        return {"x": 1.5}

    assert engine.memo_study(("t", "a"), compute) == {"x": 1.5}
    assert engine.memo_study(("t", "a"), compute) == {"x": 1.5}
    assert len(calls) == 1
    # Fresh engine, same cache dir: served from disk.
    other = ExperimentEngine(cache_dir=str(tmp_path))
    assert other.memo_study(("t", "a"), compute) == {"x": 1.5}
    assert len(calls) == 1
    # Different key computes.
    assert other.memo_study(("t", "b"), compute) == {"x": 1.5}
    assert len(calls) == 2


# -- prefetch determinism --------------------------------------------------


def _record_snapshot(engine, items, schemes):
    return {
        record_key(traces, scheme): engine.evaluate(traces, scheme).counters
        for _, traces in items
        for scheme in schemes
    }


def test_prefetch_serial_vs_parallel_identical(spec, traces):
    items = [(spec, traces)]
    schemes = [SW, HW, BEST_SCHEME]

    serial = ExperimentEngine(jobs=1)
    serial.prefetch(items, schemes)
    parallel = ExperimentEngine(jobs=2)
    parallel.prefetch(items, schemes)

    assert _record_snapshot(serial, items, schemes) == _record_snapshot(
        parallel, items, schemes
    )
    # A record computed in a pool worker is still a record miss.
    distinct = len({record_key(traces, scheme) for scheme in schemes})
    for engine in (serial, parallel):
        assert engine.metrics.counters["record_misses"] == distinct


def test_prefetch_falls_back_inline_for_unknown_workloads(spec, traces):
    class Anon:
        name = "not-a-registry-workload"

    engine = ExperimentEngine(jobs=2)
    engine.prefetch([(Anon(), traces)], [HW])
    assert engine.metrics.counters.get("jobs_submitted", 0) == 0
    evaluation = engine.evaluate(traces, HW)
    assert evaluation.counters == evaluate_traces(traces, HW).counters


# -- metrics ---------------------------------------------------------------


def test_metrics_schema(tmp_path):
    metrics = RunMetrics()
    with metrics.stage("traces"):
        pass
    metrics.count("record_memo_hits", 3)
    metrics.count("record_misses")
    metrics.gauge("queue_depth", 4.0)
    data = metrics.to_dict()
    assert data["schema"] == 3
    assert set(data) == {
        "schema", "stages", "counters", "gauges", "histograms"
    }
    assert "traces" in data["stages"]
    assert data["counters"] == {"record_memo_hits": 3, "record_misses": 1}
    assert data["gauges"] == {"queue_depth": 4.0}
    # Every stage also feeds a latency histogram (schema 3).
    assert "stage_traces_seconds" in data["histograms"]
    path = tmp_path / "metrics.json"
    metrics.write(str(path))
    assert json.loads(path.read_text()) == data
    assert "hit" in metrics.summary()
