"""RunMetrics schema 3: histograms, round-trips, and the summary split."""

import json

from repro.engine.metrics import SCHEMA_VERSION, RunMetrics


def test_schema_3_round_trip(tmp_path):
    metrics = RunMetrics()
    with metrics.stage("evaluate"):
        pass
    metrics.count("record_misses", 2)
    metrics.gauge("service_queue_depth", 1.0)
    metrics.observe("http_request_seconds", 0.004)

    data = metrics.to_dict()
    assert data["schema"] == SCHEMA_VERSION == 3
    restored = RunMetrics.from_dict(data)
    assert restored.to_dict() == data
    assert restored.histograms["http_request_seconds"].count == 1

    path = tmp_path / "metrics.json"
    metrics.write(str(path))
    assert json.loads(path.read_text()) == data


def test_schema_2_documents_rehydrate_without_histograms():
    # A schema-2 document has no "histograms" key; readers must treat
    # the missing key as empty rather than fail.
    legacy = {
        "schema": 2,
        "stages": {"traces": 0.5},
        "counters": {"record_memo_hits": 4},
        "gauges": {"queue_depth": 2.0},
    }
    metrics = RunMetrics.from_dict(legacy)
    assert metrics.histograms == {}
    assert metrics.stages == {"traces": 0.5}
    assert metrics.counters == {"record_memo_hits": 4}
    # And symmetrically: a schema-2 reader that only consumes the old
    # keys sees exactly what it always saw in a schema-3 document.
    data = metrics.to_dict()
    assert {"stages", "counters", "gauges"} <= set(data)


def test_stage_feeds_wall_clock_and_histogram():
    metrics = RunMetrics()
    with metrics.stage("traces"):
        pass
    with metrics.stage("traces"):
        pass
    assert metrics.stages["traces"] >= 0.0
    assert metrics.histograms["stage_traces_seconds"].count == 2


def test_summary_separates_service_counters_from_engine_cache():
    metrics = RunMetrics()
    metrics.count("record_memo_hits", 10)
    metrics.count("record_misses", 2)
    metrics.count("service_memo_hits", 7)
    metrics.count("inflight_dedup_hits", 3)
    metrics.count("service_memo_misses", 1)
    metrics.count("tuner_energy_memo_hits", 260)
    metrics.count("tuner_energy_misses", 60)
    summary = metrics.summary()
    assert "cache_hits=10" in summary
    assert "cache_misses=2" in summary
    assert "service_hits=10" in summary  # 7 memo + 3 in-flight dedup
    assert "service_misses=1" in summary
    # The tuner's pricing memo is its own group, not engine cache.
    assert "tuner_hits=260" in summary
    assert "tuner_misses=60" in summary


def test_summary_omits_service_line_when_unused():
    metrics = RunMetrics()
    metrics.count("record_memo_hits")
    summary = metrics.summary()
    assert "cache_hits=1" in summary
    assert "service_hits" not in summary


def test_to_prometheus_exposes_all_families():
    metrics = RunMetrics()
    with metrics.stage("evaluate"):
        pass
    metrics.count("jobs_executed", 2)
    metrics.gauge("service_in_flight", 1.0)
    text = metrics.to_prometheus()
    assert "repro_jobs_executed_total 2" in text
    assert "repro_service_in_flight 1" in text
    assert 'repro_stage_seconds_total{stage="evaluate"}' in text
    assert "# TYPE repro_stage_evaluate_seconds histogram" in text
    assert 'repro_stage_evaluate_seconds_bucket{le="+Inf"} 1' in text
