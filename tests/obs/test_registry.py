"""Histogram semantics and Prometheus text exposition."""

import math

import pytest

from repro.engine.metrics import RunMetrics
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    Histogram,
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)


def test_histogram_buckets_are_inclusive_upper_bounds():
    histogram = Histogram([1.0, 2.0, 5.0])
    for value in (0.5, 1.0, 1.5, 2.0, 4.0, 5.0, 99.0):
        histogram.observe(value)
    # le=1: {0.5, 1.0}; le=2: {1.5, 2.0}; le=5: {4.0, 5.0}; +Inf: {99}.
    assert histogram.bucket_counts == [2, 2, 2, 1]
    assert histogram.cumulative() == [2, 4, 6, 7]
    assert histogram.count == 7
    assert histogram.total == pytest.approx(113.0)


def test_histogram_quantiles():
    histogram = Histogram([0.001, 0.01, 0.1, 1.0])
    for _ in range(90):
        histogram.observe(0.005)
    for _ in range(10):
        histogram.observe(0.05)
    assert histogram.quantile(0.5) == 0.01
    assert histogram.quantile(0.95) == 0.1
    assert histogram.quantile(0.99) == 0.1
    assert Histogram([1.0]).quantile(0.5) == 0.0  # empty
    overflow = Histogram([1.0, 2.0])
    overflow.observe(10.0)
    assert overflow.quantile(0.99) == 2.0  # +Inf bucket clamps to last bound


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram([])
    with pytest.raises(ValueError):
        Histogram([1.0, 1.0])
    with pytest.raises(ValueError):
        Histogram([2.0, 1.0])


def test_histogram_round_trip():
    first = Histogram([0.1, 1.0])
    first.observe(0.05)
    first.observe(5.0)
    restored = Histogram.from_dict(first.to_dict())
    assert restored.bounds == first.bounds
    assert restored.bucket_counts == first.bucket_counts
    assert restored.count == first.count
    assert restored.total == pytest.approx(first.total)
    with pytest.raises(ValueError):
        Histogram.from_dict({"bounds": [1.0], "bucket_counts": [1]})


def test_registry_get_or_create_fixes_bucket_layout():
    metrics = RunMetrics()
    metrics.observe("latency", 0.003)
    metrics.count("requests")
    metrics.gauge("depth", 2.0)
    first = metrics.histogram("latency")
    # Later buckets= arguments do not re-shape an existing histogram.
    again = metrics.histogram("latency", buckets=[1.0])
    assert again is first
    assert first.bounds == DEFAULT_LATENCY_BUCKETS_S
    assert first.count == 1
    metrics.observe("latency", 0.5, buckets=[1.0])
    assert first.count == 2
    assert metrics.counters == {"requests": 1}
    assert metrics.gauges == {"depth": 2.0}


def test_render_prometheus_families_and_format():
    snapshot = {
        "counters": {"jobs_executed": 3},
        "gauges": {"queue_depth": 1.5},
        "stages": {"evaluate": 0.25},
        "histograms": {
            "http_request_seconds": {
                "bounds": [0.1, 1.0],
                "bucket_counts": [2, 1, 1],
                "sum": 1.85,
                "count": 4,
            }
        },
    }
    text = render_prometheus(snapshot)
    assert text.endswith("\n")
    assert "# TYPE repro_jobs_executed_total counter" in text
    assert "repro_jobs_executed_total 3" in text
    assert "# TYPE repro_queue_depth gauge" in text
    assert "repro_queue_depth 1.5" in text
    assert 'repro_stage_seconds_total{stage="evaluate"} 0.25' in text
    # Cumulative buckets plus the canonical +Inf / _sum / _count triple.
    assert 'repro_http_request_seconds_bucket{le="0.1"} 2' in text
    assert 'repro_http_request_seconds_bucket{le="1"} 3' in text
    assert 'repro_http_request_seconds_bucket{le="+Inf"} 4' in text
    assert "repro_http_request_seconds_sum 1.85" in text
    assert "repro_http_request_seconds_count 4" in text
    assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain; version=0.0.4")


def test_render_prometheus_escaping_and_sanitizing():
    snapshot = {
        "counters": {"weird-name.with spaces": 1},
        "gauges": {"nan_gauge": float("nan"), "inf_gauge": float("inf")},
        "stages": {'label"with\\escapes\n': 0.5},
        "histograms": {},
    }
    text = render_prometheus(snapshot)
    assert "repro_weird_name_with_spaces_total 1" in text
    assert "repro_nan_gauge NaN" in text
    assert "repro_inf_gauge +Inf" in text
    assert (
        'repro_stage_seconds_total{stage="label\\"with\\\\escapes\\n"} 0.5'
        in text
    )
    # Every non-comment line parses as `name{labels} value`.
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        name, _, value = line.rpartition(" ")
        assert name
        assert value == "NaN" or not math.isnan(float(value))


def test_render_prometheus_empty_snapshot():
    assert render_prometheus({}) == ""
