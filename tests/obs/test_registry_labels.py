"""Labeled series in the Prometheus renderer: names built by
``labeled_name`` (the tuner's per-strategy ``tuner_batch_candidates``
histogram) keep one label block per series, with ``le`` folded in."""

from repro.obs.registry import Histogram, labeled_name, render_prometheus


def test_labeled_histogram_renders_single_label_block():
    histogram = Histogram([0.1, 1.0])
    histogram.observe(0.05)
    histogram.observe(5.0)
    snapshot = {
        "histograms": {
            labeled_name("lat_seconds", strategy="random"): (
                histogram.to_dict()
            )
        }
    }
    text = render_prometheus(snapshot)
    assert 'repro_lat_seconds_bucket{strategy="random",le="0.1"} 1' in text
    assert 'repro_lat_seconds_bucket{strategy="random",le="1"} 1' in text
    assert (
        'repro_lat_seconds_bucket{strategy="random",le="+Inf"} 2' in text
    )
    assert 'repro_lat_seconds_sum{strategy="random"}' in text
    assert 'repro_lat_seconds_count{strategy="random"} 2' in text
    # Exactly one label block per series — never `}{`.
    assert "}{" not in text


def test_one_help_type_block_per_family_across_label_values():
    histogram = Histogram([0.5])
    histogram.observe(0.1)
    snapshot = {
        "counters": {
            labeled_name("http_requests", strategy="random"): 3,
            labeled_name("http_requests", strategy="hillclimb"): 4,
        },
        "histograms": {
            labeled_name("lat_seconds", strategy="random"): (
                histogram.to_dict()
            ),
            labeled_name("lat_seconds", strategy="hillclimb"): (
                histogram.to_dict()
            ),
        },
    }
    text = render_prometheus(snapshot)
    assert text.count("# TYPE repro_http_requests_total counter") == 1
    assert text.count("# TYPE repro_lat_seconds histogram") == 1
    assert 'repro_http_requests_total{strategy="random"} 3' in text
    assert 'repro_http_requests_total{strategy="hillclimb"} 4' in text


def test_unlabeled_histogram_format_unchanged():
    histogram = Histogram([0.1])
    histogram.observe(0.05)
    text = render_prometheus({"histograms": {"lat": histogram.to_dict()}})
    assert 'repro_lat_bucket{le="0.1"} 1' in text
    assert "repro_lat_sum 0.05" in text
    assert "repro_lat_count 1" in text
