"""Tracer unit tests: nesting, propagation, and the disabled fast path."""

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs.tracer import _NOOP, TRACER, Span, Tracer, traced_call


@pytest.fixture(autouse=True)
def clean_tracer():
    TRACER.reset()
    yield
    TRACER.reset()


def test_disabled_tracer_is_noop():
    tracer = Tracer()
    assert tracer.enabled is False
    cm = tracer.span("anything", key="value")
    assert cm is _NOOP
    with cm as span:
        assert span is None
    assert tracer.spans == []


def test_span_nesting_follows_context():
    tracer = Tracer()
    tracer.configure(enabled=True)
    with tracer.span("outer") as outer:
        with tracer.span("middle") as middle:
            with tracer.span("inner") as inner:
                pass
        with tracer.span("sibling") as sibling:
            pass

    assert [s.name for s in tracer.spans] == [
        "inner", "middle", "sibling", "outer"
    ]
    assert inner.parent_id == middle.span_id
    assert middle.parent_id == outer.span_id
    assert sibling.parent_id == outer.span_id
    assert outer.parent_id is None
    # One trace: the root's span id is everyone's trace id.
    assert {s.trace_id for s in tracer.spans} == {outer.span_id}
    assert all(s.duration_s >= 0.0 for s in tracer.spans)


def test_span_attributes_and_mid_flight_updates():
    tracer = Tracer()
    tracer.configure(enabled=True)
    with tracer.span("request", method="GET") as span:
        span.attributes["status"] = 200
    (finished,) = tracer.spans
    assert finished.attributes == {"method": "GET", "status": 200}


def test_span_roundtrips_through_dict():
    span = Span(
        name="x", trace_id="t", span_id="s", parent_id=None,
        start_s=12.5, duration_s=0.25, attributes={"a": 1},
        pid=7, tid=9,
    )
    assert Span.from_dict(span.to_dict()) == span


def test_jsonl_sink_streams_finished_spans(tmp_path):
    path = tmp_path / "spans.jsonl"
    tracer = Tracer()
    tracer.configure(enabled=True, jsonl_path=str(path))
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    lines = [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line
    ]
    assert [d["name"] for d in lines] == ["b", "a"]
    assert lines[0]["parent_id"] == lines[1]["span_id"]


def test_drain_returns_and_clears():
    tracer = Tracer()
    tracer.configure(enabled=True)
    with tracer.span("only"):
        pass
    drained = tracer.drain()
    assert [s.name for s in drained] == ["only"]
    assert tracer.spans == []


def test_traced_call_round_trips_carrier_in_process_pool():
    TRACER.configure(enabled=True)
    with TRACER.span("parent") as parent:
        carrier = TRACER.current_carrier()
    assert carrier == {
        "trace_id": parent.trace_id,
        "span_id": parent.span_id,
        "pid": parent.pid,
    }
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            wrapped = pool.submit(traced_call, carrier, len, "abcd").result()
    except (OSError, PermissionError) as error:  # pragma: no cover
        pytest.skip(f"process pool unavailable: {error}")
    assert wrapped["result"] == 4
    (span_dict,) = wrapped["spans"]
    assert span_dict["name"] == "len"
    assert span_dict["trace_id"] == parent.trace_id
    assert span_dict["parent_id"] == parent.span_id

    before = len(TRACER.spans)
    TRACER.ingest(wrapped["spans"])
    adopted = TRACER.spans[before]
    assert adopted.name == "len"
    assert adopted.parent_id == parent.span_id


def test_traced_call_in_process_reuses_enabled_tracer():
    # Thread-executor path: the shared tracer is already on, so spans
    # land in the shared buffer and the wrapper carries none.
    TRACER.configure(enabled=True)
    with TRACER.span("parent") as parent:
        carrier = TRACER.current_carrier()
    wrapped = traced_call(carrier, len, "abc")
    assert wrapped == {"result": 3, "spans": []}
    worker = [s for s in TRACER.spans if s.name == "len"]
    assert len(worker) == 1
    assert worker[0].parent_id == parent.span_id


def test_traced_call_result_matches_untraced_call():
    # Disabled-tracer worker: the result is byte-identical to calling
    # the function directly.
    wrapped = traced_call(None, sorted, [3, 1, 2])
    assert wrapped["result"] == sorted([3, 1, 2])
    assert [d["name"] for d in wrapped["spans"]] == ["sorted"]
    # recording() restored the disabled state and kept the buffer clean.
    assert TRACER.enabled is False
    assert TRACER.spans == []
