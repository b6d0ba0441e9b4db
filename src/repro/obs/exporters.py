"""Span exporter: Chrome trace-event JSON (Perfetto-loadable).

The Chrome format is the ``chrome://tracing`` / Perfetto "JSON trace
event" flavour: complete events (``"ph": "X"``) with microsecond
timestamps, grouped by the recording process/thread so pool workers
show up as separate tracks.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List

from .tracer import Span


def chrome_trace_events(spans: Iterable[Span]) -> Dict[str, Any]:
    """Spans as a Chrome trace-event document (``traceEvents`` list)."""
    events: List[Dict[str, Any]] = []
    for span in spans:
        args: Dict[str, Any] = dict(span.attributes)
        args["trace_id"] = span.trace_id
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": round(span.start_s * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            }
        )
    events.sort(key=lambda event: (event["ts"], event["pid"], event["tid"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Iterable[Span]) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace_events(spans), handle, indent=2)
        handle.write("\n")
