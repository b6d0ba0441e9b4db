"""Observability: span tracing, allocation provenance, metric histograms.

Light re-exports only — :mod:`repro.obs.explain` (which depends on the
allocator) is intentionally not imported here so low-level modules like
``repro.engine.metrics`` and ``repro.alloc.allocator`` can import this
package without a cycle.
"""

from .provenance import ProvenanceEvent, ProvenanceRecorder
from .registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    Histogram,
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from .tracer import TRACER, Span, Tracer, traced_call

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "Histogram",
    "PROMETHEUS_CONTENT_TYPE",
    "ProvenanceEvent",
    "ProvenanceRecorder",
    "Span",
    "TRACER",
    "Tracer",
    "render_prometheus",
    "traced_call",
]
