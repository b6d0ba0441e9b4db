"""Span-based tracing with ``contextvars`` propagation (stdlib only).

One process-wide :data:`TRACER` records hierarchical spans: the
service request path (httpd → normalize → batcher → pool worker) and
the engine pipeline (parse → strand partition → allocation → trace sim
→ accounting) both open spans around their stages.  Tracing is **off
by default**; a disabled tracer's :meth:`Tracer.span` is a single
attribute check returning a shared no-op context manager, so traced
call sites cost nothing measurable in production paths.

Parenting is carried in a :mod:`contextvars` variable, so nesting
follows the logical flow — across ``await`` points and asyncio tasks —
rather than the call stack.  Where context does not propagate by
itself, a trace moves as a small ``{"trace_id", "span_id", "pid"}``
carrier from :meth:`Tracer.current_carrier`:

* :meth:`Tracer.attach` parents spans under a carrier that crossed a
  queue (the service batcher runs each job under its submitter's
  carrier, so a job joins its request's trace);
* :meth:`Tracer.wrap` captures the submitting context and replays it
  in a pool thread (same-process propagation);
* :func:`traced_call` takes a carrier into a worker *process*, records
  spans there, and returns them alongside the result for the parent to
  :meth:`Tracer.ingest`.

Span identifiers are deterministic per process (``pid.sequence``), so
traces are reproducible and collision-free across pool workers.
Finished spans buffer in memory (exported via
:mod:`repro.obs.exporters`) and optionally stream to a JSONL sink.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: (trace_id, span_id) of the active span, or None outside any span.
_CURRENT: "contextvars.ContextVar[Optional[Tuple[str, str]]]" = (
    contextvars.ContextVar("repro_obs_span", default=None)
)


@dataclass
class Span:
    """One finished (or in-flight) span."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    #: Wall-clock epoch seconds at start (aligns spans across processes).
    start_s: float
    duration_s: float = 0.0
    attributes: Dict[str, Any] = field(default_factory=dict)
    pid: int = 0
    tid: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": round(self.start_s, 9),
            "duration_s": round(self.duration_s, 9),
            "attributes": self.attributes,
            "pid": self.pid,
            "tid": self.tid,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            name=data["name"],
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            start_s=data["start_s"],
            duration_s=data.get("duration_s", 0.0),
            attributes=dict(data.get("attributes", {})),
            pid=data.get("pid", 0),
            tid=data.get("tid", 0),
        )


class _NoopSpan:
    """Shared context manager returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP = _NoopSpan()


class Tracer:
    """Process-wide span recorder; disabled (and free) by default."""

    def __init__(self) -> None:
        self.enabled = False
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self._seq = 0
        self._jsonl_path: Optional[str] = None

    # -- configuration -----------------------------------------------------

    def configure(
        self,
        enabled: bool = True,
        jsonl_path: Optional[str] = None,
    ) -> None:
        """Turn tracing on/off and optionally stream spans to JSONL."""
        with self._lock:
            self._jsonl_path = jsonl_path
            if jsonl_path:
                directory = os.path.dirname(jsonl_path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                # Truncate: one run, one sink file.
                with open(jsonl_path, "w", encoding="utf-8"):
                    pass
        self.enabled = enabled

    def reset(self) -> None:
        """Disable and drop all buffered spans (tests)."""
        self.enabled = False
        with self._lock:
            self._spans.clear()
            self._seq = 0
            self._jsonl_path = None

    # -- span recording ----------------------------------------------------

    def _next_id(self) -> str:
        with self._lock:
            self._seq += 1
            return f"{os.getpid():x}.{self._seq}"

    def span(self, name: str, **attributes: Any):
        """Context manager for one span; yields the :class:`Span` (or
        ``None`` when tracing is disabled) so callers may attach
        attributes discovered mid-flight."""
        if not self.enabled:
            return _NOOP
        return self._record_span(name, attributes)

    @contextmanager
    def _record_span(
        self, name: str, attributes: Dict[str, Any]
    ) -> Iterator[Span]:
        parent = _CURRENT.get()
        span_id = self._next_id()
        if parent is None:
            trace_id, parent_id = span_id, None
        else:
            trace_id, parent_id = parent[0], parent[1]
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            start_s=time.time(),
            attributes=dict(attributes),
            pid=os.getpid(),
            tid=threading.get_ident(),
        )
        token = _CURRENT.set((trace_id, span_id))
        started = time.perf_counter()
        try:
            yield span
        finally:
            span.duration_s = time.perf_counter() - started
            _CURRENT.reset(token)
            self._finish(span)

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            if self._jsonl_path:
                try:
                    with open(
                        self._jsonl_path, "a", encoding="utf-8"
                    ) as handle:
                        handle.write(
                            json.dumps(span.to_dict(), sort_keys=True)
                            + "\n"
                        )
                except OSError:
                    pass

    # -- buffer access -----------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def drain(self) -> List[Span]:
        """Return and clear all buffered spans."""
        with self._lock:
            spans, self._spans = self._spans, []
            return spans

    def ingest(self, span_dicts: List[Dict[str, Any]]) -> None:
        """Adopt spans recorded in another process (see
        :func:`traced_call`)."""
        spans = [Span.from_dict(data) for data in span_dicts]
        with self._lock:
            self._spans.extend(spans)

    # -- propagation -------------------------------------------------------

    def current_carrier(self) -> Optional[Dict[str, Any]]:
        """The active span context as a picklable carrier dict.

        Carries the origin ``pid`` so the receiving side can tell a
        same-process hop (thread pool) from a cross-process one (fork
        workers inherit ``enabled`` but must ship spans back)."""
        current = _CURRENT.get()
        if current is None:
            return None
        return {
            "trace_id": current[0],
            "span_id": current[1],
            "pid": os.getpid(),
        }

    @contextmanager
    def attach(
        self, carrier: Optional[Dict[str, Any]]
    ) -> Iterator[None]:
        """Parent subsequent spans under a carrier from elsewhere."""
        if not carrier:
            yield
            return
        token = _CURRENT.set(
            (carrier["trace_id"], carrier["span_id"])
        )
        try:
            yield
        finally:
            _CURRENT.reset(token)

    def wrap(self, fn):
        """Bind ``fn`` to the *submitting* context so spans opened in a
        pool thread nest under the caller's active span."""
        ctx = contextvars.copy_context()

        def bound(*args: Any, **kwargs: Any) -> Any:
            return ctx.run(fn, *args, **kwargs)

        return bound

    @contextmanager
    def recording(
        self, carrier: Optional[Dict[str, Any]] = None
    ) -> Iterator[List[Span]]:
        """Temporarily enable tracing and collect the spans recorded in
        the ``with`` body (worker-process side of a carrier hop).

        If the tracer is already enabled *and* the carrier originated in
        this process (same-process executor), spans flow to the shared
        buffer as usual and the yielded list stays empty — the parent
        already sees them.  A carrier from another pid forces the
        collect path even when ``enabled`` was inherited across a fork:
        a fork child's buffer is invisible to the parent, so the spans
        must ship back with the result.
        """
        collected: List[Span] = []
        same_process = carrier is None or carrier.get("pid") == os.getpid()
        if self.enabled and same_process:
            with self.attach(carrier):
                yield collected
            return
        self.enabled = True
        before = len(self._spans)
        try:
            with self.attach(carrier):
                yield collected
        finally:
            self.enabled = False
            with self._lock:
                collected.extend(self._spans[before:])
                del self._spans[before:]


#: The process-wide tracer every instrumented module shares.
TRACER = Tracer()


def traced_call(
    carrier: Optional[Dict[str, Any]], fn, *args: Any
) -> Dict[str, Any]:
    """Run ``fn(*args)`` in a worker process under ``carrier``.

    Returns ``{"result": ..., "spans": [...]}`` — picklable either way
    — so the parent can ingest the worker's spans while the result
    itself stays byte-identical to an untraced call.
    """
    with TRACER.recording(carrier) as collected:
        with TRACER.span(getattr(fn, "__name__", "worker")):
            result = fn(*args)
    return {
        "result": result,
        "spans": [span.to_dict() for span in collected],
    }
