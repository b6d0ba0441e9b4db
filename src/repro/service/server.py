"""The allocation service: endpoints, caching, executor, drain.

Endpoints::

    POST /v1/allocate   IR text/benchmark + software scheme -> annotations
    POST /v1/evaluate   IR text/benchmark + any scheme      -> engine record
    POST /v1/tune       IR text/benchmark + search params   -> tuner payload
    GET  /healthz       liveness + drain state + version/uptime/schema
    GET  /metrics       RunMetrics JSON (schema 3: stages/counters/
                        gauges/histograms); Prometheus text on
                        ``Accept: text/plain`` or ``?format=prometheus``

A request flows: stored reply bytes under the raw body's
:func:`~repro.service.protocol.body_key` → normalise (400 on anything
malformed, parse errors included) → result memo under the request
fingerprint, then :class:`~repro.engine.cache.DiskCache` kind
``"service"`` → the :class:`~repro.service.batcher.JobBatcher`
(in-flight dedup, bounded admission → 429, per-request timeout → 504),
which starts the job at once → a forked worker of the
:class:`~repro.service.workers.WorkerPool` running
:func:`~repro.service.pipeline.run_service_job` → memo + disk store.
Results are pure functions of the request fingerprint, so every cache
layer is transparent: a memo hit returns byte-identical payloads to a
cold compute.

Both keys live in one bounded LRU :class:`~repro.memo.Memo` of
:data:`RESULT_MEMO_ENTRIES` entries.  A body's reply bytes are stored
the first time the fingerprint path serves it from a cache, so a body
sent once costs no entry, and a byte-identical repeat is answered
without decoding, normalising or encoding anything.

The pool is vetted at startup with a probe job; where worker
processes cannot start (restricted sandboxes) the service degrades to
a thread executor and says so in ``/healthz`` — same results, less
parallelism.  A worker that dies costs only the job it was running
(503 ``worker_lost``); the pool forks its replacement.

SIGTERM/SIGINT trigger graceful drain: stop accepting, finish
in-flight work (bounded by ``drain_grace_s``), flush keep-alive
connections, stop and reap the workers.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Optional, Union

from .. import __version__
from ..engine.cache import DiskCache
from ..engine.metrics import SCHEMA_VERSION, RunMetrics
from ..memo import Memo
from ..obs.exporters import write_chrome_trace
from ..obs.registry import PROMETHEUS_CONTENT_TYPE
from ..obs.tracer import TRACER, traced_call
from .batcher import JobBatcher
from .httpd import AsyncHttpServer, HttpRequest, HttpResponse, json_response
from .pipeline import RESULT_SCHEMA, _probe, reported_call, run_service_job
from .protocol import (
    Draining,
    ServiceFault,
    ServiceJob,
    body_key,
    normalize_request,
)
from .workers import WorkerPool


#: Results and stored replies one server keeps in memory (about 0.5 KB
#: of JSON per evaluate result, 7.5 KB per allocate result); evicted
#: ones recompute or come back from the disk cache.
RESULT_MEMO_ENTRIES = 1024


@dataclass
class ServiceConfig:
    """Everything `repro serve` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 8077
    #: Executor workers (CPU-bound stage width).
    jobs: int = 2
    #: "process" (vetted, falls back to threads) or "thread".
    executor: str = "process"
    #: Admission bound: distinct jobs in flight before 429.
    max_pending: int = 64
    #: Per-request wall-clock budget before 504.
    request_timeout_s: float = 30.0
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    max_body_bytes: int = 1 << 20
    drain_grace_s: float = 30.0
    #: Print the bound address on startup (the CLI sets this; tests
    #: read ``server.port`` instead).
    announce: bool = False
    #: Enable span tracing; write a Chrome trace-event JSON here on exit.
    trace_out: Optional[str] = None
    #: Stream spans to this JSONL file as they finish.
    trace_jsonl: Optional[str] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on a setting no server can run with."""
        if self.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {self.jobs}")
        if self.max_pending < 1:
            raise ValueError(
                f"--max-pending must be at least 1, got {self.max_pending}"
            )


class ServiceServer:
    """One service instance; usable from a thread (tests) or the CLI."""

    def __init__(
        self, config: ServiceConfig, metrics: Optional[RunMetrics] = None
    ) -> None:
        config.validate()
        self.config = config
        self.metrics = metrics if metrics is not None else RunMetrics()
        self.cache = (
            DiskCache(
                config.cache_dir,
                max_bytes=config.cache_max_bytes,
                metrics=self.metrics,
            )
            if config.cache_dir
            else None
        )
        # Result dicts under request fingerprints, and 200 reply bytes
        # under the body keys of repeated bodies.
        self._memo: "Memo[Union[Dict[str, Any], bytes]]" = Memo(
            "service", RESULT_MEMO_ENTRIES, self.metrics
        )
        # Exactly one of the two runs jobs once the server started.
        self._pool: Optional[WorkerPool] = None
        self._threads: Optional[ThreadPoolExecutor] = None
        self.executor_kind = "none"
        self._batcher: Optional[JobBatcher] = None
        #: The last memo report of each worker (pid -> report).
        self._worker_memos: Dict[int, Dict[str, int]] = {}
        self._http: Optional[AsyncHttpServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self.draining = False
        self.started = threading.Event()
        self.port: Optional[int] = None
        self._startup_error: Optional[BaseException] = None
        self._started_monotonic = time.monotonic()
        # Pre-register the request latency histogram so /metrics always
        # exposes it, even before the first request lands.
        self.metrics.histogram("http_request_seconds")
        if config.trace_out or config.trace_jsonl:
            TRACER.configure(
                enabled=True, jsonl_path=config.trace_jsonl
            )

    # -- lifecycle ---------------------------------------------------------

    def run_forever(self) -> None:
        """Blocking entry point; returns after graceful drain."""
        try:
            asyncio.run(self._main())
        except BaseException as error:
            self._startup_error = error
            self.started.set()
            raise

    def request_shutdown(self) -> None:
        """Thread-safe drain trigger (what SIGTERM calls)."""
        loop, event = self._loop, self._shutdown
        if loop is not None and event is not None:
            loop.call_soon_threadsafe(event.set)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self.executor_kind = await self._start_executor()
        self._batcher = JobBatcher(
            self._run_job,
            max_pending=self.config.max_pending,
            metrics=self.metrics,
        )
        self._http = AsyncHttpServer(
            self.handle,
            self.config.host,
            self.config.port,
            max_body_bytes=self.config.max_body_bytes,
            metrics=self.metrics,
        )
        await self._http.start()
        self.port = self._http.port
        self._install_signal_handlers()
        self.started.set()
        if self.config.announce:
            print(
                f"repro service listening on "
                f"http://{self.config.host}:{self.port} "
                f"(executor={self.executor_kind}, "
                f"jobs={self.config.jobs})",
                file=sys.stderr,
                flush=True,
            )
        await self._shutdown.wait()
        await self._drain()

    def _install_signal_handlers(self) -> None:
        assert self._loop is not None and self._shutdown is not None
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    signum, self._shutdown.set
                )
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main thread or unsupported platform: the owner
                # drives shutdown via request_shutdown() instead.
                return

    async def _start_executor(self) -> str:
        if self.config.executor == "process":
            pool = WorkerPool(self.config.jobs, self.metrics)
            try:
                pool.start()
                await asyncio.wait_for(pool.call(_probe), 60)
            except Exception:
                await pool.close()
            else:
                self._pool = pool
                return "process"
        self._threads = ThreadPoolExecutor(max_workers=self.config.jobs)
        return "thread"

    def _call(self, fn: Callable[..., Any], *args: Any) -> Awaitable[Any]:
        if self._pool is not None:
            return self._pool.call(fn, *args)
        return self._loop.run_in_executor(self._threads, fn, *args)

    async def _drain(self) -> None:
        with self.metrics.stage("drain"):
            self.draining = True
            assert self._http is not None and self._batcher is not None
            await self._http.stop_accepting()
            completed = await self._batcher.drain(
                self.config.drain_grace_s
            )
            if not completed:
                self.metrics.count("drain_abandoned_jobs")
            # In-flight HTTP exchanges finish writing their responses
            # before idle connections are torn down.
            deadline = (
                asyncio.get_running_loop().time()
                + self.config.drain_grace_s
            )
            while (
                self._http.active_requests
                and asyncio.get_running_loop().time() < deadline
            ):
                await asyncio.sleep(0.01)
            self._http.close_idle_connections()
            if self._pool is not None:
                await self._pool.close()
            if self._threads is not None:
                self._threads.shutdown(wait=True)

    # -- request handling --------------------------------------------------

    async def handle(self, request: HttpRequest) -> HttpResponse:
        started = time.perf_counter()
        path = request.target.split("?", 1)[0]
        with TRACER.span(
            "service.request", method=request.method, path=path
        ) as span:
            response = await self._route(request, path)
            if span is not None:
                span.attributes["status"] = response.status
        self.metrics.observe(
            "http_request_seconds", time.perf_counter() - started
        )
        return response

    async def _route(
        self, request: HttpRequest, path: str
    ) -> HttpResponse:
        self.metrics.count("http_requests")
        route = (request.method, path)
        try:
            if route == ("GET", "/healthz"):
                return json_response(200, self._health_payload())
            if route == ("GET", "/metrics"):
                if self._wants_prometheus(request):
                    return HttpResponse(
                        200,
                        self._prometheus_text().encode("utf-8"),
                        content_type=PROMETHEUS_CONTENT_TYPE,
                    )
                return json_response(200, self._metrics_payload())
            if route[1] in ("/v1/allocate", "/v1/evaluate", "/v1/tune"):
                if request.method != "POST":
                    return self._error_response(
                        405, "method_not_allowed",
                        f"{route[1]} requires POST",
                    )
                op = route[1].rsplit("/", 1)[1]
                return await self._handle_job(op, request)
            return self._error_response(
                404, "not_found", f"no route for {route[1]}"
            )
        except ServiceFault as fault:
            return self._fault_response(fault)

    async def _handle_job(
        self, op: str, request: HttpRequest
    ) -> HttpResponse:
        if self.draining:
            raise Draining("server is draining; no new work accepted")
        key = body_key(op, request.body)
        reply = self._memo.get(key)
        if reply is not None:
            self.metrics.count(f"{op}_responses")
            return HttpResponse(200, reply)
        try:
            body = request.json()
        except ValueError as error:
            return self._error_response(
                400, "bad_request", f"invalid JSON body: {error}"
            )
        with self.metrics.stage("normalize"):
            job = normalize_request(op, body)

        result = self._lookup(job.fingerprint)
        if result is not None:
            served_from = "cache"
        else:
            result = await self._batcher.submit(
                job, self.config.request_timeout_s
            )
            served_from = "computed"
        self.metrics.count(f"{op}_responses")
        payload = dict(result)
        payload["fingerprint"] = job.fingerprint
        payload["served_from"] = served_from
        response = json_response(200, payload)
        if served_from == "cache":
            # Its result was already known, so this body is worth a
            # stored reply: a byte-identical repeat skips decode,
            # normalise and encode.
            self._memo.put(key, response.body)
        return response

    def _lookup(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        result = self._memo.get(fingerprint)
        if result is not None:
            return result
        if self.cache is not None:
            cached = self.cache.get_json("service", fingerprint)
            if (
                isinstance(cached, dict)
                and cached.get("schema") == RESULT_SCHEMA
            ):
                self.metrics.count("service_disk_hits")
                self._memo.put(fingerprint, cached)
                return cached
        return None

    async def _run_job(self, job: ServiceJob) -> Dict[str, Any]:
        """The batcher's execute callable: executor round-trip + store.

        The job crosses the pool via ``reported_call``, which returns
        the worker's memo sizes next to the result.  With tracing on it
        also goes through ``traced_call``: the worker records its own
        spans and returns them next to the result.  Both are stripped
        here, so the result stays byte-identical to a bare call.
        """
        with self.metrics.stage("execute"):
            if TRACER.enabled:
                with TRACER.span(
                    "service.execute",
                    op=job.op,
                    fingerprint=job.fingerprint[:16],
                ):
                    reply = await self._call(
                        reported_call,
                        traced_call,
                        TRACER.current_carrier(),
                        run_service_job,
                        job.payload,
                    )
                traced = reply["result"]
                TRACER.ingest(traced["spans"])
                result = traced["result"]
            else:
                reply = await self._call(
                    reported_call, run_service_job, job.payload
                )
                result = reply["result"]
        self._worker_memos[reply["worker"]["pid"]] = reply["worker"]
        self._publish_worker_memos()
        self.metrics.count("jobs_executed")
        self.metrics.count("service_misses")
        self._memo.put(job.fingerprint, result)
        if self.cache is not None:
            self.cache.put_json("service", job.fingerprint, result)
        return result

    # -- introspection -----------------------------------------------------

    def _wants_prometheus(self, request: HttpRequest) -> bool:
        """Content negotiation for /metrics: Prometheus text on an
        explicit ``Accept: text/plain`` or ``?format=prometheus``;
        JSON (the historical format) otherwise."""
        target = request.target
        if "?" in target:
            query = target.split("?", 1)[1]
            if "format=prometheus" in query.split("&"):
                return True
        accept = request.headers.get("accept", "")
        return "text/plain" in accept

    def _prometheus_text(self) -> str:
        # Refresh the gauges exactly like the JSON payload does.
        self._metrics_payload()
        return self.metrics.to_prometheus()

    def _health_payload(self) -> Dict[str, Any]:
        batcher = self._batcher
        return {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "executor": self.executor_kind,
            "in_flight": batcher.pending if batcher else 0,
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "metrics_schema": SCHEMA_VERSION,
        }

    def _metrics_payload(self) -> Dict[str, Any]:
        batcher = self._batcher
        if batcher is not None:
            self.metrics.gauge(
                "service_in_flight", float(batcher.pending)
            )
        self.metrics.gauge("service_draining", float(self.draining))
        self._publish_worker_memos()
        return self.metrics.to_dict()

    def _publish_worker_memos(self) -> None:
        """Gauge the analysis and trace-set memo entries summed over the
        live workers' last reports; a lost worker's report is dropped."""
        if self._pool is not None:
            live = set(self._pool.pids)
            for pid in [p for p in self._worker_memos if p not in live]:
                del self._worker_memos[pid]
        for memo in ("analysis", "traces"):
            self.metrics.gauge(
                f"worker_{memo}_memo_entries",
                float(sum(r[memo] for r in self._worker_memos.values())),
            )

    def _fault_response(self, fault: ServiceFault) -> HttpResponse:
        self.metrics.count(f"http_{fault.status}")
        headers = {}
        if fault.retry_after is not None:
            headers["Retry-After"] = f"{fault.retry_after:g}"
        return json_response(fault.status, fault.to_payload(), headers)

    def _error_response(
        self, status: int, error_type: str, message: str
    ) -> HttpResponse:
        self.metrics.count(f"http_{status}")
        return json_response(
            status, {"error": {"type": error_type, "message": message}}
        )


def serve_forever(
    config: ServiceConfig, metrics_out: Optional[str] = None
) -> int:
    """CLI entry: run until SIGTERM/SIGINT, then drain and report."""
    try:
        server = ServiceServer(config)
    except ValueError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    try:
        server.run_forever()
    except KeyboardInterrupt:
        pass
    if metrics_out:
        server.metrics.write(metrics_out)
    if config.trace_out:
        write_chrome_trace(config.trace_out, TRACER.drain())
        print(f"wrote trace to {config.trace_out}", file=sys.stderr)
    print(server.metrics.summary(), file=sys.stderr)
    return 0
