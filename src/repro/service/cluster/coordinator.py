"""The cluster coordinator: a stateless router over N shards.

Requests flow::

    admission → ring lookup on body_key(op, raw body) → shard forward

* **Routing** — each POST routes by
  :func:`~repro.service.protocol.body_key`, SHA-256 of its op and raw
  body bytes, straight onto the consistent hash ring.  The coordinator
  never decodes or normalises a body: the owning shard does that once
  and memoizes the result, so a repeated body always lands on the shard
  that already holds it, and dedup hit rates survive scale-out.  A
  shard's own 4xx (malformed JSON, an unknown benchmark, its 429 with
  ``Retry-After``) passes through byte for byte.
* **Admission** — global backpressure: ``max_pending`` forwards in
  flight → 429 + ``Retry-After``.
* **Failover** — forwards ride persistent keep-alive pools
  (:class:`~repro.service.client.ConnectionPool`) with a per-request
  timeout; on transport failure or a shard-side 5xx the (idempotent)
  job is retried once on the next shard in ring order, and the failing
  shard is marked unhealthy until a background probe sees it answer
  ``/healthz`` again.

``GET /v1/cluster/healthz`` probes every shard and rolls up their
health; ``GET /v1/cluster/metrics`` serves each shard's metrics plus
their exact aggregate (JSON, or Prometheus text with a ``shard``
label); ``GET /metrics`` serves the coordinator's own metrics.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ... import __version__
from ...engine.metrics import SCHEMA_VERSION, RunMetrics
from ...obs.registry import (
    PROMETHEUS_CONTENT_TYPE,
    Histogram,
    labeled_name,
    merge_labels,
    render_prometheus,
)
from ...obs.tracer import (
    TRACE_HEADER,
    TRACER,
    carrier_from_header,
    carrier_to_header,
)
from ..client import ConnectionPool
from ..httpd import AsyncHttpServer, HttpRequest, HttpResponse, json_response
from ..protocol import (
    Draining,
    Overloaded,
    RequestTimeout,
    ServiceFault,
    body_key,
)
from .ring import ConsistentHashRing


class NoShardAvailable(ServiceFault):
    status = 503
    error_type = "no_shard_available"


@dataclass
class ClusterConfig:
    """Everything ``repro cluster`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 8078
    #: Shard addresses, ``host:port`` each, in stable index order.
    shards: Tuple[str, ...] = ()
    #: Global forwards in flight before 429.
    max_pending: int = 256
    request_timeout_s: float = 30.0
    connect_timeout_s: float = 5.0
    probe_interval_s: float = 1.0
    pool_connections: int = 32
    max_body_bytes: int = 1 << 20
    drain_grace_s: float = 30.0
    announce: bool = False


@dataclass
class ShardState:
    """Coordinator-side view of one shard."""

    index: int
    address: str
    pool: ConnectionPool
    healthy: bool = True
    consecutive_failures: int = 0
    last_error: Optional[str] = None
    #: The shard's self-reported identity (``--shard-of K/N``), learnt
    #: from its healthz; falls back to the address.
    label: Optional[str] = None
    inflight: int = 0
    requests: int = 0
    errors: int = 0
    last_healthz: Optional[Dict[str, Any]] = None

    @property
    def display(self) -> str:
        return self.label or self.address


class ClusterCoordinator:
    """One coordinator instance; usable from a thread (tests) or CLI."""

    def __init__(
        self, config: ClusterConfig, metrics: Optional[RunMetrics] = None
    ) -> None:
        if not config.shards:
            raise ValueError("cluster needs at least one shard address")
        self.config = config
        self.metrics = metrics if metrics is not None else RunMetrics()
        self.ring = ConsistentHashRing(config.shards)
        self.shards: Dict[str, ShardState] = {}
        for index, address in enumerate(config.shards):
            host, _, port_text = address.rpartition(":")
            self.shards[address] = ShardState(
                index=index,
                address=address,
                pool=ConnectionPool(
                    host or "127.0.0.1",
                    int(port_text),
                    max_connections=config.pool_connections,
                    connect_timeout_s=config.connect_timeout_s,
                ),
            )
        self._pending = 0
        self.draining = False
        self._http: Optional[AsyncHttpServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._probe_task: Optional[asyncio.Task] = None
        self.started = threading.Event()
        self.port: Optional[int] = None
        self._startup_error: Optional[BaseException] = None
        self._started_monotonic = time.monotonic()
        self.metrics.histogram("cluster_request_seconds")

    # -- lifecycle ---------------------------------------------------------

    def run_forever(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:
            self._startup_error = error
            self.started.set()
            raise

    def request_shutdown(self) -> None:
        loop, event = self._loop, self._shutdown
        if loop is not None and event is not None:
            loop.call_soon_threadsafe(event.set)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
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
        self._probe_task = self._loop.create_task(self._probe_loop())
        self.started.set()
        if self.config.announce:
            print(
                f"repro cluster coordinator on "
                f"http://{self.config.host}:{self.port} "
                f"({len(self.shards)} shards)",
                file=sys.stderr,
                flush=True,
            )
        await self._shutdown.wait()
        await self._drain()

    def _install_signal_handlers(self) -> None:
        assert self._loop is not None and self._shutdown is not None
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self._shutdown.set)
            except (NotImplementedError, RuntimeError, ValueError):
                return

    async def _drain(self) -> None:
        self.draining = True
        assert self._http is not None
        await self._http.stop_accepting()
        deadline = (
            asyncio.get_running_loop().time() + self.config.drain_grace_s
        )
        while (
            self._pending or self._http.active_requests
        ) and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.01)
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        self._http.close_idle_connections()
        for shard in self.shards.values():
            shard.pool.close()

    # -- health probing ----------------------------------------------------

    async def _probe_loop(self) -> None:
        while True:
            await self._probe_all()
            await asyncio.sleep(self.config.probe_interval_s)

    async def _probe_all(self) -> None:
        await asyncio.gather(
            *(self._probe(shard) for shard in self.shards.values()),
            return_exceptions=True,
        )

    async def _probe(self, shard: ShardState) -> None:
        try:
            status, _, body = await shard.pool.request(
                "GET", "/healthz", timeout=2.0
            )
            if status != 200:
                raise ConnectionError(f"healthz HTTP {status}")
            payload = json.loads(body.decode("utf-8"))
        except (asyncio.TimeoutError, ValueError, OSError) as error:
            shard.last_healthz = None
            self._mark_failure(shard, f"{type(error).__name__}: {error}")
            return
        shard.last_healthz = payload
        if shard.label is None and payload.get("shard"):
            shard.label = str(payload["shard"])
        if payload.get("status") == "ok":
            self._mark_success(shard)
        else:
            # A draining shard answers healthz but rejects jobs.
            self._mark_failure(
                shard, f"shard status {payload.get('status')!r}"
            )

    def _mark_failure(self, shard: ShardState, message: str) -> None:
        shard.consecutive_failures += 1
        shard.last_error = message
        if shard.healthy:
            shard.healthy = False
            self.metrics.count("cluster_shards_marked_unhealthy")

    def _mark_success(self, shard: ShardState) -> None:
        if not shard.healthy:
            self.metrics.count("cluster_shards_recovered")
        shard.healthy = True
        shard.consecutive_failures = 0
        shard.last_error = None

    # -- request handling --------------------------------------------------

    async def handle(self, request: HttpRequest) -> HttpResponse:
        started = time.perf_counter()
        path = request.target.split("?", 1)[0]
        carrier = carrier_from_header(request.headers.get(TRACE_HEADER))
        with TRACER.attach(carrier):
            with TRACER.span(
                "cluster.request", method=request.method, path=path
            ) as span:
                response = await self._route_request(request, path)
                if span is not None:
                    span.attributes["status"] = response.status
        self.metrics.observe(
            "cluster_request_seconds", time.perf_counter() - started
        )
        return response

    async def _route_request(
        self, request: HttpRequest, path: str
    ) -> HttpResponse:
        self.metrics.count("cluster_requests")
        try:
            if (request.method, path) == ("GET", "/healthz"):
                return json_response(200, self._health_payload())
            if (request.method, path) == ("GET", "/v1/cluster/healthz"):
                return json_response(200, await self._cluster_health())
            if (request.method, path) == ("GET", "/v1/cluster/metrics"):
                if self._wants_prometheus(request):
                    text = await self._cluster_metrics_prometheus()
                    return HttpResponse(
                        200,
                        text.encode("utf-8"),
                        content_type=PROMETHEUS_CONTENT_TYPE,
                    )
                return json_response(200, await self._cluster_metrics())
            if (request.method, path) == ("GET", "/metrics"):
                if self._wants_prometheus(request):
                    return HttpResponse(
                        200,
                        self.metrics.to_prometheus().encode("utf-8"),
                        content_type=PROMETHEUS_CONTENT_TYPE,
                    )
                return json_response(200, self.metrics.to_dict())
            if path in ("/v1/allocate", "/v1/evaluate", "/v1/tune"):
                if request.method != "POST":
                    return self._error_response(
                        405, "method_not_allowed", f"{path} requires POST"
                    )
                return await self._forward(
                    path.rsplit("/", 1)[1], path, request.body
                )
            return self._error_response(
                404, "not_found", f"no route for {path}"
            )
        except ServiceFault as fault:
            return self._fault_response(fault)

    async def _forward(
        self, op: str, path: str, body: bytes
    ) -> HttpResponse:
        if self.draining:
            raise Draining("coordinator is draining; no new work accepted")
        if self._pending >= self.config.max_pending:
            self.metrics.count("cluster_rejected_overload")
            raise Overloaded(
                f"{self._pending} forwards pending "
                f"(limit {self.config.max_pending}); retry shortly",
                retry_after=1.0,
            )
        assert self._loop is not None
        deadline = self._loop.time() + self.config.request_timeout_s
        attempts = 0
        for shard in self._targets(body_key(op, body))[:2]:
            remaining = deadline - self._loop.time()
            if remaining <= 0:
                break
            if attempts:
                self.metrics.count("cluster_retries")
            attempts += 1
            self._pending += 1
            shard.inflight += 1
            try:
                with TRACER.span(
                    "cluster.forward", shard=shard.index, path=path
                ) as forward_span:
                    trace_headers: Optional[Dict[str, str]] = None
                    if forward_span is not None:
                        trace_headers = {
                            "X-Repro-Trace": carrier_to_header(
                                TRACER.current_carrier()
                            )
                        }
                    status, headers, payload = await shard.pool.request(
                        "POST",
                        path,
                        body,
                        timeout=remaining,
                        headers=trace_headers,
                    )
                    if forward_span is not None:
                        forward_span.attributes["status"] = status
            except asyncio.TimeoutError:
                self.metrics.count("cluster_request_timeouts")
                raise RequestTimeout(
                    f"no shard response within "
                    f"{self.config.request_timeout_s:.3f}s; the "
                    "computation continues and a retry may hit the "
                    "owning shard's cache"
                ) from None
            except OSError as error:
                failure = f"{type(error).__name__}: {error}"
            else:
                if status not in (500, 502, 503):
                    return self._shard_response(
                        shard, status, headers, payload
                    )
                # A draining or crashed-but-listening shard: idempotent
                # job, retry once on the next ring successor.
                failure = f"forward HTTP {status}"
            finally:
                self._pending -= 1
                shard.inflight -= 1
            shard.errors += 1
            self.metrics.count("cluster_shard_errors")
            self._mark_failure(shard, failure)
        self.metrics.count("cluster_no_shard_available")
        raise NoShardAvailable(
            f"no shard could serve {op} after {attempts} attempt(s)",
            retry_after=1.0,
        )

    def _shard_response(
        self,
        shard: ShardState,
        status: int,
        headers: Dict[str, str],
        payload: bytes,
    ) -> HttpResponse:
        self._mark_success(shard)
        shard.requests += 1
        self.metrics.count(
            labeled_name("cluster_shard_requests", shard=str(shard.index))
        )
        self.metrics.count(f"http_{status}")
        out_headers: Dict[str, str] = {}
        if "retry-after" in headers:
            out_headers["Retry-After"] = headers["retry-after"]
        return HttpResponse(
            status,
            payload,
            content_type=headers.get("content-type", "application/json"),
            headers=out_headers,
        )

    def _targets(self, key: str) -> List[ShardState]:
        """Preference-ordered shards for a routing key: ring order,
        healthy shards only (all of them when none is healthy)."""
        order = [
            self.shards[address]
            for address in self.ring.lookup_n(key, len(self.shards))
        ]
        healthy = [shard for shard in order if shard.healthy]
        return healthy or order

    # -- introspection -----------------------------------------------------

    def _wants_prometheus(self, request: HttpRequest) -> bool:
        target = request.target
        if "?" in target:
            if "format=prometheus" in target.split("?", 1)[1].split("&"):
                return True
        return "text/plain" in request.headers.get("accept", "")

    def _health_payload(self) -> Dict[str, Any]:
        healthy = sum(1 for s in self.shards.values() if s.healthy)
        return {
            "status": "draining" if self.draining else "ok",
            "role": "coordinator",
            "version": __version__,
            "shards": len(self.shards),
            "healthy_shards": healthy,
            "in_flight": self._pending,
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "metrics_schema": SCHEMA_VERSION,
        }

    async def _cluster_health(self) -> Dict[str, Any]:
        """The rollup: every shard probed now, plus forward tallies."""
        await self._probe_all()
        shards: Dict[str, Any] = {}
        for shard in self.shards.values():
            label = shard.display
            while label in shards:  # label collision safety net
                label = f"{label}@{shard.address}"
            shards[label] = {
                "index": shard.index,
                "address": shard.address,
                "label": shard.display,
                "healthy": shard.healthy,
                "consecutive_failures": shard.consecutive_failures,
                "last_error": shard.last_error,
                "requests": shard.requests,
                "errors": shard.errors,
                "in_flight": shard.inflight,
                "healthz": shard.last_healthz,
            }
        healthy = sum(1 for s in self.shards.values() if s.healthy)
        return {
            "status": "ok" if healthy == len(self.shards) else "degraded",
            "role": "coordinator",
            "version": __version__,
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "shards": shards,
        }

    async def _shard_metric_snapshots(
        self,
    ) -> List[Tuple[ShardState, Optional[Dict[str, Any]]]]:
        """Fetch each shard's ``/metrics`` JSON snapshot concurrently;
        an unreachable shard yields ``None`` (and is marked failing)."""

        async def one(
            shard: ShardState,
        ) -> Tuple[ShardState, Optional[Dict[str, Any]]]:
            try:
                status, _, body = await shard.pool.request(
                    "GET", "/metrics", timeout=2.0
                )
                if status == 200:
                    return shard, json.loads(body.decode("utf-8"))
                self._mark_failure(shard, f"metrics HTTP {status}")
            except (asyncio.TimeoutError, ValueError, OSError) as error:
                self._mark_failure(
                    shard, f"{type(error).__name__}: {error}"
                )
            return shard, None

        return list(
            await asyncio.gather(
                *(one(shard) for shard in self.shards.values())
            )
        )

    @staticmethod
    def _aggregate_metrics(
        snapshots: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Sum counters/stages and exact-merge histograms across shard
        snapshots.  Histograms merge bucket-by-bucket (identical bounds
        guaranteed by the shared registry defaults); a shard reporting
        different bounds is skipped and listed, never interpolated."""
        counters: Dict[str, int] = {}
        stages: Dict[str, float] = {}
        histograms: Dict[str, Histogram] = {}
        skipped: List[str] = []
        for snapshot in snapshots:
            for name, value in snapshot.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + int(value)
            for name, value in snapshot.get("stages", {}).items():
                stages[name] = round(
                    stages.get(name, 0.0) + float(value), 9
                )
            for name, data in snapshot.get("histograms", {}).items():
                try:
                    incoming = Histogram.from_dict(data)
                except (KeyError, ValueError, TypeError):
                    skipped.append(name)
                    continue
                existing = histograms.get(name)
                if existing is None:
                    histograms[name] = incoming
                    continue
                try:
                    existing.merge(incoming)
                except ValueError:
                    skipped.append(name)
        out: Dict[str, Any] = {
            "counters": dict(sorted(counters.items())),
            "stages": dict(sorted(stages.items())),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in sorted(histograms.items())
            },
        }
        if skipped:
            out["skipped_histograms"] = sorted(set(skipped))
        return out

    async def _cluster_metrics(self) -> Dict[str, Any]:
        """``GET /v1/cluster/metrics`` (JSON): coordinator snapshot,
        live per-shard snapshots, and the exact aggregate."""
        gathered = await self._shard_metric_snapshots()
        shards: Dict[str, Any] = {}
        shard_snapshots: List[Dict[str, Any]] = []
        for shard, snapshot in gathered:
            shards[str(shard.index)] = {
                "label": shard.display,
                "address": shard.address,
                "healthy": shard.healthy,
                "metrics": snapshot,
            }
            if snapshot is not None:
                shard_snapshots.append(snapshot)
        return {
            "schema": SCHEMA_VERSION,
            "role": "coordinator",
            "shards": shards,
            "coordinator": self.metrics.to_dict(),
            "aggregate": self._aggregate_metrics(shard_snapshots),
        }

    async def _cluster_metrics_prometheus(self) -> str:
        """``GET /v1/cluster/metrics`` (Prometheus): one exposition
        with every series labelled by origin — ``shard="K"`` for shard
        K, ``shard="coordinator"`` for the front tier, and the exact
        cross-shard histogram merge as ``shard="cluster"``.  Stage
        timings sum unlabelled (they already carry a ``stage`` label)."""
        gathered = await self._shard_metric_snapshots()
        combined: Dict[str, Dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "stages": {},
            "histograms": {},
        }

        def fold(snapshot: Dict[str, Any], shard_label: str) -> None:
            for kind in ("counters", "gauges", "histograms"):
                for name, value in snapshot.get(kind, {}).items():
                    combined[kind][
                        merge_labels(name, shard=shard_label)
                    ] = value
            for name, value in snapshot.get("stages", {}).items():
                combined["stages"][name] = round(
                    combined["stages"].get(name, 0.0) + float(value), 9
                )

        fold(self.metrics.to_dict(), "coordinator")
        shard_snapshots = []
        for shard, snapshot in gathered:
            if snapshot is None:
                continue
            fold(snapshot, str(shard.index))
            shard_snapshots.append(snapshot)
        merged = self._aggregate_metrics(shard_snapshots)
        for name, data in merged["histograms"].items():
            combined["histograms"][
                merge_labels(name, shard="cluster")
            ] = data
        return render_prometheus(combined)

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


def coordinate_forever(
    config: ClusterConfig, metrics_out: Optional[str] = None
) -> int:
    """CLI entry: run until SIGTERM/SIGINT, then drain and report."""
    coordinator = ClusterCoordinator(config)
    try:
        coordinator.run_forever()
    except KeyboardInterrupt:
        pass
    if metrics_out:
        coordinator.metrics.write(metrics_out)
    print(coordinator.metrics.summary(), file=sys.stderr)
    return 0
