"""Client library for the allocation service: the one HTTP client in
``repro``.

The layers, bottom up:

* :class:`HttpConnection` — one keep-alive HTTP/1.1 connection on
  asyncio streams, raw bytes in and out (``Content-Length`` framing
  only, mirroring :mod:`repro.service.httpd`);
* :class:`AsyncServiceClient` — JSON requests over one such
  connection, one exchange at a time, and
  :meth:`~AsyncServiceClient.request_with_retries`, the one retry loop;
  :mod:`repro.service.loadgen` drives one client per concurrent
  connection.  A keep-alive connection can go stale between requests
  (the server restarted or closed it idle), so a *reused* connection
  failing on first use is retried once on a fresh socket; only a fresh
  connection's failure propagates.  An exchange that fails, times out
  or is cancelled closes its connection, so a late reply never answers
  the next request;
* :class:`ServiceClient` — a thin synchronous wrapper for scripts and
  tests: each call runs the async core on its own event loop, over
  one connection per call.

Responses decode as JSON.  :class:`ServiceClient`'s high-level calls
raise :class:`ServiceError` on non-2xx, carrying the HTTP status, the
server's error type/message, and ``retry_after`` when the server asked
to back off (429); the ``request_raw`` and ``request_with_retries``
variants return the status instead of raising, which is how the load
generator counts expected failures.

With ``retries`` > 0, the retry loop retries shed load (429), a
draining server or a lost worker (503), and connection errors with
capped exponential backoff.  The server's ``Retry-After`` is honoured
when present; otherwise the delay is ``base * 2**attempt`` (capped)
with jitter drawn from the client's own **seeded** ``random.Random`` —
never the module-level ``random`` state — so loadgen plans and test
runs stay reproducible end to end.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from typing import Any, Awaitable, Dict, Optional, Tuple, TypeVar

from ..sim.schemes import Scheme
from .protocol import scheme_to_json

#: Matches the server's bound on one head line (``httpd._READ_LIMIT``).
_READ_LIMIT = 64 * 1024

#: Statuses worth retrying: shed load and not-yet/no-longer-available.
RETRYABLE_STATUSES = (429, 503)

#: ``(status, lower-cased response headers, body bytes)``.
RawResponse = Tuple[int, Dict[str, str], bytes]

_T = TypeVar("_T")


def backoff_delay(
    attempt: int,
    retry_after: Optional[float],
    *,
    base_s: float,
    cap_s: float,
    rng: random.Random,
) -> float:
    """Delay before retry ``attempt`` (0-based).

    An explicit server ``Retry-After`` wins (capped); otherwise capped
    exponential backoff with deterministic half-width jitter from the
    caller's seeded RNG.
    """
    if retry_after is not None:
        return max(0.0, min(float(retry_after), cap_s))
    window = min(cap_s, base_s * (2.0 ** attempt))
    return window * (0.5 + 0.5 * rng.random())


class HttpConnection:
    """One keep-alive HTTP/1.1 connection."""

    __slots__ = ("host", "port", "_reader", "_writer")

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self, timeout: float) -> None:
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(
                self.host, self.port, limit=_READ_LIMIT
            ),
            timeout,
        )

    @property
    def closed(self) -> bool:
        return self._writer is None or self._writer.is_closing()

    def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass
        self._reader = self._writer = None

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> RawResponse:
        """One exchange.  Every transport or framing failure raises
        ``ConnectionError`` (an ``OSError``), which the client maps to
        its stale-connection retry."""
        assert self._reader is not None and self._writer is not None
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        try:
            status_line = await self._reader.readline()
            if not status_line:
                raise ConnectionError("server closed connection")
            status = int(status_line.split(b" ", 2)[1])
            response_headers: Dict[str, str] = {}
            while True:
                line = await self._reader.readline()
                if line in (b"\r\n", b"\n"):
                    break
                if not line:
                    raise ConnectionError("server closed mid-headers")
                name, _, value = line.decode("latin-1").partition(":")
                response_headers[name.strip().lower()] = value.strip()
            length = int(response_headers.get("content-length", "0"))
            payload = (
                await self._reader.readexactly(length) if length else b""
            )
        except (asyncio.IncompleteReadError, IndexError, ValueError) as error:
            raise ConnectionError(
                f"malformed or truncated response: {error!r}"
            ) from None
        if response_headers.get("connection", "").lower() == "close":
            self.close()
        return status, response_headers, payload


class ServiceError(Exception):
    """A non-2xx response from the service."""

    def __init__(
        self,
        status: int,
        error_type: str,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(f"HTTP {status} [{error_type}]: {message}")
        self.status = status
        self.error_type = error_type
        self.message = message
        self.retry_after = retry_after


def _error_from_payload(status: int, payload: Any) -> ServiceError:
    error = payload.get("error", {}) if isinstance(payload, dict) else {}
    return ServiceError(
        status,
        error.get("type", "unknown"),
        error.get("message", "no message"),
        retry_after=error.get("retry_after"),
    )


def _request_body(
    *,
    kernel: Optional[str],
    benchmark: Optional[str],
    scale: Optional[float],
    warps: Optional[list],
    scheme: Any,
) -> Dict[str, Any]:
    body: Dict[str, Any] = {}
    if kernel is not None:
        body["kernel"] = kernel
    if benchmark is not None:
        body["benchmark"] = benchmark
    if scale is not None:
        body["scale"] = scale
    if warps is not None:
        body["warps"] = warps
    if scheme is not None:
        body["scheme"] = (
            scheme_to_json(scheme)
            if isinstance(scheme, Scheme)
            else scheme
        )
    return body


class AsyncServiceClient:
    """JSON requests over one keep-alive connection, one at a time."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8077,
        timeout: float = 60.0,
        *,
        retries: int = 0,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        backoff_seed: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._rng = random.Random(backoff_seed)
        self._connection: Optional[HttpConnection] = None
        self._lock = asyncio.Lock()

    async def _fresh(self) -> HttpConnection:
        self._connection = HttpConnection(self.host, self.port)
        await self._connection.open(self.timeout)
        return self._connection

    async def connect(self) -> None:
        """Open the keep-alive connection eagerly (loadgen pre-warms
        its connections so connect latency never lands inside a
        measured phase)."""
        async with self._lock:
            if self._connection is None or self._connection.closed:
                await self._fresh()

    async def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    async def _request(
        self, method: str, path: str, body: bytes
    ) -> RawResponse:
        """One exchange on the client's connection.

        Transport errors on a reused connection retry once on a fresh
        one; fresh-connection errors and timeouts propagate.
        """
        async with self._lock:
            connection = self._connection
            if connection is not None and not connection.closed:
                try:
                    return await self._exchange(
                        connection, method, path, body
                    )
                except asyncio.TimeoutError:
                    raise
                except OSError:
                    pass  # Stale keep-alive: one retry on a fresh socket.
            return await self._exchange(
                await self._fresh(), method, path, body
            )

    async def _exchange(
        self,
        connection: HttpConnection,
        method: str,
        path: str,
        body: bytes,
    ) -> RawResponse:
        """One exchange, bounded by ``timeout``; the connection is
        closed if it failed, timed out or was cancelled, so a half-read
        reply never reaches the next request."""
        try:
            return await asyncio.wait_for(
                connection.request(method, path, body), self.timeout
            )
        except BaseException:
            connection.close()
            raise

    async def request_raw(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Any]:
        """One exchange; returns (status, decoded payload)."""
        payload = (
            json.dumps(body).encode("utf-8") if body is not None else b""
        )
        status, _, data = await self._request(method, path, payload)
        try:
            return status, json.loads(data.decode("utf-8"))
        except ValueError:
            return status, {"raw": data.decode("utf-8", "replace")}

    async def request_with_retries(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Any, int]:
        """Like :meth:`request_raw` with the retry loop applied.

        Returns ``(status, payload, retries)`` without raising on HTTP
        errors — the final status is returned even when it is a 4xx/5xx
        — so callers (the load generator) can record how many times the
        429/503 shed-load path was hit for one logical request.
        Connection errors and timeouts still raise once retries are
        exhausted.
        """
        attempt = 0
        while True:
            retry_after: Optional[float] = None
            try:
                status, payload = await self.request_raw(
                    method, path, body
                )
            except (OSError, asyncio.TimeoutError):
                if attempt >= self.retries:
                    raise
            else:
                if (
                    status not in RETRYABLE_STATUSES
                    or attempt >= self.retries
                ):
                    return status, payload, attempt
                retry_after = _error_from_payload(
                    status, payload
                ).retry_after
            await asyncio.sleep(
                backoff_delay(
                    attempt,
                    retry_after,
                    base_s=self.backoff_base_s,
                    cap_s=self.backoff_cap_s,
                    rng=self._rng,
                )
            )
            attempt += 1


class ServiceClient:
    """Synchronous wrapper over :class:`AsyncServiceClient`.

    Each call runs the async core on a fresh event loop over one
    connection, closed when the call returns.  The core — and with it
    the seeded backoff RNG — lives as long as this client.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8077,
        timeout: float = 60.0,
        *,
        retries: int = 0,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        backoff_seed: int = 0,
    ) -> None:
        self.core = AsyncServiceClient(
            host,
            port,
            timeout,
            retries=retries,
            backoff_base_s=backoff_base_s,
            backoff_cap_s=backoff_cap_s,
            backoff_seed=backoff_seed,
        )

    def _run(self, exchange: Awaitable[_T]) -> _T:
        async def scoped() -> _T:
            try:
                return await exchange
            finally:
                await self.core.close()

        return asyncio.run(scoped())

    def request_raw(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Any]:
        """One HTTP exchange; returns (status, decoded payload)."""
        return self._run(self.core.request_raw(method, path, body))

    def _call(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Any:
        status, payload, _ = self._run(
            self.core.request_with_retries(method, path, body)
        )
        if status >= 400:
            raise _error_from_payload(status, payload)
        return payload

    def healthz(self) -> Dict[str, Any]:
        return self._call("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._call("GET", "/metrics")

    def allocate(
        self,
        *,
        kernel: Optional[str] = None,
        benchmark: Optional[str] = None,
        scale: Optional[float] = None,
        scheme: Any = None,
    ) -> Dict[str, Any]:
        return self._call(
            "POST",
            "/v1/allocate",
            _request_body(
                kernel=kernel, benchmark=benchmark, scale=scale,
                warps=None, scheme=scheme,
            ),
        )

    def evaluate(
        self,
        *,
        kernel: Optional[str] = None,
        benchmark: Optional[str] = None,
        scale: Optional[float] = None,
        warps: Optional[list] = None,
        scheme: Any = None,
    ) -> Dict[str, Any]:
        return self._call(
            "POST",
            "/v1/evaluate",
            _request_body(
                kernel=kernel, benchmark=benchmark, scale=scale,
                warps=warps, scheme=scheme,
            ),
        )

    def tune(
        self,
        *,
        kernel: Optional[str] = None,
        benchmark: Optional[str] = None,
        scale: Optional[float] = None,
        warps: Optional[list] = None,
        strategy: Optional[str] = None,
        budget: Optional[int] = None,
        seed: Optional[int] = None,
        objective: Optional[str] = None,
        space: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        body = _request_body(
            kernel=kernel, benchmark=benchmark, scale=scale,
            warps=warps, scheme=None,
        )
        for name, value in (
            ("strategy", strategy),
            ("budget", budget),
            ("seed", seed),
            ("objective", objective),
            ("space", space),
        ):
            if value is not None:
                body[name] = value
        return self._call("POST", "/v1/tune", body)


def wait_until_healthy(
    host: str, port: int, timeout: float = 15.0, interval: float = 0.1
) -> bool:
    """Poll ``/healthz`` until the service answers or time runs out."""
    client = ServiceClient(host, port, timeout=max(interval, 1.0))
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if client.healthz().get("status") in ("ok", "draining"):
                return True
        except (OSError, asyncio.TimeoutError, ServiceError, ValueError):
            pass
        time.sleep(interval)
    return False
