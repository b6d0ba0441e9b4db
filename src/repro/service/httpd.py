"""Hand-rolled HTTP/1.1 on asyncio streams (stdlib only).

Implements exactly the subset the allocation service needs: GET and
POST, ``Content-Length`` bodies, persistent connections (HTTP/1.1
keep-alive semantics, honouring ``Connection: close``), and bounded
request sizes.  No ``http.server``, no chunked transfer, no TLS — the
service is an internal tier behind whatever terminates the edge.

The server is handler-agnostic: one async callable maps
:class:`HttpRequest` to :class:`HttpResponse`.  Handler exceptions
become opaque 500s (the traceback stays server-side); protocol
violations become 400/405/413/431 and close the connection.

Reads are bounded in time: a connection waits at most
:data:`IDLE_TIMEOUT_S` for its next request line (keep-alive idling
included), and a request's headers and body must then arrive within
:data:`READ_DEADLINE_S`.  Either expiry closes the connection and
counts ``http_read_timeouts``, so a stalled client cannot hold a
connection and its coroutine forever.

Connections are bounded in number: past :data:`MAX_CONNECTIONS` open
ones, a new connection is answered 503 with ``Retry-After``, closed
without reading its request, and counted as
``http_connections_refused``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Optional, Set

#: Streams read limit — also bounds the request line and each header.
_READ_LIMIT = 64 * 1024
_MAX_HEADERS = 100
#: Seconds a connection may wait for its next complete request line.
IDLE_TIMEOUT_S = 60.0
#: Seconds a request's headers and body may take after its request line.
READ_DEADLINE_S = 30.0
#: Connections served at once; one more is answered 503 and closed.
MAX_CONNECTIONS = 512

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class HttpRequest:
    method: str
    target: str
    headers: Dict[str, str]
    body: bytes

    def json(self):
        """Decoded JSON body; raises ``ValueError`` on malformed UTF-8
        or JSON (the handler maps it to 400)."""
        return json.loads(self.body.decode("utf-8"))


@dataclass
class HttpResponse:
    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)
    close: bool = False


def json_response(
    status: int, payload, headers: Optional[Dict[str, str]] = None
) -> HttpResponse:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return HttpResponse(status, body, headers=dict(headers or {}))


class _ProtocolError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class AsyncHttpServer:
    """One listening socket, one handler, tracked connections."""

    def __init__(
        self,
        handler: Callable[[HttpRequest], Awaitable[HttpResponse]],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_body_bytes: int = 1 << 20,
        metrics: Optional[Any] = None,
    ) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        #: Counter sink (anything with ``count(name)``) for read
        #: timeouts and refused connections.
        self.metrics = metrics
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self.active_requests = 0

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.host,
            self.port,
            limit=_READ_LIMIT,
        )
        # Ephemeral port (port=0) resolves at bind time.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop_accepting(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def close_idle_connections(self) -> None:
        """Tear down kept-alive connections (drain's last step)."""
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.count(name)

    # -- connection loop ---------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if len(self._writers) >= MAX_CONNECTIONS:
            self._count("http_connections_refused")
            await self._write_response(
                writer,
                json_response(
                    503,
                    {"error": {
                        "type": "too_many_connections",
                        "message": f"{MAX_CONNECTIONS} connections "
                                   "open; retry shortly",
                        "retry_after": 1.0,
                    }},
                    {"Retry-After": "1"},
                ),
                close=True,
            )
            writer.close()
            return
        self._writers.add(writer)
        try:
            while True:
                try:
                    # One timer per request: the idle timeout, moved to
                    # the read deadline once the request line is in.
                    async with asyncio.timeout(IDLE_TIMEOUT_S) as deadline:
                        request = await self._read_request(reader, deadline)
                except _ProtocolError as error:
                    await self._write_response(
                        writer,
                        json_response(
                            error.status,
                            {"error": {
                                "type": "protocol_error",
                                "message": str(error),
                            }},
                        ),
                        close=True,
                    )
                    return
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    asyncio.LimitOverrunError,
                ):
                    return
                except TimeoutError:
                    self._count("http_read_timeouts")
                    return
                if request is None:
                    return
                self.active_requests += 1
                try:
                    try:
                        response = await self.handler(request)
                    except Exception:
                        response = json_response(
                            500,
                            {"error": {
                                "type": "internal_error",
                                "message": "internal server error",
                            }},
                        )
                finally:
                    self.active_requests -= 1
                wants_close = (
                    response.close
                    or request.headers.get("connection", "").lower()
                    == "close"
                )
                await self._write_response(
                    writer, response, close=wants_close
                )
                if wants_close:
                    return
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, deadline: asyncio.Timeout
    ) -> Optional[HttpRequest]:
        line = await reader.readline()
        if not line:
            return None  # clean EOF between requests
        deadline.reschedule(
            asyncio.get_running_loop().time() + READ_DEADLINE_S
        )
        try:
            method, target, version = (
                line.decode("latin-1").rstrip("\r\n").split(" ")
            )
        except ValueError:
            raise _ProtocolError(400, "malformed request line") from None
        if not version.startswith("HTTP/1."):
            raise _ProtocolError(400, f"unsupported version {version!r}")

        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= _MAX_HEADERS:
                raise _ProtocolError(431, "too many headers")
            try:
                name, value = line.decode("latin-1").split(":", 1)
            except ValueError:
                raise _ProtocolError(400, "malformed header") from None
            headers[name.strip().lower()] = value.strip()

        body = b""
        length_text = headers.get("content-length")
        if length_text is not None:
            try:
                length = int(length_text)
            except ValueError:
                raise _ProtocolError(
                    400, "malformed Content-Length"
                ) from None
            if length < 0:
                raise _ProtocolError(400, "negative Content-Length")
            if length > self.max_body_bytes:
                raise _ProtocolError(
                    413,
                    f"body exceeds {self.max_body_bytes} bytes",
                )
            if length:
                body = await reader.readexactly(length)
        return HttpRequest(method.upper(), target, headers, body)

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: HttpResponse,
        *,
        close: bool,
    ) -> None:
        reason = REASONS.get(response.status, "Unknown")
        lines = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in response.headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        try:
            writer.write(head + response.body)
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass
