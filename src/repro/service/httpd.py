"""Hand-rolled HTTP/1.1, one ``asyncio.Protocol`` per connection
(stdlib only).

Implements exactly the subset the allocation service needs: GET and
POST, ``Content-Length`` bodies, persistent connections (HTTP/1.1
keep-alive semantics, honouring ``Connection: close``), in-order
pipelining, and bounded request sizes.  No ``http.server``, no chunked
transfer, no TLS — the service is an internal tier behind whatever
terminates the edge.

Each connection is one :class:`_Connection`.  Received bytes go into
one buffer; the head is parsed line by line as it arrives (bare-LF
lines included) and the body once ``Content-Length`` bytes are in.
The handler then runs as one task per request, and its reply leaves in
one ``transport.write``.  One request is in flight per connection:
pipelined requests wait in the buffer and are answered in order, and
each one's bytes leave the buffer when it is dispatched.
While one is in flight and more than ``2 * _READ_LIMIT`` bytes wait,
the connection stops reading; while the client is not reading replies
(``pause_writing``), the next request waits for ``resume_writing``.

The server is handler-agnostic: one async callable maps
:class:`HttpRequest` to :class:`HttpResponse`.  Handler exceptions
become opaque 500s (the traceback stays server-side) and keep the
connection.  A framing error gets one typed reply, counted as
``http_protocol_errors``, and closes the connection: 400 (malformed
request line, header or ``Content-Length``), 413 (body over
``max_body_bytes``), 414 (request line over :data:`_READ_LIMIT`), 431
(a header line over it, or over :data:`_MAX_HEADERS` headers) and 501
(any ``Transfer-Encoding``: chunked bodies are not supported, so the
body's end is unknown).

Reads are bounded in time: a connection waits at most
:data:`IDLE_TIMEOUT_S` for its next request line (keep-alive idling
included), and a request's headers and body must then arrive within
:data:`READ_DEADLINE_S`.  One timer per connection covers both, moved
lazily: a new deadline is a stored number, and the timer re-arms
itself when it fires early.  Either expiry closes the connection and
counts ``http_read_timeouts``, so a stalled client cannot hold a
connection forever.

Connections are bounded in number: past :data:`MAX_CONNECTIONS` open
ones, a new connection is answered 503 with ``Retry-After``, closed
without reading its request, and counted as
``http_connections_refused``.

Every limit is a module constant read at use time, so tests can
monkeypatch it.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Optional, Set

#: Bytes per head line: the request line (414 past it) and each header
#: (431).  Twice this, buffered behind a request in flight, stops reads.
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
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
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


def _encode(response: HttpResponse, close: bool) -> bytes:
    """The reply's wire bytes: status line, headers, blank line, body."""
    head = (
        f"HTTP/1.1 {response.status} "
        f"{REASONS.get(response.status, 'Unknown')}\r\n"
        f"Content-Type: {response.content_type}\r\n"
        f"Content-Length: {len(response.body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
    )
    for name, value in response.headers.items():
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("latin-1") + response.body


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
        #: Counter sink (anything with ``count(name)``) for framing
        #: errors, read timeouts and refused connections.
        self.metrics = metrics
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self.active_requests = 0

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self, loop), self.host, self.port
        )
        # Ephemeral port (port=0) resolves at bind time.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop_accepting(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def open_connections(self) -> int:
        """Connections admitted and not yet closed."""
        return len(self._connections)

    def close_idle_connections(self) -> None:
        """Tear down kept-alive connections (drain's last step)."""
        for connection in list(self._connections):
            connection.close()

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.count(name)


class _Connection(asyncio.Protocol):
    """One client connection: its buffer, parser state and timer."""

    def __init__(
        self, server: AsyncHttpServer, loop: asyncio.AbstractEventLoop
    ) -> None:
        self._server = server
        self._loop = loop
        self._transport: Optional[asyncio.Transport] = None
        self._closed = False
        self._eof = False
        self._buffer = bytearray()
        #: Offset of the first byte not yet parsed.
        self._scan = 0
        # The request being parsed: no request line yet while _method
        # is None, still in the head while _length is None.
        self._method: Optional[str] = None
        self._target = ""
        self._headers: Dict[str, str] = {}
        self._header_lines = 0
        self._length: Optional[int] = None
        #: The request in flight, if any.
        self._task: Optional[asyncio.Task] = None
        self._reading_paused = False
        self._writing_paused = False
        #: Loop time the bytes being waited for are due (None while no
        #: read is pending); the timer fires at or before it.
        self._deadline: Optional[float] = None
        self._timer: Optional[asyncio.TimerHandle] = None

    # -- transport callbacks -----------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        server = self._server
        if len(server._connections) >= MAX_CONNECTIONS:
            server._count("http_connections_refused")
            transport.write(_encode(
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
            ))
            transport.close()
            self._closed = True
            return
        self._transport = transport
        server._connections.add(self)
        self._next()

    def data_received(self, data: bytes) -> None:
        if self._closed:
            return
        self._buffer += data
        if self._task is None and not self._writing_paused:
            self._process()
        if (
            (self._task is not None or self._writing_paused)
            and not self._reading_paused
            and not self._closed
            and len(self._buffer) - self._scan > 2 * _READ_LIMIT
        ):
            self._reading_paused = True
            self._transport.pause_reading()

    def eof_received(self) -> bool:
        # Requests already buffered are still answered; the connection
        # closes once none is left.  True keeps the write side open.
        self._eof = True
        if self._closed:
            return False
        if self._task is None and not self._writing_paused:
            self._process()
        return True

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._closed = True
        self._server._connections.discard(self)
        self._cancel_timer()

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        if self._task is None:
            self._next()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._transport.close()
        self._cancel_timer()

    # -- requests ----------------------------------------------------------

    def _next(self) -> None:
        """No request in flight: start the idle clock, serve the next."""
        if self._closed or self._writing_paused:
            return
        self._deadline = self._loop.time() + IDLE_TIMEOUT_S
        self._process()

    def _process(self) -> None:
        """Dispatch the next buffered request, or wait for its bytes."""
        try:
            request = self._parse()
        except _ProtocolError as error:
            self._server._count("http_protocol_errors")
            self._transport.write(_encode(
                json_response(
                    error.status,
                    {"error": {
                        "type": "protocol_error",
                        "message": str(error),
                    }},
                ),
                close=True,
            ))
            self.close()
            return
        # Drop the parsed bytes on every call, not only when the buffer
        # runs dry: a client that keeps requests outstanding always has
        # one waiting.  CPython deletes a bytearray's prefix by advancing
        # its start, copying only when the array shrinks below half.
        if self._scan:
            del self._buffer[:self._scan]
            self._scan = 0
        if request is None:
            if self._eof:
                self.close()
                return
            if self._reading_paused:
                self._reading_paused = False
                self._transport.resume_reading()
            self._arm_timer()
            return
        self._deadline = None
        self._server.active_requests += 1
        self._task = self._loop.create_task(self._respond(request))

    async def _respond(self, request: HttpRequest) -> None:
        server = self._server
        try:
            response = await server.handler(request)
        except asyncio.CancelledError:
            self.close()
            raise
        except Exception:
            response = json_response(
                500,
                {"error": {
                    "type": "internal_error",
                    "message": "internal server error",
                }},
            )
        finally:
            server.active_requests -= 1
            self._task = None
        if self._closed:
            return
        close = (
            response.close
            or request.headers.get("connection", "").lower() == "close"
        )
        self._transport.write(_encode(response, close))
        if close:
            self.close()
        else:
            self._next()

    # -- parsing -----------------------------------------------------------

    def _parse(self) -> Optional[HttpRequest]:
        """The next complete request in the buffer, else None."""
        buffer = self._buffer
        while self._length is None:
            start = self._scan
            end = buffer.find(b"\n", start)
            if end < 0:
                if len(buffer) - start > _READ_LIMIT:
                    raise self._line_too_long()
                return None
            if end - start > _READ_LIMIT:
                raise self._line_too_long()
            self._scan = end + 1
            line = buffer[start:end].decode("latin-1")
            if self._method is None:
                self._request_line(line)
            elif line in ("", "\r"):
                self._end_head()
            else:
                self._header(line)
        start = self._scan
        end = start + self._length
        if len(buffer) < end:
            return None
        self._scan = end
        request = HttpRequest(
            self._method, self._target, self._headers,
            bytes(buffer[start:end]),
        )
        self._method = None
        self._headers = {}
        self._header_lines = 0
        self._length = None
        return request

    def _line_too_long(self) -> _ProtocolError:
        if self._method is None:
            return _ProtocolError(
                414, f"request line exceeds {_READ_LIMIT} bytes"
            )
        return _ProtocolError(
            431, f"header line exceeds {_READ_LIMIT} bytes"
        )

    def _request_line(self, line: str) -> None:
        try:
            method, target, version = line.rstrip("\r\n").split(" ")
        except ValueError:
            raise _ProtocolError(400, "malformed request line") from None
        if not version.startswith("HTTP/1."):
            raise _ProtocolError(400, f"unsupported version {version!r}")
        self._method = method.upper()
        self._target = target
        self._deadline = self._loop.time() + READ_DEADLINE_S

    def _header(self, line: str) -> None:
        self._header_lines += 1
        if self._header_lines > _MAX_HEADERS:
            raise _ProtocolError(431, "too many headers")
        try:
            name, value = line.split(":", 1)
        except ValueError:
            raise _ProtocolError(400, "malformed header") from None
        self._headers[name.strip().lower()] = value.strip()

    def _end_head(self) -> None:
        headers = self._headers
        if "transfer-encoding" in headers:
            raise _ProtocolError(501, "Transfer-Encoding is not supported")
        length_text = headers.get("content-length")
        if length_text is None:
            self._length = 0
            return
        try:
            length = int(length_text)
        except ValueError:
            raise _ProtocolError(400, "malformed Content-Length") from None
        if length < 0:
            raise _ProtocolError(400, "negative Content-Length")
        if length > self._server.max_body_bytes:
            raise _ProtocolError(
                413, f"body exceeds {self._server.max_body_bytes} bytes"
            )
        self._length = length

    # -- the read timer ----------------------------------------------------

    def _arm_timer(self) -> None:
        """Make the timer fire at or before the current deadline."""
        timer = self._timer
        if timer is not None:
            if timer.when() <= self._deadline:
                return
            timer.cancel()
        self._timer = self._loop.call_at(self._deadline, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        if self._closed or self._deadline is None:
            return
        if self._deadline > self._loop.time():
            self._timer = self._loop.call_at(self._deadline, self._on_timer)
            return
        self._server._count("http_read_timeouts")
        self.close()

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
