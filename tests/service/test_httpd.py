"""Wire behaviour of the hand-rolled HTTP/1.1 server, over raw sockets.

A stub handler sits behind :class:`AsyncHttpServer` on an event loop in
a background thread, so these tests pin the framing, pipelining,
limits and back-pressure of ``repro.service.httpd`` alone, without the
allocation service on top.  The stub answers ``200`` with
``"<METHOD> <target> <body length>"``, raises on ``/boom``, waits on
``/hold`` until the test releases it, answers ``/big`` with 1 MB, and
on ``/tick`` records the largest connection buffer, then waits 1 ms.
"""

import asyncio
import collections
import contextlib
import select
import socket
import threading
import time

import pytest

from repro.service.httpd import _READ_LIMIT, AsyncHttpServer, HttpResponse

MAX_BODY = 1024
BIG = b"b" * (1 << 20)


class Counts(collections.Counter):
    """The server's counter sink."""

    def count(self, name):
        self[name] += 1


class StubServer:
    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.counts = Counts()
        self.calls = []
        self.hold = None
        self.peak_buffer = 0
        self.http = AsyncHttpServer(
            self.handler, max_body_bytes=MAX_BODY, metrics=self.counts
        )

    async def handler(self, request):
        self.calls.append(request.target)
        if request.target == "/boom":
            raise RuntimeError("boom")
        if request.target == "/hold":
            await self.hold.wait()
        if request.target == "/big":
            return HttpResponse(200, BIG, content_type="text/plain")
        if request.target == "/tick":
            for connection in self.http._connections:
                self.peak_buffer = max(
                    self.peak_buffer, len(connection._buffer)
                )
            await asyncio.sleep(0.001)
        text = f"{request.method} {request.target} {len(request.body)}"
        return HttpResponse(200, text.encode(), content_type="text/plain")

    def release(self):
        self.loop.call_soon_threadsafe(self.hold.set)

    def run(self, started):
        asyncio.set_event_loop(self.loop)
        self.hold = asyncio.Event()
        self.loop.run_until_complete(self.http.start())
        started.set()
        self.loop.run_forever()
        pending = asyncio.all_tasks(self.loop)
        for task in pending:
            task.cancel()
        self.loop.run_until_complete(
            asyncio.gather(*pending, return_exceptions=True)
        )
        self.loop.close()

    async def shutdown(self):
        await self.http.stop_accepting()
        self.http.close_idle_connections()
        self.hold.set()
        self.loop.stop()


@contextlib.contextmanager
def stub_server():
    server = StubServer()
    started = threading.Event()
    thread = threading.Thread(target=server.run, args=(started,), daemon=True)
    thread.start()
    assert started.wait(10), "server did not start"
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.shutdown(), server.loop)
        thread.join(10)
        assert not thread.is_alive(), "server did not shut down"


def connect(server):
    sock = socket.create_connection(("127.0.0.1", server.http.port))
    sock.settimeout(10)
    return sock


class Replies:
    """Reads ``Content-Length`` framed replies off a socket."""

    def __init__(self, sock):
        self.sock = sock
        self.buffer = b""

    def _fill(self):
        try:
            chunk = self.sock.recv(65536)
        except ConnectionResetError:
            chunk = b""
        if not chunk:
            raise EOFError
        self.buffer += chunk

    def next(self):
        """``(status, lower-cased headers, body)`` of the next reply."""
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines:
            name, value = line.split(":", 1)
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        while len(self.buffer) < length:
            self._fill()
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return int(status_line.split(" ")[1]), headers, body

    def at_eof(self):
        """True once the server has closed and every reply was read."""
        if self.buffer:
            return False
        try:
            self._fill()
        except EOFError:
            return True
        return False


def get(target, extra=b""):
    return b"GET " + target.encode() + b" HTTP/1.1\r\n" + extra + b"\r\n"


def post(target, body, extra=b""):
    return (
        b"POST " + target.encode() + b" HTTP/1.1\r\n"
        + b"Content-Length: %d\r\n" % len(body) + extra + b"\r\n" + body
    )


def still_serves(server):
    with connect(server) as sock:
        sock.sendall(get("/again"))
        assert Replies(sock).next()[:1] == (200,)


# -- framing and pipelining ---------------------------------------------------


def test_pipelined_requests_are_answered_in_order():
    with stub_server() as server, connect(server) as sock:
        sock.sendall(get("/one") + post("/two", b"12345") + get("/three"))
        replies = Replies(sock)
        bodies = [replies.next()[2] for _ in range(3)]
        assert bodies == [b"GET /one 0", b"POST /two 5", b"GET /three 0"]


def test_window_of_outstanding_requests_keeps_the_buffer_bounded():
    # The client keeps `window` requests outstanding, sending one more
    # after each reply, so a complete request always waits behind the
    # one in flight; the 1 ms handler leaves the client time to refill.
    window, total = 8, 1_000
    request = post("/tick", b"x" * MAX_BODY)
    with stub_server() as server, connect(server) as sock:
        sock.sendall(request * window)
        replies = Replies(sock)
        for sent in range(window, total + window):
            assert replies.next()[::2] == (200, b"POST /tick %d" % MAX_BODY)
            if sent < total:
                sock.sendall(request)
        assert len(server.calls) == total
        assert server.peak_buffer < 2 * _READ_LIMIT + window * len(request)


def test_request_written_one_byte_at_a_time_is_answered():
    with stub_server() as server, connect(server) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for byte in post("/slow", b'{"x": 1}', b"Host: h\r\n"):
            sock.sendall(bytes([byte]))
            time.sleep(0.001)
        status, headers, body = Replies(sock).next()
        assert (status, body) == (200, b"POST /slow 8")
        assert headers["connection"] == "keep-alive"


def test_bare_lf_head_is_accepted():
    with stub_server() as server, connect(server) as sock:
        sock.sendall(b"POST /lf HTTP/1.1\nContent-Length: 2\nHost: h\n\nok")
        assert Replies(sock).next()[::2] == (200, b"POST /lf 2")


def test_connection_close_is_honoured():
    with stub_server() as server, connect(server) as sock:
        sock.sendall(get("/bye", b"Connection: close\r\n") + get("/never"))
        replies = Replies(sock)
        status, headers, body = replies.next()
        assert (status, body) == (200, b"GET /bye 0")
        assert headers["connection"] == "close"
        assert replies.at_eof()
        assert server.calls == ["/bye"]


def test_request_before_a_half_close_is_answered():
    with stub_server() as server, connect(server) as sock:
        sock.sendall(get("/last"))
        sock.shutdown(socket.SHUT_WR)
        replies = Replies(sock)
        assert replies.next()[::2] == (200, b"GET /last 0")
        assert replies.at_eof()


def test_handler_exception_gives_500_and_the_connection_still_serves():
    with stub_server() as server, connect(server) as sock:
        sock.sendall(get("/boom"))
        replies = Replies(sock)
        status, headers, body = replies.next()
        assert status == 500
        assert headers["connection"] == "keep-alive"
        assert b"internal_error" in body and b"boom" not in body
        sock.sendall(get("/after"))
        assert replies.next()[::2] == (200, b"GET /after 0")


# -- framing errors -----------------------------------------------------------


@pytest.mark.parametrize("length, status", [
    (b"twelve", 400),
    (b"-1", 400),
    (b"%d" % (MAX_BODY + 1), 413),
])
def test_bad_content_length_is_refused_and_closed(length, status):
    with stub_server() as server, connect(server) as sock:
        sock.sendall(
            b"POST /x HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n"
        )
        replies = Replies(sock)
        got, headers, body = replies.next()
        assert got == status
        assert headers["connection"] == "close"
        assert b"protocol_error" in body
        assert replies.at_eof()
        assert server.calls == []
        still_serves(server)


def test_too_many_headers_gives_431():
    with stub_server() as server, connect(server) as sock:
        headers = b"".join(b"X-H%d: v\r\n" % n for n in range(101))
        sock.sendall(get("/x", headers))
        replies = Replies(sock)
        assert replies.next()[0] == 431
        assert replies.at_eof()
        assert server.calls == []


def test_over_long_header_line_gives_431_and_is_counted():
    with stub_server() as server, connect(server) as sock:
        sock.sendall(get("/x", b"X-Long: " + b"a" * 70_000 + b"\r\n"))
        replies = Replies(sock)
        status, headers, body = replies.next()
        assert status == 431
        assert headers["connection"] == "close"
        assert replies.at_eof()
        assert server.calls == []
        assert server.counts["http_protocol_errors"] == 1
        still_serves(server)


def test_over_long_request_line_gives_414_and_is_counted():
    with stub_server() as server, connect(server) as sock:
        sock.sendall(get("/" + "a" * 70_000))
        replies = Replies(sock)
        status, headers, body = replies.next()
        assert status == 414
        assert headers["connection"] == "close"
        assert replies.at_eof()
        assert server.calls == []
        assert server.counts["http_protocol_errors"] == 1
        still_serves(server)


def test_transfer_encoding_gets_one_501_and_the_connection_closes():
    body = b'{"benchmark": "vectoradd"}'
    chunked = b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n"
    with stub_server() as server, connect(server) as sock:
        sock.sendall(
            b"POST /v1/evaluate HTTP/1.1\r\nHost: h\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n" + chunked
        )
        replies = Replies(sock)
        status, headers, body = replies.next()
        assert status == 501
        assert headers["connection"] == "close"
        assert replies.at_eof(), "a second reply followed the 501"
        assert server.calls == []
        assert server.counts["http_protocol_errors"] == 1


def test_client_closing_mid_body_leaves_the_server_serving():
    with stub_server() as server:
        with connect(server) as sock:
            sock.sendall(b"POST /cut HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                         + b"x" * 10)
        still_serves(server)
        assert server.calls == ["/again"]


# -- back-pressure ------------------------------------------------------------


def test_flood_behind_a_held_request_stops_the_server_reading():
    # 64 MB of pipelined requests after a held one: ~1 MB of numbered
    # requests, written over and over.
    block = memoryview(b"".join(get(f"/seq/{n}") for n in range(40_000)))
    with stub_server() as server, connect(server) as sock:
        sock.sendall(get("/hold"))
        deadline = time.monotonic() + 5
        while server.http.active_requests < 1:
            assert time.monotonic() < deadline, "handler never started"
            time.sleep(0.01)

        sock.setblocking(False)
        accepted = 0
        began = last_progress = time.monotonic()
        while accepted < 64 << 20 and time.monotonic() - began < 3:
            if time.monotonic() - last_progress > 1:
                break  # stalled: the server stopped reading
            if not select.select([], [sock], [], 0.05)[1]:
                continue
            try:
                sent = sock.send(block[accepted % len(block):])
            except BlockingIOError:
                continue
            accepted += sent
            last_progress = time.monotonic()
        assert accepted < 16 << 20, f"{accepted} bytes accepted"

        sock.setblocking(True)
        sock.settimeout(10)
        server.release()
        replies = Replies(sock)
        assert replies.next()[::2] == (200, b"GET /hold 0")
        for n in range(2_000):
            assert replies.next()[2] == b"GET /seq/%d 0" % n


def test_unread_replies_stop_the_server_answering():
    with stub_server() as server, connect(server) as sock:
        sock.sendall(get("/big") * 64)
        time.sleep(1.0)
        # A few 1 MB replies fill the socket buffers; the rest wait.
        assert len(server.calls) < 32, len(server.calls)
        replies = Replies(sock)
        for _ in range(64):
            status, _, body = replies.next()
            assert (status, len(body)) == (200, len(BIG))
        assert server.calls == ["/big"] * 64
