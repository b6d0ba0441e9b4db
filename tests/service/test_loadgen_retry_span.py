"""A retried loadgen request is ONE span with a retry count.

The stub server sheds the first request with a 503 (plus
``retry_after``), then serves; the client retry loop runs *inside* the
``loadgen.request`` span, so the trace shows a single logical request
with ``retries >= 1`` — never two spans for one plan entry.
"""

import asyncio
import json

import pytest

from repro.obs.tracer import TRACER
from repro.service.client import AsyncServiceClient
from repro.service.loadgen import _run_phase


@pytest.fixture(autouse=True)
def clean_tracer():
    TRACER.reset()
    yield
    TRACER.reset()


async def _stub_handler(hits, reader, writer):
    """Minimal HTTP/1.1 keep-alive server: 503 first, 200 after."""
    try:
        while True:
            request_line = await reader.readline()
            if not request_line or request_line in (b"\r\n", b"\n"):
                return
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0"))
            if length:
                await reader.readexactly(length)
            hits["count"] += 1
            if hits["count"] == 1:
                status, reason = 503, "Service Unavailable"
                body = json.dumps({
                    "error": {
                        "type": "overloaded",
                        "message": "shedding",
                        "retry_after": 0.01,
                    }
                }).encode("utf-8")
            else:
                status, reason = 200, "OK"
                body = json.dumps({"ok": True}).encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.1 {status} {reason}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
    except (ConnectionError, asyncio.IncompleteReadError):
        return
    finally:
        writer.close()


def test_retried_request_is_one_span_with_retry_count():
    TRACER.configure(enabled=True)

    async def scenario():
        hits = {"count": 0}
        server = await asyncio.start_server(
            lambda r, w: _stub_handler(hits, r, w), "127.0.0.1", 0
        )
        port = server.sockets[0].getsockname()[1]
        client = AsyncServiceClient(
            "127.0.0.1", port, timeout=5.0,
            retries=2, backoff_base_s=0.001, backoff_cap_s=0.002,
        )
        try:
            plan = [{"op": "allocate", "body": {"probe": 1}}]
            results, _wall = await _run_phase([client], plan)
        finally:
            await client.close()
            server.close()
            await server.wait_closed()
        return hits, results

    hits, results = asyncio.run(scenario())
    TRACER.enabled = False

    assert hits["count"] == 2  # one shed, one served
    assert results[0]["status"] == 200
    assert results[0]["retries"] == 1

    spans = [s for s in TRACER.drain() if s.name == "loadgen.request"]
    assert len(spans) == 1, "a retried request must not split into spans"
    assert spans[0].attributes["status"] == 200
    assert spans[0].attributes["retries"] == 1


def test_unretried_request_records_zero_retries():
    TRACER.configure(enabled=True)

    async def scenario():
        hits = {"count": 1}  # pre-bump: the stub serves 200 immediately
        server = await asyncio.start_server(
            lambda r, w: _stub_handler(hits, r, w), "127.0.0.1", 0
        )
        port = server.sockets[0].getsockname()[1]
        client = AsyncServiceClient("127.0.0.1", port, retries=2)
        try:
            results, _wall = await _run_phase(
                [client], [{"op": "allocate", "body": {}}]
            )
        finally:
            await client.close()
            server.close()
            await server.wait_closed()
        return results

    results = asyncio.run(scenario())
    TRACER.enabled = False
    assert results[0]["status"] == 200
    assert results[0]["retries"] == 0
    spans = [s for s in TRACER.drain() if s.name == "loadgen.request"]
    assert len(spans) == 1
    assert spans[0].attributes["retries"] == 0
