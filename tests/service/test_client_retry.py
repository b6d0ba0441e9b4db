"""Client retry/backoff behaviour, and its one connection's rules.

Both clients share one retry loop,
:meth:`AsyncServiceClient.request_with_retries`; :class:`ServiceClient`
drives it through its ``core``.  The backoff contract: ``Retry-After``
from the server wins (capped), otherwise capped exponential backoff
with jitter from a *seeded* RNG — two clients built with the same seed
sleep identical schedules, and nothing touches the module-level
``random`` state.  Those tests stub the core's ``request_raw``; the
last two drive an in-process ``AsyncHttpServer``: a reused keep-alive
connection that went stale is retried once on a fresh socket, and an
exchange that times out closes its connection.
"""

import asyncio
import random

import pytest

from repro.service.client import (
    AsyncServiceClient,
    ServiceClient,
    ServiceError,
    backoff_delay,
)
from repro.service.httpd import AsyncHttpServer, json_response


def delays(seed: int, attempts: int, **kwargs):
    rng = random.Random(seed)
    return [
        backoff_delay(attempt, None, rng=rng, **kwargs)
        for attempt in range(attempts)
    ]


def test_backoff_deterministic_per_seed():
    first = delays(7, 6, base_s=0.05, cap_s=2.0)
    second = delays(7, 6, base_s=0.05, cap_s=2.0)
    assert first == second
    assert first != delays(8, 6, base_s=0.05, cap_s=2.0)


def test_backoff_exponential_window_with_jitter():
    for seed in range(20):
        rng = random.Random(seed)
        for attempt in range(8):
            delay = backoff_delay(
                attempt, None, base_s=0.05, cap_s=2.0, rng=rng
            )
            window = min(2.0, 0.05 * 2.0 ** attempt)
            assert 0.5 * window <= delay <= window


def test_retry_after_wins_and_is_capped():
    rng = random.Random(0)
    assert backoff_delay(0, 0.25, base_s=0.05, cap_s=2.0, rng=rng) == 0.25
    assert backoff_delay(5, 30.0, base_s=0.05, cap_s=2.0, rng=rng) == 2.0
    assert backoff_delay(0, -3.0, base_s=0.05, cap_s=2.0, rng=rng) == 0.0


def _stub_core(monkeypatch, core, script):
    """Replace ``core.request_raw`` with a stub yielding the scripted
    (status, payload) list; ``None`` scripts a connection failure."""
    remaining = list(script)

    async def fake(method, path, body=None):
        status, payload = remaining.pop(0)
        if status is None:
            raise ConnectionRefusedError("scripted connection failure")
        return status, payload

    monkeypatch.setattr(core, "request_raw", fake)
    return remaining


OK = (200, {"status": "ok"})
SHED = (429, {"error": {"type": "overloaded", "retry_after": 0.0}})
DRAIN = (503, {"error": {"type": "draining"}})
BAD = (400, {"error": {"type": "bad_request", "message": "nope"}})


def sync_client(retries):
    return ServiceClient(
        retries=retries, backoff_base_s=0.0, backoff_cap_s=0.0
    )


def test_sync_client_retries_retryable_statuses(monkeypatch):
    client = sync_client(retries=3)
    remaining = _stub_core(
        monkeypatch, client.core, [SHED, DRAIN, (None, None), OK]
    )
    assert client.healthz() == {"status": "ok"}
    assert not remaining


def test_sync_client_gives_up_after_budget(monkeypatch):
    client = sync_client(retries=1)
    _stub_core(monkeypatch, client.core, [SHED, SHED, OK])
    with pytest.raises(ServiceError) as excinfo:
        client.healthz()
    assert excinfo.value.status == 429


def test_sync_client_never_retries_non_retryable(monkeypatch):
    client = sync_client(retries=5)
    remaining = _stub_core(monkeypatch, client.core, [BAD, OK])
    with pytest.raises(ServiceError) as excinfo:
        client.healthz()
    assert excinfo.value.status == 400
    assert remaining == [OK]  # no second attempt happened


def test_sync_client_honours_retry_after(monkeypatch):
    client = ServiceClient(
        retries=1, backoff_base_s=10.0, backoff_cap_s=10.0
    )
    slept = []

    async def record_sleep(delay):
        slept.append(delay)

    monkeypatch.setattr(asyncio, "sleep", record_sleep)
    _stub_core(
        monkeypatch,
        client.core,
        [(429, {"error": {"type": "overloaded", "retry_after": 0.125}}), OK],
    )
    assert client.healthz() == {"status": "ok"}
    assert slept == [0.125]


def test_sync_client_zero_retries_raises_immediately(monkeypatch):
    client = sync_client(retries=0)
    _stub_core(monkeypatch, client.core, [SHED, OK])
    with pytest.raises(ServiceError):
        client.healthz()


def test_sync_client_connection_failure_raises_after_budget(monkeypatch):
    client = sync_client(retries=1)
    _stub_core(monkeypatch, client.core, [(None, None), (None, None)])
    with pytest.raises(ConnectionRefusedError):
        client.healthz()


def test_async_client_retries_then_succeeds(monkeypatch):
    client = AsyncServiceClient(
        retries=2, backoff_base_s=0.0, backoff_cap_s=0.0
    )
    remaining = _stub_core(monkeypatch, client, [SHED, DRAIN, OK])
    status, payload, retries = asyncio.run(
        client.request_with_retries("GET", "/healthz")
    )
    assert (status, payload, retries) == (200, {"status": "ok"}, 2)
    assert not remaining


def test_async_client_never_retries_non_retryable(monkeypatch):
    client = AsyncServiceClient(
        retries=5, backoff_base_s=0.0, backoff_cap_s=0.0
    )
    remaining = _stub_core(monkeypatch, client, [BAD, OK])
    status, payload, retries = asyncio.run(
        client.request_with_retries("GET", "/healthz")
    )
    assert (status, retries) == (400, 0)
    assert payload["error"]["type"] == "bad_request"
    assert remaining == [OK]


def test_same_seed_clients_sleep_identical_schedules(monkeypatch):
    schedules = []
    for _ in range(2):
        client = ServiceClient(
            retries=3, backoff_base_s=0.05, backoff_cap_s=2.0,
            backoff_seed=11,
        )
        slept = []

        async def record_sleep(delay, slept=slept):
            slept.append(delay)

        monkeypatch.setattr(asyncio, "sleep", record_sleep)
        _stub_core(monkeypatch, client.core, [DRAIN, DRAIN, DRAIN, OK])
        assert client.healthz() == {"status": "ok"}
        schedules.append(slept)
    assert schedules[0] == schedules[1]
    assert schedules[0] == delays(11, 3, base_s=0.05, cap_s=2.0)


def test_module_random_state_untouched():
    random.seed(1234)
    expected = random.Random(1234).random()
    delays(0, 4, base_s=0.05, cap_s=2.0)
    ServiceClient(retries=2, backoff_seed=9)
    AsyncServiceClient(retries=2, backoff_seed=9)
    assert random.random() == expected



def run_against(handler, drive):
    """Run ``await drive(server)`` against an ``AsyncHttpServer`` whose
    requests go to ``handler``, on one event loop."""

    async def main():
        server = AsyncHttpServer(handler)
        await server.start()
        try:
            return await drive(server)
        finally:
            await server.stop_accepting()
            server.close_idle_connections()

    return asyncio.run(main())


async def echo_path(request):
    return json_response(200, {"path": request.target})


def test_stale_keep_alive_connection_is_retried_once_on_a_fresh_socket():
    seen = []

    async def handler(request):
        seen.append(request.target)
        return await echo_path(request)

    async def drive(server):
        client = AsyncServiceClient(port=server.port, timeout=5.0)
        try:
            first = await client.request_raw("GET", "/first")
            # The server drops the kept-alive connection, unannounced.
            server.close_idle_connections()
            second = await client.request_raw("GET", "/second")
        finally:
            await client.close()
        return first, second

    first, second = run_against(handler, drive)
    assert first == (200, {"path": "/first"})
    assert second == (200, {"path": "/second"})
    assert seen == ["/first", "/second"]


def test_timed_out_exchange_closes_its_connection():
    async def handler(request):
        if request.target == "/slow":
            await asyncio.sleep(0.3)
        return await echo_path(request)

    async def drive(server):
        client = AsyncServiceClient(port=server.port, timeout=0.1)
        try:
            with pytest.raises(asyncio.TimeoutError):
                await client.request_raw("GET", "/slow")
            await asyncio.sleep(0.3)  # the late reply has been written
            return await client.request_raw("GET", "/fast")
        finally:
            await client.close()

    # Its own reply, not the late one a reused connection would read.
    assert run_against(handler, drive) == (200, {"path": "/fast"})
