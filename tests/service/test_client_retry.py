"""Client retry/backoff behaviour (no sockets: the core's request_raw
is stubbed).

Both clients share one retry loop,
:meth:`AsyncServiceClient.request_with_retries`; :class:`ServiceClient`
drives it through its ``core``.  The backoff contract: ``Retry-After``
from the server wins (capped), otherwise capped exponential backoff
with jitter from a *seeded* RNG — two clients built with the same seed
sleep identical schedules, and nothing touches the module-level
``random`` state.
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
