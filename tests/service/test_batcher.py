"""JobBatcher on its own: a fake ``execute``, no HTTP, no executor.

Each job's fake ``execute`` waits on an ``asyncio.Event`` the test
sets, so dedup, admission, timeouts and drain are driven step by step
rather than raced.
"""

import asyncio

import pytest

from repro.engine.metrics import RunMetrics
from repro.obs.tracer import TRACER
from repro.service.batcher import JobBatcher
from repro.service.protocol import Overloaded, RequestTimeout, ServiceJob


def job(name):
    return ServiceJob(op="evaluate", fingerprint=name, payload={"n": name})


class FakeExecute:
    """Resolves each job with ``{"job": fingerprint}`` once released."""

    def __init__(self, error=None):
        self.release = asyncio.Event()
        self.started = []
        self.error = error

    async def __call__(self, service_job):
        self.started.append(service_job.fingerprint)
        with TRACER.span("fake.execute"):
            await self.release.wait()
        if self.error is not None:
            raise self.error
        return {"job": service_job.fingerprint}


async def until(predicate):
    for _ in range(1000):
        if predicate():
            return
        await asyncio.sleep(0)
    raise AssertionError("condition never held")


@pytest.fixture(autouse=True)
def clean_tracer():
    TRACER.reset()
    yield
    TRACER.reset()


def test_drain_past_its_grace_cancels_the_job():
    async def scenario():
        execute = FakeExecute()
        batcher = JobBatcher(execute)
        waiter = asyncio.ensure_future(batcher.submit(job("a")))
        await until(lambda: execute.started == ["a"])
        assert await batcher.drain(0.05) is False
        with pytest.raises(RequestTimeout, match="shut down before"):
            await waiter
        assert batcher.pending == 0

    asyncio.run(scenario())


def test_cancelled_request_stays_cancelled_when_drain_cancels_its_job():
    async def scenario():
        execute = FakeExecute()
        batcher = JobBatcher(execute)
        waiter = asyncio.ensure_future(batcher.submit(job("a")))
        await until(lambda: execute.started == ["a"])
        assert await batcher.drain(0.0) is False
        waiter.cancel()  # the request itself goes too, before it wakes
        with pytest.raises(asyncio.CancelledError):
            await waiter

    asyncio.run(scenario())


def test_drain_waits_for_jobs_that_finish_within_the_grace():
    async def scenario():
        execute = FakeExecute()
        batcher = JobBatcher(execute)
        waiter = asyncio.ensure_future(batcher.submit(job("a")))
        await until(lambda: batcher.pending == 1)
        drain = asyncio.ensure_future(batcher.drain(5.0))
        await asyncio.sleep(0.05)
        assert not drain.done()  # still waiting on the job
        execute.release.set()
        assert await drain is True
        assert await waiter == {"job": "a"}
        assert await batcher.drain(0.0) is True  # nothing in flight

    asyncio.run(scenario())


def test_execute_error_reaches_every_deduplicated_waiter():
    async def scenario():
        execute = FakeExecute(error=ValueError("boom"))
        metrics = RunMetrics()
        batcher = JobBatcher(execute, metrics=metrics)
        waiters = [
            asyncio.ensure_future(batcher.submit(job("a")))
            for _ in range(3)
        ]
        await until(lambda: execute.started == ["a"])
        execute.release.set()
        results = await asyncio.gather(*waiters, return_exceptions=True)
        assert [type(r) for r in results] == [ValueError] * 3
        assert all(str(r) == "boom" for r in results)
        assert execute.started == ["a"]
        assert batcher.pending == 0
        return metrics.counters

    counters = asyncio.run(scenario())
    assert counters == {"jobs_admitted": 1, "inflight_dedup_hits": 2}


def test_admission_dedup_overload_and_timeout_are_counted():
    async def scenario():
        execute = FakeExecute()
        metrics = RunMetrics()
        batcher = JobBatcher(execute, max_pending=2, metrics=metrics)
        first = asyncio.ensure_future(batcher.submit(job("a")))
        second = asyncio.ensure_future(batcher.submit(job("b")))
        await until(lambda: batcher.pending == 2)
        # A third distinct job is shed; an identical one is free.
        with pytest.raises(Overloaded) as excinfo:
            await batcher.submit(job("c"))
        assert excinfo.value.retry_after == 1.0
        # A waiter's deadline does not cancel the shared computation.
        with pytest.raises(RequestTimeout, match="exceeded"):
            await batcher.submit(job("a"), timeout=0.01)
        assert batcher.pending == 2
        execute.release.set()
        assert await first == {"job": "a"}
        assert await second == {"job": "b"}
        assert execute.started == ["a", "b"]
        assert batcher.pending == 0
        # Once finished, the same job runs again: no stale entry.
        execute.started.clear()
        assert await batcher.submit(job("a")) == {"job": "a"}
        assert execute.started == ["a"]
        return metrics.counters

    counters = asyncio.run(scenario())
    assert counters == {
        "jobs_admitted": 3,
        "inflight_dedup_hits": 1,
        "rejected_overload": 1,
        "request_timeouts": 1,
    }


def test_job_spans_parent_under_the_submitters_span():
    TRACER.configure(enabled=True)

    async def request(batcher, name):
        with TRACER.span("request", job=name) as span:
            result = await batcher.submit(job(name))
        return span, result

    async def scenario():
        execute = FakeExecute()
        batcher = JobBatcher(execute)
        waiters = [
            asyncio.ensure_future(request(batcher, name))
            for name in ("a", "b")
        ]
        await until(lambda: len(execute.started) == 2)
        execute.release.set()
        return await asyncio.gather(*waiters)

    requests = asyncio.run(scenario())
    jobs = [s for s in TRACER.spans if s.name == "fake.execute"]
    assert len(jobs) == 2
    for span, result in requests:
        (child,) = [s for s in jobs if s.parent_id == span.span_id]
        assert child.trace_id == span.trace_id
        assert result == {"job": span.attributes["job"]}
    assert len({span.trace_id for span, _ in requests}) == 2
