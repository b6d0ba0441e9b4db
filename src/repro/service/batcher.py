"""Micro-batching job dispatcher with dedup, admission, and timeouts.

Requests normalise to :class:`~repro.service.protocol.ServiceJob`
before they reach the batcher, so deduplication is a dictionary lookup
on the job fingerprint: concurrent identical requests attach to the
*same* future and the computation runs once.

Dispatch is micro-batched: the dispatcher takes the first queued job,
optionally lingers (``linger_s``) so concurrent requests can coalesce,
then drains everything queued and launches the whole batch at once.
With ``linger_s = 0`` the batch window is a single event-loop
iteration — latency-neutral — while tests and bursty deployments can
widen it for deterministic coalescing.

Admission is bounded by ``max_pending`` *distinct* jobs (dedup'd
waiters are free).  Beyond the bound, :class:`Overloaded` maps to HTTP
429 with ``Retry-After`` — clients shed load instead of queueing
unboundedly.  Per-request timeouts wrap the shared future in
``asyncio.shield``: one slow client's deadline never cancels the
computation other waiters (or the result memo) still want.

Each job queues with its submitter's trace carrier, and runs under it:
the dispatcher's own context holds no span, so without the carrier a
traced job would start a trace of its own instead of joining its
request's.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from ..obs.tracer import TRACER
from .protocol import Overloaded, RequestTimeout, ServiceJob

#: A queued job: the job, its shared future, the submitter's carrier.
_Item = Tuple[ServiceJob, asyncio.Future, Optional[Dict[str, Any]]]


class JobBatcher:
    """Coalescing dispatcher over one async ``execute`` callable."""

    def __init__(
        self,
        execute: Callable[[ServiceJob], Awaitable[Dict[str, Any]]],
        *,
        max_pending: int = 64,
        linger_s: float = 0.0,
        metrics=None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self._execute = execute
        self.max_pending = max_pending
        self.linger_s = linger_s
        self.metrics = metrics
        self._inflight: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._queue: "asyncio.Queue[Optional[_Item]]" = asyncio.Queue()
        self._running: set = set()
        self._dispatcher: Optional[asyncio.Task] = None
        self._draining = False
        self._drain_event = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._dispatcher is None:
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )

    async def drain(self, grace_s: float = 30.0) -> bool:
        """Stop accepting, flush the queue, and wait for in-flight work.

        Returns True when everything completed within ``grace_s``;
        on False, unfinished futures are cancelled so waiters fail
        fast rather than hanging.
        """
        self._draining = True
        self._drain_event.set()  # cut any linger window short
        await self._queue.put(None)  # wake a dispatcher idle on the queue
        deadline = asyncio.get_running_loop().time() + grace_s
        while self._inflight or not self._queue.empty():
            if asyncio.get_running_loop().time() >= deadline:
                for future in list(self._inflight.values()):
                    future.cancel()
                self._inflight.clear()
                break
            await asyncio.sleep(0.01)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        return not self._inflight

    # -- submission --------------------------------------------------------

    @property
    def pending(self) -> int:
        """Distinct jobs admitted but not yet completed."""
        return len(self._inflight)

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.count(name, amount)

    async def submit(
        self, job: ServiceJob, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Resolve one job, sharing computation with identical peers."""
        future = self._inflight.get(job.fingerprint)
        if future is not None:
            self._count("inflight_dedup_hits")
        else:
            if len(self._inflight) >= self.max_pending:
                self._count("rejected_overload")
                raise Overloaded(
                    f"{len(self._inflight)} jobs pending "
                    f"(limit {self.max_pending}); retry shortly",
                    retry_after=1.0,
                )
            future = asyncio.get_running_loop().create_future()
            self._inflight[job.fingerprint] = future
            self._count("jobs_admitted")
            await self._queue.put(
                (job, future, TRACER.current_carrier())
            )
        try:
            if timeout is None:
                return await asyncio.shield(future)
            return await asyncio.wait_for(
                asyncio.shield(future), timeout
            )
        except asyncio.TimeoutError:
            self._count("request_timeouts")
            raise RequestTimeout(
                f"request exceeded {timeout:.3f}s; the computation "
                "continues and a retry may hit the result cache"
            ) from None
        except asyncio.CancelledError:
            if future.cancelled():
                # Drain gave up on the job; the *request* was not
                # cancelled, so report a timeout instead of vanishing.
                raise RequestTimeout(
                    "server shut down before completion"
                ) from None
            raise

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            first = await self._queue.get()
            batch = [] if first is None else [first]
            if self.linger_s > 0 and not self._draining:
                # Linger to coalesce, but let drain() cut it short so
                # shutdown never waits out the batch window.
                try:
                    await asyncio.wait_for(
                        self._drain_event.wait(), self.linger_s
                    )
                except asyncio.TimeoutError:
                    pass
            while True:
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is not None:
                    batch.append(item)
            if not batch:
                continue
            self._count("batches_dispatched")
            self._count("batched_jobs", len(batch))
            if self.metrics is not None:
                self.metrics.gauge(
                    "last_batch_size", float(len(batch))
                )
            for job, future, carrier in batch:
                task = asyncio.get_running_loop().create_task(
                    self._run(job, future, carrier)
                )
                self._running.add(task)
                task.add_done_callback(self._running.discard)

    async def _run(
        self,
        job: ServiceJob,
        future: "asyncio.Future[Dict[str, Any]]",
        carrier: Optional[Dict[str, Any]],
    ) -> None:
        try:
            with TRACER.attach(carrier):
                result = await self._execute(job)
        except BaseException as error:  # noqa: BLE001 - forwarded to waiters
            if not future.done():
                future.set_exception(error)
        else:
            if not future.done():
                future.set_result(result)
        finally:
            if self._inflight.get(job.fingerprint) is future:
                del self._inflight[job.fingerprint]
