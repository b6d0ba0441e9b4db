"""Job admission: in-flight dedup, bounded admission, and timeouts.

Requests normalise to :class:`~repro.service.protocol.ServiceJob`
before they reach the batcher, so deduplication is a dictionary lookup
on the job fingerprint: concurrent identical requests await the *same*
task and the computation runs once.

:meth:`JobBatcher.submit` starts an admitted job's task itself, so the
only queue a job waits in is the executor's.  The task inherits the
submitting request's :mod:`contextvars` context, so with tracing on
the job's spans join that request's trace.

Admission is bounded by ``max_pending`` *distinct* jobs (dedup'd
waiters are free).  Beyond the bound, :class:`Overloaded` maps to HTTP
429 with ``Retry-After`` — clients shed load instead of queueing
unboundedly.  Per-request timeouts wrap the shared task in
``asyncio.shield``: one slow client's deadline never cancels the
computation other waiters (or the result memo) still want.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Optional

from .protocol import Overloaded, RequestTimeout, ServiceJob


class JobBatcher:
    """Deduplicating, bounded admission over one async ``execute``.

    It no longer batches; the name stays because the end-to-end
    benchmark (``benchmarks/e2e/layers.py``) times ``submit`` as the
    service's wait layer.
    """

    def __init__(
        self,
        execute: Callable[[ServiceJob], Awaitable[Dict[str, Any]]],
        *,
        max_pending: int = 64,
        metrics=None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self._execute = execute
        self.max_pending = max_pending
        self.metrics = metrics
        self._inflight: Dict[str, "asyncio.Task[Dict[str, Any]]"] = {}

    async def drain(self, grace_s: float = 30.0) -> bool:
        """Wait for in-flight jobs; True when all finished in ``grace_s``.

        Jobs still running at the deadline are cancelled, so their
        waiters fail fast rather than hanging.
        """
        jobs = list(self._inflight.values())
        if not jobs:
            return True
        _, late = await asyncio.wait(jobs, timeout=grace_s)
        for job in late:
            job.cancel()
        return not late

    @property
    def pending(self) -> int:
        """Distinct jobs admitted but not yet completed."""
        return len(self._inflight)

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.count(name)

    async def submit(
        self, job: ServiceJob, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Resolve one job, sharing computation with identical peers."""
        task = self._inflight.get(job.fingerprint)
        if task is not None:
            self._count("inflight_dedup_hits")
        else:
            if len(self._inflight) >= self.max_pending:
                self._count("rejected_overload")
                raise Overloaded(
                    f"{len(self._inflight)} jobs pending "
                    f"(limit {self.max_pending}); retry shortly",
                    retry_after=1.0,
                )
            task = asyncio.get_running_loop().create_task(
                self._execute(job)
            )
            self._inflight[job.fingerprint] = task
            task.add_done_callback(
                lambda _: self._inflight.pop(job.fingerprint)
            )
            self._count("jobs_admitted")
        try:
            if timeout is None:
                return await asyncio.shield(task)
            return await asyncio.wait_for(asyncio.shield(task), timeout)
        except asyncio.TimeoutError:
            self._count("request_timeouts")
            raise RequestTimeout(
                f"request exceeded {timeout:.3f}s; the computation "
                "continues and a retry may hit the result cache"
            ) from None
        except asyncio.CancelledError:
            if task.cancelled() and not asyncio.current_task().cancelling():
                # Drain gave up on the job; the *request* was not
                # cancelled, so report a timeout instead of vanishing.
                raise RequestTimeout(
                    "server shut down before completion"
                ) from None
            raise
