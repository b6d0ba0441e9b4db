"""Allocation-as-a-service: the compile→allocate→evaluate pipeline
behind a JSON HTTP API.

The package layers, bottom up:

* :mod:`repro.service.protocol` — request/response schemas, the error
  taxonomy (HTTP status per error class), content fingerprints for
  request deduplication, and the raw-body key;
* :mod:`repro.service.pipeline` — the worker-side compute: a picklable
  job dict in, a JSON result dict out, sharing the registry trace memo
  of :mod:`repro.engine.jobs`;
* :mod:`repro.service.workers` — the forked worker pool the server's
  event loop drives over socketpairs, with respawn of dead workers;
* :mod:`repro.service.batcher` — micro-batching dispatcher with
  in-flight deduplication, bounded admission (backpressure), and
  per-request timeouts;
* :mod:`repro.service.httpd` — a hand-rolled HTTP/1.1 server, one
  ``asyncio.Protocol`` per connection (stdlib only, no
  ``http.server``);
* :mod:`repro.service.server` — the service itself: routing, bounded
  memo of results and repeated bodies' reply bytes +
  :class:`repro.engine.cache.DiskCache` reuse, metrics, graceful drain;
* :mod:`repro.service.client` — the one HTTP client: an async client
  on one keep-alive connection with the one retry loop, and a thin
  sync wrapper;
* :mod:`repro.service.loadgen` — the load-generator benchmark behind
  ``repro loadgen``.
"""

from .client import AsyncServiceClient, ServiceClient, ServiceError
from .server import ServiceConfig, ServiceServer

__all__ = [
    "AsyncServiceClient",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
]
