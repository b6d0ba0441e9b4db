"""Allocation-as-a-service: the compile→allocate→evaluate pipeline
behind a JSON HTTP API.

The package layers, bottom up:

* :mod:`repro.service.protocol` — request/response schemas, the error
  taxonomy (HTTP status per error class), and content fingerprints for
  request deduplication;
* :mod:`repro.service.pipeline` — the worker-side compute: a picklable
  job dict in, a JSON result dict out, sharing the registry trace memo
  of :mod:`repro.engine.jobs`;
* :mod:`repro.service.batcher` — micro-batching dispatcher with
  in-flight deduplication, bounded admission (backpressure), and
  per-request timeouts;
* :mod:`repro.service.httpd` — a hand-rolled HTTP/1.1 server on
  asyncio streams (stdlib only, no ``http.server``);
* :mod:`repro.service.server` — the service itself: routing, bounded
  result memo + :class:`repro.engine.cache.DiskCache` reuse, metrics,
  graceful drain;
* :mod:`repro.service.client` — the one HTTP client: a keep-alive
  connection pool, an async client with the one retry loop, and a thin
  sync wrapper;
* :mod:`repro.service.loadgen` — the load-generator benchmark behind
  ``repro loadgen``, against one server or a cluster coordinator;
* :mod:`repro.service.cluster` — the scale-out tier: a stateless
  coordinator routing raw request bodies over N shard servers on a
  consistent hash ring (``repro cluster``).
"""

from .client import AsyncServiceClient, ServiceClient, ServiceError
from .cluster import ClusterConfig, ClusterCoordinator, ConsistentHashRing
from .server import ServiceConfig, ServiceServer

__all__ = [
    "AsyncServiceClient",
    "ClusterConfig",
    "ClusterCoordinator",
    "ConsistentHashRing",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
]
