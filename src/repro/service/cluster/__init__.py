"""Horizontally sharded allocation cluster.

A coordinator routes requests over N worker shards, where each shard
is today's :class:`~repro.service.server.ServiceServer`.  The
coordinator is a router, not a cache tier: it hashes each request's op
and raw body onto a consistent hash ring, and the owning shard parses,
computes and memoizes.  The pipeline core stays transport-agnostic: a
single-process server and a sharded cluster are just deployments.

The package layers, bottom up:

* :mod:`repro.service.cluster.ring` — the consistent hash ring
  (virtual nodes, stable placement, bounded movement on join/leave);
* :mod:`repro.service.cluster.coordinator` — the coordinator itself:
  admission, raw-body routing, retry-once failover, health probing,
  the ``/v1/cluster/healthz`` and ``/v1/cluster/metrics`` rollups,
  Prometheus metrics with a ``shard`` label.  It forwards through
  :class:`repro.service.client.ConnectionPool`, the service's one HTTP
  client;
* :mod:`repro.service.cluster.launcher` — the ``repro cluster`` entry
  point: spawn N shard subprocesses, run the coordinator, tear down.
"""

from .coordinator import ClusterConfig, ClusterCoordinator
from .ring import ConsistentHashRing

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "ConsistentHashRing",
]
