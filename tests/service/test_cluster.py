"""Cluster coordinator tests over real sockets, in-process shards.

Each test boots N :class:`ServiceServer` shards (thread executor) and
one :class:`ClusterCoordinator` on ephemeral ports, all in background
threads, and talks real HTTP through the coordinator.  Allocate
requests on the loadgen kernel keep the compute cheap; raw-body
routing, pass-through of shard errors, failover, draining, and the
rollup endpoints are what's under test.
"""

import contextlib
import http.client
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.client import ServiceClient, ServiceError
from repro.service.cluster import ClusterConfig, ClusterCoordinator
from repro.service.loadgen import LOADGEN_KERNEL
from repro.service.server import ServiceConfig, ServiceServer


def allocate_body(entries: int = 3):
    return {
        "kernel": LOADGEN_KERNEL,
        "scheme": {
            "kind": "sw_lrf",
            "entries_per_thread": entries,
            "split_lrf": True,
        },
    }


def _safe_shutdown(server):
    """Idempotent shutdown (a test may have stopped the server already,
    leaving its event loop closed)."""
    try:
        server.request_shutdown()
    except RuntimeError:
        pass


@contextlib.contextmanager
def running_cluster(num_shards=2, **overrides):
    """(coordinator, shards): everything up, torn down afterwards."""
    with contextlib.ExitStack() as stack:
        shards = []
        for index in range(num_shards):
            server = ServiceServer(
                ServiceConfig(
                    port=0,
                    jobs=2,
                    executor="thread",
                    shard=f"{index}/{num_shards}",
                )
            )
            thread = threading.Thread(
                target=server.run_forever, daemon=True
            )
            thread.start()
            assert server.started.wait(10), "shard did not start"
            assert server._startup_error is None
            stack.callback(thread.join, 10)
            stack.callback(_safe_shutdown, server)
            shards.append(server)
        defaults = dict(
            port=0,
            shards=tuple(f"127.0.0.1:{s.port}" for s in shards),
            probe_interval_s=0.1,
        )
        defaults.update(overrides)
        coordinator = ClusterCoordinator(ClusterConfig(**defaults))
        thread = threading.Thread(
            target=coordinator.run_forever, daemon=True
        )
        thread.start()
        assert coordinator.started.wait(10), "coordinator did not start"
        assert coordinator._startup_error is None
        stack.callback(thread.join, 10)
        stack.callback(_safe_shutdown, coordinator)
        yield coordinator, shards


def client_for(coordinator) -> ServiceClient:
    return ServiceClient(port=coordinator.port)


def counters(coordinator):
    return coordinator.metrics.to_dict()["counters"]


def shards_touched(coordinator):
    return sorted(
        name
        for name in counters(coordinator)
        if name.startswith("cluster_shard_requests{")
    )


def post_raw(port, path, body: bytes):
    """(status, headers, body bytes) of one POST, no client decoding."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def test_coordinator_healthz_and_routing_determinism():
    with running_cluster(num_shards=2) as (coordinator, _):
        client = client_for(coordinator)
        health = client.healthz()
        assert health["role"] == "coordinator"
        assert health["shards"] == 2
        assert health["healthy_shards"] == 2

        first = client.allocate(**allocate_body())
        assert first["served_from"] == "computed"
        owner = first["shard"]
        assert owner in ("0/2", "1/2")
        for _ in range(3):
            repeat = client.allocate(**allocate_body())
            # Same body → same shard → shard-local memo hit.
            assert repeat["shard"] == owner
            assert repeat["served_from"] == "cache"
        assert shards_touched(coordinator) == [
            f'cluster_shard_requests{{shard="{owner.split("/")[0]}"}}'
        ]


def test_distinct_bodies_spread_and_dedup_survives():
    with running_cluster(num_shards=2) as (coordinator, _):
        client = client_for(coordinator)
        owners = {
            entries: client.allocate(**allocate_body(entries))["shard"]
            for entries in range(1, 9)
        }
        assert set(owners.values()) == {"0/2", "1/2"}, (
            "8 distinct fingerprints all routed to one shard"
        )
        rollup = client.cluster_healthz()
        assert sorted(rollup["shards"]) == ["0/2", "1/2"]
        for entries, owner in owners.items():
            assert (
                client.allocate(**allocate_body(entries))["shard"] == owner
            )
        metrics = client.cluster_metrics()
        per_shard = [
            entry["metrics"]["counters"].get("service_memo_hits", 0)
            for entry in metrics["shards"].values()
        ]
        assert all(hits >= 1 for hits in per_shard)
        assert metrics["aggregate"]["counters"]["service_memo_hits"] == 8
        assert metrics["aggregate"]["counters"]["jobs_executed"] == 8


def test_shard_400_passes_through_byte_for_byte():
    with running_cluster(num_shards=2) as (coordinator, shards):
        bad_bodies = (
            b"{not json",
            json.dumps({"benchmark": "no-such-benchmark"}).encode(),
        )
        for body in bad_bodies:
            status, _, through = post_raw(
                coordinator.port, "/v1/evaluate", body
            )
            direct = post_raw(shards[0].port, "/v1/evaluate", body)
            assert (status, through) == (direct[0], direct[2])
            assert status == 400
        error = json.loads(through)["error"]
        assert error["type"] == "bad_request"
        assert "no-such-benchmark" in error["message"]
        # The shards answered every bad body; the coordinator only
        # counted what passed through.
        client = client_for(coordinator)
        aggregate = client.cluster_metrics()["aggregate"]["counters"]
        assert aggregate["http_400"] == 2 * len(bad_bodies)
        assert counters(coordinator)["http_400"] == len(bad_bodies)
        status, _ = client.request_raw("POST", "/v1/allocate", None)
        assert status == 400
        status, _ = client.request_raw("GET", "/v1/allocate")
        assert status == 405
        status, _ = client.request_raw("GET", "/v1/nope")
        assert status == 404


def test_shard_death_fails_over_and_reports_unhealthy():
    # A huge probe interval keeps the background prober out of the
    # picture: the *forward* must discover the death and fail over.
    with running_cluster(num_shards=2, probe_interval_s=3600.0) as (
        coordinator,
        shards,
    ):
        client = client_for(coordinator)
        # Pin down which shard owns this body, then kill it.
        victim_label = client.allocate(**allocate_body())["shard"]
        victim = shards[int(victim_label.split("/")[0])]
        survivor_label = f"{1 - int(victim_label.split('/')[0])}/2"
        victim.request_shutdown()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                ServiceClient(port=victim.port, timeout=1.0).healthz()
            except OSError:
                break
            except ServiceError:
                pass  # 503 while draining: socket still open
            time.sleep(0.05)

        # The owning shard is gone: the job must fail over to the
        # survivor — a 200, not a 5xx storm.
        response = client.allocate(**allocate_body())
        assert response["shard"] == survivor_label
        assert counters(coordinator).get("cluster_retries", 0) >= 1

        rollup = client.cluster_healthz()
        assert rollup["status"] == "degraded"
        by_label = {
            entry["address"]: entry["healthy"]
            for entry in rollup["shards"].values()
        }
        assert by_label[f"127.0.0.1:{victim.port}"] is False
        assert by_label[f"127.0.0.1:{shards[1 - shards.index(victim)].port}"]
        assert client.healthz()["healthy_shards"] == 1

        # And new, never-seen work still lands somewhere healthy.
        fresh = client.allocate(**allocate_body(entries=7))
        assert fresh["shard"] == survivor_label


def test_draining_coordinator_rejects_new_work():
    with running_cluster(num_shards=1) as (coordinator, _):
        client = client_for(coordinator)
        assert client.allocate(**allocate_body())["served_from"]
        coordinator.draining = True
        status, payload = client.request_raw(
            "POST", "/v1/allocate", allocate_body()
        )
        assert status == 503
        assert payload["error"]["type"] == "draining"
        coordinator.draining = False


def test_prometheus_exposition_carries_shard_label():
    with running_cluster(num_shards=2) as (coordinator, _):
        client = client_for(coordinator)
        client.allocate(**allocate_body())
        connection = http.client.HTTPConnection(
            "127.0.0.1", coordinator.port
        )
        try:
            connection.request(
                "GET", "/metrics", headers={"Accept": "text/plain"}
            )
            response = connection.getresponse()
            text = response.read().decode("utf-8")
        finally:
            connection.close()
        assert "version=0.0.4" in response.getheader("Content-Type")
        assert 'repro_cluster_shard_requests_total{shard="' in text
        # HELP/TYPE appear once per family even with multiple labels.
        assert (
            text.count("# TYPE repro_cluster_shard_requests_total counter")
            == 1
        )


class _Shedding(BaseHTTPRequestHandler):
    """A stub shard: healthy on /healthz, 429 + Retry-After on jobs."""

    protocol_version = "HTTP/1.1"
    SHED_BODY = json.dumps({
        "error": {
            "type": "overloaded",
            "message": "stub shard shedding",
            "retry_after": 3,
        }
    }).encode("utf-8")

    def _reply(self, status, body, headers=()):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        self._reply(200, b'{"shard": "0/1", "status": "ok"}')

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        self._reply(429, self.SHED_BODY, [("Retry-After", "3")])

    def log_message(self, *args):
        pass


def test_shard_429_reaches_client_with_retry_after():
    stub = ThreadingHTTPServer(("127.0.0.1", 0), _Shedding)
    thread = threading.Thread(target=stub.serve_forever, daemon=True)
    thread.start()
    coordinator = ClusterCoordinator(
        ClusterConfig(
            port=0,
            shards=(f"127.0.0.1:{stub.server_address[1]}",),
            probe_interval_s=0.1,
        )
    )
    runner = threading.Thread(target=coordinator.run_forever, daemon=True)
    runner.start()
    try:
        assert coordinator.started.wait(10)
        status, headers, body = post_raw(
            coordinator.port,
            "/v1/allocate",
            json.dumps(allocate_body()).encode(),
        )
        assert status == 429
        assert headers["Retry-After"] == "3"
        assert body == _Shedding.SHED_BODY
        assert counters(coordinator).get("cluster_retries", 0) == 0
    finally:
        _safe_shutdown(coordinator)
        runner.join(10)
        stub.shutdown()
        stub.server_close()
    assert not runner.is_alive(), "coordinator did not shut down"
