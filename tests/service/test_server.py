"""End-to-end service tests over a real listening socket.

Each test boots a :class:`ServiceServer` on an ephemeral port in a
background thread (thread executor — same results as the process pool,
no fork cost) and talks real HTTP through the client library.  The
concurrency behaviours are made deterministic by holding the job
rather than by timing races: the ``held_job`` fixture blocks
``run_service_job`` (which the thread executor runs in-process) until
the test releases it.  A held job outlives a short request timeout
(504), fills ``max_pending=1`` (429), collects identical requests
(in-flight dedup), and keeps a drain waiting until it completes.
"""

import contextlib
import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine.records import record_payload
from repro.service.client import ServiceClient, ServiceError
from repro.service.loadgen import LOADGEN_KERNEL
from repro.service.server import ServiceConfig, ServiceServer
from repro.service.protocol import body_key, scheme_from_json
from repro.sim.runner import build_traces, evaluate_traces
from repro.workloads.suites import get_workload

SW_JSON = {"kind": "sw_lrf", "entries_per_thread": 3, "split_lrf": True}
EVAL_BODY = {"benchmark": "vectoradd", "scale": 1.0, "scheme": SW_JSON}


@contextlib.contextmanager
def running_server(**overrides):
    defaults = dict(port=0, jobs=2, executor="thread")
    defaults.update(overrides)
    server = ServiceServer(ServiceConfig(**defaults))
    thread = threading.Thread(target=server.run_forever, daemon=True)
    thread.start()
    assert server.started.wait(10), "server did not start"
    assert server._startup_error is None
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(10)
        assert not thread.is_alive(), "server did not shut down"


def client_for(server: ServiceServer) -> ServiceClient:
    return ServiceClient(port=server.port)


@pytest.fixture
def held_job(monkeypatch):
    """Block every service job until the test sets the returned event."""
    import repro.service.server as server_module

    release = threading.Event()
    real = server_module.run_service_job

    def held(payload):
        assert release.wait(10), "held job was never released"
        return real(payload)

    monkeypatch.setattr(server_module, "run_service_job", held)
    yield release
    release.set()


def wait_until(condition, what, budget_s=5.0):
    deadline = time.monotonic() + budget_s
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.01)


def counter(server, name):
    return server.metrics.counters.get(name, 0)


def test_summary_counts_each_computed_job_as_a_service_miss():
    with running_server() as server:
        client = client_for(server)
        for body in (EVAL_BODY, EVAL_BODY, EVAL_BODY,
                     dict(EVAL_BODY, scale=2.0)):
            client.evaluate(**body)
    # Two computed; the repeats hit the fingerprint, then the stored
    # reply bytes.
    assert counter(server, "jobs_executed") == 2
    assert "service_hits=2 service_misses=2" in server.metrics.summary()


def test_health_routing_and_errors():
    with running_server() as server:
        client = client_for(server)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["executor"] == "thread"

        status, payload = client.request_raw("GET", "/nope")
        assert status == 404
        status, payload = client.request_raw("GET", "/v1/evaluate")
        assert status == 405
        status, payload = client.request_raw(
            "POST", "/v1/evaluate", {"benchmark": "vectoradd", "bogus": 1}
        )
        assert status == 400
        assert payload["error"]["type"] == "bad_request"


def test_evaluate_matches_direct_path_and_memoizes():
    with running_server() as server:
        client = client_for(server)
        first = client.evaluate(**EVAL_BODY)
        assert first["served_from"] == "computed"

        spec = get_workload("vectoradd", 1.0)
        traces = build_traces(spec.kernel, spec.warp_inputs)
        direct = record_payload(
            evaluate_traces(traces, scheme_from_json(SW_JSON))
        )
        assert json.dumps(first["record"], sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )

        second = client.evaluate(**EVAL_BODY)
        assert second["served_from"] == "cache"
        strip = lambda r: {  # noqa: E731
            k: v for k, v in r.items() if k != "served_from"
        }
        assert strip(second) == strip(first)


def test_result_memo_is_bounded_and_evicted_bodies_recompute(monkeypatch):
    import repro.service.server as server_module

    bound, extra = 3, 2
    monkeypatch.setattr(server_module, "RESULT_MEMO_ENTRIES", bound)
    bodies = [
        {
            "benchmark": "vectoradd",
            "scale": 1.0,
            "scheme": {"kind": "sw_lrf", "entries_per_thread": entries},
        }
        for entries in range(1, bound + extra + 1)
    ]
    with running_server() as server:
        client = client_for(server)
        first = [client.evaluate(**body) for body in bodies]
        assert {r["served_from"] for r in first} == {"computed"}
        metrics = client.metrics()
        assert metrics["gauges"]["service_memo_entries"] == bound
        assert metrics["counters"]["service_evictions"] == extra

        # The oldest bodies were evicted: asking again recomputes the
        # identical payload; the newest are still memoized.
        again = client.evaluate(**bodies[0])
        assert again["served_from"] == "computed"
        assert json.dumps(again, sort_keys=True) == json.dumps(
            first[0], sort_keys=True
        )
        assert client.evaluate(**bodies[-1])["served_from"] == "cache"
        counters = client.metrics()["counters"]
        assert counters["jobs_executed"] == bound + extra + 1
        assert counters["service_memo_hits"] == 1


def test_allocate_endpoint():
    with running_server() as server:
        result = client_for(server).allocate(
            kernel=LOADGEN_KERNEL, scheme=SW_JSON
        )
        assert result["summary"]["strands"] >= 1
        assert result["annotations"]


def test_parse_error_is_clean_400():
    with running_server() as server:
        client = client_for(server)
        status, payload = client.request_raw(
            "POST", "/v1/evaluate", {"kernel": "definitely not asm\n"}
        )
        assert status == 400
        assert payload["error"]["type"] == "parse_error"
        assert "Traceback" not in payload["error"]["message"]

        status, payload = client.request_raw("POST", "/v1/evaluate")
        assert status == 400  # invalid JSON body, still a clean error


def test_concurrent_identical_requests_share_one_computation(held_job):
    workers = 6
    with running_server() as server:
        clients = [client_for(server) for _ in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            replies = [pool.submit(c.evaluate, **EVAL_BODY) for c in clients]
            wait_until(
                lambda: counter(server, "inflight_dedup_hits")
                == workers - 1,
                "identical requests never joined the held job",
            )
            held_job.set()
            results = [reply.result() for reply in replies]
        fingerprints = {r["fingerprint"] for r in results}
        assert len(fingerprints) == 1
        payloads = {
            json.dumps(r["record"], sort_keys=True) for r in results
        }
        assert len(payloads) == 1

        counters = client_for(server).metrics()["counters"]
        assert counters["jobs_executed"] == 1
        # Every request beyond the first was served by in-flight dedup
        # (or, if it raced in after completion, by the result memo).
        shared = counters.get("inflight_dedup_hits", 0) + counters.get(
            "service_memo_hits", 0
        )
        assert shared == workers - 1
        assert counters.get("inflight_dedup_hits", 0) >= 1


def test_timeout_returns_504(held_job):
    # The job is held past the request budget: the wait
    # deterministically expires while the job is still running.
    with running_server(request_timeout_s=0.05) as server:
        with pytest.raises(ServiceError) as excinfo:
            client_for(server).evaluate(**EVAL_BODY)
        assert excinfo.value.status == 504
        assert excinfo.value.error_type == "timeout"
        # The computation survives the waiter: once the job is
        # released, the same request is served from the result memo.
        held_job.set()
        wait_until(lambda: server._batcher.pending == 0, "job never ended")
        result = client_for(server).evaluate(**EVAL_BODY)
        assert result["served_from"] == "cache"


def test_backpressure_returns_429_with_retry_after(held_job):
    with running_server(max_pending=1) as server:
        slow = {}

        def occupy():
            slow["result"] = client_for(server).evaluate(**EVAL_BODY)

        thread = threading.Thread(target=occupy)
        thread.start()
        wait_until(
            lambda: server._batcher.pending == 1, "first job never admitted"
        )

        # A *distinct* job beyond the admission bound is shed.
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        body = json.dumps(
            {"benchmark": "reduction", "scale": 1.0, "scheme": SW_JSON}
        )
        connection.request(
            "POST", "/v1/evaluate", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        assert response.status == 429
        assert response.getheader("Retry-After") == "1"
        assert payload["error"]["retry_after"] == 1.0
        connection.close()

        # An *identical* job rides the in-flight job for free.
        with ThreadPoolExecutor(max_workers=1) as pool:
            reply = pool.submit(client_for(server).evaluate, **EVAL_BODY)
            wait_until(
                lambda: counter(server, "inflight_dedup_hits") == 1,
                "identical job never joined the held one",
            )
            held_job.set()
            dup = reply.result()
        assert dup["record"]["dynamic_instructions"] > 0

        thread.join(10)
        assert slow["result"]["served_from"] == "computed"


def test_graceful_drain_completes_inflight_work(held_job):
    with running_server() as server:
        holder = {}

        def request():
            holder["result"] = client_for(server).evaluate(**EVAL_BODY)

        thread = threading.Thread(target=request)
        thread.start()
        wait_until(lambda: server._batcher.pending == 1, "job never admitted")

        # Shutdown lands while the job is still held; drain must wait
        # for it and answer the request, not drop it.
        server.request_shutdown()
        time.sleep(0.2)
        assert server.draining
        assert server._batcher.pending == 1
        assert thread.is_alive(), "request answered before the job ended"
        held_job.set()
        thread.join(10)
        assert not thread.is_alive()
        assert holder["result"]["served_from"] == "computed"
        assert holder["result"]["record"]["dynamic_instructions"] > 0


def test_draining_rejects_new_work_with_503():
    with running_server() as server:
        client = client_for(server)
        server.draining = True
        try:
            assert client.healthz()["status"] == "draining"
            status, payload = client.request_raw(
                "POST", "/v1/evaluate", EVAL_BODY
            )
            assert status == 503
            assert payload["error"]["type"] == "draining"
        finally:
            server.draining = False
        assert client.evaluate(**EVAL_BODY)["served_from"] == "computed"


def test_metrics_endpoint_is_schema_3():
    with running_server() as server:
        client = client_for(server)
        client.evaluate(**EVAL_BODY)
        metrics = client.metrics()
        assert metrics["schema"] == 3
        assert set(metrics) == {
            "schema", "stages", "counters", "gauges", "histograms"
        }
        assert metrics["counters"]["evaluate_responses"] == 1
        assert "service_in_flight" in metrics["gauges"]
        assert "execute" in metrics["stages"]
        # Request latency histogram is pre-registered at boot.
        histogram = metrics["histograms"]["http_request_seconds"]
        assert histogram["count"] >= 1
        assert len(histogram["bucket_counts"]) == len(histogram["bounds"]) + 1

        # A schema-2 consumer that only reads the original keys keeps
        # working: the new top-level key is additive.
        legacy_view = {
            k: metrics[k]
            for k in ("schema", "stages", "counters", "gauges")
        }
        assert legacy_view["counters"]["evaluate_responses"] == 1


def test_healthz_reports_uptime_and_schema():
    with running_server() as server:
        health = client_for(server).healthz()
        assert health["status"] == "ok"
        assert health["metrics_schema"] == 3
        assert health["uptime_seconds"] >= 0.0
        assert "version" in health


def test_metrics_prometheus_negotiation():
    with running_server() as server:
        client = client_for(server)
        client.evaluate(**EVAL_BODY)

        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        try:
            connection.request(
                "GET", "/metrics", headers={"Accept": "text/plain"}
            )
            response = connection.getresponse()
            body = response.read().decode("utf-8")
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "text/plain; version=0.0.4"
            )
        finally:
            connection.close()
        assert "# TYPE repro_http_request_seconds histogram" in body
        assert 'repro_http_request_seconds_bucket{le="+Inf"}' in body
        assert "repro_evaluate_responses_total 1" in body

        # The query-parameter form negotiates the same representation.
        status, text_payload = _raw_text(
            server.port, "/metrics?format=prometheus"
        )
        assert status == 200
        assert "repro_http_request_seconds_count" in text_payload

        # Default (no Accept header) stays JSON for existing scrapers.
        status, payload = client.request_raw("GET", "/metrics")
        assert status == 200
        assert payload["schema"] == 3


def _raw_text(port, path):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        connection.close()


# -- stored replies of repeated bodies ---------------------------------------

TUNE_BODY = {
    "benchmark": "vectoradd",
    "strategy": "hillclimb",
    "budget": 4,
    "seed": 3,
}
REPLY_BODIES = {
    "evaluate": EVAL_BODY,
    "allocate": {"kernel": LOADGEN_KERNEL, "scheme": SW_JSON},
    "tune": TUNE_BODY,
}


def post_bytes(port, op, body):
    """POST raw ``body`` bytes; returns ``(status, reply bytes)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(
            "POST", f"/v1/{op}", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def memo_hits(server):
    return server.metrics.to_dict()["counters"].get("service_memo_hits", 0)


def count_normalize_calls(monkeypatch):
    import repro.service.server as server_module

    calls = []
    real = server_module.normalize_request

    def spy(op, body):
        calls.append(op)
        return real(op, body)

    monkeypatch.setattr(server_module, "normalize_request", spy)
    return calls


@pytest.mark.parametrize("op", sorted(REPLY_BODIES))
def test_repeated_body_is_answered_with_the_memo_reply_bytes(
    op, monkeypatch
):
    normalized = count_normalize_calls(monkeypatch)
    body = json.dumps(REPLY_BODIES[op]).encode("utf-8")
    with running_server() as server:
        key = body_key(op, body)
        status, computed = post_bytes(server.port, op, body)
        assert status == 200
        assert json.loads(computed)["served_from"] == "computed"
        assert server._memo.get(key) is None  # computed: no reply stored
        assert memo_hits(server) == 0

        # The fingerprint path serves the repeat and stores its bytes.
        status, from_memo = post_bytes(server.port, op, body)
        assert status == 200
        assert json.loads(from_memo)["served_from"] == "cache"
        assert memo_hits(server) == 1
        assert len(normalized) == 2

        # Later repeats are those bytes, with nothing decoded again.
        for hits in (2, 3):
            status, stored = post_bytes(server.port, op, body)
            assert (status, stored) == (200, from_memo)
            assert memo_hits(server) == hits
        assert len(normalized) == 2
        counters = server.metrics.to_dict()["counters"]
        assert counters[f"{op}_responses"] == 4
        assert counters["jobs_executed"] == 1

        stripped = {
            k: v for k, v in json.loads(from_memo).items()
            if k != "served_from"
        }
        assert stripped == {
            k: v for k, v in json.loads(computed).items()
            if k != "served_from"
        }


def test_respelled_kernel_shares_fingerprint_and_result():
    respelled = "# the loadgen kernel, spelled differently\n\n" + "\n".join(
        f"{line}    ; line {number}" if line.strip() else line
        for number, line in enumerate(LOADGEN_KERNEL.splitlines())
    ).replace("loop:\n", "\nloop:\n\n") + "\n"
    assert respelled != LOADGEN_KERNEL
    bodies = [
        json.dumps({"kernel": text, "scheme": SW_JSON}).encode("utf-8")
        for text in (LOADGEN_KERNEL, respelled)
    ]
    with running_server() as server:
        status, original = post_bytes(server.port, "evaluate", bodies[0])
        assert status == 200
        status, other = post_bytes(server.port, "evaluate", bodies[1])
        assert status == 200
        first, second = json.loads(original), json.loads(other)
        assert second["served_from"] == "cache"
        assert second["fingerprint"] == first["fingerprint"]
        assert second["record"] == first["record"]
        # Both spellings' stored replies are the one memo reply.
        status, original_again = post_bytes(
            server.port, "evaluate", bodies[0]
        )
        assert status == 200
        for _ in range(2):
            assert post_bytes(server.port, "evaluate", bodies[1]) == (
                200, original_again
            )
        assert original_again == other
        assert server.metrics.to_dict()["counters"]["jobs_executed"] == 1


def test_invalid_body_answers_400_every_time_and_is_never_stored():
    invalid = [
        b'{"kernel": "definitely not asm"}',
        b'{"benchmark": "vectoradd", "bogus": 1}',
        b"{not json",
    ]
    with running_server() as server:
        for body in invalid:
            replies = {post_bytes(server.port, "evaluate", body)
                       for _ in range(3)}
            assert len(replies) == 1
            assert replies.pop()[0] == 400
        assert len(server._memo) == 0
        assert memo_hits(server) == 0


def test_body_seen_once_adds_no_stored_reply():
    bodies = [
        json.dumps({
            "benchmark": "vectoradd", "scale": 1.0,
            "scheme": {"kind": "sw_lrf", "entries_per_thread": entries},
        }).encode("utf-8")
        for entries in (1, 2, 3)
    ]
    with running_server() as server:
        for body in bodies:
            assert post_bytes(server.port, "evaluate", body)[0] == 200
        # One result per fingerprint, nothing under the body keys.
        assert len(server._memo) == len(bodies)
        for body in bodies:
            assert server._memo.get(body_key("evaluate", body)) is None


def test_draining_server_rejects_a_stored_body_with_503():
    body = json.dumps(EVAL_BODY).encode("utf-8")
    with running_server() as server:
        for _ in range(3):
            assert post_bytes(server.port, "evaluate", body)[0] == 200
        assert isinstance(
            server._memo.get(body_key("evaluate", body)), bytes
        )
        server.draining = True
        try:
            status, reply = post_bytes(server.port, "evaluate", body)
            assert status == 503
            assert json.loads(reply)["error"]["type"] == "draining"
        finally:
            server.draining = False


def test_corrupt_disk_entry_is_counted_and_recomputed(tmp_path):
    with running_server(cache_dir=str(tmp_path)) as server:
        first = client_for(server).evaluate(**EVAL_BODY)
    (entry,) = tmp_path.glob("service/*/*.json")
    entry.write_text("{torn")
    with running_server(cache_dir=str(tmp_path)) as server:
        client = client_for(server)
        again = client.evaluate(**EVAL_BODY)
        counters = client.metrics()["counters"]
    assert again["served_from"] == "computed"
    assert again["record"] == first["record"]
    assert counters["disk_cache_corrupt_entries"] == 1
    assert counters.get("service_disk_hits", 0) == 0


# -- bounded reads -------------------------------------------------------------


@pytest.fixture
def short_read_timeouts(monkeypatch):
    import repro.service.httpd as httpd

    monkeypatch.setattr(httpd, "IDLE_TIMEOUT_S", 1.0)
    monkeypatch.setattr(httpd, "READ_DEADLINE_S", 0.5)


def read_timeouts(server):
    return server.metrics.to_dict()["counters"].get("http_read_timeouts", 0)


def wait_for_close(sock, budget_s=10.0):
    """Seconds until the server closes ``sock`` (EOF)."""
    sock.settimeout(budget_s)
    began = time.monotonic()
    assert sock.recv(1024) == b""
    return time.monotonic() - began


@pytest.mark.parametrize("partial", [
    b"POST /v1/evaluate HTT",
    b"POST /v1/evaluate HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"ben",
])
def test_stalled_client_is_disconnected_and_counted(
    short_read_timeouts, partial
):
    with running_server() as server:
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(partial)
            assert wait_for_close(sock) < 5.0
        deadline = time.monotonic() + 5.0
        while read_timeouts(server) < 1:
            assert time.monotonic() < deadline, "timeout not counted"
            time.sleep(0.01)
        assert read_timeouts(server) == 1
        # The server still serves.
        assert client_for(server).healthz()["status"] == "ok"


def test_client_silent_after_a_late_first_request_is_disconnected(
    short_read_timeouts
):
    # The request lands 0.6 s into the first 1 s idle window, so the
    # timer set at connect fires before the idle deadline that follows
    # the reply and must re-arm itself for it.
    with running_server() as server:
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            began = time.monotonic()
            time.sleep(0.6)
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n")
            sock.settimeout(5.0)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
            # Closed one idle timeout after the reply, not at the first
            # timer (1 s) and not never.
            assert 1.5 <= time.monotonic() - began < 3.5
            assert reply.startswith(b"HTTP/1.1 200 ")
            assert reply.count(b"HTTP/1.1 ") == 1
        deadline = time.monotonic() + 5.0
        while read_timeouts(server) < 1:
            assert time.monotonic() < deadline, "timeout not counted"
            time.sleep(0.01)
        assert read_timeouts(server) == 1


def test_keep_alive_pause_below_idle_timeout_is_kept(short_read_timeouts):
    # Three pauses of 0.4 s outlast one idle timeout together, not
    # singly: the idle clock restarts with every request.
    with running_server() as server:
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        try:
            connection.connect()
            sock = connection.sock
            for _ in range(4):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                time.sleep(0.4)
            assert connection.sock is sock  # never reconnected
        finally:
            connection.close()
        assert read_timeouts(server) == 0


def test_framing_errors_get_typed_replies_and_are_counted():
    big = ServiceConfig().max_body_bytes + 1
    cases = [
        (b"POST /v1/evaluate HTTP/1.1\r\nContent-Length: x\r\n\r\n", 400),
        (b"POST /v1/evaluate HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % big,
         413),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /healthz HTTP/1.1\r\n"
         + b"".join(b"X-H%d: v\r\n" % n for n in range(101)) + b"\r\n", 431),
        (b"POST /v1/evaluate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"2\r\n{}\r\n0\r\n\r\n", 501),
    ]
    with running_server() as server:
        for request, status in cases:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                sock.sendall(request)
                reply = b""
                try:
                    while chunk := sock.recv(65536):
                        reply += chunk
                except ConnectionResetError:
                    pass
            assert reply.startswith(b"HTTP/1.1 %d " % status), reply[:40]
            assert reply.count(b"HTTP/1.1 ") == 1
            assert b'"type": "protocol_error"' in reply
        counters = server.metrics.to_dict()["counters"]
        assert counters["http_protocol_errors"] == len(cases)
        assert counters.get("http_requests", 0) == 0
        assert client_for(server).healthz()["status"] == "ok"


# -- bounded connections -------------------------------------------------------


def test_connection_past_the_cap_gets_503_and_is_counted(monkeypatch):
    import repro.service.httpd as httpd

    monkeypatch.setattr(httpd, "MAX_CONNECTIONS", 2)
    with running_server() as server:
        held = [
            http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            for _ in range(2)
        ]
        for connection in held:
            connection.request("GET", "/healthz")
            assert connection.getresponse().read()

        extra = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        extra.request("GET", "/healthz")
        response = extra.getresponse()
        payload = json.loads(response.read())
        assert response.status == 503
        assert response.getheader("Connection") == "close"
        assert response.getheader("Retry-After") == "1"
        assert payload["error"]["type"] == "too_many_connections"
        extra.close()
        counters = server.metrics.to_dict()["counters"]
        assert counters["http_connections_refused"] == 1

        # The held connections still serve, and a freed slot admits
        # the next connection.
        held[0].request("GET", "/healthz")
        assert held[0].getresponse().status == 200
        held[1].close()
        deadline = time.monotonic() + 5.0
        while server._http.open_connections > 1:
            assert time.monotonic() < deadline, "closed slot never freed"
            time.sleep(0.01)
        assert client_for(server).healthz()["status"] == "ok"
        held[0].close()
