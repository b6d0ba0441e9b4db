"""The service's forked worker pool, directly and behind a real server.

Unlike ``test_server.py``, whose servers run jobs on threads, these
tests fork real pool workers: frames past the socket buffer, faults
shipped back, a worker SIGKILLed idle and mid-job, replies
byte-identical to the in-process pipeline, worker spans joining their
request's trace, and a drain that leaves no child and no listener
behind.
"""

import asyncio
import contextlib
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro

from repro.alloc.analysis import clear_analysis_cache
from repro.engine import jobs as engine_jobs
from repro.obs.tracer import TRACER
from repro.service.httpd import json_response
from repro.service.loadgen import LOADGEN_KERNEL
from repro.service.pipeline import run_service_job
from repro.service.protocol import normalize_request
from repro.service.server import ServiceConfig, ServiceServer
from repro.service.workers import WorkerPool

SW_JSON = {"kind": "sw_lrf", "entries_per_thread": 3, "split_lrf": True}
#: About half a second of search on one worker: long enough to kill
#: the worker while it runs.
LONG_TUNE = {
    "benchmark": "sad", "scale": 32.0,
    "strategy": "exhaustive", "budget": 256,
}


@pytest.fixture(autouse=True)
def clean_tracer():
    TRACER.reset()
    yield
    TRACER.reset()


@contextlib.contextmanager
def process_server(**overrides):
    """A server on the default (process) executor in a thread."""
    server = ServiceServer(ServiceConfig(port=0, jobs=2, **overrides))
    thread = threading.Thread(target=server.run_forever, daemon=True)
    thread.start()
    assert server.started.wait(30), "server did not start"
    assert server._startup_error is None
    assert server.executor_kind == "process"
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(30)
        assert not thread.is_alive(), "server did not shut down"


def post(port, op, body):
    """POST ``body`` as JSON; returns ``(status, headers, reply bytes)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(
            "POST", f"/v1/{op}", body=json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def counters(server):
    return server.metrics.to_dict()["counters"]


def wait_until(predicate, budget_s=10.0):
    deadline = time.monotonic() + budget_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def busy_pids(server):
    return [w.pid for w in list(server._pool._workers) if w.future]


def test_pool_moves_large_frames_queues_calls_and_ships_faults():
    big = bytes(range(256)) * 8192  # 2 MB each way, past any socket buffer

    async def drive():
        pool = WorkerPool(2)
        pool.start()
        try:
            assert await pool.call(bytes, big) == big
            with pytest.raises(ValueError):
                await pool.call(int, "not a number")
            # Ten calls on two workers: eight wait in the queue.
            powers = await asyncio.gather(
                *(pool.call(pow, 2, n) for n in range(10))
            )
            assert powers == [2 ** n for n in range(10)]
            return pool.pids
        finally:
            await pool.close()

    for pid in asyncio.run(drive()):
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # reaped by close()


def test_process_pool_replies_match_the_pipeline_then_drain_clean():
    requests = [
        ("evaluate", {"benchmark": "vectoradd", "scale": 1.0,
                      "scheme": SW_JSON}),
        ("allocate", {"kernel": LOADGEN_KERNEL, "scheme": SW_JSON}),
        ("evaluate", {"kernel": LOADGEN_KERNEL, "scheme": SW_JSON}),
    ]
    with process_server() as server:
        port, pids = server.port, server._pool.pids
        for op, body in requests:
            job = normalize_request(op, body)
            want = dict(run_service_job(job.payload),
                        fingerprint=job.fingerprint, served_from="computed")
            assert post(port, op, body)[::2] == (
                200, json_response(200, want).body
            )

        # Traced, a job's worker spans come back under the server's
        # execute span, and the reply bytes stay the same.
        TRACER.configure(enabled=True)
        op, body = "evaluate", {"benchmark": "reduction", "scheme": SW_JSON}
        job = normalize_request(op, body)
        want = dict(run_service_job(job.payload),
                    fingerprint=job.fingerprint, served_from="computed")
        assert post(port, op, body)[::2] == (
            200, json_response(200, want).body
        )
        spans = TRACER.spans
        (request,) = [s for s in spans if s.name == "service.request"]
        (execute,) = [s for s in spans if s.name == "service.execute"]
        (worker,) = [s for s in spans if s.name == "run_service_job"]
        assert worker.pid in pids and execute.pid == os.getpid()
        assert worker.parent_id == execute.span_id
        assert worker.trace_id == execute.trace_id
        # The job's task inherits its request's context, so it joins
        # the request's trace.
        by_id = {s.span_id: s for s in spans}
        ancestors = [execute]
        while ancestors[-1].parent_id is not None:
            ancestors.append(by_id[ancestors[-1].parent_id])
        assert [s.name for s in ancestors] == [
            "service.execute", "stage.execute", "service.request"
        ]
        assert ancestors[-1] is request
        assert execute.trace_id == request.trace_id
        assert counters(server).get("worker_lost", 0) == 0

    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=5).close()


def worker_gauges(port):
    """The worker memo gauges as ``/metrics`` publishes them."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", "/metrics")
        gauges = json.loads(connection.getresponse().read())["gauges"]
    finally:
        connection.close()
    return (gauges["worker_analysis_memo_entries"],
            gauges["worker_traces_memo_entries"])


def test_worker_memo_gauges_count_registry_kernels_only():
    # The workers fork with this process's memos: start them empty.
    clear_analysis_cache()
    engine_jobs._TRACE_SETS.clear()
    with process_server() as server:
        port = server.port
        assert worker_gauges(port) == (0, 0)
        assert post(port, "evaluate", {"benchmark": "vectoradd"})[0] == 200
        assert worker_gauges(port) == (1, 1)
        # An IR-text job forgets its analysis, whichever worker ran it.
        for op in ("allocate", "evaluate"):
            body = {"kernel": LOADGEN_KERNEL, "scheme": SW_JSON}
            assert post(port, op, body)[0] == 200
            assert worker_gauges(port) == (1, 1)
        assert post(port, "evaluate", {"benchmark": "matrixmul"})[0] == 200
        assert worker_gauges(port) == (2, 2)

        # A lost worker's last report leaves the sums.
        pid, report = max(server._worker_memos.items(),
                          key=lambda item: item[1]["analysis"])
        os.kill(pid, signal.SIGKILL)
        wait_until(lambda: counters(server).get("worker_restarts") == 1)
        assert worker_gauges(port) == (2 - report["analysis"],
                                       2 - report["traces"])


def test_a_dead_worker_costs_one_request_not_the_server():
    with process_server() as server:
        port = server.port
        body = {"benchmark": "vectoradd", "scheme": SW_JSON}
        assert post(port, "evaluate", body)[0] == 200

        # Idle: nothing fails, the worker is replaced at once.
        idle = server._pool.pids[0]
        os.kill(idle, signal.SIGKILL)
        wait_until(lambda: counters(server).get("worker_restarts") == 1)
        assert counters(server)["worker_lost"] == 1
        assert idle not in server._pool.pids
        assert len(server._pool.pids) == 2
        status, _, reply = post(port, "evaluate", dict(body, scale=2.0))
        assert status == 200

        # Mid-job: that job alone fails, typed and retryable.
        outcome = {}
        tune = threading.Thread(
            target=lambda: outcome.update(reply=post(port, "tune", LONG_TUNE))
        )
        tune.start()
        wait_until(lambda: busy_pids(server))
        os.kill(busy_pids(server)[0], signal.SIGKILL)
        tune.join(60)
        status, headers, reply = outcome["reply"]
        assert status == 503
        assert headers["Retry-After"] == "1"
        error = json.loads(reply)["error"]
        assert error["type"] == "worker_lost"
        assert error["retry_after"] == 1.0
        wait_until(lambda: counters(server).get("worker_restarts") == 2)
        assert counters(server)["worker_lost"] == 2
        assert counters(server)["http_503"] == 1

        # The retry computes on the replacement.
        status, _, reply = post(port, "tune", LONG_TUNE)
        assert status == 200
        assert json.loads(reply)["served_from"] == "computed"
        assert post(port, "evaluate", body)[0] == 200
        assert server._health_payload()["status"] == "ok"


def children(pid):
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            with contextlib.suppress(OSError):
                stat = (entry / "stat").read_text()
                if int(stat.rpartition(")")[2].split()[1]) == pid:
                    found.append(int(entry.name))
    return sorted(found)


def signal_mask(pid, field):
    status = Path(f"/proc/{pid}/status").read_text()
    return int(re.search(rf"{field}:\s*([0-9a-f]+)", status).group(1), 16)


def has_signal(mask, signum):
    return bool(mask & (1 << (signum - 1)))


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="reads /proc")
def test_repro_serve_replaces_a_killed_worker_with_a_clean_child():
    """The CLI server forks a replacement after its listener, client
    connections and signal handlers exist; the child holds none."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, env=env, text=True,
    )
    try:
        port = int(re.search(
            r"listening on http://[^:]+:(\d+)", proc.stderr.readline()
        ).group(1))
        workers = children(proc.pid)
        assert len(workers) == 2
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        connection.request("GET", "/healthz")
        assert connection.getresponse().read()  # held open below

        os.kill(workers[0], signal.SIGKILL)
        wait_until(lambda: len(set(children(proc.pid)) - set(workers)) == 1)
        (fresh,) = set(children(proc.pid)) - set(workers)
        # Only stdio and its own socket survive the fork.
        wait_until(lambda: len(os.listdir(f"/proc/{fresh}/fd")) == 4)
        assert has_signal(signal_mask(proc.pid, "SigCgt"), signal.SIGTERM)
        assert not has_signal(signal_mask(fresh, "SigCgt"), signal.SIGTERM)
        assert has_signal(signal_mask(fresh, "SigIgn"), signal.SIGINT)

        connection.request("GET", "/metrics")
        metrics = json.loads(connection.getresponse().read())
        assert metrics["counters"]["worker_restarts"] == 1
        status, _, _ = post(port, "evaluate",
                            {"benchmark": "vectoradd", "scheme": SW_JSON})
        assert status == 200
        connection.close()

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(30) == 0
        for pid in [workers[1], fresh]:
            assert not Path(f"/proc/{pid}").exists()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
