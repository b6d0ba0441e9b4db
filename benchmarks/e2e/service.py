"""The service workloads: ``repro serve`` driven over HTTP.

Each repeat starts a fresh ``repro serve --port 0`` with its defaults
(two pool workers, process executor), reads the bound port from the
announce line, and times set-up from spawn to the first ``/healthz``
answer.  One load-generator process then runs a closed loop over two
keep-alive connections: each connection sends its next request only
after the reply to the previous one, the way ``repro loadgen`` drives a
server.

Both traffic mixes come from ``repro.service.loadgen.build_plan``, the
plan the repository's own load generator and its CI service job send:
about 69% ``/v1/evaluate`` of a benchmark by name, 13% ``/v1/allocate``
and 12% ``/v1/evaluate`` of IR text, and 6% invalid bodies that must be
answered 400.

* ``serve_hot`` replays that plan (300 requests, 18 distinct bodies) in
  an order drawn from the seed.  A warm-up pass, not timed, puts every
  result in the server's memo, so every timed request reads it, as in
  the warm phase of ``repro loadgen``.
* ``serve_cold`` keeps the plan's slots but makes every valid body
  distinct, so each misses the memo: the benchmark slots walk the 36
  suite benchmarks under the plan's four scheme kinds with 1-8 entries
  in a seeded order, and the IR-text slots carry distinct seeded fuzz
  kernels with one warp, as the plan's own IR-text requests have.

Correctness: every reply must have the status the plan expects.  Every
hot reply must equal, byte for byte, the memo's reply to the same body
during set-up; the set-up replies (computed and from the memo), and a
seeded tenth of the cold replies, must equal the in-process
``run_service_job`` result (or the fault ``normalize_request`` raises)
for the same body.  After the drain no ``repro serve`` process of this
run may remain.

Peak RSS (``VmHWM``) of the server and its pool workers is summed once
500 requests have been answered, so it measures the same amount of
work on a fast and a slow run.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

CONNECTIONS = 2
RSS_AT_REQUESTS = 500
#: ``repro loadgen``'s default ``--requests``: the hot plan's length.
HOT_PLAN = 300
#: Enough for a server's share of the window; the plan also ends when
#: every (benchmark, scheme) pair has been asked once.
COLD_REQUESTS = 3000
COLD_SAMPLE = 0.1
MARK_VAR = "REPRO_E2E_MARK"

#: The scheme kinds of the loadgen plan; the cold benchmark slots take
#: each with 1-8 entries (sw_lrf with a split and a unified LRF;
#: baseline has no entries): 41 schemes, 1,476 (benchmark, scheme) pairs.
COLD_SCHEMES = [
    {"kind": "sw_lrf", "entries_per_thread": n, "split_lrf": split}
    for split in (True, False) for n in range(1, 9)
] + [{"kind": kind, "entries_per_thread": n}
     for kind in ("sw", "hw") for n in range(1, 9)] + [{"kind": "baseline"}]

#: Response fields the serving tier adds on top of the computation.
ENVELOPE = ("fingerprint", "served_from", "shard")

_ANNOUNCE = re.compile(r"listening on http://[^:]+:(\d+)")

#: ``(op, body, expected status)``
Spec = Tuple[str, Dict[str, Any], int]


# -- inputs ----------------------------------------------------------------


def _plan(count: int) -> List[Spec]:
    from repro.service.loadgen import build_plan

    return [(s["op"], s["body"], s["expect"])
            for s in build_plan(count, CONNECTIONS)]


def _fuzz(seed: int) -> Tuple[str, List[Dict[str, Any]]]:
    from repro.ir.printer import format_kernel
    from repro.workloads.generators import generate_workload

    spec = generate_workload(seed, num_warps=1)
    warps = [
        {"live_in": {str(reg): value
                     for reg, value in warp.live_in_values.items()}}
        for warp in spec.warp_inputs
    ]
    return format_kernel(spec.kernel), warps


def cold_specs(seed: int, count: int) -> List[Spec]:
    """The loadgen plan with every valid body made distinct."""
    from repro.workloads.suites import BENCHMARK_NAMES

    pairs = [(name, scheme) for name in BENCHMARK_NAMES
             for scheme in COLD_SCHEMES]
    random.Random(seed).shuffle(pairs)
    specs: List[Spec] = []
    for index, (op, body, expect) in enumerate(_plan(count)):
        if expect != 200:
            pass
        elif "kernel" in body:
            text, warps = _fuzz(seed * 100_000 + index)
            body = {"kernel": text, "scheme": body["scheme"]}
            if op == "evaluate":
                body["warps"] = warps
        elif pairs:
            name, scheme = pairs.pop()
            body = {"benchmark": name, "scale": 1.0, "scheme": scheme}
        else:
            break  # every (benchmark, scheme) pair has been asked
        specs.append((op, body, expect))
    return specs


def hot_specs() -> Tuple[List[Spec], List[int]]:
    """The distinct bodies of the loadgen plan, and the plan as indices
    into them.  The plan is the same for every seed; the seed draws the
    order of the timed requests."""
    distinct: List[Spec] = []
    seen: Dict[str, int] = {}
    plan = []
    for spec in _plan(HOT_PLAN):
        key = json.dumps(spec, sort_keys=True)
        if key not in seen:
            seen[key] = len(distinct)
            distinct.append(spec)
        plan.append(seen[key])
    return distinct, plan


def encode(spec: Spec) -> bytes:
    op, payload, _ = spec
    data = json.dumps(payload).encode("utf-8")
    head = (
        f"POST /v1/{op} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\n\r\n"
    )
    return head.encode("latin-1") + data


#: ``(status, fingerprint or None for a fault, canonical payload JSON)``
Expected = Tuple[int, Optional[str], str]


def expected_reply(spec: Spec) -> Expected:
    """What the server must answer, computed in this process."""
    from repro.service.pipeline import run_service_job
    from repro.service.protocol import ServiceFault, normalize_request

    op, body, _ = spec
    try:
        job = normalize_request(op, body)
    except ServiceFault as fault:
        return fault.status, None, json.dumps(fault.to_payload(),
                                              sort_keys=True)
    result = run_service_job(job.payload)
    return 200, job.fingerprint, json.dumps(result, sort_keys=True)


def reply_matches(spec: Spec, status: int, reply: bytes,
                  cache: Dict[int, Expected], index: int,
                  served_from: Optional[str] = None) -> bool:
    """Whether ``reply`` is the in-process answer to ``spec`` (and, for
    a result, came from ``served_from`` when that is given)."""
    if index not in cache:
        cache[index] = expected_reply(spec)
    want_status, fingerprint, want = cache[index]
    try:
        payload = json.loads(reply)
    except ValueError:
        return False
    if status != want_status:
        return False
    if fingerprint is None:
        return json.dumps(payload, sort_keys=True) == want
    stripped = {k: v for k, v in payload.items() if k not in ENVELOPE}
    return (payload.get("fingerprint") == fingerprint
            and json.dumps(stripped, sort_keys=True) == want
            and served_from in (None, payload.get("served_from")))


# -- the server process tree -----------------------------------------------


def _children(pid: int) -> List[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rpartition(")")[2].split()[1]) == pid:
            found.append(int(entry.name))
    return found


def _hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def serve_processes(marker: str) -> List[int]:
    """Live ``repro serve`` processes of this run, by process listing."""
    tag = f"{MARK_VAR}={marker}".encode()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            environ = (entry / "environ").read_bytes()
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if tag in environ.split(b"\0") and b"serve" in cmdline:
            found.append(int(entry.name))
    return found


class Server:
    """One ``repro serve`` process tree on an ephemeral port."""

    def __init__(self, workdir: Path, name: str, marker: str,
                 trace_dir: Optional[Path] = None) -> None:
        self.log_path = workdir / f"{name}.log"
        self.marker = marker
        self.trace_dir = trace_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        """Spawn, wait for the announce line and ``/healthz``; returns
        the seconds that took."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env[MARK_VAR] = self.marker
        if self.trace_dir is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(self.trace_dir)]
        began = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                command + ["--port", "0"], stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log, env=env,
                cwd=self.log_path.parent,
            )
        deadline = time.monotonic() + timeout
        while not self.port:
            match = _ANNOUNCE.search(self.log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start; see {self.log_path}")
            else:
                time.sleep(0.002)
        if self.get("/healthz").get("status") != "ok":
            raise RuntimeError("server is not healthy")
        return time.perf_counter() - began

    def get(self, path: str) -> Dict[str, Any]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=30)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def tree_hwm_mb(self) -> float:
        pid = self.proc.pid
        return sum(_hwm_kb(p) for p in [pid] + _children(pid)) / 1024.0

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain), reap; returns the exit status."""
        proc = self.proc
        if proc is None or proc.returncode is not None:
            return proc.returncode if proc else 0
        proc.send_signal(signal.SIGTERM)
        try:
            return proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -9


def reap_leftovers(marker: str, grace: float = 5.0) -> int:
    """Wait for this run's ``repro serve`` processes to go; kill and
    count any that outlive ``grace``."""
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        left = serve_processes(marker)
        if not left:
            return 0
        time.sleep(0.05)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    return len(left)


# -- the closed-loop client ------------------------------------------------


class _Connection:
    """One keep-alive connection that returns replies as raw bytes.

    ``repro.service.client`` decodes every reply, but hot replies are
    compared byte for byte, and decoding would add client cost to every
    measured request.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port)

    async def exchange(self, request: bytes) -> Tuple[int, bytes]:
        self.writer.write(request)
        status = int((await self.reader.readline()).split(b" ", 2)[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass


Pick = Callable[[], Optional[int]]
Check = Callable[[int, int, bytes], bool]


async def _closed_loop(port: int, requests: List[bytes], pick: Pick,
                       check: Check, seconds: float,
                       probe: Optional[Callable[[], float]]
                       ) -> Dict[str, Any]:
    latencies: List[float] = []
    probed: List[float] = []
    failed = 0
    connections = [_Connection(port) for _ in range(CONNECTIONS)]
    for connection in connections:
        await connection.open()

    async def loop(connection: _Connection) -> None:
        nonlocal failed
        while time.monotonic() < deadline:
            index = pick()
            if index is None:
                return
            began = time.perf_counter()
            try:
                status, reply = await connection.exchange(requests[index])
            except (OSError, asyncio.IncompleteReadError, ValueError):
                failed += 1
                return
            latencies.append(time.perf_counter() - began)
            if not check(index, status, reply):
                failed += 1
            if probe is not None and len(latencies) == RSS_AT_REQUESTS:
                probed.append(probe())

    start = time.monotonic()
    deadline = start + seconds
    began = time.perf_counter()
    try:
        await asyncio.gather(*(loop(c) for c in connections))
    finally:
        elapsed = time.perf_counter() - began
        for connection in connections:
            await connection.close()
    return {"n": len(latencies), "failed": failed, "elapsed": elapsed,
            "start": start, "end": time.monotonic(),
            "latencies": latencies, "probed": probed}


def closed_loop(port: int, requests: List[bytes], pick: Pick, check: Check,
                seconds: float,
                probe: Optional[Callable[[], float]] = None
                ) -> Dict[str, Any]:
    """Drive ``requests[pick()]`` over the connections for ``seconds``
    (or until ``pick`` returns None); ``check`` judges each reply, and
    ``probe`` runs once, after reply number ``RSS_AT_REQUESTS``."""
    return asyncio.run(_closed_loop(port, requests, pick, check, seconds,
                                    probe))


def _sequence(count: int) -> Pick:
    indices = iter(range(count))
    return lambda: next(indices, None)


# -- the workloads ---------------------------------------------------------


def run(workload: str, seed: int, segments: List[Tuple[float, bool]],
        workdir: Path, until: Optional[float] = None,
        smoke: bool = False) -> Dict[str, Any]:
    """Run ``serve_cold`` or ``serve_hot`` as one fresh server per
    ``(seconds, traced)`` segment, then more servers like the last one
    until ``until`` seconds have passed; returns the raw measurements."""
    hot = workload == "serve_hot"
    if hot:
        specs, plan = hot_specs()
    else:
        specs = cold_specs(seed, 80 if smoke else COLD_REQUESTS)
    requests = [encode(spec) for spec in specs]
    sampler = random.Random(seed)
    sample = {i for i in range(len(specs)) if sampler.random() < COLD_SAMPLE}
    marker = f"{os.getpid()}-{seed}-{time.monotonic_ns()}"
    picker = random.Random(seed)
    # hot: the set-up replies, computed and then from the memo, as
    # (status, bytes); the memo replies are the timed requests' reference.
    first: List[Optional[Tuple[int, bytes]]] = []
    cached: List[Optional[Tuple[int, bytes]]] = []
    kept: Dict[int, List[Tuple[int, bytes]]] = {}  # cold: sampled replies
    result: Dict[str, Any] = {"repeats": [], "attempted": 0, "failed": 0,
                              "problems": []}

    def fail(message: str, count: int = 1) -> None:
        result["failed"] += count
        if len(result["problems"]) < 20:
            result["problems"].append(message)

    def keep_all(store: List[Optional[Tuple[int, bytes]]]) -> Check:
        def check(index: int, status: int, reply: bytes) -> bool:
            store[index] = (status, reply)
            return status == specs[index][2]
        return check

    def check_hot(index: int, status: int, reply: bytes) -> bool:
        return (status, reply) == cached[index]

    def check_cold(index: int, status: int, reply: bytes) -> bool:
        if index in sample:
            kept.setdefault(index, []).append((status, reply))
        return status == specs[index][2]

    began = time.monotonic()
    number = 0
    while number < len(segments) or (
            until is not None
            and time.monotonic() - began + segments[-1][0] / 2 < until):
        seconds, traced = segments[min(number, len(segments) - 1)]
        trace_dir = workdir / f"trace-{number}" if traced else None
        server = Server(workdir, f"server-{number}", marker, trace_dir)
        repeat: Dict[str, Any] = {"traced": traced, "trace_dir": trace_dir}
        try:
            repeat["setup_s"] = server.start()
            if hot:
                computed: List[Optional[Tuple[int, bytes]]] = (
                    [None] * len(specs))
                warm = closed_loop(server.port, requests,
                                   _sequence(len(specs)),
                                   keep_all(computed), 600.0)
                memo: List[Optional[Tuple[int, bytes]]] = [None] * len(specs)
                again = closed_loop(server.port, requests,
                                    _sequence(len(specs)), keep_all(memo),
                                    600.0)
                repeat["fill_s"] = warm["elapsed"]
                if warm["failed"] or again["failed"]:
                    fail(f"server {number}: set-up requests failed",
                         warm["failed"] + again["failed"])
                if not cached:
                    first, cached = computed, memo
                elif computed != first or memo != cached:
                    fail(f"server {number}: set-up replies differ from "
                         "server 0")
                pick = lambda: plan[picker.randrange(len(plan))]
                check = check_hot
            else:
                pick, check = _sequence(len(specs)), check_cold
            if traced:
                repeat["metrics_before"] = server.get("/metrics")
            segment = closed_loop(server.port, requests, pick, check,
                                  seconds, server.tree_hwm_mb)
            if traced:
                repeat["metrics_after"] = server.get("/metrics")
            # Peak memory after a fixed number of requests, so a faster
            # run (which fills the cold memo further) reads the same.
            repeat["hwm_mb"] = (segment["probed"] or
                                [server.tree_hwm_mb()])[0]
            repeat.update(segment)
            result["attempted"] += segment["n"]
            if segment["failed"]:
                fail(f"server {number}: {segment['failed']} failed requests",
                     segment["failed"])
        except (RuntimeError, OSError, ValueError) as error:
            fail(f"server {number}: {error}")
        finally:
            status = server.stop()
            if status != 0:
                fail(f"server {number} exited with status {status}")
        result["repeats"].append(repeat)
        number += 1
    leftovers = reap_leftovers(marker)
    if leftovers:
        fail(f"{leftovers} repro serve processes outlived the drain")

    # Correctness against the in-process pipeline, outside the timing.
    expected: Dict[int, Expected] = {}
    if hot:
        to_check = [(i, reply, None) for i, reply in enumerate(first)]
        to_check += [(i, reply, "cache" if specs[i][2] == 200 else None)
                     for i, reply in enumerate(cached)]
    else:
        to_check = [(i, reply, None) for i, replies in sorted(kept.items())
                    for reply in replies]
    for index, reply, served_from in to_check:
        result["attempted"] += 1
        if reply is None or not reply_matches(specs[index], *reply,
                                              expected, index, served_from):
            fail(f"reply to request {index} differs from the in-process "
                 "result")
    return result
