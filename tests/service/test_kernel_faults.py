"""Malformed kernel text ends in a typed fault and a counter.

A seeded mutation fuzzer prints suite kernels as IR text, changes one
to three lines or tokens of each, and sends every body through
``normalize_request`` and then ``run_service_job``, as a pool worker
runs it.  Every body must end in a result, in a 400 ``parse_error``
(the text is not one well-formed kernel) or in a 422
``kernel_execution_error`` (it parses but cannot run on its warps).
One body per fault class the fuzzer found is pinned, and a few go
through the in-process server, whose ``/metrics`` counts each reply
and holds no ``http_500``.  Any other exception is an opaque 500, whose
traceback goes to the server's stderr and never to the client.
"""

import json
import random
import socket
from collections import Counter

import pytest

from repro.ir.printer import format_kernel
from repro.service.protocol import ServiceFault, normalize_request
from repro.service.pipeline import run_service_job
from repro.workloads.suites import BENCHMARK_NAMES, get_workload

from tests.service.test_server import client_for, running_server
from tests.service.test_workers import counters, post, process_server

SEED = 1234
#: Twelve suite kernels, small enough that a body runs in milliseconds.
KERNELS = BENCHMARK_NAMES[::3]
SCALE = 0.05
BODIES = 300
#: Keeps a mutant that loops forever cheap; the fault is the same at
#: the default 200,000.
MAX_INSTRUCTIONS = 20_000

#: (name, op, body, status, error type, message fragment): one body per
#: fault class the fuzzer found.
PINNED = [
    ("duplicate_label", "evaluate",
     {"kernel": ".kernel k\n.livein R0\nentry:\n    mov R1, R0\n"
                "entry:\n    exit\n"},
     400, "parse_error", "duplicate block label 'entry'"),
    ("falls_through", "allocate",
     {"kernel": ".kernel k\n.livein R0\nentry:\n    mov R1, R0\n"},
     400, "parse_error", "falls through past the end of the kernel"),
    ("branch_not_last", "allocate",
     {"kernel": ".kernel k\n.livein R0\nentry:\n    bra nowhere\n"
                "    mov R1, R0\n    exit\n"},
     400, "parse_error",
     "control-flow instruction bra nowhere is not last in its block"),
    ("unknown_label", "evaluate",
     {"kernel": ".kernel k\n.livein R0\nentry:\n    bra nowhere\n"
                "done:\n    exit\n"},
     400, "parse_error", "branch to unknown label 'nowhere'"),
    ("empty_block", "allocate",
     {"kernel": ".kernel k\n.livein R0\nentry:\ndone:\n    exit\n"},
     400, "parse_error", "block entry in k is empty"),
    ("bad_livein_register", "evaluate",
     {"kernel": ".kernel k\n.livein 9R1\nentry:\n    exit\n"},
     400, "parse_error", "not a register name: '9R1'"),
    ("uninitialised_read", "evaluate",
     {"kernel": ".kernel k\n.livein R0\nentry:\n    iadd R1, R7, 1\n"
                "    exit\n"},
     422, "kernel_execution_error", "read of uninitialised register R7"),
    ("instruction_budget", "evaluate",
     {"kernel": ".kernel k\n.livein R0\nentry:\n    mov R1, 0\nloop:\n"
                "    iadd R1, R1, 1\n    bra loop\ndone:\n    exit\n",
      "warps": [{"live_in": {"R0": 0}, "max_instructions": 1000}]},
     422, "kernel_execution_error", "exceeded 1000 dynamic instructions"),
]


def _mutate(rng: random.Random, text: str) -> str:
    """Delete, duplicate or swap a line, or replace or delete a token."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        index = rng.randrange(len(lines))
        kind = rng.randrange(5)
        if kind == 0 and len(lines) > 1:
            del lines[index]
        elif kind == 1:
            lines.insert(index, rng.choice(lines))
        elif kind == 2:
            other = rng.randrange(len(lines))
            lines[index], lines[other] = lines[other], lines[index]
        else:
            line = lines[index]
            indent = line[: len(line) - len(line.lstrip())]
            tokens = line.replace(",", " ,").split()
            if not tokens:
                continue
            slot = rng.randrange(len(tokens))
            if kind == 3:
                donor = rng.choice(lines).replace(",", " ,").split()
                tokens[slot] = rng.choice(donor or ["x"])
            else:
                del tokens[slot]
            lines[index] = indent + " ".join(tokens).replace(" ,", ",")
    return "\n".join(lines) + "\n"


def _fuzz_bodies():
    rng = random.Random(SEED)
    sources = []
    for name in KERNELS:
        spec = get_workload(name, SCALE)
        warp = spec.warp_inputs[0]
        sources.append((
            format_kernel(spec.kernel),
            [{"live_in": {str(reg): value
                          for reg, value in warp.live_in_values.items()},
              "max_instructions": MAX_INSTRUCTIONS}],
        ))
    for _ in range(BODIES):
        text, warps = rng.choice(sources)
        op = rng.choice(("allocate", "evaluate"))
        kind = rng.choice(("sw", "sw_lrf") if op == "allocate"
                          else ("sw", "sw_lrf", "hw", "baseline"))
        scheme = {"kind": kind}
        if kind != "baseline":
            scheme["entries_per_thread"] = rng.randint(1, 8)
        body = {"kernel": _mutate(rng, text), "scheme": scheme}
        if op == "evaluate":
            body["warps"] = warps
        yield op, body


def _outcome(op, body):
    """``(status, error type)`` of the body, computed in-process."""
    try:
        job = normalize_request(op, body)
        result = run_service_job(job.payload)
    except ServiceFault as fault:
        return fault.status, fault.error_type
    assert result["op"] == op
    return 200, None


def test_every_mutant_ends_in_a_result_or_a_typed_fault():
    outcomes = Counter(_outcome(op, body) for op, body in _fuzz_bodies())
    assert set(outcomes) == {
        (200, None),
        (400, "parse_error"),
        (422, "kernel_execution_error"),
    }, outcomes


@pytest.mark.parametrize(
    "op, body, status, error_type, message",
    [case[1:] for case in PINNED],
    ids=[case[0] for case in PINNED],
)
def test_pinned_fault_bodies(op, body, status, error_type, message):
    with pytest.raises(ServiceFault) as caught:
        run_service_job(normalize_request(op, body).payload)
    fault = caught.value
    assert (fault.status, fault.error_type) == (status, error_type)
    assert message in str(fault)


def test_typed_faults_cross_the_process_pool_and_are_counted():
    bodies = [case for case in PINNED
              if case[0] in ("duplicate_label", "bad_livein_register",
                             "uninitialised_read")]
    with process_server() as server:
        for _, op, body, status, error_type, message in bodies:
            got, _, reply = post(server.port, op, body)
            error = json.loads(reply)["error"]
            assert (got, error["type"]) == (status, error_type)
            assert message in error["message"]
        got, _, _ = post(server.port, "allocate", bodies[-1][2])
        assert got == 200  # allocation is static: nothing runs
        seen = counters(server)
    assert seen["http_400"] == 2
    assert seen["http_422"] == 1
    assert "http_500" not in seen


def test_an_unexpected_exception_is_an_opaque_counted_500(monkeypatch,
                                                          capsys):
    import repro.service.server as server_module

    def broken(payload):
        raise RuntimeError("boom: not a service fault")

    monkeypatch.setattr(server_module, "run_service_job", broken)
    with running_server() as server:
        status, payload = client_for(server).request_raw(
            "POST", "/v1/evaluate", {"benchmark": "vectoradd"}
        )
        assert status == 500
        assert payload["error"] == {
            "type": "internal_error", "message": "internal server error",
        }
        assert counters(server)["http_500"] == 1
        # A target carrying control bytes reaches the log escaped.
        body = b'{"benchmark": "vectoradd"}'
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(
                b"POST /v1/evaluate?\x1b[2J\r\x85 HTTP/1.1\r\n"
                b"Connection: close\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 500 ")
        assert counters(server)["http_500"] == 2
    # The client sees nothing of the cause; the server's log has it.
    err = capsys.readouterr().err
    assert "http 500 on 'POST' '/v1/evaluate':" in err
    assert "http 500 on 'POST' '/v1/evaluate?\\x1b[2J\\r\\x85':" in err
    assert not {"\x1b", "\x85"} & set(err)
    assert err.count("Traceback") == 2
    assert "RuntimeError: boom: not a service fault" in err
    assert "boom" not in json.dumps(payload)
    assert b"boom" not in reply

