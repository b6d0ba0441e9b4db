"""POST /v1/tune: normalisation, dedup, worker path, live server."""

import contextlib
import threading

import pytest

from repro.engine import ExperimentEngine
from repro.service.client import ServiceClient
from repro.service.pipeline import run_service_job
from repro.service.protocol import BadRequest, normalize_request
from repro.service.server import ServiceConfig, ServiceServer
from repro.tuner import run_tune
from repro.tuner.space import space_from_dict
from repro.workloads.suites import get_workload

TUNE_BODY = {
    "benchmark": "vectoradd",
    "strategy": "hillclimb",
    "budget": 20,
    "seed": 3,
}


@contextlib.contextmanager
def running_server(**overrides):
    defaults = dict(port=0, jobs=2, executor="thread")
    defaults.update(overrides)
    server = ServiceServer(ServiceConfig(**defaults))
    thread = threading.Thread(target=server.run_forever, daemon=True)
    thread.start()
    assert server.started.wait(10), "server did not start"
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(10)


class TestNormalization:
    def test_defaults_are_filled_and_canonical(self):
        job = normalize_request("tune", {"benchmark": "vectoradd"})
        assert job.op == "tune"
        tune = job.payload["tune"]
        assert tune["strategy"] == "evolutionary"
        assert tune["budget"] == 64
        assert tune["seed"] == 0
        assert tune["objective"] == "energy"
        # The space is resolved to explicit axis lists.
        assert tune["space"]["parameters"]["orf_entries"] == list(
            range(1, 9)
        )
        assert tune["space"]["parameters"][
            "assume_persistent_strands"
        ] == [False]

    def test_equivalent_spellings_share_a_fingerprint(self):
        explicit = normalize_request(
            "tune",
            {
                "benchmark": "vectoradd",
                "strategy": "evolutionary",
                "budget": 64,
                "seed": 0,
                "objective": "energy",
            },
        )
        defaulted = normalize_request("tune", {"benchmark": "vectoradd"})
        assert explicit.fingerprint == defaulted.fingerprint

        restricted = normalize_request(
            "tune",
            {
                "benchmark": "vectoradd",
                "space": {"parameters": {"orf_entries": [1, 2]}},
            },
        )
        assert restricted.fingerprint != defaulted.fingerprint

    def test_distinct_search_params_get_distinct_fingerprints(self):
        base = normalize_request("tune", dict(TUNE_BODY))
        for override in (
            {"strategy": "exhaustive"},
            {"budget": 21},
            {"seed": 4},
            {"objective": "mrf"},
        ):
            other = normalize_request(
                "tune", dict(TUNE_BODY, **override)
            )
            assert other.fingerprint != base.fingerprint

    def test_kernel_text_form_includes_warps(self):
        kernel = (
            ".kernel tiny\n.livein R0 R1\nentry:\n"
            "    iadd R2, R0, R1\n    stg [R0], R2\n    exit\n"
        )
        job = normalize_request("tune", {"kernel": kernel, "budget": 5})
        assert job.payload["warps"] == [
            {"live_in": {}, "max_instructions": 200_000}
        ]

    @pytest.mark.parametrize(
        "body, match",
        [
            ({"benchmark": "vectoradd", "strategy": "annealing"},
             "unknown strategy"),
            ({"benchmark": "vectoradd", "objective": "latency"},
             "unknown objective"),
            ({"benchmark": "vectoradd", "budget": 0}, "budget"),
            ({"benchmark": "vectoradd", "budget": 100_000}, "budget"),
            ({"benchmark": "vectoradd", "seed": -1}, "seed"),
            ({"benchmark": "vectoradd", "scheme": {"kind": "sw"}},
             "'scheme' does not apply to tune"),
            ({"benchmark": "vectoradd",
              "space": {"parameters": {"orf_entries": [99]}}},
             "outside the supported axis"),
            ({"benchmark": "vectoradd", "bogus": 1}, "unknown request"),
        ],
    )
    def test_bad_requests_are_rejected(self, body, match):
        with pytest.raises(BadRequest, match=match):
            normalize_request("tune", body)


class TestWorkerPath:
    def test_worker_result_matches_direct_run_tune(self):
        job = normalize_request("tune", dict(TUNE_BODY))
        result = run_service_job(job.payload)
        assert result["op"] == "tune"
        assert result["kernel"] == "vectoradd"

        engine = ExperimentEngine()
        spec = get_workload("vectoradd", 1.0)
        traces = engine.build_traces(spec.kernel, spec.warp_inputs)
        direct = run_tune(
            traces,
            space=space_from_dict(job.payload["tune"]["space"]),
            strategy="hillclimb",
            budget=20,
            seed=3,
            engine=engine,
        )
        service = result["tuner"]
        assert service["best"] == direct["best"]
        assert service["frontier"] == direct["frontier"]
        assert service["trace"] == direct["trace"]

    def test_a_repeated_tune_computes_the_same_reply(self):
        # Each tune runs on an engine of its own, so a worker that ran
        # this search before computes it again, as a new worker would.
        job = normalize_request("tune", dict(TUNE_BODY))
        first = run_service_job(job.payload)
        second = run_service_job(job.payload)
        for result in (first, second):
            assert result["tuner"]["evaluations"]["fresh"] == 20
            del result["tuner"]["wall_time_s"]
        assert second == first


class TestLiveServer:
    def test_tune_round_trip_and_memo(self):
        with running_server() as server:
            client = ServiceClient(port=server.port)
            first = client.tune(**TUNE_BODY)
            assert first["served_from"] == "computed"
            tuner = first["tuner"]
            assert (
                tuner["best"]["objective"]
                <= tuner["baseline"]["objective"]
            )
            assert tuner["evaluations"]["distinct"] == 20

            second = client.tune(**TUNE_BODY)
            assert second["served_from"] == "cache"
            assert second["fingerprint"] == first["fingerprint"]
            assert second["tuner"] == first["tuner"]

    def test_tune_bad_request_is_400(self):
        with running_server() as server:
            client = ServiceClient(port=server.port)
            status, payload = client.request_raw(
                "POST", "/v1/tune",
                {"benchmark": "vectoradd", "strategy": "annealing"},
            )
            assert status == 400
            assert payload["error"]["type"] == "bad_request"
