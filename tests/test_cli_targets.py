"""The shared trace/explain/tune target resolver and the tune command."""

import json

import pytest

from repro.cli import _TargetError, _resolve_target, main

TINY_KERNEL = (
    ".kernel tiny\n"
    ".livein R0 R1\n"
    "entry:\n"
    "    iadd R2, R0, R1\n"
    "    stg [R0], R2\n"
    "    exit\n"
)


class TestResolver:
    def test_benchmark_name(self):
        spec = _resolve_target("vectoradd")
        assert spec.name == "vectoradd"
        assert spec.warp_inputs

    def test_fuzz_seed(self):
        spec = _resolve_target("fuzz:320", num_warps=1)
        assert spec.name == "fuzz_320"
        assert len(spec.warp_inputs) == 1
        assert spec.suite == "fuzz"

    def test_file(self, tmp_path):
        path = tmp_path / "tiny.asm"
        path.write_text(TINY_KERNEL)
        spec = _resolve_target(str(path))
        assert spec.name == "tiny"
        assert spec.suite == "file"
        assert spec.warp_inputs

    def test_bad_fuzz_seed(self):
        with pytest.raises(_TargetError, match="fuzz:SEED"):
            _resolve_target("fuzz:abc")

    def test_missing_file(self, tmp_path):
        with pytest.raises(_TargetError):
            _resolve_target(str(tmp_path / "absent.asm"))

    def test_unparsable_file(self, tmp_path):
        path = tmp_path / "bad.asm"
        path.write_text("not assembly\n")
        with pytest.raises(_TargetError, match="parse error"):
            _resolve_target(str(path))


class TestTraceTargets:
    def test_trace_accepts_fuzz_target(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "fuzz:320", "--trace-out", str(out)]) == 0
        assert "fuzz_320" in capsys.readouterr().out
        assert out.exists()

    def test_trace_accepts_file_target(self, tmp_path, capsys):
        path = tmp_path / "tiny.asm"
        path.write_text(TINY_KERNEL)
        out = tmp_path / "trace.json"
        assert main(["trace", str(path), "--trace-out", str(out)]) == 0
        assert "tiny" in capsys.readouterr().out

    def test_trace_bad_target_exits_2(self, capsys):
        assert main(["trace", "fuzz:abc"]) == 2
        assert "fuzz:SEED" in capsys.readouterr().err

    def test_trace_help_documents_target_forms(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "--help"])
        help_text = capsys.readouterr().out
        assert "fuzz:SEED" in help_text


class TestExplainJson:
    def test_explain_json_output(self, capsys):
        assert main(["explain", "vectoradd", "--json", "--reg", "R2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == "vectoradd"
        assert payload["filter"]["reg"] == "R2"
        assert "decision_trail" in payload

    def test_explain_text_unchanged(self, capsys):
        assert main(["explain", "vectoradd"]) == 0
        out = capsys.readouterr().out
        assert "allocation provenance" in out


class TestTuneCommand:
    def test_tune_writes_payload_and_prints_report(
        self, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_tuner.json"
        assert (
            main(
                [
                    "tune", "fuzz:911",
                    "--strategy", "evolutionary",
                    "--budget", "30",
                    "--seed", "7",
                    "--out", str(out),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "why this config" in printed
        assert "frontier" in printed
        payload = json.loads(out.read_text())
        assert payload["kernel"] == "fuzz_911"
        assert payload["evaluations"]["distinct"] == 30
        assert (
            payload["best"]["objective"]
            <= payload["baseline"]["objective"]
        )

    def test_tune_times_the_one_search_it_ran(self, tmp_path, capsys):
        kernel = tmp_path / "tiny.asm"
        kernel.write_text(TINY_KERNEL)
        out = tmp_path / "BENCH_tuner.json"
        metrics_out = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "tune", str(kernel),
                    "--strategy", "exhaustive",
                    "--budget", "8",
                    "--out", str(out),
                    "--metrics-out", str(metrics_out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        wall = payload["bench"]["metrics"]["wall_time_s"]
        assert wall["samples"] == [payload["wall_time_s"]]
        assert wall["stop_reason"] == "single_run"
        # No warm re-search: every evaluation is the search's own miss.
        counters = json.loads(metrics_out.read_text())["counters"]
        fresh = payload["evaluations"]["distinct"]
        assert counters["record_misses"] == fresh
        assert counters.get("record_memo_hits", 0) == 0
        assert "(one search)" in capsys.readouterr().out

    def test_tune_bad_target_exits_2(self, tmp_path, capsys):
        assert main(["tune", str(tmp_path / "nope.asm")]) == 2
        assert capsys.readouterr().err.startswith("repro: error:")

    def test_tune_help_documents_target_forms(self, capsys):
        with pytest.raises(SystemExit):
            main(["tune", "--help"])
        assert "fuzz:SEED" in capsys.readouterr().out
