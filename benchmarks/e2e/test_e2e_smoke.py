"""Self-test of the end-to-end benchmark in ``--smoke`` mode.

Not part of the tier-1 suite (``testpaths`` is ``tests``); run it with::

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_e2e_smoke.py -q

It checks that every metric ``BENCHMARK.json`` names is emitted with
its unit, that the per-layer self-time shares form a ledger (each >= 0,
together <= 1), and that a corrupted expected output makes the
benchmark fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks/e2e/run.py"),
         "--workload", workload, "--seed", "7", "--trace", str(trace),
         "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}, proc


@pytest.fixture(scope="module")
def results():
    return {
        (workload["name"], trace): _run(ROOT, workload["name"], trace)
        for workload in BENCHMARK["workloads"]
        for trace in (0, 1)
    }


def test_every_metric_is_emitted_with_its_unit(results):
    for (workload, trace), (code, line, proc) in results.items():
        assert code == 0, (workload, trace, proc.stdout, proc.stderr)
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
        assert set(line["metrics"]) == {m["name"] for m in wanted}
        for metric in wanted:
            emitted = line["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"], (workload, metric)
            assert isinstance(emitted["value"], float)


def test_self_times_form_a_ledger(results):
    for (workload, trace), (_, line, _) in results.items():
        if not trace:
            continue
        shares = [entry["value"] for name, entry in line["metrics"].items()
                  if name.endswith(".self_frac")]
        assert shares and all(share >= 0 for share in shares), workload
        assert sum(shares) <= 1.0 + 1e-9, workload
        assert line["metrics"]["untraced_frac"]["value"] >= -1e-9


@pytest.mark.parametrize("name", ["figures.txt", "tune_suite.json"])
def test_corrupted_expected_output_fails(tmp_path, name):
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns(
        ".work", "__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "src").symlink_to(ROOT / "src")
    expected = copy / "expected" / name
    text = expected.read_text()
    if name == "figures.txt":
        # The first number printed belongs to the first figure run.
        digit = next(i for i, ch in enumerate(text) if ch in "123456789")
        flipped = "2" if text[digit] == "1" else "1"
        expected.write_text(text[:digit] + flipped + text[digit + 1:])
        workload = "figures"
    else:
        # Every kernel's best-config key changes.
        expected.write_text(text.replace("orf_entries=", "orf_entries=1"))
        workload = "tune_suite"
    code, line, _ = _run(tmp_path, workload, 0)
    assert code != 0
    assert line["correct"] is False and line["failed"] >= 1
