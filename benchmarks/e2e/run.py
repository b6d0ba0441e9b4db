"""End-to-end benchmark of the reproduction: figures, tuner, cold and hot service.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload figures --seed 1 --seconds 25
    python3 benchmarks/e2e/run.py --workload serve_cold --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --workload all --seed 1 --out r.json
    python3 benchmarks/e2e/run.py --workload all --seed 1 --smoke

The program is driven as its users drive it: the figure drivers of
``repro all`` and ``repro.tuner.run_tune`` in fresh processes
(:mod:`passes`), and ``repro serve`` over HTTP (:mod:`service`).
Nothing under ``src/`` is modified; per-layer times come from wrappers
the benchmark installs around the program's functions (:mod:`layers`).
Every end-to-end timing is scaled to a reference host speed by a probe
timed during the run (:mod:`hostspeed`).

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric,
taken from a traced repeat, plus the tracing overhead measured against
an untraced repeat of the same run (under ``--workload all``, against
the untraced run of the workload just made).  The object has the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every output was correct.  ``--workload all`` runs every
workload untraced and traced and can write the results, in the
``repro.bench`` report format, with ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import hostspeed
import layers
import service

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
EXPECTED = HERE / "expected"

#: The workloads; why each exists is in BENCHMARK.json and README.md.
WORKLOADS = ("figures", "tune_suite", "serve_cold", "serve_hot")

#: (name, unit, better) of the end-to-end metrics, taken untraced.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("rss_peak_mb", "MB", "lower"),
)
#: End-to-end metrics that are printed and written with ``--out`` but
#: are not in the result line: too noisy on shared hosts to gate on
#: (README.md, "Noise").
REPORTED = (
    ("latency_tail_ms", "ms", "lower"),
)

#: Layers timed by :mod:`layers`; each reports ``<layer>.self_frac``.
LAYERS = (
    "ir.parse", "service.protocol", "service.server",
    "service.httpd.encode", "service.pipeline", "sim.trace",
    "alloc.analysis", "alloc.levels", "sim.account", "energy",
    "experiments", "engine", "tuner",
)

#: (name, unit, better) of the per-layer metrics, taken traced.
PER_LAYER = tuple(
    (f"{layer}.self_frac", "frac", "lower") for layer in LAYERS
) + (
    ("untraced_frac", "frac", "lower"),
    ("service.batcher.wait_frac", "frac", "lower"),
    ("ir.parse.calls", "count", "lower"),
    ("sim.trace.instr", "count", "lower"),
    ("sim.account.instr", "count", "lower"),
    ("alloc.levels.configs", "count", "lower"),
    ("alloc.analysis.hit_rate", "frac", "higher"),
    ("engine.record_hit_rate", "frac", "higher"),
    ("service.memo_hit_rate", "frac", "higher"),
    ("tracing.spans", "count", "lower"),
    ("tracing_overhead_frac", "frac", "lower"),
)

#: Set-ups timed per run of the figures and tune_suite workloads.
SETUPS = 5
#: A service run starts fresh servers one after the other, each for
#: this share of the window, at least ``MIN_SERVERS`` of them and more
#: while the window lasts.
SERVER_SHARE = 1 / 5
MIN_SERVERS = 3
#: A pass process that runs longer than this is killed.
PASS_LIMIT_S = 150.0
#: Operations and window of ``--smoke`` runs.
SMOKE_OPS = {"figures": 2, "tune_suite": 3}
SMOKE_SECONDS = 1.5


class Outcome:
    """What one run of one workload measured."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.detail: Dict[str, Any] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p99(values: List[float]) -> float:
    return statistics.quantiles(values, n=100)[98]


# -- figures and tune_suite: one fresh process per pass ---------------------


def _pass(workload: str, seed: int, workdir: Path, *, deadline=None,
          limit=None, trace_dir=None, verify=False,
          setup_only=False) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "passes.py"), workload,
               "--seed", str(seed)]
    if deadline is not None:
        command += ["--deadline", repr(deadline)]
    if limit is not None:
        command += ["--limit", str(limit)]
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    if verify:
        command.append("--verify")
    if setup_only:
        command.append("--setup-only")
    log = open(workdir / "passes.log", "ab")
    began = time.perf_counter()
    proc = subprocess.Popen(command, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=log, cwd=workdir)
    watchdog = threading.Timer(PASS_LIMIT_S, proc.kill)
    watchdog.start()
    result: Dict[str, Any] = {"ops": [], "probes": [], "setup_s": None,
                              "done": False, "trace_dir": trace_dir,
                              "hwm_mb": 0.0}
    try:
        for line in proc.stdout:
            event = json.loads(line)
            if event["event"] == "ready":
                result["setup_s"] = time.perf_counter() - began
            elif event["event"] == "op":
                result["ops"].append(event)
            elif event["event"] == "probe":
                result["probes"].append(event["dt"])
            elif event["event"] == "done":
                result["done"] = True
                result["hwm_mb"] = event["hwm_mb"]
    finally:
        watchdog.cancel()
        proc.stdout.close()
        log.close()
        _, status = os.waitpid(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    result["status"] = proc.returncode
    return result


def _check_figures(outcome: Outcome, passes: List[Dict[str, Any]],
                   full: bool) -> None:
    """Each pass prints a prefix of ``repro all``'s output; the first
    pass of a full run prints all of it."""
    expected = (EXPECTED / "figures.txt").read_text(encoding="utf-8")
    for number, run in enumerate(passes):
        position = 0
        for op in run["ops"]:
            text = op["text"] + "\n\n"
            if expected[position:position + len(text)] != text:
                outcome.fail(f"pass {number}: {op['op']} output differs "
                             "from expected/figures.txt")
            position += len(text)
        if full and number == 0 and position != len(expected):
            outcome.fail("pass 0 did not print all of "
                         "expected/figures.txt")


def _check_tune(outcome: Outcome, passes: List[Dict[str, Any]],
                full: bool) -> None:
    expected = json.loads((EXPECTED / "tune_suite.json").read_text())
    if full and len(passes[0]["ops"]) != len(expected):
        outcome.fail("pass 0 did not tune every suite kernel")
    for number, run in enumerate(passes):
        for op in run["ops"]:
            want = expected.get(op["op"])
            got = {key: op[key] for key in ("best", "objective", "frontier")}
            if got != want:
                outcome.fail(f"pass {number}: tune of {op['op']} differs "
                             "from expected/tune_suite.json")
            if op.get("verified", "ok") != "ok":
                outcome.fail(f"pass {number}: best config of {op['op']} "
                             f"fails shadow verification: {op['verified']}")


def _pass_timings(passes: List[Dict[str, Any]]) -> Dict[str, float]:
    """wall_s (one whole pass) and latencies from each operation's mean
    time over the passes."""
    samples: Dict[str, List[float]] = {}
    for run in passes:
        for op in run["ops"]:
            samples.setdefault(op["op"], []).append(op["dt"])
    means = [statistics.fmean(values) for values in samples.values()]
    return {
        "wall_s": sum(means),
        "latency_p50_ms": 1e3 * _median(means),
        "latency_tail_ms": 1e3 * max(means),
    }


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               smoke: bool, workdir: Path,
               measure_untraced: bool = True) -> Outcome:
    """Untraced: passes until the window ends.  Traced: one untraced
    pass for the tracing overhead (unless ``measure_untraced`` is
    false), then one traced pass."""
    outcome = Outcome(workload)
    limit = SMOKE_OPS[workload] if smoke else None
    passes: List[Dict[str, Any]] = []
    setups: List[float] = []
    deadline: Optional[float] = None
    traced_pass = 1 if measure_untraced else 0
    while True:
        number = len(passes)
        traced = trace and number == traced_pass
        run = _pass(
            workload, seed, workdir, limit=limit,
            deadline=None if number == 0 or traced else deadline,
            trace_dir=workdir / "trace" if traced else None,
            verify=number == 0 and not traced,
        )
        passes.append(run)
        if run["setup_s"] is not None:
            setups.append(run["setup_s"])
        if run["status"] != 0 or not run["done"]:
            outcome.fail(f"pass {number} exited with status "
                         f"{run['status']}; see passes.log")
            break
        if number == 0:
            deadline = run["ops"][0]["start"] + seconds
        if traced or (not trace and (smoke or time.monotonic() >= deadline)):
            break
    while not smoke and not trace and len(setups) < SETUPS:
        extra = _pass(workload, seed, workdir, setup_only=True)
        if extra["status"] != 0 or extra["setup_s"] is None:
            outcome.fail("set-up-only pass failed; see passes.log")
            break
        setups.append(extra["setup_s"])

    outcome.attempted = sum(len(run["ops"]) for run in passes)
    outcome.detail["probes"] = [p for run in passes for p in run["probes"]]
    (_check_figures if workload == "figures" else _check_tune)(
        outcome, passes, full=not smoke)
    if not passes[0]["done"]:
        return outcome
    if trace:
        traced_run = passes[-1]
        if traced_run["done"] and traced_run["trace_dir"] is not None:
            ops = traced_run["ops"]
            start, end = ops[0]["start"], ops[-1]["end"]
            folded = layers.fold(layers.read_records(workdir / "trace"),
                                 start, end)
            hits = sum(op.get("record_hits", 0) for op in ops)
            lookups = hits + sum(op.get("record_misses", 0) for op in ops)
            outcome.metrics = _layer_metrics(
                folded, wall=end - start, units=1.0,
                record_hit_rate=hits / lookups if lookups else 0.0,
                memo_hit_rate=0.0,
            )
            outcome.detail["layers"] = folded
            outcome.detail["traced_wall"] = (
                _pass_timings([traced_run])["wall_s"])
            if measure_untraced:
                outcome.detail["untraced_wall"] = (
                    _pass_timings(passes[:1])["wall_s"])
        return outcome
    outcome.metrics = {
        "setup_s": _median(setups),
        **_pass_timings(passes),
        "rss_peak_mb": max(run["hwm_mb"] for run in passes),
    }
    outcome.samples = {"setup_s": setups}
    outcome.detail["op_seconds"] = [
        {op["op"]: op["dt"] for op in run["ops"]} for run in passes]
    return outcome


# -- serve_cold and serve_hot ------------------------------------------------


def run_service(workload: str, seed: int, seconds: float, trace: bool,
                smoke: bool, workdir: Path,
                measure_untraced: bool = True) -> Outcome:
    """Untraced: fresh servers until the window ends.  Traced: one
    untraced server for the tracing overhead (unless
    ``measure_untraced`` is false), then one traced server."""
    outcome = Outcome(workload)
    share = SMOKE_SECONDS if smoke else seconds * SERVER_SHARE
    until = None
    if trace:
        segments = [(share, True)]
        if measure_untraced:
            segments.insert(0, (share, False))
    elif smoke:
        segments = [(share, False)]
    else:
        segments, until = [(share, False)] * MIN_SERVERS, seconds
    probe = hostspeed.Probe(workdir)
    probe.start()
    try:
        result = service.run(workload, seed, segments, workdir, until=until,
                             smoke=smoke)
    finally:
        outcome.detail["probes"] = probe.stop()
    outcome.attempted = result["attempted"]
    outcome.failed = result["failed"]
    outcome.problems = result["problems"]
    repeats = [r for r in result["repeats"] if r.get("n")]
    if len(repeats) != len(result["repeats"]) or not repeats:
        outcome.fail("a server repeat measured nothing")
        return outcome

    def wall(repeat: Dict[str, Any]) -> float:
        return 1e3 * repeat["elapsed"] / repeat["n"]

    if trace:
        traced = repeats[-1]
        folded = layers.fold(layers.read_records(traced["trace_dir"]),
                             traced["start"], traced["end"])
        before = traced["metrics_before"]["counters"]
        after = traced["metrics_after"]["counters"]

        def delta(name: str) -> float:
            return after.get(name, 0) - before.get(name, 0)

        answered = delta("evaluate_responses") + delta("allocate_responses")
        outcome.metrics = _layer_metrics(
            folded, wall=traced["end"] - traced["start"],
            units=traced["n"] / 1000.0,
            record_hit_rate=0.0,
            memo_hit_rate=(delta("service_memo_hits") / answered
                           if answered else 0.0),
        )
        outcome.detail["layers"] = folded
        outcome.detail["traced_wall"] = wall(traced)
        if measure_untraced:
            outcome.detail["untraced_wall"] = wall(repeats[0])
        return outcome
    # The requests of all servers pooled, so the p99 has enough beyond it.
    latencies = [x for r in repeats for x in r["latencies"]]
    outcome.metrics = {
        "setup_s": _median([r["setup_s"] for r in repeats]),
        "wall_s": 1e3 * sum(r["elapsed"] for r in repeats) / len(latencies),
        "latency_p50_ms": 1e3 * _median(latencies),
        "latency_tail_ms": 1e3 * _p99(latencies),
        "rss_peak_mb": _median([r["hwm_mb"] for r in repeats]),
    }
    outcome.samples = {
        "setup_s": [r["setup_s"] for r in repeats],
        "wall_s": [wall(r) for r in repeats],
        "rss_peak_mb": [r["hwm_mb"] for r in repeats],
    }
    outcome.detail["requests"] = [r["n"] for r in repeats]
    outcome.detail["fill_s"] = [r["fill_s"] for r in repeats
                                if "fill_s" in r]
    return outcome


# -- the per-layer ledger ----------------------------------------------------


def _layer_metrics(folded: Dict[str, Any], *, wall: float, units: float,
                   record_hit_rate: float,
                   memo_hit_rate: float) -> Dict[str, float]:
    """Per-layer metrics from one traced window (all but the tracing
    overhead, which :func:`run_workload` adds).

    Self times are shares of the window's process time: ``wall`` times
    the number of processes that recorded spans in it (one for the
    figures and tune passes; the server plus busy pool workers for the
    services).  Counts are per unit of work: one pass, or 1,000
    requests (``units``).
    """
    spans = folded["spans"]
    sums = layers.layer_sums(spans)
    ledger = max(wall * max(folded["pids"], 1), 1e-9)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = sums.get(layer, [0, 0.0])[1] / ledger
    metrics["untraced_frac"] = 1.0 - sum(
        metrics[f"{layer}.self_frac"] for layer in LAYERS)
    waited = sums.get("service.batcher.wait", [0, 0.0, 0.0])[2]
    worked = sums.get("service.pipeline", [0, 0.0, 0.0])[2]
    metrics["service.batcher.wait_frac"] = (
        max(0.0, waited - worked) / waited if waited else 0.0)
    lookups = layers.calls_of(spans, "alloc.analysis", "kernel_analysis")
    misses = layers.calls_of(spans, "alloc.analysis", "analyze_kernel")
    counts = folded["counts"]
    metrics.update({
        "ir.parse.calls": sums.get("ir.parse", [0])[0] / units,
        "sim.trace.instr": counts.get("sim.trace.instr", 0) / units,
        "sim.account.instr": counts.get("sim.account.instr", 0) / units,
        "alloc.levels.configs": layers.calls_of(
            spans, "alloc.levels", "_levels_pass") / units,
        "alloc.analysis.hit_rate": 1.0 - misses / lookups if lookups else 0.0,
        "engine.record_hit_rate": record_hit_rate,
        "service.memo_hit_rate": memo_hit_rate,
        "tracing.spans": sum(s[0] for s in spans.values()) / units,
    })
    return metrics


# -- entry point ---------------------------------------------------------------

#: The end-to-end metrics that are times, scaled to the reference speed.
TIMINGS = ("setup_s", "wall_s", "latency_p50_ms", "latency_tail_ms")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, workdir: Path,
                 untraced_wall: Optional[float] = None) -> Outcome:
    """One run.  Its timings are scaled to the reference host speed by
    the run's probe times (see :mod:`hostspeed`).  A traced run measures
    its own untraced wall time for the tracing overhead unless
    ``untraced_wall`` (already scaled) is given."""
    workdir.mkdir(parents=True, exist_ok=True)
    run = (run_passes if workload in ("figures", "tune_suite")
           else run_service)
    outcome = run(workload, seed, seconds, trace, smoke, workdir,
                  measure_untraced=untraced_wall is None)
    if not outcome.detail.get("probes"):
        outcome.fail("the host-speed probe took no timing")
        return outcome
    factor = hostspeed.factor(outcome.detail["probes"])
    outcome.detail["speed_factor"] = factor
    if trace:
        if "traced_wall" in outcome.detail:
            if untraced_wall is None:
                untraced_wall = factor * outcome.detail["untraced_wall"]
            outcome.metrics["tracing_overhead_frac"] = (
                factor * outcome.detail["traced_wall"] / untraced_wall - 1.0)
        return outcome
    outcome.detail["unscaled"] = {
        name: outcome.metrics[name] for name in TIMINGS
        if name in outcome.metrics}
    for name in TIMINGS:
        if name in outcome.metrics:
            outcome.metrics[name] *= factor
        if name in outcome.samples:
            outcome.samples[name] = [factor * v
                                     for v in outcome.samples[name]]
    return outcome


def result_line(outcome: Outcome, trace: bool) -> Dict[str, Any]:
    table = PER_LAYER if trace else END_TO_END
    correct = outcome.failed == 0 and all(
        name in outcome.metrics for name, _, _ in table)
    return {
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit, _ in table if name in outcome.metrics
        },
    }


def _print_outcome(outcome: Outcome, trace: bool) -> None:
    table = PER_LAYER if trace else END_TO_END
    kind = "per-layer" if trace else "end-to-end"
    print(f"{outcome.workload}: {kind}, {outcome.attempted} operations, "
          f"{outcome.failed} failed")
    for name, unit, _ in table:
        if name in outcome.metrics:
            print(f"  {name:<30} {outcome.metrics[name]:14.6f} {unit}")
    for name, unit, _ in () if trace else REPORTED:
        if name in outcome.metrics:
            print(f"  {name:<30} {outcome.metrics[name]:14.6f} {unit} "
                  "(reported, not gated)")
    if "unscaled" in outcome.detail:
        print(f"  timings scaled by {outcome.detail['speed_factor']:.4f} "
              "to the reference host speed; unscaled: " + ", ".join(
                  f"{name} {value:.6g}"
                  for name, value in outcome.detail["unscaled"].items()))
    for problem in outcome.problems:
        print(f"  problem: {problem}")
    if trace and "layers" in outcome.detail:
        sums = layers.layer_sums(outcome.detail["layers"]["spans"])
        print(f"  {'layer':<24} {'calls':>9} {'self s':>10} {'total s':>10}")
        for layer, (calls, self_s, total_s) in sorted(sums.items()):
            print(f"  {layer:<24} {calls:>9} {self_s:>10.4f} {total_s:>10.4f}")


def write_results(path: str, seed: int, seconds: float,
                  outcomes: Dict[Tuple[str, bool], Outcome]) -> None:
    """All workloads in the ``repro.bench`` report format: end-to-end
    metrics in the ``bench`` section (``repro bench diff`` reads it),
    per-layer metrics and raw samples beside it."""
    from repro.bench import (bench_section, environment_fingerprint,
                             metric_from_samples, write_report)

    metrics = {}
    for (workload, traced), outcome in outcomes.items():
        if traced:
            continue
        for name, unit, better in END_TO_END + REPORTED:
            if name in outcome.metrics:
                metrics[f"{workload}.{name}"] = metric_from_samples(
                    name, outcome.samples.get(name, [outcome.metrics[name]]),
                    unit=unit, direction=better)
    workloads: Dict[str, Dict[str, Any]] = {}
    for (workload, traced), outcome in outcomes.items():
        workloads.setdefault(workload, {})[
            "traced" if traced else "untraced"] = {
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "problems": outcome.problems,
                "metrics": outcome.metrics,
                "detail": outcome.detail,
            }
    write_report(path, {
        "schema": 1,
        "tool": "benchmarks/e2e",
        "seed": seed,
        "seconds": seconds,
        "bench": bench_section("e2e", metrics,
                               env=environment_fingerprint()),
        "workloads": workloads,
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the reproduction.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measurement window per run (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced "
                             "repeat instead of end-to-end metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny counts, one repeat (a self-test)")
    parser.add_argument("--out", default=None,
                        help="with --workload all: write the results here")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to benchmark: {SRC / 'repro'} is "
              "missing; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / ".work" / str(os.getpid())
    try:
        if args.workload != "all":
            outcome = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), args.smoke, workdir)
            _print_outcome(outcome, bool(args.trace))
            line = result_line(outcome, bool(args.trace))
            print(json.dumps(line))
            return 0 if line["correct"] else 1
        outcomes: Dict[Tuple[str, bool], Outcome] = {}
        for traced in (False, True):
            for workload in WORKLOADS:
                began = time.monotonic()
                # The traced run's overhead is taken against the
                # untraced run just made, not against a repeat of it.
                untraced = outcomes.get((workload, False))
                outcome = run_workload(
                    workload, args.seed, args.seconds, traced, args.smoke,
                    workdir / f"{workload}-{int(traced)}",
                    untraced_wall=(untraced.metrics.get("wall_s")
                                   if traced and untraced else None))
                outcome.detail["run_s"] = time.monotonic() - began
                outcomes[(workload, traced)] = outcome
                _print_outcome(outcome, traced)
        if args.out:
            write_results(args.out, args.seed, args.seconds, outcomes)
        lines = {f"{w}.{'traced' if t else 'untraced'}": result_line(o, t)
                 for (w, t), o in outcomes.items()}
        correct = all(line["correct"] for line in lines.values())
        print(json.dumps({
            "correct": correct,
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{key}.{name}": value
                        for key, line in lines.items()
                        for name, value in line["metrics"].items()},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
