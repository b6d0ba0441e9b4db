"""Command-line front-end: ``repro <experiment>`` or ``python -m repro``.

Regenerates the paper's figures as text tables::

    repro fig13 --scale 1.0
    repro all
    repro show matrixmul        # annotated allocation of one benchmark
    repro list                  # benchmark inventory

and fronts the allocation service::

    repro serve --port 8077 --jobs 4        # the batching async server
    repro loadgen --port 8077               # benchmark a running server
    repro allocate kernel.asm               # one-shot allocation of a file

and the observability layer::

    repro trace vectoradd --trace-out trace.json    # Chrome/Perfetto trace
    repro explain fuzz:320 --orf-entries 1 --no-lrf --reg R18
    repro fig13 --trace-out t.json --profile-out p.txt

and the auto-tuner::

    repro tune matrixmul --strategy evolutionary --budget 64
    repro tune fuzz:911 --objective mrf --out BENCH_tuner.json

``trace``, ``explain``, and ``tune`` all accept the same kernel
target forms: a benchmark name, ``fuzz:SEED`` for a generated
workload, or a path to an IR text file (``-`` for stdin).

Each command imports what it runs when it runs.  This module loads
only what ``serve`` loads anyway (the allocator, the IR printer,
schemes and the workload registry), so ``repro serve`` and the pool
workers it forks never import :mod:`repro.experiments`; only the
figure commands, ``all``, ``export``, ``report``, ``bench-accounting``,
``unroll``, ``scheduler`` and ``timing`` import it, when they run.
``--version`` prints the package's own ``__version__``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import __version__
from .alloc.allocator import AllocationConfig, allocate_kernel
from .ir.printer import format_allocated_kernel
from .sim.schemes import BEST_SCHEME, Scheme, SchemeKind
from .workloads.suites import (
    BENCHMARK_NAMES,
    all_workloads,
    get_workload,
    suite_of,
)

#: The figure subcommands, in the order ``repro all`` runs them.
_FIGURE_NAMES = (
    "fig2",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "limit",
    "encoding",
    "variable",
    "sensitivity",
)


@functools.cache
def _figures() -> Dict[str, Tuple[Callable[..., Any], Callable[..., str]]]:
    """Each figure subcommand's (driver, formatter), in
    :data:`_FIGURE_NAMES` order.  Built once, on first use, which
    imports :mod:`repro.experiments`."""
    from . import experiments

    return {
        "fig2": (experiments.run_fig2, experiments.format_fig2),
        "fig11": (experiments.run_fig11, experiments.format_fig11),
        "fig12": (experiments.run_fig12, experiments.format_fig12),
        "fig13": (experiments.run_fig13, experiments.format_fig13),
        "fig14": (experiments.run_fig14, experiments.format_fig14),
        "fig15": (experiments.run_fig15, experiments.format_fig15),
        "limit": (experiments.run_limit_study, experiments.format_limit_study),
        "encoding": (
            experiments.run_encoding_study,
            experiments.format_encoding_study,
        ),
        "variable": (
            experiments.run_variable_orf_study,
            experiments.format_variable_orf,
        ),
        "sensitivity": (
            experiments.run_sensitivity_study,
            experiments.format_sensitivity,
        ),
    }


def __getattr__(name: str) -> Any:
    """``repro.cli._FIGURES``, which ``benchmarks/e2e/passes.py``
    imports: :func:`_figures`, built on first access (PEP 562)."""
    if name == "_FIGURES":
        return _figures()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Compile-Time Managed Multi-Level "
            "Register File Hierarchy' (MICRO 2011)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_suite_engine_flags(cmd: argparse.ArgumentParser) -> None:
        """Engine flags plus ``--jobs``, which only the commands that
        prefetch the suite's records (figures, export, report) read."""
        cmd.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for the experiment engine (default 1)",
        )
        add_engine_flags(cmd)

    def add_engine_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--cache-dir",
            default=None,
            help="content-addressed result cache directory (off unless set)",
        )
        cmd.add_argument(
            "--cache-max-bytes",
            type=int,
            default=None,
            help=(
                "cap the cache directory size; oldest entries are "
                "pruned on write (unbounded unless set)"
            ),
        )
        cmd.add_argument(
            "--metrics-out",
            default=None,
            help="write engine run metrics (JSON) to this path",
        )
        add_obs_flags(cmd)

    def add_obs_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--trace-out",
            default=None,
            help="enable span tracing; write a Chrome trace-event JSON "
                 "(load in chrome://tracing or Perfetto) to this path",
        )
        cmd.add_argument(
            "--trace-jsonl",
            default=None,
            help="enable span tracing; stream spans to this JSONL file",
        )
        cmd.add_argument(
            "--profile-out",
            default=None,
            help="capture per-stage cProfile stats; write the report "
                 "to this path",
        )

    def add_repeater_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--min-repeats", type=int, default=None,
            help="repeats before the bootstrap-CI stopping rule may fire",
        )
        cmd.add_argument(
            "--max-repeats", type=int, default=None,
            help="hard repeat cap regardless of the rule",
        )
        cmd.add_argument(
            "--target", dest="bench_target", type=float, default=None,
            help="stop once the CI half-width is at most this fraction "
                 "of the median",
        )
        cmd.add_argument(
            "--bench-seed", type=int, default=None,
            help="bootstrap RNG seed for the stopping rule (default 0)",
        )

    for name in _FIGURE_NAMES + ("all",):
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        cmd.add_argument(
            "--scale",
            type=float,
            default=1.0,
            help="multiply workload trip counts (default 1.0)",
        )
        add_suite_engine_flags(cmd)

    unroll = sub.add_parser(
        "unroll", help="unroll-and-hoist ablation (Section 6.4)"
    )
    unroll.add_argument("--factor", type=int, default=4)
    unroll.add_argument(
        "--benchmarks",
        nargs="*",
        default=["reduction", "scalarprod", "vectoradd"],
    )

    sched = sub.add_parser(
        "scheduler", help="two-level warp scheduler IPC study"
    )
    sched.add_argument("--scale", type=float, default=1.0)
    sched.add_argument(
        "--benchmarks",
        nargs="*",
        default=["matrixmul", "reduction", "hotspot", "mandelbrot"],
        help="benchmarks to schedule (default: a representative four)",
    )
    sched.add_argument("--warps", type=int, default=32)

    timing = sub.add_parser(
        "timing",
        help="performance neutrality with operand-delivery timing",
    )
    timing.add_argument("--scale", type=float, default=1.0)
    timing.add_argument(
        "--benchmarks",
        nargs="*",
        default=["matrixmul", "hotspot", "reduction", "montecarlo"],
    )
    timing.add_argument("--warps", type=int, default=32)

    show = sub.add_parser(
        "show", help="print one benchmark's annotated allocation"
    )
    show.add_argument("benchmark", choices=sorted(BENCHMARK_NAMES))
    show.add_argument("--orf-entries", type=int, default=3)
    show.add_argument("--no-lrf", action="store_true")
    show.add_argument(
        "--strands", action="store_true",
        help="also print the per-strand allocation report",
    )

    export = sub.add_parser(
        "export", help="write every figure as CSV to a directory"
    )
    export.add_argument("directory")
    export.add_argument("--scale", type=float, default=1.0)
    export.add_argument(
        "--skip-slow", action="store_true",
        help="skip the limit study (the most expensive driver)",
    )
    add_suite_engine_flags(export)

    report = sub.add_parser(
        "report", help="write the full reproduction report (markdown)"
    )
    report.add_argument("path", nargs="?", default="REPORT.md")
    report.add_argument("--scale", type=float, default=1.0)
    add_suite_engine_flags(report)

    bench = sub.add_parser(
        "bench-accounting",
        help="time scalar vs. compiled accounting; write JSON",
    )
    bench.add_argument("--scale", type=float, default=1.0)
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument(
        "--out",
        default="BENCH_accounting.json",
        help="output JSON path (default BENCH_accounting.json)",
    )
    add_repeater_flags(bench)

    bench_tools = sub.add_parser(
        "bench",
        help="benchmark-report tooling (compare BENCH files)",
    )
    bench_sub = bench_tools.add_subparsers(
        dest="bench_command", required=True
    )
    bench_diff = bench_sub.add_parser(
        "diff",
        help="compare two BENCH reports; exit 1 on significant "
             "regression beyond the gate",
    )
    bench_diff.add_argument("old", help="baseline BENCH JSON")
    bench_diff.add_argument("new", help="candidate BENCH JSON")
    bench_diff.add_argument(
        "--gate", type=float, default=5.0,
        help="regression gate in percent: a comparable metric moving "
             "worse than this with non-overlapping CIs fails "
             "(default 5.0)",
    )

    allocate = sub.add_parser(
        "allocate",
        help="allocate a kernel from an IR text file (or '-' for stdin)",
    )
    allocate.add_argument("path", help="assembly file, or '-' for stdin")
    allocate.add_argument("--orf-entries", type=int, default=3)
    allocate.add_argument("--no-lrf", action="store_true")

    trace = sub.add_parser(
        "trace",
        help="run one kernel through the full pipeline with span "
             "tracing on and write a Chrome trace-event JSON",
    )
    trace.add_argument(
        "target",
        nargs="?",
        default="vectoradd",
        help="benchmark name, 'fuzz:SEED' for a generated workload, or "
             "a path to an IR text file ('-' for stdin); "
             "default vectoradd",
    )
    trace.add_argument("--scale", type=float, default=1.0)
    trace.add_argument(
        "--trace-out", default="trace.json",
        help="Chrome trace-event JSON output (default trace.json)",
    )
    trace.add_argument(
        "--trace-jsonl", default=None,
        help="also stream spans to this JSONL file",
    )
    trace.add_argument(
        "--profile-out", default=None,
        help="capture per-stage cProfile stats to this path",
    )
    trace.add_argument("--metrics-out", default=None)
    trace.add_argument("--orf-entries", type=int, default=3)
    trace.add_argument("--no-lrf", action="store_true")

    explain = sub.add_parser(
        "explain",
        help="re-run the allocator with provenance recording and print "
             "the decision chain behind every placement",
    )
    explain.add_argument(
        "target",
        help="benchmark name, 'fuzz:SEED' for a generated workload, or "
             "a path to an IR text file ('-' for stdin)",
    )
    explain.add_argument(
        "--reg", default=None,
        help="only show decisions about this register, or decisions "
             "covering instructions that mention it (e.g. R18)",
    )
    explain.add_argument(
        "--pos", type=int, default=None,
        help="only show decisions covering this instruction position",
    )
    explain.add_argument("--orf-entries", type=int, default=3)
    explain.add_argument("--no-lrf", action="store_true")
    explain.add_argument(
        "--no-forward-branches", action="store_true",
        help="restrict allocation to basic-block scope (Section 4.2)",
    )
    explain.add_argument(
        "--no-partial-ranges", action="store_true",
        help="disable partial range allocation (Section 4.3)",
    )
    explain.add_argument(
        "--no-read-operands", action="store_true",
        help="disable read operand allocation (Section 4.4)",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report (strand map, decision "
             "trail, annotations) as JSON instead of text",
    )

    tune = sub.add_parser(
        "tune",
        help="search the AllocationConfig design space for one kernel "
             "and write the best config, frontier, and search trace",
    )
    tune.add_argument(
        "target",
        help="benchmark name, 'fuzz:SEED' for a generated workload, or "
             "a path to an IR text file ('-' for stdin)",
    )
    tune.add_argument(
        "--strategy",
        choices=("exhaustive", "hillclimb", "evolutionary"),
        default="evolutionary",
        help="search strategy (default evolutionary)",
    )
    tune.add_argument(
        "--budget", type=int, default=64,
        help="max distinct configs to evaluate (default 64)",
    )
    tune.add_argument(
        "--seed", type=int, default=0,
        help="search RNG seed; same seed replays byte-identically "
             "(default 0)",
    )
    tune.add_argument(
        "--objective", choices=("energy", "mrf"), default="energy",
        help="minimise energy/instr (pJ) or MRF accesses/instr "
             "(default energy)",
    )
    tune.add_argument(
        "--time-budget-s", type=float, default=None,
        help="stop the search after this many seconds (a stop "
             "condition, never an objective)",
    )
    tune.add_argument(
        "--include-ideal", action="store_true",
        help="open the assume_persistent_strands axis (Section 7 "
             "idealisation, not realisable in hardware)",
    )
    tune.add_argument("--scale", type=float, default=1.0)
    tune.add_argument(
        "--warps", type=int, default=2,
        help="warp count for fuzz:SEED targets (default 2)",
    )
    tune.add_argument(
        "--out", default="BENCH_tuner.json",
        help="output JSON path (default BENCH_tuner.json)",
    )
    add_engine_flags(tune)

    serve = sub.add_parser(
        "serve", help="run the allocation service (HTTP/JSON)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8077,
        help="listen port (0 picks an ephemeral port; default 8077)",
    )
    serve.add_argument(
        "--jobs", type=int, default=2,
        help="executor workers for the evaluation stage (default 2)",
    )
    serve.add_argument(
        "--executor", choices=("process", "thread"), default="process",
        help="evaluation executor; 'process' falls back to threads "
             "when a pool cannot start (default process)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=64,
        help="distinct jobs in flight before 429 (default 64)",
    )
    serve.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request seconds before 504 (default 30)",
    )
    serve.add_argument("--cache-dir", default=None)
    serve.add_argument("--cache-max-bytes", type=int, default=None)
    serve.add_argument("--metrics-out", default=None)
    serve.add_argument(
        "--trace-out", default=None,
        help="enable span tracing; write a Chrome trace on shutdown",
    )
    serve.add_argument(
        "--trace-jsonl", default=None,
        help="enable span tracing; stream spans to this JSONL file",
    )

    loadgen = sub.add_parser(
        "loadgen", help="benchmark a running allocation service"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8077)
    loadgen.add_argument(
        "--requests", type=int, default=300,
        help="requests per phase (fired twice: cold, warm; default 300)",
    )
    loadgen.add_argument("--concurrency", type=int, default=8)
    loadgen.add_argument("--timeout", type=float, default=60.0)
    loadgen.add_argument(
        "--wait-secs", type=float, default=15.0,
        help="wait this long for the server to become healthy",
    )
    loadgen.add_argument(
        "--no-verify", action="store_true",
        help="skip byte-identical verification against the direct "
             "engine path",
    )
    loadgen.add_argument(
        "--out", default="BENCH_service.json",
        help="output JSON path (default BENCH_service.json)",
    )
    loadgen.add_argument(
        "--trace-out", default=None,
        help="record client-side per-request spans and write a Chrome "
             "trace-event JSON here",
    )
    loadgen.add_argument(
        "--retries", type=int, default=0,
        help="client retries per request on 429/503 (default 0)",
    )
    add_repeater_flags(loadgen)

    sub.add_parser("list", help="list the synthesised benchmarks")
    return parser


def _make_engine(args):
    """The run's ExperimentEngine: in-memory memos always, plus a
    process pool (``--jobs``) and an on-disk tier (``--cache-dir``,
    ``--cache-max-bytes``) when the command takes those flags."""
    from .engine import ExperimentEngine

    try:
        return ExperimentEngine(
            jobs=getattr(args, "jobs", 1),
            cache_dir=getattr(args, "cache_dir", None),
            cache_max_bytes=getattr(args, "cache_max_bytes", None),
        )
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}")


def _make_stopping_rule(args):
    """A CiHalfWidthRule when any repeater flag was used, else None
    (each tool then applies its own default knobs)."""
    knobs = (
        getattr(args, "min_repeats", None),
        getattr(args, "max_repeats", None),
        getattr(args, "bench_target", None),
        getattr(args, "bench_seed", None),
    )
    if all(value is None for value in knobs):
        return None
    from .bench import CiHalfWidthRule

    kwargs = {}
    if args.min_repeats is not None:
        kwargs["min_repeats"] = args.min_repeats
    if args.max_repeats is not None:
        kwargs["max_repeats"] = args.max_repeats
    if args.bench_target is not None:
        kwargs["target"] = args.bench_target
    if args.bench_seed is not None:
        kwargs["seed"] = args.bench_seed
    try:
        return CiHalfWidthRule(**kwargs)
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}")


def _finish_engine(engine, args) -> None:
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        engine.metrics.write(metrics_out)
    print(engine.metrics.summary(), file=sys.stderr)


#: Commands that own their tracer lifecycle (the service configures the
#: tracer from ServiceConfig; loadgen writes its own client-side trace).
_OBS_SELF_MANAGED = ("serve", "loadgen")


def _setup_observability(args) -> None:
    if getattr(args, "command", None) in _OBS_SELF_MANAGED:
        return
    trace_out = getattr(args, "trace_out", None)
    trace_jsonl = getattr(args, "trace_jsonl", None)
    if trace_out or trace_jsonl:
        from .obs.tracer import TRACER

        TRACER.configure(enabled=True, jsonl_path=trace_jsonl)
    if getattr(args, "profile_out", None):
        from .obs import profiling

        profiling.install(profiling.StageProfiler())


def _finish_observability(args) -> None:
    if getattr(args, "command", None) in _OBS_SELF_MANAGED:
        return
    trace_out = getattr(args, "trace_out", None)
    trace_jsonl = getattr(args, "trace_jsonl", None)
    if trace_out or trace_jsonl:
        from .obs.tracer import TRACER

        spans = TRACER.drain()
        TRACER.enabled = False
        if trace_out:
            from .obs.exporters import write_chrome_trace

            write_chrome_trace(trace_out, spans)
            print(
                f"wrote {len(spans)} spans to {trace_out}",
                file=sys.stderr,
            )
    profile_out = getattr(args, "profile_out", None)
    if profile_out:
        from .obs import profiling

        profiler = profiling.current()
        if profiler is not None:
            profiler.write(profile_out)
            profiling.uninstall()
            print(f"wrote stage profile to {profile_out}", file=sys.stderr)


def _plan_schemes(names: List[str]) -> List[Scheme]:
    """Every (scheme) a figure run will evaluate the suite under.

    Built from the figure modules' own sweep constants so the plan can
    never drift from what the drivers actually request; anything the
    plan misses is simply evaluated lazily (and cached) when the driver
    asks for it.
    """
    schemes: List[Scheme] = []

    def add(scheme: Scheme) -> None:
        if scheme not in schemes:
            schemes.append(scheme)

    for name in names:
        if name == "fig11":
            from .experiments.fig11 import ENTRY_SWEEP

            for entries in ENTRY_SWEEP:
                add(Scheme(SchemeKind.HW_TWO_LEVEL, entries))
                add(Scheme(SchemeKind.SW_TWO_LEVEL, entries))
        elif name == "fig12":
            from .experiments.fig12 import ENTRY_SWEEP

            for entries in ENTRY_SWEEP:
                add(Scheme(SchemeKind.HW_THREE_LEVEL, entries))
                add(Scheme(SchemeKind.SW_THREE_LEVEL, entries))
                add(
                    Scheme(
                        SchemeKind.SW_THREE_LEVEL, entries, split_lrf=True
                    )
                )
        elif name == "fig13":
            from .experiments.fig13 import ENTRY_SWEEP, EXTRA_SERIES, SERIES

            for _, base_scheme in SERIES + EXTRA_SERIES:
                for entries in ENTRY_SWEEP:
                    add(base_scheme.with_entries(entries))
        elif name == "fig14":
            from .experiments.fig14 import ENTRY_SWEEP

            for entries in ENTRY_SWEEP:
                add(
                    Scheme(
                        SchemeKind.SW_THREE_LEVEL, entries, split_lrf=True
                    )
                )
        elif name == "fig15":
            add(BEST_SCHEME)
        elif name == "limit":
            add(BEST_SCHEME)
            add(
                Scheme(
                    SchemeKind.HW_TWO_LEVEL, 3,
                    flush_on_backward_branch=True,
                )
            )
            add(Scheme(SchemeKind.HW_TWO_LEVEL, 3))
        elif name == "sensitivity":
            add(Scheme(SchemeKind.SW_THREE_LEVEL, 3, split_lrf=True))
            add(Scheme(SchemeKind.HW_TWO_LEVEL, 3))
    return schemes


def _run_allocate(args) -> int:
    """``repro allocate``: parse a file, allocate, print.

    Parse failures exit with code 2 and a one-line diagnostic — the
    same clean message the service returns as HTTP 400 — never a
    traceback.
    """
    from .ir.parser import AsmSyntaxError, parse_kernels

    try:
        if args.path == "-":
            text = sys.stdin.read()
        else:
            with open(args.path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    try:
        kernels = parse_kernels(text)
    except AsmSyntaxError as error:
        print(f"repro: parse error: {error}", file=sys.stderr)
        return 2
    if not kernels:
        print("repro: parse error: no kernels in input", file=sys.stderr)
        return 2
    config = AllocationConfig(
        orf_entries=args.orf_entries,
        use_lrf=not args.no_lrf,
        split_lrf=not args.no_lrf,
    )
    for index, kernel in enumerate(kernels):
        if index:
            print()
        result = allocate_kernel(kernel, config)
        print(format_allocated_kernel(kernel))
        print()
        print(result.summary())
    return 0


class _TargetError(Exception):
    """A CLI kernel target did not resolve; the message is the clean
    one-line diagnostic (no traceback)."""


def _resolve_target(target: str, scale: float = 1.0, num_warps: int = 2):
    """Resolve the target form shared by trace/explain/tune.

    Accepts a benchmark name, ``fuzz:SEED`` for a generated workload,
    or a path to an IR text file (``-`` for stdin); returns a
    :class:`~repro.workloads.shapes.WorkloadSpec`.  Raises
    :class:`_TargetError` with a clean message on any bad input.
    """
    if target in BENCHMARK_NAMES:
        return get_workload(target, scale)
    if target.startswith("fuzz:"):
        from .workloads.generators import generate_workload

        try:
            seed = int(target.split(":", 1)[1])
        except ValueError:
            raise _TargetError(
                f"bad fuzz target {target!r} (expected fuzz:SEED)"
            ) from None
        return generate_workload(seed, num_warps=num_warps)
    from .ir.parser import AsmSyntaxError, parse_kernels
    from .sim.executor import WarpInput
    from .workloads.shapes import WorkloadSpec

    try:
        if target == "-":
            text = sys.stdin.read()
        else:
            with open(target, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as error:
        raise _TargetError(str(error)) from None
    try:
        kernels = parse_kernels(text)
    except AsmSyntaxError as error:
        raise _TargetError(f"parse error: {error}") from None
    if not kernels:
        raise _TargetError("parse error: no kernels in input")
    kernel = kernels[0]
    return WorkloadSpec(
        name=kernel.name,
        suite="file",
        kernel=kernel,
        warp_inputs=[
            WarpInput(live_in_values={}) for _ in range(num_warps)
        ],
        description=f"parsed from {target}",
    )


def _run_trace(args) -> int:
    """``repro trace``: one kernel through trace → allocate →
    account under a spread of schemes, spans on; the generic
    observability teardown writes the Chrome trace."""
    from .sim.schemes import (
        BEST_HW_TWO_LEVEL,
        BEST_SW_TWO_LEVEL,
    )

    spec = args.spec
    engine = _make_engine(args)
    traces = engine.build_traces(spec.kernel, spec.warp_inputs)
    schemes = [
        Scheme(SchemeKind.BASELINE),
        BEST_SW_TWO_LEVEL.with_entries(args.orf_entries),
        BEST_HW_TWO_LEVEL,
    ]
    if not args.no_lrf:
        schemes.append(
            Scheme(
                SchemeKind.SW_THREE_LEVEL,
                args.orf_entries,
                split_lrf=True,
            )
        )
    for scheme in schemes:
        evaluation = engine.evaluate(traces, scheme)
        print(
            f"{spec.name:<16} {scheme.name:<16} "
            f"{evaluation.dynamic_instructions} dyn instrs"
        )
    _finish_engine(engine, args)
    return 0


def _run_explain(args) -> int:
    """``repro explain``: print the allocator's provenance report for
    the target kernel (text, or JSON with ``--json``)."""
    kernel = args.spec.kernel
    config = AllocationConfig(
        orf_entries=args.orf_entries,
        use_lrf=not args.no_lrf,
        split_lrf=not args.no_lrf,
        enable_partial_ranges=not args.no_partial_ranges,
        enable_read_operands=not args.no_read_operands,
        allow_forward_branches=not args.no_forward_branches,
    )
    if args.json:
        import json

        from .obs.explain import explain_json

        payload = explain_json(
            kernel, config, reg=args.reg, position=args.pos
        )
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    from .obs.explain import explain_report

    print(explain_report(kernel, config, reg=args.reg, position=args.pos))
    return 0


def _run_tune(args) -> int:
    """``repro tune``: design-space search over AllocationConfig for
    one kernel; prints the report and writes the tuner JSON with a
    ``bench`` section timing the one search."""
    from .tuner import (
        default_space,
        format_tune,
        run_tune,
        tune_bench,
        write_tune,
    )

    spec = args.spec
    engine = _make_engine(args)
    traces = engine.build_traces(spec.kernel, spec.warp_inputs)
    try:
        payload = run_tune(
            traces,
            space=default_space(include_ideal=args.include_ideal),
            strategy=args.strategy,
            objective=args.objective,
            budget=args.budget,
            seed=args.seed,
            engine=engine,
            time_budget_s=args.time_budget_s,
        )
    except ValueError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    payload["bench"] = tune_bench(payload)
    print(format_tune(payload))
    print(write_tune(args.out, payload), file=sys.stderr)
    _finish_engine(engine, args)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    error = _out_of_range(args) or _resolve_command_target(args)
    if error is not None:
        # Before observability starts, so a usage or target error
        # writes no trace or profile file.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    _setup_observability(args)
    try:
        return _dispatch(args)
    finally:
        _finish_observability(args)


def _out_of_range(args) -> Optional[str]:
    """Why a numeric option's value is unusable, or None.  ``type=int``
    and ``type=float`` admit 0 and negatives, and ``type=float`` also
    nan and inf: a scale must be a positive finite number (the
    workloads clamp a loop's scaled trip count to at least 2, and
    cannot round nan or inf), a warp count below 1 leaves no trace to
    tune, schedule or time, and a time budget must leave the search
    some time."""
    scale = getattr(args, "scale", None)
    if scale is not None and not (scale > 0 and math.isfinite(scale)):
        return f"--scale must be positive and finite, got {scale}"
    warps = getattr(args, "warps", None)
    if warps is not None and warps < 1:
        return f"--warps must be at least 1, got {warps}"
    budget = getattr(args, "time_budget_s", None)
    if budget is not None and not budget > 0:
        return f"--time-budget-s must be positive, got {budget}"
    return None


#: Commands that take a kernel target, and the warp count each builds
#: it with (None: the command's ``--warps``).
_TARGET_WARPS = {"trace": 2, "explain": 1, "tune": None}


def _resolve_command_target(args) -> Optional[str]:
    """Resolve a target-taking command's kernel into ``args.spec``;
    the clean error message if it does not resolve, else None."""
    if args.command not in _TARGET_WARPS:
        return None
    warps = _TARGET_WARPS[args.command] or args.warps
    try:
        args.spec = _resolve_target(
            args.target, getattr(args, "scale", 1.0), warps
        )
    except _TargetError as error:
        return str(error)
    return None


def _dispatch(args) -> int:
    if args.command == "list":
        for name in BENCHMARK_NAMES:
            print(f"{name:<22} {suite_of(name)}")
        return 0

    if args.command == "show":
        spec = get_workload(args.benchmark)
        config = AllocationConfig(
            orf_entries=args.orf_entries,
            use_lrf=not args.no_lrf,
            split_lrf=not args.no_lrf,
        )
        result = allocate_kernel(spec.kernel, config)
        print(format_allocated_kernel(spec.kernel))
        print()
        print(result.summary())
        if args.strands:
            print()
            header = (
                f"{'strand':>7}{'instrs':>8}{'webs':>6}{'lrf':>5}"
                f"{'orf':>5}{'rdop':>6}{'est. pJ saved':>15}"
            )
            print(header)
            for row in result.strand_report():
                print(
                    f"{row['strand']:>7}{row['instructions']:>8}"
                    f"{row['webs']:>6}{row['lrf_values']:>5}"
                    f"{row['orf_values']:>5}{row['read_operands']:>6}"
                    f"{row['estimated_savings_pj']:>15.1f}"
                )
        return 0

    if args.command == "allocate":
        return _run_allocate(args)

    if args.command == "trace":
        return _run_trace(args)

    if args.command == "explain":
        return _run_explain(args)

    if args.command == "tune":
        return _run_tune(args)

    if args.command == "serve":
        from .service.server import ServiceConfig, serve_forever

        config = ServiceConfig(
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            executor=args.executor,
            max_pending=args.max_pending,
            request_timeout_s=args.timeout,
            cache_dir=args.cache_dir,
            cache_max_bytes=args.cache_max_bytes,
            announce=True,
            trace_out=args.trace_out,
            trace_jsonl=args.trace_jsonl,
        )
        return serve_forever(config, metrics_out=args.metrics_out)

    if args.command == "loadgen":
        from .service.client import wait_until_healthy
        from .service.loadgen import (
            format_loadgen,
            run_loadgen,
            write_loadgen,
        )

        if not wait_until_healthy(args.host, args.port, args.wait_secs):
            print(
                f"repro: error: no healthy service at "
                f"{args.host}:{args.port} within {args.wait_secs}s",
                file=sys.stderr,
            )
            return 1
        payload = run_loadgen(
            args.host,
            args.port,
            requests=args.requests,
            concurrency=args.concurrency,
            timeout=args.timeout,
            verify=not args.no_verify,
            trace_out=args.trace_out,
            rule=_make_stopping_rule(args),
            retries=args.retries,
        )
        print(format_loadgen(payload))
        print(write_loadgen(args.out, payload))
        return 0 if payload["ok"] else 1

    if args.command == "bench":
        from .bench import run_diff

        code, text, _ = run_diff(args.old, args.new, gate_pct=args.gate)
        print(text)
        return code

    # Every command below runs a figure driver or a study.
    from . import experiments

    if args.command == "export":
        from .experiments.export import export_all

        engine = _make_engine(args)
        data = experiments.SuiteData.build(
            all_workloads(args.scale), scale=args.scale, engine=engine
        )
        data.prefetch(_plan_schemes(list(_FIGURE_NAMES)))
        written = export_all(
            data, args.directory, include_slow=not args.skip_slow
        )
        for path in written:
            print(path)
        _finish_engine(engine, args)
        return 0

    if args.command == "report":
        from .experiments.report import write_report

        engine = _make_engine(args)
        data = experiments.SuiteData.build(
            all_workloads(args.scale), scale=args.scale, engine=engine
        )
        data.prefetch(_plan_schemes(list(_FIGURE_NAMES)))
        written = write_report(args.path, data)
        print(written)
        _finish_engine(engine, args)
        return 0

    if args.command == "bench-accounting":
        payload = experiments.run_bench_accounting(
            scale=args.scale,
            repeats=args.repeats,
            rule=_make_stopping_rule(args),
        )
        print(experiments.format_bench_accounting(payload))
        print(experiments.write_bench_accounting(args.out, payload))
        return 0

    if args.command == "unroll":
        result = experiments.run_unroll_study(
            args.benchmarks, factor=args.factor
        )
        print(experiments.format_unroll_study(result))
        return 0

    if args.command == "scheduler":
        specs = [get_workload(name, args.scale) for name in args.benchmarks]
        result = experiments.run_scheduler_study(
            specs, num_warps=args.warps
        )
        print(experiments.format_scheduler_study(result))
        return 0

    if args.command == "timing":
        specs = [get_workload(name, args.scale) for name in args.benchmarks]
        result = experiments.run_timing_study(specs, num_warps=args.warps)
        print(experiments.format_timing_study(result))
        return 0

    figures = _figures()
    started = time.time()
    engine = _make_engine(args)
    data = experiments.SuiteData.build(
        all_workloads(args.scale), scale=args.scale, engine=engine
    )
    print(
        f"# {len(data.items)} workloads, "
        f"{data.dynamic_instructions} dynamic warp instructions "
        f"(built in {time.time() - started:.1f}s)\n",
        file=sys.stderr,
    )

    names = list(figures) if args.command == "all" else [args.command]
    data.prefetch(_plan_schemes(names))
    for name in names:
        run, fmt = figures[name]
        print(fmt(run(data)))
        print()
    _finish_engine(engine, args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
