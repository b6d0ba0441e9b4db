"""One pass of the ``figures`` or ``tune_suite`` workload in a fresh process.

``run.py`` starts one of these per pass, so module caches start cold on
every pass, exactly as they do for a user who runs ``repro all`` or a
suite of ``repro tune`` commands.  The process sets up (imports the
package and builds the traces), prints a ``ready`` line, then runs the
workload's operations in order and prints one JSON line per operation
with its duration and its output for the parent to check:

* ``figures``: the figure drivers of ``repro all``, in its order, on the
  paper's suite at scale 1.0.  The output is the text ``repro all``
  prints for that driver.
* ``tune_suite``: a cold exhaustive search of the tuner's 320-point
  space for each of the 36 suite kernels, each with a fresh
  ``ExperimentEngine``, in an order drawn from the seed.  The output is
  the best config's key and objective and the frontier keys.  With
  ``--verify`` the best config is shadow-executed over every warp,
  outside the timed region.

Operations start until ``--deadline`` (a ``time.monotonic()`` value)
passes; without one the pass runs to completion.  Between operations,
about twice a second, the pass also times :func:`hostspeed.work_time`
and prints it as a ``probe`` line.  With ``--trace-dir``
the layer wrappers of :mod:`layers` are installed after set-up, so
only the operations are traced.

Usage: ``python3 passes.py {figures,tune_suite} [--seed N]
[--deadline T] [--limit N] [--trace-dir DIR] [--verify] [--setup-only]``
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import hostspeed  # noqa: E402

TUNE_BUDGET = 320

Op = Tuple[str, Callable[[], Dict[str, Any]]]


def _emit(payload: Dict[str, Any]) -> None:
    print(json.dumps(payload), flush=True)


def figure_ops() -> Tuple[List[Op], List[Tuple[str, str, str]]]:
    """The drivers ``repro all`` runs, in its order (``repro.cli`` owns
    the list), plus the wrapper specs that time them as a layer."""
    from repro import experiments
    from repro.cli import _FIGURES
    from repro.workloads.suites import all_workloads

    data = experiments.SuiteData.build(all_workloads(1.0), scale=1.0)
    ops: List[Op] = []
    specs = []
    for name, (run, fmt) in _FIGURES.items():
        driver = run.__name__
        specs.append(("experiments", "repro.experiments", driver))

        def op(driver=driver, fmt=fmt) -> Dict[str, Any]:
            # Looked up per call so an installed wrapper is the one run.
            return {"text": fmt(getattr(experiments, driver)(data))}

        ops.append((name, op))
    return ops, specs


Verify = Callable[[str, Dict[str, Any]], None]


def tune_ops(seed: int) -> Tuple[List[Op], Verify]:
    """One cold exhaustive tune per suite kernel, in seeded order, and
    the shadow verifier for a tuned best config."""
    import repro.tuner
    from repro.alloc.allocator import AllocationConfig, allocate_kernel
    from repro.engine import ExperimentEngine
    from repro.sim.runner import build_traces
    from repro.sim.verify import verify_trace
    from repro.tuner.space import default_space
    from repro.workloads.suites import all_workloads

    space = default_space()
    specs = {spec.name: spec for spec in all_workloads(1.0)}
    traces = {name: build_traces(spec.kernel, spec.warp_inputs)
              for name, spec in specs.items()}
    order = sorted(specs)
    random.Random(seed).shuffle(order)

    def make(name: str) -> Callable[[], Dict[str, Any]]:
        def op() -> Dict[str, Any]:
            engine = ExperimentEngine()
            payload = repro.tuner.run_tune(
                traces[name], strategy="exhaustive",
                budget=TUNE_BUDGET, engine=engine,
            )
            counters = engine.metrics.counters
            return {
                "best": space.key(payload["best"]["config"]),
                "objective": payload["best"]["objective"],
                "frontier": [space.key(p["config"])
                             for p in payload["frontier"]],
                "config": payload["best"]["config"],
                "record_hits": counters.get("record_memo_hits", 0),
                "record_misses": counters.get("record_misses", 0),
            }
        return op

    def verify(name: str, out: Dict[str, Any]) -> None:
        spec = specs[name]
        kernel = spec.kernel.clone()
        config = AllocationConfig.from_dict(out["config"])
        partition = allocate_kernel(kernel, config).partition
        for trace in build_traces(kernel, spec.warp_inputs).warp_traces:
            verify_trace(kernel, partition, trace)

    return [(name, make(name)) for name in order], verify


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=("figures", "tune_suite"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--deadline", type=float, default=None)
    parser.add_argument("--limit", type=int, default=None,
                        help="run only the first N operations")
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ledger = None
    if args.trace_dir:
        import layers

        ledger = layers.Ledger(Path(args.trace_dir))
    extra: List[Tuple[str, str, str]] = []
    verify = None
    if args.workload == "figures":
        ops, extra = figure_ops()
    else:
        ops, verify = tune_ops(args.seed)
    if ledger is not None:
        layers.install(ledger, extra)
    _emit({"event": "ready"})
    if args.setup_only:
        return 0
    probed = float("-inf")
    for name, op in ops[: args.limit]:
        if args.deadline is not None and time.monotonic() >= args.deadline:
            break
        if time.monotonic() - probed >= hostspeed.EVERY_S:
            _emit({"event": "probe", "dt": hostspeed.work_time()})
            probed = time.monotonic()
        start = time.monotonic()
        began = time.perf_counter()
        out = op()
        elapsed = time.perf_counter() - began
        line = {"event": "op", "op": name, "dt": elapsed,
                "start": start, "end": time.monotonic(), **out}
        if verify is not None and args.verify:
            try:
                verify(name, out)
                line["verified"] = "ok"
            except AssertionError as error:
                line["verified"] = f"{type(error).__name__}: {error}"
        _emit(line)
    if ledger is not None:
        ledger.close()
    _emit({"event": "done", "hwm_mb": _peak_rss_mb()})
    return 0


def _peak_rss_mb() -> float:
    """This process's own peak RSS.  The ``ru_maxrss`` that ``os.wait4``
    returns to the parent is no substitute: Linux also counts the
    address space the child had before ``exec``, which is the parent's."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main())
