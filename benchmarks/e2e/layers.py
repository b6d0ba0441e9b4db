"""Outside-in layer timer for the end-to-end benchmark.

The benchmark times the program's layers from the outside: it wraps
the public (and a few module-level) functions that form each layer's
boundary, without touching a file under ``src/``.  A wrapped call is a
span; a layer's *self time* is the duration of its spans minus the part
covered by child spans of any wrapped layer.

* The span stack lives in a :class:`contextvars.ContextVar`, not a
  thread-local: ``ServiceServer.handle`` and ``JobBatcher.submit``
  interleave on one event loop, and each asyncio task carries its own
  context, so concurrent requests never see each other's frames.
* :func:`install` rebinds every wrapped function in *every* module
  namespace that holds it (``normalize_request`` also lives in
  ``repro.service.server``; ``build_traces`` also lives in the engine,
  the service pipeline and ``suite_data``), so a call is timed no
  matter which import reached it.
* Spans are folded on the fly into per-key ``[calls, self_s, total_s]``
  sums.  Each time an outermost span closes, the sums so far become one
  JSON line in ``spans.<pid>.jsonl``, stamped with the close time on
  the shared monotonic clock, so a reader can keep exactly the records
  of a measurement window.  Processes forked after :func:`install`
  (the service's pool workers) inherit the wrappers, open their own
  file and flush every line, because pool workers leave via
  ``os._exit`` and would lose anything buffered.

``python3 layers.py`` is not an entry point; see ``run.py``.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_STACK: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_layer_stack", default=()
)


def _dyn(traces: Any) -> int:
    return int(getattr(traces, "dynamic_instructions", 0))


#: (layer, module, qualified name, count name, count function).  The
#: count function receives ``(args, result)`` and is applied only on
#: the outermost span of its layer, so nested calls count once.
SPECS: Tuple[Tuple[str, str, str, Optional[str], Optional[Callable]], ...] = (
    ("ir.parse", "repro.ir.parser", "_parse_kernels", None, None),
    ("service.protocol", "repro.service.protocol", "normalize_request",
     None, None),
    ("service.server", "repro.service.server", "ServiceServer.handle",
     None, None),
    ("service.httpd.encode", "repro.service.httpd", "json_response",
     None, None),
    ("service.batcher.wait", "repro.service.batcher", "JobBatcher.submit",
     None, None),
    ("service.pipeline", "repro.service.pipeline", "run_service_job",
     None, None),
    ("sim.trace", "repro.sim.runner", "build_traces",
     "sim.trace.instr", lambda args, result: _dyn(result)),
    ("alloc.analysis", "repro.alloc.analysis", "kernel_analysis",
     None, None),
    ("alloc.analysis", "repro.alloc.analysis", "analyze_kernel",
     None, None),
    ("alloc.levels", "repro.alloc.allocator", "allocate_kernel", None, None),
    ("alloc.levels", "repro.alloc.allocator", "allocate_kernels_batch",
     None, None),
    ("alloc.levels", "repro.alloc.allocator", "_levels_pass", None, None),
    ("sim.account", "repro.sim.runner", "_account_compiled",
     "sim.account.instr", lambda args, result: _dyn(args[0])),
    ("sim.account", "repro.sim.runner", "_account_scalar",
     "sim.account.instr", lambda args, result: _dyn(args[0])),
    ("sim.account", "repro.sim.compiled", "compile_traces", None, None),
    ("sim.account", "repro.sim.compiled", "hardware_counters",
     "sim.account.instr",
     lambda args, result: _dyn(args[0]) * len(args[1])),
    ("sim.account", "repro.sim.accounting", "account_trace",
     "sim.account.instr", lambda args, result: len(args[1])),
    ("sim.account", "repro.experiments.variable_orf", "_account_events",
     "sim.account.instr", lambda args, result: len(args[0])),
    ("energy", "repro.energy.accounting", "compute_energy", None, None),
    ("energy", "repro.energy.accounting", "normalized_energy", None, None),
    ("engine", "repro.engine.engine", "ExperimentEngine.evaluate",
     None, None),
    ("engine", "repro.engine.engine", "ExperimentEngine.evaluate_batch",
     None, None),
    ("tuner", "repro.tuner.runner", "run_tune", None, None),
)


class Ledger:
    """Per-process span sums, written as JSON lines to a directory."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._owner = os.getpid()
        self._pid: Optional[int] = None
        self._file = None
        self._sums: Dict[str, List[float]] = {}
        self._counts: Dict[str, float] = {}
        os.register_at_fork(
            before=self.flush, after_in_child=self._after_fork
        )

    def _after_fork(self) -> None:
        # The child must neither write the parent's file object nor
        # re-emit the parent's pending sums.
        self._pid = None
        self._file = None
        self._sums = {}
        self._counts = {}
        _STACK.set(())

    def add(
        self, key: str, self_s: float, total_s: float, outermost: bool
    ) -> None:
        entry = self._sums.get(key)
        if entry is None:
            self._sums[key] = [1, self_s, total_s]
        else:
            entry[0] += 1
            entry[1] += self_s
            entry[2] += total_s
        if outermost:
            self._emit()

    def count(self, name: str, amount: float) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def _emit(self) -> None:
        pid = os.getpid()
        if self._pid != pid:
            self._pid = pid
            self._file = open(
                self.directory / f"spans.{pid}.jsonl", "a", encoding="utf-8"
            )
        record = {
            "t": time.monotonic(),
            "pid": pid,
            "spans": self._sums,
            "counts": self._counts,
        }
        self._file.write(json.dumps(record) + "\n")
        if pid != self._owner:
            self._file.flush()
        self._sums = {}
        self._counts = {}

    def flush(self) -> None:
        if self._file is not None and self._pid == os.getpid():
            self._file.flush()

    def close(self) -> None:
        if self._sums or self._counts:
            self._emit()
        if self._file is not None and self._pid == os.getpid():
            self._file.close()
        self._file = None


def _wrap(
    ledger: Ledger,
    layer: str,
    fn: Callable,
    count_name: Optional[str],
    count_fn: Optional[Callable],
) -> Callable:
    key = f"{layer}|{fn.__qualname__}"
    clock = time.perf_counter

    def close(stack, frame, start, args, result) -> None:
        total = clock() - start
        if stack:
            stack[-1][0] += total
        if count_fn is not None and all(f[1] != layer for f in stack):
            ledger.count(count_name, count_fn(args, result))
        ledger.add(key, total - frame[0], total, not stack)

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            stack = _STACK.get()
            frame = [0.0, layer]
            token = _STACK.set(stack + (frame,))
            start = clock()
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                _STACK.reset(token)
                close(stack, frame, start, args, result)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _STACK.get()
        frame = [0.0, layer]
        token = _STACK.set(stack + (frame,))
        start = clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            _STACK.reset(token)
            close(stack, frame, start, args, result)

    return wrapper


def install(
    ledger: Ledger,
    extra: Iterable[Tuple[str, str, str]] = (),
) -> None:
    """Wrap every layer boundary in :data:`SPECS` plus ``extra``
    ``(layer, module, qualname)`` triples."""
    specs = list(SPECS) + [(layer, module, qualname, None, None)
                           for layer, module, qualname in extra]
    replacements: Dict[int, Callable] = {}
    for layer, module_name, qualname, count_name, count_fn in specs:
        module = importlib.import_module(module_name)
        owner: Any = module
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, name)
        wrapped = _wrap(ledger, layer, original, count_name, count_fn)
        if owner is not module:
            setattr(owner, name, wrapped)  # a method: patch the class
        else:
            replacements[id(original)] = wrapped
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if id(value) in replacements:
                namespace[attr] = replacements[id(value)]


# -- reading and folding ---------------------------------------------------


def read_records(directory: Path) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    for path in sorted(Path(directory).glob("spans.*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    records.append(json.loads(line))
    return records


def fold(
    records: Iterable[Dict[str, Any]], start: float, end: float
) -> Dict[str, Any]:
    """Sum the records closed inside ``[start, end]``.

    Returns ``{"spans": {key: [calls, self_s, total_s]}, "counts":
    {...}, "pids": n}`` where ``pids`` is the number of processes that
    recorded any span in the window.
    """
    spans: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    pids = set()
    for record in records:
        if not start <= record["t"] <= end:
            continue
        pids.add(record["pid"])
        for key, (calls, self_s, total_s) in record["spans"].items():
            entry = spans.setdefault(key, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += total_s
        for name, amount in record["counts"].items():
            counts[name] = counts.get(name, 0) + amount
    return {"spans": spans, "counts": counts, "pids": len(pids)}


def layer_sums(spans: Dict[str, List[float]]) -> Dict[str, List[float]]:
    """Per-layer ``[calls, self_s, total_s]`` from per-key sums."""
    layers: Dict[str, List[float]] = {}
    for key, (calls, self_s, total_s) in spans.items():
        entry = layers.setdefault(key.split("|", 1)[0], [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += self_s
        entry[2] += total_s
    return layers


def calls_of(spans: Dict[str, List[float]], layer: str, qualname: str) -> int:
    return int(spans.get(f"{layer}|{qualname}", (0,))[0])
