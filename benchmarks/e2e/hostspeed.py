"""A probe of the host's speed, taken during each measurement.

The benchmark runs on shared virtual machines whose speed drifts: on
the 2-vCPU VM it was written on, the same pure-Python work ran up to
twice as slow for minutes at a time, with every workload slowing
together, so medians inside a 25-second run could not remove a slow
minute.  Each run therefore also times :func:`work_time`, a fixed piece
of interpreter work (dict and attribute access, object allocation,
sorting and string building, like the program's own mix).  That work
is part of the benchmark, not of the program, so it does not change
when the program does.  :func:`factor` turns a run's probe times into
the factor its timings are multiplied by, the reference time
:data:`REFERENCE_S` over the mean probe time: the timings then read as
they would at the reference speed.

Where the probe runs matters, because the two vCPUs slow down
independently.  A ``figures`` or ``tune_suite`` pass runs in one
process, which times the probe itself between operations, on the vCPU
it runs on.  A service run keeps both vCPUs busy, so :class:`Probe`
runs this file as a side process that times the probe every half
second on each vCPU in turn.

Usage (as a side process only): ``python3 hostspeed.py OUT``
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

#: The mean probe time on a quiet host (2-vCPU Xeon VM, Python 3.11).
#: It only sets the units of the scaled timings.
REFERENCE_S = 0.0070

#: Seconds between two probe timings.
EVERY_S = 0.5


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: tuple, value: int) -> None:
        self.key = key
        self.value = value


def _work() -> int:
    table = {}
    cells: List[_Cell] = []
    for i in range(20000):
        key = (i % 97, i % 13)
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(key, 0)
            cells.append(cell)
        cell.value += (i * 7) & 0xFF
    cells.sort(key=lambda c: (c.value, c.key))
    text = ",".join(f"{c.key[0]}:{c.key[1]}={c.value}" for c in cells)
    return len(text)


def work_time() -> float:
    """CPU seconds the probe's fixed work takes now.  CPU time, not wall
    time, so that time spent waiting for a vCPU the benchmark's own
    processes hold is not counted: the factor must not depend on how
    much CPU the program under test uses."""
    began = time.thread_time()
    _work()
    return time.thread_time() - began


def factor(times: List[float]) -> float:
    """The factor that brings a run's timings to the reference speed."""
    if not times:
        raise RuntimeError("the host-speed probe took no timing")
    return REFERENCE_S / statistics.fmean(times)


class Probe:
    """The side process for one service run: :meth:`start`, then
    :meth:`stop`, which returns the probe times."""

    def __init__(self, workdir: Path) -> None:
        self.path = workdir / "hostspeed.jsonl"
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)

    def stop(self) -> List[float]:
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(30)
        return [json.loads(line) for line in
                self.path.read_text(encoding="utf-8").splitlines()]


def main(out: str) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    parent = os.getppid()
    cpus = sorted(os.sched_getaffinity(0))
    with open(out, "w", encoding="utf-8") as sink:
        for turn in range(sys.maxsize):
            if os.getppid() != parent:
                return 0  # the run died without stopping its probe
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            sink.write(json.dumps(work_time()) + "\n")
            sink.flush()
            time.sleep(EVERY_S)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
