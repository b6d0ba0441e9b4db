"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 serve_traced.py TRACE_DIR [repro serve flags...]``

The wrappers go in before the server starts its process pool, so the
forked pool workers inherit them; every process appends its span sums
to ``TRACE_DIR/spans.<pid>.jsonl`` (see :mod:`layers`).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import layers  # noqa: E402


def main() -> int:
    ledger = layers.Ledger(Path(sys.argv[1]))
    layers.install(ledger)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *sys.argv[2:]])
    finally:
        ledger.close()


if __name__ == "__main__":
    sys.exit(main())
