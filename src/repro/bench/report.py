"""Unified BenchReport schema shared by every benchmark producer.

Each BENCH file gains a top-level ``"bench"`` section::

    "bench": {
      "bench_schema": 1,
      "tool": "bench-accounting",
      "env": {...environment fingerprint...},
      "rule": {"rule": "ci", "min_repeats": 3, ...},
      "metrics": {
        "hardware_speedup": {
          "samples": [18.4, 18.9, 18.7],
          "median": 18.7,
          "ci": [18.4, 18.9],
          "repeats": 3,
          "stop_reason": "ci_half_width",
          "unit": "x",
          "direction": "higher",
          "comparable": true
        },
        ...
      }
    }

``direction`` says which way is better; ``comparable`` marks metrics
that are machine-portable ratios (speedups, hit rates) safe to gate on
across runs — absolute timings (seconds, ns/instr) carry
``comparable: false`` and are reported by ``repro bench diff`` without
ever failing the gate.

Compat rule: a metric entry that is a bare number (or lacks
``samples``/``ci`` keys) is read as a legacy point estimate —
``samples=[v]``, ``ci=[v, v]`` — so old BENCH files still diff.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .env import environment_fingerprint
from .stopping import CiHalfWidthRule, run_repeater

#: Version of the shared ``"bench"`` section layout (producers keep
#: their own top-level ``schema`` numbers on top of this).
BENCH_SECTION_SCHEMA = 1


def metric_from_samples(
    name: str,
    samples: Sequence[float],
    *,
    unit: str,
    direction: str = "higher",
    comparable: bool = False,
    rule: Optional[CiHalfWidthRule] = None,
    stop_reason: str = "fixed_repeats",
) -> Dict[str, Any]:
    """Build one metric entry from collected samples.

    When ``rule`` is given its interval estimator supplies the CI
    bounds; otherwise the sample min/max envelope is used.
    """
    if direction not in ("higher", "lower"):
        raise ValueError("direction must be 'higher' or 'lower'")
    data = [float(v) for v in samples]
    if not data:
        raise ValueError(f"metric {name!r} has no samples")
    median = float(statistics.median(data))
    if rule is not None:
        lo, hi = rule.interval(data)
    else:
        lo, hi = min(data), max(data)
    return {
        "samples": data,
        "median": median,
        "ci": [float(lo), float(hi)],
        "repeats": len(data),
        "stop_reason": stop_reason,
        "unit": unit,
        "direction": direction,
        "comparable": bool(comparable),
    }


def measure(
    sample_fn: Callable[[int], float],
    rule: CiHalfWidthRule,
    *,
    name: str,
    unit: str,
    direction: str = "lower",
    comparable: bool = False,
) -> Tuple[List[float], Dict[str, Any]]:
    """Adaptively repeat ``sample_fn`` under ``rule`` and build the
    metric entry; returns ``(samples, entry)`` so callers can reuse
    the raw samples for derived metrics."""
    samples, stop_reason = run_repeater(sample_fn, rule)
    entry = metric_from_samples(
        name,
        samples,
        unit=unit,
        direction=direction,
        comparable=comparable,
        rule=rule,
        stop_reason=stop_reason,
    )
    return samples, entry


def metric_entry(value: Any) -> Dict[str, Any]:
    """Normalize a metric entry, applying the legacy compat rule.

    Bare numbers — and dict entries missing ``samples``/``ci`` — are
    read as point estimates with a degenerate interval.
    """
    if isinstance(value, dict):
        median = float(value.get("median", value.get("value", 0.0)))
        samples = [float(v) for v in value.get("samples", [median])]
        ci = value.get("ci")
        if not (isinstance(ci, (list, tuple)) and len(ci) == 2):
            ci = [median, median]
        return {
            "samples": samples,
            "median": median,
            "ci": [float(ci[0]), float(ci[1])],
            "repeats": int(value.get("repeats", len(samples))),
            "stop_reason": str(value.get("stop_reason", "legacy")),
            "unit": str(value.get("unit", "")),
            "direction": str(value.get("direction", "higher")),
            "comparable": bool(value.get("comparable", False)),
        }
    v = float(value)
    return {
        "samples": [v],
        "median": v,
        "ci": [v, v],
        "repeats": 1,
        "stop_reason": "legacy",
        "unit": "",
        "direction": "higher",
        "comparable": False,
    }


def bench_section(
    tool: str,
    metrics: Dict[str, Dict[str, Any]],
    *,
    rule: Optional[CiHalfWidthRule] = None,
    env: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the shared ``"bench"`` section of a BENCH payload."""
    section: Dict[str, Any] = {
        "bench_schema": BENCH_SECTION_SCHEMA,
        "tool": tool,
        "env": env if env is not None else environment_fingerprint(),
        "metrics": metrics,
    }
    if rule is not None:
        section["rule"] = rule.describe()
    return section


def write_report(path: Any, payload: Dict[str, Any]) -> Path:
    """The single canonical BENCH writer.

    Every producer routes through here so formatting (2-space indent,
    trailing newline) and location policy stay in one place.  Returns
    the path written.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )
    return target
