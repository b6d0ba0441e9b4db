"""Shared statistical measurement subsystem for every benchmark producer.

Every BENCH file the repo emits (``BENCH_accounting.json``,
``BENCH_service.json``, ``BENCH_tuner.json``) is produced through this
package: adaptive repetition under a statistical stopping rule
(:mod:`repro.bench.stopping`), an environment fingerprint stamped into
each report (:mod:`repro.bench.env`), a unified per-metric schema of
samples / median / CI bounds / repeats / stop-reason
(:mod:`repro.bench.report`), and a regression-gating differ
(:mod:`repro.bench.diff`) behind ``repro bench diff``.
"""

from .env import environment_fingerprint
from .report import (
    BENCH_SECTION_SCHEMA,
    bench_section,
    measure,
    metric_entry,
    metric_from_samples,
    write_report,
)
from .stopping import (
    STOP_MAX_REPEATS,
    CiHalfWidthRule,
    run_repeater,
)
from .diff import diff_reports, format_diff, load_metrics, run_diff

__all__ = [
    "BENCH_SECTION_SCHEMA",
    "STOP_MAX_REPEATS",
    "CiHalfWidthRule",
    "bench_section",
    "diff_reports",
    "environment_fingerprint",
    "format_diff",
    "load_metrics",
    "measure",
    "metric_entry",
    "metric_from_samples",
    "run_diff",
    "run_repeater",
    "write_report",
]
