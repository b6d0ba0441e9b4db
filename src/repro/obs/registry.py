"""Metric building blocks: fixed-bucket histograms and Prometheus text
exposition (stdlib only).

:class:`RunMetrics` (``repro.engine.metrics``) owns the counters,
gauges and histograms of a run; this module supplies its aggregate,
**histograms** with fixed upper-bound buckets, used for service request
latencies and engine stage durations.  Buckets are fixed at creation so
merging snapshots and rendering cumulative Prometheus ``_bucket``
series is exact, never interpolated.

:func:`render_prometheus` turns a ``RunMetrics.to_dict()`` snapshot
into Prometheus text exposition format v0.0.4 — the format served by
``GET /metrics`` under content negotiation (JSON stays the default).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Sequence, Tuple

#: Default latency buckets (seconds): 250µs .. 10s, roughly 1-2.5-5 per
#: decade — wide enough for cold service requests, fine enough for warm
#: memo hits.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Histogram:
    """Fixed-bucket histogram: per-bucket counts plus sum and count.

    ``bounds`` are inclusive upper bounds in ascending order; one
    overflow bucket (``+Inf``) is implicit at the end.
    """

    __slots__ = ("bounds", "bucket_counts", "total", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        ordered = tuple(float(b) for b in bounds)
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(ordered, ordered[1:])):
            raise ValueError("histogram bounds must be strictly ascending")
        self.bounds = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> List[int]:
        """Cumulative counts per bound, ending with the +Inf total."""
        out: List[int] = []
        running = 0
        for bucket in self.bucket_counts:
            running += bucket
            out.append(running)
        return out

    def quantile(self, fraction: float) -> float:
        """Estimated quantile: the upper bound of the bucket holding the
        target rank (the overflow bucket reports the last finite bound)."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(fraction * self.count + 0.5))
        running = 0
        for index, bucket in enumerate(self.bucket_counts):
            running += bucket
            if running >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.bounds[-1]
        return self.bounds[-1]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "sum": round(self.total, 9),
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        histogram = cls(data["bounds"])
        counts = list(data.get("bucket_counts", []))
        if len(counts) != len(histogram.bucket_counts):
            raise ValueError("bucket_counts does not match bounds")
        histogram.bucket_counts = [int(c) for c in counts]
        histogram.total = float(data.get("sum", 0.0))
        histogram.count = int(data.get("count", 0))
        return histogram

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for index, bucket in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket
        self.total += other.total
        self.count += other.count


# -- Prometheus text exposition v0.0.4 ------------------------------------

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _sanitize_name(name: str) -> str:
    out = []
    for index, char in enumerate(name):
        if char.isalnum() or char in "_:":
            if index == 0 and char.isdigit():
                out.append("_")
            out.append(char)
        else:
            out.append("_")
    return "".join(out) or "_"


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def labeled_name(name: str, **labels: object) -> str:
    """A metric name carrying Prometheus-style labels.

    The cluster coordinator counts per-shard events under names like
    ``cluster_shard_requests{shard="0"}``; in the JSON metrics payload
    the label block is simply part of the counter key (additive for
    schema-3 readers), while :func:`render_prometheus` splits it back
    out so the exposition carries a real ``shard`` label.
    """
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return f"{name}{{{inner}}}" if inner else name


def _split_labels(name: str) -> Tuple[str, str]:
    """``base{...}`` → (base, ``{...}``); label-free names pass through."""
    if name.endswith("}") and "{" in name:
        base, _, labels = name.partition("{")
        return base, "{" + labels
    return name, ""


def merge_labels(name: str, **labels: object) -> str:
    """Add labels to a metric name that may already carry some.

    The cluster metrics rollup stamps every per-shard series with a
    ``shard`` label; a name like ``cluster_shard_requests{shard="0"}``
    must gain further labels *inside* the existing block, not grow a
    second one.
    """
    base, existing = _split_labels(name)
    inner = existing[1:-1] if existing else ""
    extra = ",".join(
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )
    combined = ",".join(part for part in (inner, extra) if part)
    return f"{base}{{{combined}}}" if combined else base


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(
    snapshot: Dict[str, Any], namespace: str = "repro"
) -> str:
    """Render a ``RunMetrics.to_dict()`` snapshot as Prometheus text.

    Counters become ``{ns}_{name}_total``, gauges stay plain, stage
    timings fold into one ``{ns}_stage_seconds_total{stage="..."}``
    family, and each histogram becomes the standard cumulative
    ``_bucket``/``_sum``/``_count`` triple.
    """
    ns = _sanitize_name(namespace)
    lines: List[str] = []

    seen_counter_bases = set()
    for name in sorted(snapshot.get("counters", {})):
        value = snapshot["counters"][name]
        base, labels = _split_labels(name)
        metric = f"{ns}_{_sanitize_name(base)}_total"
        if base not in seen_counter_bases:
            seen_counter_bases.add(base)
            lines.append(
                f"# HELP {metric} {_escape_help(base)} event count"
            )
            lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{labels} {_format_value(value)}")

    seen_gauge_bases = set()
    for name in sorted(snapshot.get("gauges", {})):
        value = snapshot["gauges"][name]
        base, labels = _split_labels(name)
        metric = f"{ns}_{_sanitize_name(base)}"
        if base not in seen_gauge_bases:
            seen_gauge_bases.add(base)
            lines.append(f"# HELP {metric} {_escape_help(base)} gauge")
            lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{labels} {_format_value(value)}")

    stages = snapshot.get("stages", {})
    if stages:
        metric = f"{ns}_stage_seconds_total"
        lines.append(
            f"# HELP {metric} cumulative wall-clock seconds per stage"
        )
        lines.append(f"# TYPE {metric} counter")
        for name in sorted(stages):
            label = _escape_label_value(name)
            lines.append(
                f'{metric}{{stage="{label}"}} '
                f"{_format_value(stages[name])}"
            )

    seen_histogram_bases = set()
    for name in sorted(snapshot.get("histograms", {})):
        data = snapshot["histograms"][name]
        base, labels = _split_labels(name)
        metric = f"{ns}_{_sanitize_name(base)}"
        if base not in seen_histogram_bases:
            seen_histogram_bases.add(base)
            lines.append(f"# HELP {metric} {_escape_help(base)} histogram")
            lines.append(f"# TYPE {metric} histogram")
        # Fold ``le`` into any existing label block so shard-labeled
        # bucket series stay one well-formed label set.
        inner = labels[1:-1] if labels else ""

        def _bucket_labels(le_text: str) -> str:
            parts = ([inner] if inner else []) + [f'le="{le_text}"']
            return "{" + ",".join(parts) + "}"

        bounds = data["bounds"]
        running = 0
        for bound, bucket in zip(bounds, data["bucket_counts"]):
            running += bucket
            lines.append(
                f"{metric}_bucket"
                f"{_bucket_labels(_format_value(bound))} {running}"
            )
        running += data["bucket_counts"][len(bounds)]
        lines.append(f'{metric}_bucket{_bucket_labels("+Inf")} {running}')
        lines.append(f"{metric}_sum{labels} {_format_value(data['sum'])}")
        lines.append(f"{metric}_count{labels} {data['count']}")

    return "\n".join(lines) + "\n" if lines else ""
