"""The statistical stopping rule for adaptive benchmark repetition.

A benchmark loop repeats a measurement until :class:`CiHalfWidthRule`
says the sample set is stable enough, or ``max_repeats`` is reached:
it bootstraps the median and stops when the confidence interval's
half-width falls below ``target`` (relative to the median's
magnitude).

The rule is deterministic: randomness (the bootstrap) comes from a
``random.Random`` seeded from the rule's ``seed`` and the current
sample count, never from global state or the clock.  Checking the same
sample list twice yields the same decision and the same interval.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Stop reason reported when a rule never fired before the repeat cap.
STOP_MAX_REPEATS = "max_repeats"

#: Guard against a zero median turning relative targets into 0/0.
_TINY = 1e-12


def _median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


@dataclass
class CiHalfWidthRule:
    """Bootstrap confidence interval on the median.

    Resamples the observations ``resamples`` times, takes the median of
    each resample, and reports the central ``confidence`` percentile
    interval of those medians.  Stops when the interval's half-width is
    at most ``target`` relative to the sample median.  The reported
    interval is widened (if needed) to include the sample median, so it
    is always a valid covering interval for the point estimate.
    """

    min_repeats: int = 3
    max_repeats: int = 30
    target: float = 0.05
    seed: int = 0
    resamples: int = 200
    confidence: float = 0.95

    name = "ci"

    def __post_init__(self) -> None:
        if self.min_repeats < 1:
            raise ValueError("min_repeats must be >= 1")
        if self.max_repeats < self.min_repeats:
            raise ValueError("max_repeats must be >= min_repeats")
        if not (self.target > 0.0):
            raise ValueError("target must be positive")

    def interval(self, samples: Sequence[float]) -> Tuple[float, float]:
        data = list(samples)
        med = _median(data)
        if len(data) == 1:
            return med, med
        # Keyed on (seed, sample count) so each check is deterministic
        # and independent of how many checks ran before it.
        rng = random.Random(self.seed * 1_000_003 + len(data))
        medians = sorted(
            _median([rng.choice(data) for _ in data])
            for _ in range(self.resamples)
        )
        tail = (1.0 - self.confidence) / 2.0
        lo_idx = int(math.floor(tail * (len(medians) - 1)))
        hi_idx = int(math.ceil((1.0 - tail) * (len(medians) - 1)))
        lo, hi = medians[lo_idx], medians[hi_idx]
        return min(lo, med), max(hi, med)

    def check(self, samples: Sequence[float]) -> Optional[str]:
        """Stop reason if sampling may stop now, else ``None``.

        ``min_repeats`` gates the rule; ``max_repeats`` is enforced
        here too so ``check`` alone guarantees termination.
        """
        if len(samples) < self.min_repeats:
            return None
        lo, hi = self.interval(samples)
        half_width = (hi - lo) / 2.0
        if half_width / max(abs(_median(samples)), _TINY) <= self.target:
            return "ci_half_width"
        if len(samples) >= self.max_repeats:
            return STOP_MAX_REPEATS
        return None

    def describe(self) -> Dict[str, object]:
        return {
            "rule": self.name,
            "min_repeats": self.min_repeats,
            "max_repeats": self.max_repeats,
            "target": self.target,
            "seed": self.seed,
        }


def run_repeater(
    sample_fn: Callable[[int], float],
    rule: CiHalfWidthRule,
) -> Tuple[List[float], str]:
    """Repeat ``sample_fn(i)`` under ``rule`` until it says stop.

    Returns the collected samples and the stop reason.  Guaranteed to
    terminate within ``rule.max_repeats`` calls.
    """
    samples: List[float] = []
    while True:
        samples.append(float(sample_fn(len(samples))))
        reason = rule.check(samples)
        if reason is not None:
            return samples, reason
