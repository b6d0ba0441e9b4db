"""Property-based tests (hypothesis) on the stopping rule.

The invariants the rule must hold:

* **Termination** — ``run_repeater`` finishes within ``max_repeats``
  calls for *any* finite sample stream.
* **Determinism** — checking the same samples with the same seed gives
  the same decision and the same interval (the bootstrap RNG is keyed
  on ``(seed, len(samples))``, never global state).
* **Coverage** — the reported interval always contains the sample
  median (it is clamped to be a valid covering interval for the point
  estimate).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import STOP_MAX_REPEATS, CiHalfWidthRule, run_repeater

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9
)
streams = st.lists(finite, min_size=1, max_size=40)


def _sampler(values):
    return lambda i: values[i % len(values)]


@pytest.mark.parametrize("rule_cls", [CiHalfWidthRule])
@settings(max_examples=40, deadline=None)
@given(values=streams, seed=st.integers(0, 2**16))
def test_repeater_terminates_within_max_repeats(rule_cls, values, seed):
    rule = rule_cls(min_repeats=1, max_repeats=12, target=0.05, seed=seed)
    samples, reason = run_repeater(_sampler(values), rule)
    assert 1 <= len(samples) <= rule.max_repeats
    assert isinstance(reason, str) and reason


@pytest.mark.parametrize("rule_cls", [CiHalfWidthRule])
@settings(max_examples=40, deadline=None)
@given(values=st.lists(finite, min_size=3, max_size=25),
       seed=st.integers(0, 2**16))
def test_rule_is_deterministic_under_fixed_seed(rule_cls, values, seed):
    a = rule_cls(min_repeats=1, max_repeats=30, seed=seed)
    b = rule_cls(min_repeats=1, max_repeats=30, seed=seed)
    assert a.check(values) == b.check(values)
    assert a.interval(values) == b.interval(values)
    # Checking twice on the same instance must not drift either.
    assert a.check(values) == b.check(values)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(finite, min_size=1, max_size=25),
       seed=st.integers(0, 2**16))
def test_ci_interval_covers_sample_median(values, seed):
    import statistics

    rule = CiHalfWidthRule(min_repeats=1, seed=seed)
    lo, hi = rule.interval(values)
    median = statistics.median(values)
    assert lo <= median <= hi


def test_constant_stream_stops_at_min_repeats():
    rule = CiHalfWidthRule(min_repeats=2, max_repeats=10, target=0.05)
    samples, reason = run_repeater(lambda i: 7.0, rule)
    assert reason == "ci_half_width"
    assert len(samples) == 2


def test_noisy_stream_hits_max_repeats():
    # Alternating far-apart values never satisfy a 1% CI target.
    rule = CiHalfWidthRule(min_repeats=2, max_repeats=6, target=0.01)
    samples, reason = run_repeater(
        _sampler([1.0, 100.0, 3.0, 80.0]), rule
    )
    assert reason == STOP_MAX_REPEATS
    assert len(samples) == rule.max_repeats


def test_min_repeats_gates_every_rule():
    rule = CiHalfWidthRule(min_repeats=5, max_repeats=10, target=10.0)
    assert rule.check([1.0, 1.0]) is None
    assert rule.check([1.0] * 5) == "ci_half_width"


def test_rule_rejects_bad_knobs():
    with pytest.raises(ValueError):
        CiHalfWidthRule(min_repeats=0, max_repeats=5, target=0.05)
    with pytest.raises(ValueError):
        CiHalfWidthRule(min_repeats=5, max_repeats=2, target=0.05)
    with pytest.raises(ValueError):
        CiHalfWidthRule(min_repeats=1, max_repeats=2, target=0.0)


def test_describe_round_trips_knobs():
    rule = CiHalfWidthRule(min_repeats=2, max_repeats=7,
                           target=0.25, seed=3)
    assert rule.describe() == {
        "rule": "ci",
        "min_repeats": 2,
        "max_repeats": 7,
        "target": 0.25,
        "seed": 3,
    }
