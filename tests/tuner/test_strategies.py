"""Strategies against a fake oracle: budget, determinism, in-space.

The fake oracle implements the contract documented in
:mod:`repro.tuner.strategies` with a synthetic objective (a pure
function of the assignment), so strategy behaviour is tested without
the engine.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.tuner.space import default_space, space_from_dict
from repro.tuner.strategies import (
    STRATEGY_NAMES,
    make_strategy,
)


class FakeOutcome:
    def __init__(self, assignment, key, objective):
        self.assignment = assignment
        self.key = key
        self.objective = objective


class FakeOracle:
    """In-memory oracle honouring the budget/memo/truncation contract."""

    def __init__(self, space, budget):
        self.space = space
        self.budget = budget
        self.memo = {}
        self.eval_log = []
        self.notes = []
        self.call_sizes = []

    @property
    def remaining(self):
        return max(0, self.budget - len(self.memo))

    @property
    def exhausted(self):
        return self.remaining <= 0

    def note(self, event, **detail):
        self.notes.append((event, detail))

    def _objective(self, assignment):
        # Deterministic, non-trivial landscape: prefer high orf_entries
        # with the LRF on, never consult wall time or global random.
        return (
            -assignment["orf_entries"]
            - (2.0 if assignment["use_lrf"] else 0.0)
            + (0.5 if assignment["enable_partial_ranges"] else 0.0)
        )

    def evaluate(self, assignments):
        self.call_sizes.append(len(assignments))
        served = []
        fresh = []
        for assignment in assignments:
            key = self.space.key(assignment)
            hit = self.memo.get(key)
            if hit is not None:
                served.append(hit)
                continue
            if any(f.key == key for f in fresh):
                continue
            if len(fresh) >= self.remaining:
                continue
            # The hypothesis property: strategies only ever request
            # in-space, constraint-satisfying assignments.
            self.space.validate(assignment)
            outcome = FakeOutcome(
                dict(assignment), key, self._objective(assignment)
            )
            fresh.append(outcome)
        for outcome in fresh:
            self.memo[outcome.key] = outcome
            self.eval_log.append(outcome.key)
        served.extend(fresh)
        return served


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_budget_is_respected(name):
    space = default_space()
    oracle = FakeOracle(space, budget=17)
    make_strategy(name).search(space, oracle, random.Random(5))
    assert len(oracle.memo) == 17


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_same_seed_replays_identically(name):
    space = default_space()
    logs = []
    for _ in range(2):
        oracle = FakeOracle(space, budget=25)
        make_strategy(name).search(space, oracle, random.Random(42))
        logs.append((oracle.eval_log, oracle.notes))
    assert logs[0] == logs[1]


def test_different_seeds_diverge():
    space = default_space()
    logs = []
    for seed in (1, 2):
        oracle = FakeOracle(space, budget=25)
        make_strategy("evolutionary").search(
            space, oracle, random.Random(seed)
        )
        logs.append(oracle.eval_log)
    assert logs[0] != logs[1]


def test_exhaustive_covers_tiny_space_exactly():
    space = space_from_dict(
        {
            "parameters": {
                "orf_entries": [1, 2],
                "use_lrf": [False],
                "split_lrf": [False],
                "lrf_banks": [3],
                "enable_partial_ranges": [True],
                "enable_read_operands": [True],
                "allow_forward_branches": [True],
            }
        }
    )
    oracle = FakeOracle(space, budget=100)
    make_strategy("exhaustive").search(space, oracle, random.Random(0))
    assert sorted(oracle.eval_log) == sorted(
        space.key(a) for a in space.assignments()
    )


def test_exhaustive_sweeps_64_candidates_per_oracle_call():
    space = default_space()
    oracle = FakeOracle(space, budget=space.valid_size())
    make_strategy("exhaustive").search(space, oracle, random.Random(0))
    assert oracle.call_sizes == [64] * 5
    assert len(oracle.memo) == 320


def test_evolutionary_handles_space_smaller_than_population():
    space = space_from_dict(
        {
            "parameters": {
                "orf_entries": [1, 2, 3],
                "use_lrf": [False],
                "split_lrf": [False],
                "lrf_banks": [3],
                "enable_partial_ranges": [True],
                "enable_read_operands": [True],
                "allow_forward_branches": [True],
            }
        }
    )
    oracle = FakeOracle(space, budget=50)
    make_strategy("evolutionary", population=16).search(
        space, oracle, random.Random(3)
    )
    assert 0 < len(oracle.memo) <= 3


def test_hillclimb_notes_tell_the_search_story():
    space = default_space()
    oracle = FakeOracle(space, budget=40)
    make_strategy("hillclimb").search(space, oracle, random.Random(9))
    events = [event for event, _ in oracle.notes]
    assert "restart" in events
    assert "move" in events or "local_optimum" in events


def test_make_strategy_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown strategy"):
        make_strategy("annealing")


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(STRATEGY_NAMES),
    seed=st.integers(min_value=0, max_value=10_000),
    budget=st.integers(min_value=1, max_value=40),
)
def test_strategies_only_emit_valid_assignments(name, seed, budget):
    """Property: for any (strategy, seed, budget), every assignment a
    strategy asks the oracle to evaluate is in-space and satisfies the
    constraints (FakeOracle.evaluate validates each one)."""
    space = default_space(include_ideal=True)
    oracle = FakeOracle(space, budget=budget)
    make_strategy(name).search(space, oracle, random.Random(seed))
    assert len(oracle.memo) <= budget
    assert len(oracle.memo) > 0
