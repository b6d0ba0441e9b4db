"""run_tune end-to-end: determinism, memo reuse, payload invariants."""

import hashlib
import itertools
import json
import random
import re

import pytest

import repro.tuner.objective as objective_module
from repro.alloc.allocator import AllocationConfig
from repro.engine import ExperimentEngine
from repro.sim.runner import build_traces
from repro.sim.schemes import scheme_for_config
from repro.tuner import SearchOracle, make_strategy, run_tune
from repro.tuner.objective import candidate_metrics, dominates
from repro.tuner.space import default_space, space_from_dict
from repro.workloads import BENCHMARK_NAMES, get_workload
from repro.workloads.generators import generate_workload

#: A branchy (divergent) fuzz kernel: hammocks and loops, so scheme
#: choices actually move the objective.
FUZZ_SEED = 911


def _traces(engine):
    spec = generate_workload(FUZZ_SEED)
    return engine.build_traces(spec.kernel, spec.warp_inputs)


def _stable(payload):
    """The deterministic portion of the payload: everything except
    wall time and the fresh-vs-cached attribution (a warm engine
    legitimately serves the identical search from its memo)."""
    payload = dict(payload)
    payload.pop("wall_time_s")
    payload["evaluations"] = {
        key: value
        for key, value in payload["evaluations"].items()
        if key not in ("fresh", "cache_hits")
    }
    return json.dumps(payload, sort_keys=True)


def test_same_seed_is_byte_identical():
    results = []
    for _ in range(2):
        engine = ExperimentEngine()
        results.append(
            _stable(
                run_tune(
                    _traces(engine),
                    strategy="evolutionary",
                    budget=40,
                    seed=7,
                    engine=engine,
                )
            )
        )
    assert results[0] == results[1]


def test_second_tune_reuses_every_evaluation():
    engine = ExperimentEngine()
    traces = _traces(engine)
    first = run_tune(traces, budget=30, seed=1, engine=engine)
    assert first["evaluations"]["fresh"] == first["evaluations"]["distinct"]
    assert first["evaluations"]["cache_hits"] == 0

    second = run_tune(traces, budget=30, seed=1, engine=engine)
    assert second["evaluations"]["fresh"] == 0
    assert (
        second["evaluations"]["cache_hits"]
        == second["evaluations"]["distinct"]
    )
    assert _stable(first) == _stable(second)


def test_best_never_regresses_below_baseline():
    engine = ExperimentEngine()
    traces = _traces(engine)
    for strategy in ("exhaustive", "hillclimb", "evolutionary"):
        payload = run_tune(
            traces, strategy=strategy, budget=25, seed=3, engine=engine
        )
        assert (
            payload["best"]["objective"]
            <= payload["baseline"]["objective"]
        )
        assert payload["baseline"]["in_space"] is True
        assert payload["improvement_over_baseline"] >= 0.0


def test_payload_schema_and_frontier_invariants():
    engine = ExperimentEngine()
    payload = run_tune(
        _traces(engine),
        strategy="evolutionary",
        budget=40,
        seed=7,
        engine=engine,
    )
    for key in (
        "schema",
        "kernel",
        "strategy",
        "objective",
        "seed",
        "budget",
        "space",
        "evaluations",
        "baseline",
        "best",
        "frontier",
        "improvements",
        "trace",
        "wall_time_s",
    ):
        assert key in payload
    assert payload["kernel"] == f"fuzz_{FUZZ_SEED}"
    assert payload["evaluations"]["distinct"] == 40

    frontier = payload["frontier"]
    assert frontier, "frontier must not be empty"
    # Non-domination, pairwise.
    for a in frontier:
        for b in frontier:
            if a is not b:
                assert not dominates(a["metrics"], b["metrics"])
    # The best config is on the frontier.
    assert any(
        point["config"] == payload["best"]["config"] for point in frontier
    )
    # The improvement chain ends at the best objective.
    assert payload["improvements"][-1]["objective"] == pytest.approx(
        payload["best"]["objective"]
    )
    # Best matches an independent re-evaluation of its config.
    config = AllocationConfig.from_dict(payload["best"]["config"])
    evaluation = engine.evaluate(_traces(engine), scheme_for_config(config))
    metrics = candidate_metrics(evaluation, config)
    assert payload["best"]["metrics"]["energy_per_instruction_pj"] == (
        pytest.approx(metrics["energy_per_instruction_pj"])
    )


def test_mrf_objective_and_restricted_space():
    engine = ExperimentEngine()
    space = space_from_dict(
        {"parameters": {"orf_entries": [1, 3], "use_lrf": [True]}}
    )
    payload = run_tune(
        _traces(engine),
        space=space,
        strategy="exhaustive",
        objective="mrf",
        budget=200,
        seed=0,
        engine=engine,
    )
    # Exhaustive within budget: everything valid was explored.
    assert payload["evaluations"]["distinct"] == space.valid_size()
    # Default config has use_lrf False: out of this restricted space,
    # but still reported as the reference point.
    assert payload["baseline"]["in_space"] is False
    for point in payload["frontier"]:
        assert point["config"]["use_lrf"] is True


def test_run_tune_rejects_bad_inputs():
    engine = ExperimentEngine()
    traces = _traces(engine)
    with pytest.raises(ValueError, match="unknown strategy"):
        run_tune(traces, strategy="annealing", engine=engine)
    with pytest.raises(ValueError, match="unknown objective"):
        run_tune(traces, objective="latency", engine=engine)
    with pytest.raises(ValueError, match="budget"):
        run_tune(traces, budget=0, engine=engine)


def test_tuner_observability_hooks():
    from repro.obs.tracer import TRACER

    engine = ExperimentEngine()
    TRACER.configure(enabled=True, jsonl_path=None)
    try:
        payload = run_tune(
            _traces(engine), strategy="exhaustive", budget=100,
            engine=engine,
        )
        spans = TRACER.drain()
    finally:
        TRACER.enabled = False
    names = [span.name for span in spans]
    assert "tuner.search" in names
    assert "tuner.candidate" in names
    histograms = engine.metrics.to_dict()["histograms"]
    assert any(
        name.startswith("tuner_batch_candidates") for name in histograms
    )
    # The pricing memo reports like every other cache: one lookup per
    # evaluated candidate, split into memo hits and fresh pricings.
    counters = engine.metrics.counters
    hits = counters["tuner_energy_memo_hits"]
    misses = counters["tuner_energy_misses"]
    assert hits + misses == payload["evaluations"]["distinct"] == 100
    assert 0 < misses < 100
    (search,) = [span for span in spans if span.name == "tuner.search"]
    assert search.attributes["tuner_energy_memo_hits"] == hits
    assert search.attributes["tuner_energy_misses"] == misses
    # The paper-default seed, then 100 candidates 64 at a time.
    assert search.attributes["oracle_calls"] == 3


def _oracle(engine, traces, space, budget):
    return SearchOracle(
        engine=engine,
        traces=traces,
        space=space,
        objective="energy",
        budget=budget,
        strategy_name="exhaustive",
    )


def test_search_prices_each_distinct_result_once(monkeypatch):
    """The per-search pricing memo changes no bit of any metric, and
    prices each distinct (model, counter items) pair exactly once."""
    priced = []
    compute_energy = objective_module.compute_energy

    def counting(counters, model):
        priced.append(model)
        return compute_energy(counters, model)

    engine = ExperimentEngine()
    traces = _traces(engine)
    space = default_space(include_ideal=True)
    oracle = _oracle(engine, traces, space, space.valid_size())
    monkeypatch.setattr(objective_module, "compute_energy", counting)
    make_strategy("exhaustive").search(space, oracle, random.Random(0))
    monkeypatch.undo()
    pricings = len(priced)

    outcomes = oracle.outcomes()
    assert len(outcomes) == 640
    candidates = set()
    baselines = set()
    for outcome in outcomes:
        config = outcome.config
        evaluation = engine.evaluate(traces, scheme_for_config(config))
        # Recomputed without the memo, bit for bit.
        assert outcome.metrics == candidate_metrics(evaluation, config)
        model = config.energy_model()
        candidates.add((model, tuple(evaluation.counters.items())))
        baselines.add((model, tuple(evaluation.baseline.items())))
    assert len(candidates) < len(outcomes)
    assert pricings == len(candidates) + len(baselines)
    assert oracle.energy_misses == len(candidates)
    assert oracle.energy_memo_hits == len(outcomes) - len(candidates)


def test_oracle_validates_each_fresh_assignment_once(monkeypatch):
    engine = ExperimentEngine()
    space = default_space()
    oracle = _oracle(engine, _traces(engine), space, budget=8)
    assignments = list(itertools.islice(space.assignments(), 6))
    checked = []
    violated_constraint = space.violated_constraint

    def counting(assignment):
        checked.append(space.key(assignment))
        return violated_constraint(assignment)

    monkeypatch.setattr(space, "violated_constraint", counting)
    served = oracle.evaluate(assignments + assignments[:2])
    assert len(served) == 6
    assert checked == [space.key(a) for a in assignments]
    oracle.evaluate(assignments)  # every one a repeat: no check
    assert len(checked) == 6

    invalid = dict(assignments[0], use_lrf=False, split_lrf=True)
    with pytest.raises(
        ValueError,
        match=re.escape("invalid assignment: split_lrf requires use_lrf"),
    ):
        oracle.evaluate([invalid])
    assert oracle.evaluated == 6


def test_exhaustive_tune_enumerates_the_shared_default_space_once(
    monkeypatch,
):
    space = default_space()
    assert default_space() is space
    assert default_space(include_ideal=True) is default_space(True)
    assert default_space(include_ideal=True) is not space
    assert space.valid_size() == 320  # enumerated before counting
    checked = []
    violated_constraint = space.violated_constraint

    def counting(assignment):
        checked.append(space.key(assignment))
        return violated_constraint(assignment)

    monkeypatch.setattr(space, "violated_constraint", counting)
    engine = ExperimentEngine()
    payload = run_tune(
        _traces(engine), strategy="exhaustive", budget=320, engine=engine
    )
    assert payload["evaluations"]["distinct"] == 320
    # One check per fresh assignment (the baseline's included), plus
    # the baseline's membership test; the sweep itself checks nothing.
    assert len(checked) == 321
    assert checked[0] == checked[1] == space.key(AllocationConfig().to_dict())


#: Suite kernels for the width check: a dense loop nest, a branchy
#: stencil, and a divergent escape-time loop.
WIDTH_KERNELS = ("matrixmul", "hotspot", "mandelbrot")


@pytest.mark.parametrize("target", WIDTH_KERNELS + (f"fuzz:{FUZZ_SEED}",))
def test_batch_width_never_changes_a_tune(target):
    """An exhaustive tune's payload, search trace included, does not
    depend on how many candidates share one oracle call."""
    if target.startswith("fuzz:"):
        spec = generate_workload(FUZZ_SEED)
        space = default_space(include_ideal=True)
    else:
        spec = get_workload(target)
        space = default_space()
    traces = build_traces(spec.kernel, spec.warp_inputs)
    size = space.valid_size()
    payloads = set()
    for batch in (1, 16, 64, size):
        payload = run_tune(
            traces,
            space=space,
            strategy="exhaustive",
            budget=size,
            engine=ExperimentEngine(),
            strategy_options={"batch": batch},
        )
        assert payload["evaluations"]["distinct"] == size
        payload.pop("wall_time_s")
        payloads.add(json.dumps(payload, sort_keys=True))
    assert len(payloads) == 1


#: SHA-256 over every explored candidate of the exhaustive tunes in
#: :func:`test_exhaustive_outcomes_are_bit_exact`.  Any change to an
#: objective or MRF rate, down to the last bit, changes it.
EXHAUSTIVE_OUTCOME_DIGEST = (
    "0e996b563e6304503d0c1b33920255608d2acb12c6426caf77d4df7d1ecf76fc"
)


def test_exhaustive_outcomes_are_bit_exact():
    """Exhaustive 320-point tunes of all 36 suite kernels reproduce
    every candidate's objective and MRF accesses/instr bit for bit.

    Exact floats are the contract: counter insertion order fixes the
    energy summation order, and a one-ULP drift can flip a tie between
    candidates.
    """
    space = default_space()
    by_key = {space.key(a): a for a in space.assignments()}
    hasher = hashlib.sha256()
    for name in BENCHMARK_NAMES:
        spec = get_workload(name)
        engine = ExperimentEngine()
        traces = build_traces(spec.kernel, spec.warp_inputs)
        payload = run_tune(
            traces, strategy="exhaustive", budget=320, engine=engine
        )
        explored = [
            event for event in payload["trace"]
            if event["event"] == "evaluate"
        ]
        assert len(explored) == space.valid_size() == 320
        for event in explored:
            config = space.config(by_key[event["key"]])
            metrics = candidate_metrics(
                engine.evaluate(traces, scheme_for_config(config)), config
            )
            hasher.update(
                repr(
                    (
                        event["key"],
                        repr(event["objective"]),
                        repr(metrics["mrf_accesses_per_instruction"]),
                    )
                ).encode()
            )
    assert hasher.hexdigest() == EXHAUSTIVE_OUTCOME_DIGEST
