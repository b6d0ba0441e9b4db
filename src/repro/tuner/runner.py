"""The tune driver: strategy x space x batched evaluation oracle.

:func:`run_tune` searches the :class:`AllocationConfig` design space
for one workload's traces.  The search consumes the whole pipeline as
a black-box oracle: every candidate config maps to a software scheme
(:func:`repro.sim.schemes.scheme_for_config`) and a *generation* of
candidates is evaluated through
:meth:`repro.engine.ExperimentEngine.evaluate_batch`, so one
scheme-independent kernel analysis serves the whole batch and every
revisited design point is a record-memo (or disk-cache) hit.  The
result payload pins the best config, the explored Pareto frontier
(energy/instr x MRF accesses/instr), the evaluation/cache accounting,
and the full search trace — deterministic to the byte for a fixed
(kernel, space, strategy, objective, seed, budget) tuple, wall time
aside.

Observability: the whole search runs under a ``tuner.search`` span,
each evaluated candidate gets a ``tuner.candidate`` span, and each
oracle batch feeds a per-strategy histogram
(``tuner_batch_candidates{strategy="..."}``) in the engine's metrics
registry.  The oracle prices each distinct result once per search and
counts it in ``tuner_energy_misses`` (a repeat in
``tuner_energy_memo_hits``); the ``tuner.search`` span carries both
counts and ``oracle_calls``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..alloc.allocator import AllocationConfig
from ..bench import bench_section, metric_from_samples, write_report
from ..engine import ExperimentEngine
from ..obs.registry import labeled_name
from ..obs.tracer import TRACER
from ..sim.runner import KernelEvaluation, TraceSet
from ..sim.schemes import scheme_for_config
from .objective import (
    baseline_energy,
    candidate_energy,
    candidate_metrics,
    dominates,
    objective_value,
)
from .space import Assignment, ParameterSpace, default_space
from .strategies import make_strategy

#: Schema 2 (additive): optional ``"bench"`` section — the search's
#: wall time plus the deterministic search outcomes as
#: degenerate-interval metrics — and the environment fingerprint.
#: Every schema-1 key is unchanged.
TUNER_SCHEMA = 2

#: Histogram buckets for candidates-per-oracle-batch.
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Engine counters that attribute oracle evaluations to fresh pipeline
#: work vs memo/disk replay.
_FRESH_COUNTER = "record_misses"


@dataclass(frozen=True)
class Outcome:
    """One evaluated candidate, as strategies see it."""

    order: int
    assignment: Dict[str, Any]
    key: str
    config: AllocationConfig
    objective: float
    metrics: Dict[str, Any]


@dataclass
class SearchOracle:
    """Budgeted, memoised, batched evaluation of candidate configs."""

    engine: ExperimentEngine
    traces: TraceSet
    space: ParameterSpace
    objective: str
    budget: int
    strategy_name: str
    time_budget_s: Optional[float] = None
    started: float = field(default_factory=time.perf_counter)

    def __post_init__(self) -> None:
        self._memo: Dict[str, Outcome] = {}
        #: (model, counter items) -> energy (pJ), for the candidates'
        #: counters and for the baseline's.  Every candidate shares the
        #: trace set's baseline counters, and configs that place alike
        #: count alike, so each distinct result is priced once per
        #: model; the items (whose order fixes the float sum) stay in
        #: the key so a replayed record cannot change a bit.
        self._energy_pj: Dict[Any, float] = {}
        self._baseline_pj: Dict[Any, float] = {}
        self.requested = 0
        self.repeat_hits = 0
        self.calls = 0
        self.energy_memo_hits = 0
        self.energy_misses = 0
        self.best: Optional[Outcome] = None
        self.trace: List[Dict[str, Any]] = []

    # -- budget ------------------------------------------------------------

    @property
    def evaluated(self) -> int:
        """Distinct configs evaluated so far."""
        return len(self._memo)

    @property
    def remaining(self) -> int:
        return max(0, self.budget - self.evaluated)

    @property
    def exhausted(self) -> bool:
        if self.remaining <= 0:
            return True
        if self.time_budget_s is not None:
            return time.perf_counter() - self.started > self.time_budget_s
        return False

    # -- evaluation --------------------------------------------------------

    def note(self, event: str, **detail: Any) -> None:
        """Append a strategy-authored event to the search trace."""
        self.trace.append({"event": event, "strategy": self.strategy_name,
                           **detail})

    def evaluate(
        self, assignments: Sequence[Assignment]
    ) -> List[Outcome]:
        """Evaluate a generation; returns one outcome per assignment
        that was served (memoised repeats are free; fresh work is
        truncated to the remaining budget, in order)."""
        self.calls += 1
        served: List[Outcome] = []
        # key -> (assignment, config), in request order.
        fresh: Dict[str, Tuple[Assignment, AllocationConfig]] = {}
        remaining = self.remaining
        for assignment in assignments:
            self.requested += 1
            key = self.space.key(assignment)
            hit = self._memo.get(key)
            if hit is not None:
                self.repeat_hits += 1
                served.append(hit)
                continue
            if key in fresh or len(fresh) >= remaining:
                continue
            # Validates once: the config is built where it is checked.
            fresh[key] = (dict(assignment), self.space.config(assignment))
        if fresh:
            served.extend(self._evaluate_fresh(fresh))
        return served

    def _evaluate_fresh(
        self, fresh: Dict[str, Tuple[Assignment, AllocationConfig]]
    ) -> List[Outcome]:
        schemes = [scheme_for_config(config) for _, config in fresh.values()]
        self.engine.metrics.observe(
            labeled_name(
                "tuner_batch_candidates", strategy=self.strategy_name
            ),
            float(len(schemes)),
            buckets=_BATCH_BUCKETS,
        )
        evaluations = self.engine.evaluate_batch(self.traces, schemes)
        outcomes: List[Outcome] = []
        for (key, (assignment, config)), scheme, evaluation in zip(
            fresh.items(), schemes, evaluations
        ):
            with TRACER.span(
                "tuner.candidate",
                scheme=scheme.name,
                key=key,
            ) as span:
                metrics = candidate_metrics(
                    evaluation,
                    config,
                    self._baseline(evaluation, config),
                    self._energy(evaluation, config),
                )
                value = objective_value(self.objective, metrics)
                if span is not None:
                    span.attributes["objective"] = value
            outcome = Outcome(
                order=len(self._memo),
                assignment=assignment,
                key=key,
                config=config,
                objective=value,
                metrics=metrics,
            )
            self._memo[key] = outcome
            new_best = self.best is None or value < self.best.objective
            if new_best:
                self.best = outcome
            self.trace.append(
                {
                    "event": "evaluate",
                    "strategy": self.strategy_name,
                    "order": outcome.order,
                    "key": key,
                    "scheme": scheme.name,
                    "objective": value,
                    "new_best": new_best,
                }
            )
            outcomes.append(outcome)
        return outcomes

    def _energy(
        self, evaluation: KernelEvaluation, config: AllocationConfig
    ) -> float:
        key = (config.energy_model(), tuple(evaluation.counters.items()))
        priced = self._energy_pj.get(key)
        if priced is None:
            self.energy_misses += 1
            priced = self._energy_pj[key] = candidate_energy(
                evaluation, config
            )
        else:
            self.energy_memo_hits += 1
        return priced

    def _baseline(
        self, evaluation: KernelEvaluation, config: AllocationConfig
    ) -> float:
        key = (config.energy_model(), tuple(evaluation.baseline.items()))
        priced = self._baseline_pj.get(key)
        if priced is None:
            priced = self._baseline_pj[key] = baseline_energy(
                evaluation, config
            )
        return priced

    def outcomes(self) -> List[Outcome]:
        """Every distinct evaluated candidate, best first."""
        return sorted(
            self._memo.values(), key=lambda o: (o.objective, o.key)
        )


def _outcome_payload(outcome: Outcome) -> Dict[str, Any]:
    return {
        "order": outcome.order,
        "config": outcome.config.to_dict(),
        "scheme": scheme_for_config(outcome.config).name,
        "objective": outcome.objective,
        "metrics": outcome.metrics,
    }


def _pareto_frontier(outcomes: List[Outcome]) -> List[Outcome]:
    """Non-dominated set over (energy/instr, MRF accesses/instr),
    deduplicated to one representative (smallest key) per distinct
    metric point."""
    frontier = sorted(
        (
            a
            for a in outcomes
            if not any(
                dominates(b.metrics, a.metrics)
                for b in outcomes
                if b is not a
            )
        ),
        key=lambda o: (
            o.metrics["energy_per_instruction_pj"],
            o.metrics["mrf_accesses_per_instruction"],
            o.key,
        ),
    )
    unique: List[Outcome] = []
    seen = set()
    for outcome in frontier:
        point = (
            outcome.metrics["energy_per_instruction_pj"],
            outcome.metrics["mrf_accesses_per_instruction"],
        )
        if point in seen:
            continue
        seen.add(point)
        unique.append(outcome)
    return unique


def run_tune(
    traces: TraceSet,
    *,
    space: Optional[ParameterSpace] = None,
    strategy: str = "evolutionary",
    objective: str = "energy",
    budget: int = 64,
    seed: int = 0,
    engine: Optional[ExperimentEngine] = None,
    time_budget_s: Optional[float] = None,
    strategy_options: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Search the design space for one workload; returns the payload.

    Deterministic modulo ``wall_time_s`` (and, when ``time_budget_s``
    is set and actually binds, the stop point): the frontier, best
    config, trace, and evaluation counts replay byte-identically for a
    fixed seed.  :func:`tune_bench` turns the payload into a
    ``"bench"`` section.
    """
    if space is None:
        space = default_space()
    if engine is None:
        engine = ExperimentEngine()
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    search = make_strategy(strategy, **(strategy_options or {}))
    rng = random.Random(seed)
    started = time.perf_counter()
    fresh_before = engine.metrics.counters.get(_FRESH_COUNTER, 0)

    oracle = SearchOracle(
        engine=engine,
        traces=traces,
        space=space,
        objective=objective,
        budget=budget,
        strategy_name=search.name,
        time_budget_s=time_budget_s,
    )

    baseline_config = AllocationConfig()
    baseline_assignment = baseline_config.to_dict()
    baseline_in_space = space.is_valid(baseline_assignment)
    with TRACER.span(
        "tuner.search",
        kernel=traces.kernel.name,
        strategy=search.name,
        objective=objective,
        seed=seed,
        budget=budget,
    ) as span:
        if baseline_in_space:
            # Seed the search with the paper-default config so the
            # best result can never regress below it.
            (baseline_outcome,) = oracle.evaluate([baseline_assignment])
        else:
            evaluation = engine.evaluate(
                traces, scheme_for_config(baseline_config)
            )
            metrics = candidate_metrics(evaluation, baseline_config)
            baseline_outcome = Outcome(
                order=-1,
                assignment=baseline_assignment,
                key="(baseline)",
                config=baseline_config,
                objective=objective_value(objective, metrics),
                metrics=metrics,
            )
        search.search(space, oracle, rng)
        pricing = {
            "tuner_energy_memo_hits": oracle.energy_memo_hits,
            "tuner_energy_misses": oracle.energy_misses,
        }
        for name, count in pricing.items():
            engine.metrics.count(name, count)
        if span is not None:
            span.attributes.update(pricing, oracle_calls=oracle.calls)

    fresh = engine.metrics.counters.get(_FRESH_COUNTER, 0) - fresh_before
    explored = oracle.outcomes()
    if not explored:
        raise ValueError("search evaluated no candidates")
    best = explored[0]
    frontier = _pareto_frontier(explored)
    improvements = [
        {
            "order": event["order"],
            "key": event["key"],
            "objective": event["objective"],
        }
        for event in oracle.trace
        if event.get("event") == "evaluate" and event.get("new_best")
    ]
    distinct = oracle.evaluated
    payload: Dict[str, Any] = {
        "schema": TUNER_SCHEMA,
        "kernel": traces.kernel.name,
        "strategy": search.name,
        "objective": objective,
        "seed": seed,
        "budget": budget,
        "space": {**space.to_dict(), "size": space.size},
        "evaluations": {
            "distinct": distinct,
            "requested": oracle.requested,
            "repeat_hits": oracle.repeat_hits,
            "fresh": fresh,
            "cache_hits": max(0, distinct - fresh),
        },
        "baseline": {
            **_outcome_payload(baseline_outcome),
            "in_space": baseline_in_space,
        },
        "best": _outcome_payload(best),
        "improvement_over_baseline": (
            1.0 - best.objective / baseline_outcome.objective
            if baseline_outcome.objective > 0
            else 0.0
        ),
        "frontier": [_outcome_payload(o) for o in frontier],
        "improvements": improvements,
        "trace": oracle.trace,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    return payload


def tune_bench(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The ``"bench"`` section of one search's payload.

    Wall time is one sample: the search that produced the payload.  A
    repeat on the same engine would replay every candidate from the
    record memo and time a lookup, not a search.  The search outcomes
    are deterministic and recorded as point estimates with degenerate
    ``[v, v]`` intervals, so ``repro bench diff`` flags them as
    significant exactly when the tuning result changed.
    """
    metrics = {
        "wall_time_s": metric_from_samples(
            "wall_time_s",
            [payload["wall_time_s"]],
            unit="s",
            direction="lower",
            comparable=False,
            stop_reason="single_run",
        ),
        "improvement_over_baseline": metric_from_samples(
            "improvement_over_baseline",
            [payload["improvement_over_baseline"]],
            unit="frac",
            direction="higher",
            comparable=True,
            stop_reason="deterministic",
        ),
        "best_objective": metric_from_samples(
            "best_objective",
            [payload["best"]["objective"]],
            unit=payload["objective"],
            direction="lower",
            comparable=True,
            stop_reason="deterministic",
        ),
        "baseline_objective": metric_from_samples(
            "baseline_objective",
            [payload["baseline"]["objective"]],
            unit=payload["objective"],
            direction="lower",
            comparable=True,
            stop_reason="deterministic",
        ),
    }
    return bench_section("tune", metrics)


# -- rendering and persistence ---------------------------------------------


def _config_text(config: Dict[str, Any]) -> str:
    return " ".join(f"{key}={config[key]}" for key in sorted(config))


def format_tune(payload: Dict[str, Any]) -> str:
    """Human-readable tune report (the CLI's stdout)."""
    lines: List[str] = []
    evals = payload["evaluations"]
    lines.append(
        f"kernel {payload['kernel']}: tune"
        f" strategy={payload['strategy']}"
        f" objective={payload['objective']}"
        f" seed={payload['seed']} budget={payload['budget']}"
    )
    lines.append(
        f"space: {len(payload['space']['parameters'])} axes,"
        f" {payload['space']['size']} combos;"
        f" explored {evals['distinct']} distinct configs"
        f" ({evals['fresh']} fresh, {evals['cache_hits']} cache hits,"
        f" {evals['repeat_hits']} repeats)"
        f" in {payload['wall_time_s']:.2f}s"
    )
    baseline = payload["baseline"]
    best = payload["best"]
    lines.append("")
    lines.append(
        f"baseline {baseline['objective']:.4f}"
        f"  [{_config_text(baseline['config'])}]"
    )
    lines.append(
        f"best     {best['objective']:.4f}"
        f"  ({100 * payload['improvement_over_baseline']:.1f}% better)"
        f"  [{_config_text(best['config'])}]"
    )
    lines.append("")
    lines.append("why this config (improvement chain):")
    for step in payload["improvements"]:
        lines.append(
            f"  eval #{step['order']:>3}  {step['objective']:.4f}"
            f"  {step['key']}"
        )
    lines.append("")
    lines.append(f"frontier ({len(payload['frontier'])} non-dominated):")
    header = (
        f"  {'energy/instr pJ':>16} {'mrf/instr':>10} "
        f"{'norm':>6}  scheme"
    )
    lines.append(header)
    for point in payload["frontier"]:
        metrics = point["metrics"]
        lines.append(
            f"  {metrics['energy_per_instruction_pj']:>16.4f}"
            f" {metrics['mrf_accesses_per_instruction']:>10.4f}"
            f" {metrics['normalized_energy']:>6.3f}"
            f"  {point['scheme']}"
        )
    bench = payload.get("bench")
    if bench is not None:
        env = bench.get("env", {})
        lines.append("")
        lines.append(
            f"wall time: {payload['wall_time_s']:.4f}s (one search);"
            f" env: python {env.get('python')} on {env.get('machine')}"
            f" ({env.get('cpu_count')} cpus)"
        )
    return "\n".join(lines)


def write_tune(path: str, payload: Dict[str, Any]) -> str:
    """Write the payload as JSON; returns a one-line confirmation."""
    return f"wrote {write_report(path, payload)}"
