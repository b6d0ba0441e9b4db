"""Search strategies over a :class:`~repro.tuner.space.ParameterSpace`.

Three strategies behind one interface::

    strategy.search(space, oracle, rng)

* ``exhaustive`` — deterministic grid enumeration, ``EXHAUSTIVE_BATCH``
  candidates per oracle call;
* ``hillclimb`` — greedy best-neighbor descent with random restarts;
* ``evolutionary`` — seeded (mu + lambda) search with tournament
  selection, uniform crossover, and per-child mutation.

Strategies draw every assignment through the space's own sampling
helpers (so they cannot leave the declared space), ask the *oracle*
for objective values, and stop when the oracle's budget is exhausted.
All randomness flows through the ``random.Random`` instance the runner
seeds — never the module-level ``random`` — so a (strategy, seed,
space, kernel) tuple replays to the byte.

The oracle contract (see :class:`repro.tuner.runner.SearchOracle`):
``evaluate(assignments)`` returns one outcome per *evaluated*
assignment — repeats are served from the search memo for free, and the
list is truncated when the remaining budget cannot cover every fresh
assignment; ``remaining`` is the distinct-evaluation budget left;
``exhausted`` flips once the budget (or the runner's time budget) is
spent; ``note(event, **detail)`` appends a search-trace event.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .space import Assignment, ParameterSpace

#: Default generation size of the evolutionary strategy: one oracle
#: call per generation, so a whole generation shares one batched engine
#: evaluation.  (Hill climbing evaluates one neighbourhood per call;
#: the exhaustive sweep uses ``EXHAUSTIVE_BATCH``.)
DEFAULT_BATCH = 16

#: Candidates per oracle call of the exhaustive sweep.  Each call is one
#: ``allocate_kernels_batch``, whose configs share strand passes, ORF
#: candidate queues and annotated kernels, so a wider call shares more;
#: the default space enumerates ``orf_entries`` outermost, 40 valid
#: configs per ORF size.  Exhaustive tunes of the 36 suite kernels
#: (2-vCPU host, 12 interleaved in-process rounds, garbage collected
#: before each tune) at widths 32, 64, 128 and 320 used 0.948, 0.863,
#: 0.821 and 0.771 of width 16's thread CPU, at a peak RSS of 33.5,
#: 33.7, 35.9 and 41.7 MB against 33.4 MB.  Without the collections,
#: 128 and 320 gained only 2% and 5% over 64.  So 64 takes most of the
#: saving at no measurable memory, and 320 (one batch per tune) is past
#: the benchmark's 0.15 bound on RSS.  The width never changes a tune's
#: result.
EXHAUSTIVE_BATCH = 64

#: Consecutive restart cycles / generations allowed to evaluate
#: nothing fresh before a sampling strategy concludes the reachable
#: space is exhausted and stops — without this, a budget larger than
#: the space would spin forever on memo hits.
MAX_STALLS = 3


class SearchStrategy:
    """Interface: mutate oracle state until the budget runs out."""

    name = "abstract"

    def search(self, space: ParameterSpace, oracle, rng) -> None:
        raise NotImplementedError


class ExhaustiveStrategy(SearchStrategy):
    """Grid search in deterministic space order, ``batch`` candidates
    per oracle call.

    The oracle serves the same outcomes at any width.  Only the sharing
    inside each engine batch changes, and where a time budget stops the
    sweep: it can only run out during a call, so it binds once per
    ``batch`` candidates.
    """

    name = "exhaustive"

    def __init__(self, batch: int = EXHAUSTIVE_BATCH) -> None:
        self.batch = max(1, batch)

    def search(self, space: ParameterSpace, oracle, rng) -> None:
        pending: List[Assignment] = []
        for assignment in space.assignments():
            if oracle.exhausted:
                break
            pending.append(assignment)
            if len(pending) >= self.batch:
                oracle.evaluate(pending)
                pending = []
        if pending and not oracle.exhausted:
            oracle.evaluate(pending)


class HillClimbStrategy(SearchStrategy):
    """Greedy best-neighbor descent with random restarts.

    Each step evaluates the *whole* neighborhood as one batch (one
    engine analysis phase serves it), moves to the best strictly
    improving neighbor, and restarts from a fresh random point at
    local optima until the budget is exhausted.
    """

    name = "hillclimb"

    def search(self, space: ParameterSpace, oracle, rng) -> None:
        stalls = 0
        while not oracle.exhausted and stalls < MAX_STALLS:
            before = oracle.remaining
            outcomes = oracle.evaluate([space.random_assignment(rng)])
            if not outcomes:
                return
            current = outcomes[0]
            oracle.note(
                "restart", key=space.key(current.assignment),
                objective=current.objective,
            )
            while not oracle.exhausted:
                neighbors = space.neighbors(current.assignment)
                evaluated = oracle.evaluate(neighbors)
                improving = [
                    o for o in evaluated if o.objective < current.objective
                ]
                if not improving:
                    oracle.note(
                        "local_optimum", key=space.key(current.assignment),
                        objective=current.objective,
                    )
                    break
                best = min(
                    improving,
                    key=lambda o: (
                        o.objective, space.key(o.assignment)
                    ),
                )
                oracle.note(
                    "move", key=space.key(best.assignment),
                    objective=best.objective,
                )
                current = best
            stalls = stalls + 1 if oracle.remaining == before else 0


class EvolutionaryStrategy(SearchStrategy):
    """Seeded (mu + lambda) evolutionary search.

    A generation is one oracle batch: tournament-selected parents
    produce ``population`` children by uniform crossover plus
    mutation, evaluated together; survivors are the best
    ``population`` of (parents + children), ties broken by the
    assignment key so selection is order-independent.
    """

    name = "evolutionary"

    def __init__(
        self,
        population: int = DEFAULT_BATCH,
        tournament: int = 3,
        mutation_rate: float = 0.35,
    ) -> None:
        self.population = max(2, population)
        self.tournament = max(1, tournament)
        self.mutation_rate = mutation_rate

    def _pick(self, pool: Sequence, rng):
        contenders = [
            pool[rng.randrange(len(pool))] for _ in range(self.tournament)
        ]
        return min(
            contenders, key=lambda o: (o.objective, o.key)
        )

    def search(self, space: ParameterSpace, oracle, rng) -> None:
        seeds: List[Assignment] = []
        seen: Dict[str, bool] = {}
        while len(seeds) < self.population:
            assignment = space.random_assignment(rng)
            key = space.key(assignment)
            if key in seen:
                # Tiny spaces cannot fill a distinct population.
                if len(seen) >= space.size:
                    break
                continue
            seen[key] = True
            seeds.append(assignment)
        pool = list(oracle.evaluate(seeds))
        generation = 0
        stalls = 0
        while pool and not oracle.exhausted and stalls < MAX_STALLS:
            generation += 1
            before = oracle.remaining
            children = []
            for _ in range(self.population):
                first = self._pick(pool, rng)
                second = self._pick(pool, rng)
                child = space.crossover(
                    first.assignment, second.assignment, rng
                )
                if rng.random() < self.mutation_rate:
                    child = space.mutate(child, rng)
                children.append(child)
            evaluated = oracle.evaluate(children)
            pool = sorted(
                pool + list(evaluated),
                key=lambda o: (o.objective, o.key),
            )[: self.population]
            oracle.note(
                "generation", index=generation,
                best_objective=pool[0].objective, best_key=pool[0].key,
            )
            stalls = stalls + 1 if oracle.remaining == before else 0


def make_strategy(name: str, **options) -> SearchStrategy:
    """Strategy factory for the CLI/service (`--strategy NAME`)."""
    factories = {
        ExhaustiveStrategy.name: ExhaustiveStrategy,
        HillClimbStrategy.name: HillClimbStrategy,
        EvolutionaryStrategy.name: EvolutionaryStrategy,
    }
    try:
        factory = factories[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; "
            f"known: {', '.join(sorted(factories))}"
        ) from None
    return factory(**options)


STRATEGY_NAMES = (
    ExhaustiveStrategy.name,
    HillClimbStrategy.name,
    EvolutionaryStrategy.name,
)
