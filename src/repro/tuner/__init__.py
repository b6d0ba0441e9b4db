"""Design-space search over :class:`AllocationConfig` (the auto-tuner).

Public surface::

    from repro.tuner import run_tune, default_space, make_strategy

    payload = run_tune(traces, strategy="evolutionary", budget=64, seed=0)

See :mod:`repro.tuner.runner` for the payload schema and
:mod:`repro.tuner.space` for declaring restricted search spaces.
"""

from .objective import OBJECTIVES, candidate_metrics, dominates, objective_value
from .runner import (
    Outcome,
    SearchOracle,
    TUNER_SCHEMA,
    format_tune,
    run_tune,
    tune_bench,
    write_tune,
)
from .space import (
    Constraint,
    DEFAULT_CONSTRAINTS,
    Parameter,
    ParameterSpace,
    default_space,
    space_from_dict,
)
from .strategies import (
    STRATEGY_NAMES,
    EvolutionaryStrategy,
    ExhaustiveStrategy,
    HillClimbStrategy,
    SearchStrategy,
    make_strategy,
)

__all__ = [
    "OBJECTIVES",
    "candidate_metrics",
    "dominates",
    "objective_value",
    "Outcome",
    "SearchOracle",
    "TUNER_SCHEMA",
    "format_tune",
    "run_tune",
    "tune_bench",
    "write_tune",
    "Constraint",
    "DEFAULT_CONSTRAINTS",
    "Parameter",
    "ParameterSpace",
    "default_space",
    "space_from_dict",
    "STRATEGY_NAMES",
    "EvolutionaryStrategy",
    "ExhaustiveStrategy",
    "HillClimbStrategy",
    "SearchStrategy",
    "make_strategy",
]
