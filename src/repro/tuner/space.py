"""Declarative design space over :class:`AllocationConfig`.

A :class:`ParameterSpace` is an ordered list of named parameters (each
with a finite value list) plus constraint predicates that prune
invalid combinations — the shape of kernel_tuner's ``tune_params``
dict, specialised to the allocator's configuration fields.  Every
search strategy draws assignments exclusively through the space
(:meth:`random_assignment`, :meth:`mutate`, :meth:`crossover`,
:meth:`neighbors`, :meth:`assignments`), so a strategy *cannot* emit a
config outside the declared space or violating a constraint — the
property the tuner tests pin with hypothesis.

Assignments are plain ``{field: value}`` dicts;
:meth:`ParameterSpace.config` materialises them through
``AllocationConfig.from_dict``, which re-validates at the type level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..alloc.allocator import AllocationConfig

Assignment = Dict[str, Any]

#: Bounded retries for rejection sampling; the default space is ~59%
#: valid, so 64 tries failing means the space itself is degenerate.
_MAX_SAMPLE_TRIES = 64


@dataclass(frozen=True)
class Parameter:
    """One tunable axis: a config field and its candidate values."""

    name: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"parameter {self.name!r} has no values")
        if len(set(map(repr, self.values))) != len(self.values):
            raise ValueError(
                f"parameter {self.name!r} has duplicate values"
            )


@dataclass(frozen=True)
class Constraint:
    """A named predicate over assignments; False prunes the combo."""

    name: str
    predicate: Callable[[Assignment], bool]


class ParameterSpace:
    """An ordered, constrained, finite design space."""

    def __init__(
        self,
        parameters: Tuple[Parameter, ...],
        constraints: Tuple[Constraint, ...] = (),
    ) -> None:
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        config_fields = set(AllocationConfig().to_dict())
        unknown = set(names) - config_fields
        if unknown:
            raise ValueError(
                "parameters are not AllocationConfig fields: "
                + ", ".join(sorted(unknown))
            )
        self.parameters = tuple(parameters)
        self.constraints = tuple(constraints)
        self.names: Tuple[str, ...] = tuple(names)
        self._by_name = {p.name: p for p in self.parameters}

    # -- membership --------------------------------------------------------

    @property
    def size(self) -> int:
        """Cartesian size, before constraint pruning."""
        total = 1
        for parameter in self.parameters:
            total *= len(parameter.values)
        return total

    def valid_size(self) -> int:
        """Number of assignments surviving the constraints."""
        return sum(1 for _ in self.assignments())

    def violated_constraint(
        self, assignment: Assignment
    ) -> Optional[str]:
        """Name of the first failing check, or None when valid."""
        if set(assignment) != set(self.names):
            missing = set(self.names) - set(assignment)
            extra = set(assignment) - set(self.names)
            parts = []
            if missing:
                parts.append(f"missing {', '.join(sorted(missing))}")
            if extra:
                parts.append(f"unknown {', '.join(sorted(extra))}")
            return "; ".join(parts)
        for parameter in self.parameters:
            if assignment[parameter.name] not in parameter.values:
                return (
                    f"{parameter.name}={assignment[parameter.name]!r} "
                    "not in declared values"
                )
        for constraint in self.constraints:
            if not constraint.predicate(assignment):
                return constraint.name
        return None

    def is_valid(self, assignment: Assignment) -> bool:
        return self.violated_constraint(assignment) is None

    def validate(self, assignment: Assignment) -> None:
        violated = self.violated_constraint(assignment)
        if violated is not None:
            raise ValueError(f"invalid assignment: {violated}")

    def config(self, assignment: Assignment) -> AllocationConfig:
        """Materialise a *valid* assignment as an AllocationConfig."""
        self.validate(assignment)
        return AllocationConfig.from_dict(dict(assignment))

    def key(self, assignment: Assignment) -> str:
        """Canonical text key (dedup, tie-breaking, trace output)."""
        return ",".join(
            f"{name}={assignment[name]!r}" for name in self.names
        )

    # -- enumeration and sampling ------------------------------------------

    def assignments(self) -> Iterator[Assignment]:
        """Every valid assignment, in deterministic space order."""
        for combo in itertools.product(
            *[p.values for p in self.parameters]
        ):
            assignment = dict(zip(self.names, combo))
            if self.is_valid(assignment):
                yield assignment

    def random_assignment(self, rng) -> Assignment:
        """A uniformly-drawn valid assignment (rejection sampling)."""
        for _ in range(_MAX_SAMPLE_TRIES):
            assignment = {
                p.name: rng.choice(p.values) for p in self.parameters
            }
            if self.is_valid(assignment):
                return assignment
        raise ValueError(
            "could not sample a valid assignment; the constraints "
            "reject almost all of the space"
        )

    def mutate(self, assignment: Assignment, rng) -> Assignment:
        """A valid assignment differing in at least one parameter."""
        for _ in range(_MAX_SAMPLE_TRIES):
            mutated = dict(assignment)
            parameter = rng.choice(self.parameters)
            choices = [
                v
                for v in parameter.values
                if v != assignment[parameter.name]
            ]
            if not choices:
                continue
            mutated[parameter.name] = rng.choice(choices)
            if self.is_valid(mutated):
                return mutated
        return self.random_assignment(rng)

    def crossover(
        self, first: Assignment, second: Assignment, rng
    ) -> Assignment:
        """Uniform per-parameter recombination, repaired to validity."""
        for _ in range(_MAX_SAMPLE_TRIES):
            child = {
                name: (first if rng.random() < 0.5 else second)[name]
                for name in self.names
            }
            if self.is_valid(child):
                return child
        return self.mutate(first, rng)

    def neighbors(self, assignment: Assignment) -> List[Assignment]:
        """All valid single-parameter changes, in deterministic order."""
        out: List[Assignment] = []
        for parameter in self.parameters:
            for value in parameter.values:
                if value == assignment[parameter.name]:
                    continue
                candidate = dict(assignment)
                candidate[parameter.name] = value
                if self.is_valid(candidate):
                    out.append(candidate)
        return out

    # -- wire form ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "parameters": {
                p.name: list(p.values) for p in self.parameters
            },
            "constraints": [c.name for c in self.constraints],
        }


#: The default constraint set: prune combinations the allocator would
#: ignore or misread rather than evaluate differently.
DEFAULT_CONSTRAINTS = (
    Constraint(
        "split_lrf requires use_lrf",
        lambda a: a.get("use_lrf", False) or not a.get("split_lrf", False),
    ),
    Constraint(
        "lrf_banks is only tunable with split_lrf (else default 3)",
        lambda a: a.get("split_lrf", False) or a.get("lrf_banks", 3) == 3,
    ),
)

_DEFAULT_AXES: Tuple[Tuple[str, Tuple[Any, ...]], ...] = (
    ("orf_entries", tuple(range(1, 9))),
    ("use_lrf", (False, True)),
    ("split_lrf", (False, True)),
    ("lrf_banks", (1, 2, 3)),
    ("enable_partial_ranges", (False, True)),
    ("enable_read_operands", (False, True)),
    ("allow_forward_branches", (False, True)),
    ("assume_persistent_strands", (False, True)),
)


def default_space(include_ideal: bool = False) -> ParameterSpace:
    """The full AllocationConfig design space.

    ``include_ideal`` opens the Section 7 idealisation axis
    (``assume_persistent_strands``), which is not realisable in
    hardware; the default space pins it to False so a tuned config is
    always buildable.
    """
    parameters = []
    for name, values in _DEFAULT_AXES:
        if name == "assume_persistent_strands" and not include_ideal:
            values = (False,)
        parameters.append(Parameter(name, values))
    return ParameterSpace(tuple(parameters), DEFAULT_CONSTRAINTS)


def space_from_dict(obj: Dict[str, Any]) -> ParameterSpace:
    """Build a (sub)space from its wire form.

    Accepts ``{"parameters": {name: [values, ...]}}`` where every name
    is a default axis and every value is drawn from that axis — a tune
    request can *restrict* the search space but never extend it past
    what the allocator supports.  Omitted axes keep their full default
    value lists.  The default constraints always apply.
    """
    if not isinstance(obj, dict):
        raise ValueError("space must be an object")
    unknown = set(obj) - {"parameters"}
    if unknown:
        raise ValueError(
            f"unknown space field(s): {', '.join(sorted(unknown))}"
        )
    overrides = obj.get("parameters", {})
    if not isinstance(overrides, dict):
        raise ValueError("space.parameters must be an object")
    axes = dict(_DEFAULT_AXES)
    bad = set(overrides) - set(axes)
    if bad:
        raise ValueError(
            f"unknown space parameter(s): {', '.join(sorted(bad))}"
        )
    parameters = []
    for name, full_values in _DEFAULT_AXES:
        values = full_values
        if name == "assume_persistent_strands" and name not in overrides:
            # Ideal-axis opt-in mirrors default_space(): requests must
            # ask for the non-realisable idealisation explicitly.
            values = (False,)
        if name in overrides:
            chosen = overrides[name]
            if not isinstance(chosen, list) or not chosen:
                raise ValueError(
                    f"space.parameters.{name} must be a non-empty list"
                )
            invalid = [v for v in chosen if v not in full_values]
            if invalid:
                raise ValueError(
                    f"space.parameters.{name}: value(s) outside the "
                    f"supported axis: {invalid!r}"
                )
            # Preserve axis order, drop duplicates.
            values = tuple(v for v in full_values if v in chosen)
        parameters.append(Parameter(name, values))
    space = ParameterSpace(tuple(parameters), DEFAULT_CONSTRAINTS)
    if not any(True for _ in space.assignments()):
        raise ValueError("space has no valid assignments")
    return space
