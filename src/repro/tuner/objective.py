"""Objectives: turn one evaluation into a number to minimise.

The primary objective is *energy per dynamic warp instruction* (pJ),
computed from the existing accounting pipeline —
:func:`repro.energy.accounting.compute_energy` over the evaluation's
access counters under the candidate config's own energy model.
Secondary metrics (MRF accesses per instruction, MRF-access reduction
vs the single-level baseline, normalized energy) are computed for
every candidate and reported in the frontier; ``"mrf"`` selects
MRF-access minimisation as the objective instead.

Every metric here is a pure function of the evaluation record, so a
tune run's frontier is byte-identical across repeats and across
memo/disk-cache replays.  Wall-clock cost is deliberately *not* an
objective: the allocation-time budget is enforced by the runner
(``time_budget_s``) as a search stop condition, where it cannot
perturb the ranking of configs that were evaluated.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..alloc.allocator import AllocationConfig
from ..energy.accounting import compute_energy
from ..hierarchy.counters import AccessCounters
from ..levels import Level
from ..sim.runner import KernelEvaluation

#: Objective name -> metric key minimised by the search.
OBJECTIVES: Dict[str, str] = {
    "energy": "energy_per_instruction_pj",
    "mrf": "mrf_accesses_per_instruction",
}


def _mrf_accesses(counters: AccessCounters) -> int:
    return sum(
        count
        for (level, _, _), count in counters.items()
        if level is Level.MRF
    )


def candidate_metrics(
    evaluation: KernelEvaluation,
    config: AllocationConfig,
    baseline_pj: Optional[float] = None,
    total_pj: Optional[float] = None,
) -> Dict[str, Any]:
    """Deterministic per-candidate metrics from one evaluation record.

    ``baseline_pj`` and ``total_pj``, when given, must be
    :func:`baseline_energy` and :func:`candidate_energy` of the same
    evaluation and config; a search prices each once per (model,
    counter items).
    """
    instructions = max(1, evaluation.dynamic_instructions)
    if total_pj is None:
        total_pj = candidate_energy(evaluation, config)
    if baseline_pj is None:
        baseline_pj = baseline_energy(evaluation, config)
    mrf = _mrf_accesses(evaluation.counters)
    mrf_baseline = _mrf_accesses(evaluation.baseline)
    return {
        "energy_per_instruction_pj": total_pj / instructions,
        "normalized_energy": (
            total_pj / baseline_pj if baseline_pj > 0 else 1.0
        ),
        "mrf_accesses_per_instruction": mrf / instructions,
        "mrf_access_reduction": (
            1.0 - mrf / mrf_baseline if mrf_baseline > 0 else 0.0
        ),
        "dynamic_instructions": evaluation.dynamic_instructions,
    }


def candidate_energy(
    evaluation: KernelEvaluation, config: AllocationConfig
) -> float:
    """The candidate's energy (pJ) under its own config's model."""
    return compute_energy(evaluation.counters, config.energy_model()).total_pj


def baseline_energy(
    evaluation: KernelEvaluation, config: AllocationConfig
) -> float:
    """The single-level baseline's energy (pJ) under ``config``'s
    model, which normalises the candidate's energy."""
    return compute_energy(evaluation.baseline, config.energy_model()).total_pj


def objective_value(objective: str, metrics: Dict[str, Any]) -> float:
    """The scalar the search minimises for one candidate."""
    try:
        key = OBJECTIVES[objective]
    except KeyError:
        raise ValueError(
            f"unknown objective {objective!r}; "
            f"known: {', '.join(sorted(OBJECTIVES))}"
        ) from None
    return float(metrics[key])


def dominates(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """True when ``a`` is at least as good as ``b`` on both frontier
    axes (energy/instr and MRF accesses/instr) and better on one."""
    ae, be = a["energy_per_instruction_pj"], b["energy_per_instruction_pj"]
    am, bm = (
        a["mrf_accesses_per_instruction"],
        b["mrf_accesses_per_instruction"],
    )
    return ae <= be and am <= bm and (ae < be or am < bm)
