"""Shared evaluation data for the experiment drivers.

Building traces is the expensive step, so :class:`SuiteData` executes
every workload once and the per-figure drivers re-account the cached
traces under each scheme — the same structure as the authors' Ocelot
trace-analysis methodology (Section 5.1).

Every evaluation routes through the suite's
:class:`~repro.engine.ExperimentEngine`, which memoizes records and
study results content-addressed, so a (trace set, scheme) pair or a
study that several drivers ask for is computed once per run.  The
engine is always there: :meth:`SuiteData.build` makes an in-memory one
unless the caller passes its own (the CLI's ``--jobs``,
``--cache-dir`` and ``--cache-max-bytes`` add a process pool for
:meth:`SuiteData.prefetch` and an on-disk tier).  Drivers merge
serially in workload order, so output does not depend on the engine's
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..energy.accounting import normalized_energy
from ..energy.model import EnergyModel
from ..engine import ExperimentEngine
from ..engine.hashing import suite_fingerprint
from ..hierarchy.counters import AccessCounters
from ..sim.runner import KernelEvaluation, TraceSet
from ..sim.schemes import Scheme
from ..workloads.shapes import WorkloadSpec
from ..workloads.suites import all_workloads


@dataclass
class SuiteData:
    """Materialised traces for a set of workloads."""

    items: List[Tuple[WorkloadSpec, TraceSet]]
    scale: float = 1.0
    engine: ExperimentEngine = field(
        default_factory=ExperimentEngine, repr=False, compare=False
    )

    @classmethod
    def build(
        cls,
        workloads: Optional[Sequence[WorkloadSpec]] = None,
        scale: float = 1.0,
        engine: Optional[ExperimentEngine] = None,
    ) -> "SuiteData":
        if workloads is None:
            workloads = all_workloads(scale)
        engine = engine or ExperimentEngine()
        return cls(
            [
                (spec, engine.build_traces(spec.kernel, spec.warp_inputs))
                for spec in workloads
            ],
            scale=scale,
            engine=engine,
        )

    @property
    def dynamic_instructions(self) -> int:
        return sum(traces.dynamic_instructions for _, traces in self.items)

    @property
    def unique_traces(self) -> int:
        """Distinct warp traces across the suite after deduplication."""
        return sum(traces.unique_trace_count for _, traces in self.items)

    @property
    def static_instructions(self) -> int:
        return sum(
            traces.kernel.num_instructions for _, traces in self.items
        )

    def content_fingerprint(self) -> str:
        """Fingerprint over every workload's traces (study memo keys)."""
        return suite_fingerprint(self.items)

    def evaluate(
        self, traces: TraceSet, scheme: Scheme
    ) -> KernelEvaluation:
        """One (trace set, scheme) evaluation — the engine chokepoint."""
        return self.engine.evaluate(traces, scheme)

    def prefetch(self, schemes: Sequence[Scheme]) -> None:
        """Warm the engine's record memo for the given schemes."""
        self.engine.prefetch(self.items, schemes, scale=self.scale)

    def aggregate(
        self, scheme: Scheme
    ) -> Tuple[AccessCounters, AccessCounters]:
        """(scheme counters, baseline counters) summed over workloads."""
        counters = AccessCounters()
        baseline = AccessCounters()
        for _, traces in self.items:
            evaluation = self.evaluate(traces, scheme)
            counters.merge(evaluation.counters)
            baseline.merge(evaluation.baseline)
        return counters, baseline

    def normalized_energy(
        self, scheme: Scheme, model: Optional[EnergyModel] = None
    ) -> float:
        counters, baseline = self.aggregate(scheme)
        if model is None:
            model = scheme.energy_model()
        return normalized_energy(counters, baseline, model)

    def per_benchmark_energy(
        self, scheme: Scheme, model: Optional[EnergyModel] = None
    ) -> Dict[str, float]:
        """Benchmark name -> normalized energy (Figure 15)."""
        if model is None:
            model = scheme.energy_model()
        result: Dict[str, float] = {}
        for spec, traces in self.items:
            evaluation = self.evaluate(traces, scheme)
            result[spec.name] = normalized_energy(
                evaluation.counters, evaluation.baseline, model
            )
        return result
