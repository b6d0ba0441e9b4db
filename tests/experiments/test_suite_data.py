"""Tests for the shared experiment data layer."""

import pytest

from repro.engine import ExperimentEngine
from repro.experiments import (
    SuiteData,
    run_limit_study,
    run_variable_orf_study,
)
from repro.sim import Scheme, SchemeKind
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def data():
    return SuiteData.build(
        [get_workload(name) for name in ("vectoradd", "histogram")]
    )


class TestSuiteData:
    def test_builds_all_items(self, data):
        assert len(data.items) == 2
        assert data.dynamic_instructions > 0

    def test_aggregate_sums_workloads(self, data):
        scheme = Scheme(SchemeKind.SW_TWO_LEVEL, 3)
        counters, baseline = data.aggregate(scheme)
        per_item_total = 0.0
        for spec, traces in data.items:
            from repro.sim import evaluate_traces

            evaluation = evaluate_traces(traces, scheme)
            per_item_total += evaluation.counters.total_reads()
        assert counters.total_reads() == pytest.approx(per_item_total)
        assert baseline.total_reads() == pytest.approx(
            counters.total_reads()
        )

    def test_normalized_energy_in_unit_interval(self, data):
        for kind in (SchemeKind.SW_TWO_LEVEL, SchemeKind.HW_TWO_LEVEL):
            energy = data.normalized_energy(Scheme(kind, 3))
            assert 0.0 < energy <= 1.25

    def test_per_benchmark_keys(self, data):
        energies = data.per_benchmark_energy(
            Scheme(SchemeKind.SW_THREE_LEVEL, 3, split_lrf=True)
        )
        assert set(energies) == {"vectoradd", "histogram"}

    def test_default_build_uses_full_suite(self):
        # Construct lazily; just check the constructor path that loads
        # the registry (avoid tracing all 36 here — covered by the
        # benchmark harness).
        from repro.workloads import BENCHMARK_NAMES, all_workloads

        assert len(all_workloads()) == len(BENCHMARK_NAMES)

    def test_baseline_model_independent(self, data):
        """The baseline only touches the MRF, so its energy is the same
        under every ORF size; normalization is therefore consistent."""
        small = data.normalized_energy(
            Scheme(SchemeKind.SW_TWO_LEVEL, 1)
        )
        large = data.normalized_energy(
            Scheme(SchemeKind.SW_TWO_LEVEL, 8)
        )
        assert small != large  # sizes genuinely differ


class TestOneEvaluationPath:
    """``SuiteData`` always evaluates through its engine's memos."""

    @staticmethod
    def _counts(data, *names):
        counters = data.engine.metrics.counters
        return tuple(counters.get(name, 0) for name in names)

    def test_every_suite_has_an_engine(self, data):
        assert isinstance(data.engine, ExperimentEngine)
        assert isinstance(SuiteData(data.items).engine, ExperimentEngine)

    def test_repeated_evaluation_is_a_record_memo_hit(self, data):
        _, traces = data.items[0]
        scheme = Scheme(SchemeKind.HW_TWO_LEVEL, 5)
        first = data.evaluate(traces, scheme)
        hits, misses = self._counts(
            data, "record_memo_hits", "record_misses"
        )
        assert data.evaluate(traces, scheme).counters == first.counters
        assert self._counts(data, "record_memo_hits", "record_misses") == (
            hits + 1,
            misses,
        )

    def test_variable_orf_study_reuses_the_limit_study_result(self, data):
        run_limit_study(data)
        hits, misses = self._counts(data, "study_memo_hits", "study_misses")
        run_variable_orf_study(data)
        assert self._counts(data, "study_memo_hits", "study_misses") == (
            hits + 1,
            misses,
        )
