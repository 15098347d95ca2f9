"""Unit tests for the SDSS-like workload generator."""

import pytest

from repro.errors import WorkloadError
from repro.workload.arrival import PoissonArrival
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.templates import paper_templates


class TestWorkloadSpec:
    def test_defaults_are_valid(self):
        spec = WorkloadSpec()
        assert spec.query_count > 0

    @pytest.mark.parametrize("field, value", [
        ("query_count", 0),
        ("interarrival_s", 0.0),
        ("hot_template_count", 0),
        ("hot_template_probability", 1.5),
        ("phase_length", 0),
        ("locality_width", 0.0),
        ("selectivity_jitter", 1.0),
        ("budget_scale_mean", 0.0),
        ("budget_scale_sigma", -0.1),
        ("interarrival_s", float("nan")),
        ("budget_scale_sigma", float("nan")),
        # numpy's SeedSequence would raise a bare ValueError mid-run.
        ("seed", -1),
    ])
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(WorkloadError):
            WorkloadSpec(**{field: value})

    def test_with_interarrival_keeps_everything_else(self):
        spec = WorkloadSpec(query_count=123, seed=9)
        changed = spec.with_interarrival(42.0)
        assert changed.interarrival_s == 42.0
        assert changed.query_count == 123
        assert changed.seed == 9


class TestWorkloadGenerator:
    def test_generates_requested_count(self):
        workload = WorkloadGenerator(WorkloadSpec(query_count=50)).generate()
        assert len(workload) == 50

    def test_query_ids_are_sequential(self):
        workload = WorkloadGenerator(WorkloadSpec(query_count=30)).generate()
        assert [q.query_id for q in workload] == list(range(30))

    def test_arrival_times_follow_the_interarrival(self):
        workload = WorkloadGenerator(
            WorkloadSpec(query_count=5, interarrival_s=7.0)
        ).generate()
        assert [q.arrival_time for q in workload] == [0.0, 7.0, 14.0, 21.0, 28.0]

    def test_deterministic_for_a_seed(self):
        spec = WorkloadSpec(query_count=80, seed=4)
        a = WorkloadGenerator(spec).generate()
        b = WorkloadGenerator(spec).generate()
        assert [(q.template_name, q.budget_scale) for q in a] == \
               [(q.template_name, q.budget_scale) for q in b]

    def test_different_seeds_differ(self):
        a = WorkloadGenerator(WorkloadSpec(query_count=80, seed=1)).generate()
        b = WorkloadGenerator(WorkloadSpec(query_count=80, seed=2)).generate()
        assert [q.template_name for q in a] != [q.template_name for q in b]

    def test_temporal_locality_concentrates_on_hot_templates(self):
        spec = WorkloadSpec(query_count=400, phase_length=400, seed=0,
                            hot_template_count=2, hot_template_probability=0.9)
        workload = WorkloadGenerator(spec).generate()
        counts = {}
        for query in workload:
            counts[query.template_name] = counts.get(query.template_name, 0) + 1
        top_two = sorted(counts.values(), reverse=True)[:2]
        assert sum(top_two) / len(workload) > 0.7

    def test_phases_change_the_hot_set(self):
        spec = WorkloadSpec(query_count=1_200, phase_length=300, seed=3,
                            hot_template_count=2, hot_template_probability=1.0)
        workload = WorkloadGenerator(spec).generate()
        phases = [workload[i:i + 300] for i in range(0, 1_200, 300)]
        hot_sets = [frozenset(q.template_name for q in phase) for phase in phases]
        assert len(set(hot_sets)) > 1

    def test_budget_scales_are_positive_and_vary(self):
        workload = WorkloadGenerator(WorkloadSpec(query_count=200, seed=0)).generate()
        scales = [q.budget_scale for q in workload]
        assert all(scale > 0 for scale in scales)
        assert len(set(round(s, 6) for s in scales)) > 10

    def test_zero_sigma_gives_constant_budget_scale(self):
        spec = WorkloadSpec(query_count=20, budget_scale_sigma=0.0,
                            budget_scale_mean=1.3)
        workload = WorkloadGenerator(spec).generate()
        assert all(q.budget_scale == pytest.approx(1.3) for q in workload)

    def test_selectivities_stay_in_range(self, estimator):
        workload = WorkloadGenerator(WorkloadSpec(query_count=300, seed=8)).generate()
        for query in workload:
            for predicate in query.predicates:
                if predicate.selectivity is not None:
                    assert 0.0 < predicate.selectivity <= 1.0

    def test_custom_arrival_process(self):
        generator = WorkloadGenerator(
            WorkloadSpec(query_count=40, seed=0),
            arrival_process=PoissonArrival(3.0, seed=5),
        )
        workload = generator.generate()
        assert len(workload) == 40
        assert all(b.arrival_time >= a.arrival_time
                   for a, b in zip(workload, workload[1:]))

    def test_iter_queries_respects_explicit_count(self):
        generator = WorkloadGenerator(WorkloadSpec(query_count=100))
        assert len(list(generator.iter_queries(10))) == 10

    def test_hot_template_count_cannot_exceed_template_pool(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(
                WorkloadSpec(hot_template_count=3),
                templates=paper_templates()[:2],
            )

    def test_requires_at_least_one_template(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(WorkloadSpec(), templates=[])
