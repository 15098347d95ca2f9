"""Unit tests for the seven paper templates."""

import pytest

from repro.errors import WorkloadError
from repro.workload.query import PredicateKind
from repro.workload.templates import paper_templates, template_by_name


class TestPaperTemplates:
    def test_exactly_seven_templates(self):
        assert len(paper_templates()) == 7

    def test_names_are_unique(self):
        names = [template.name for template in paper_templates()]
        assert len(set(names)) == len(names)

    def test_all_templates_target_lineitem(self):
        assert all(t.table_name == "lineitem" for t in paper_templates())

    def test_every_template_has_predicates(self):
        assert all(template.predicates for template in paper_templates())

    def test_result_heavy_templates_exist(self, estimator):
        """Section VI: the workload should contain result-heavy queries."""
        sizes = []
        for template in paper_templates():
            query = template.instantiate(0, 0.0)
            sizes.append(query.result_bytes(estimator))
        assert max(sizes) > 10_000_000  # at least one template ships tens of MB
        assert min(sizes) < 1_000_000   # and some are small aggregates

    def test_every_template_is_mostly_parallelisable(self):
        """Section VI: the queries should be parallelisable."""
        assert all(t.parallel_fraction >= 0.85 for t in paper_templates())

    def test_selective_templates_exist_for_index_benefit(self, estimator):
        # Join filters on dimension tables do not shrink a fact-table scan;
        # only the fact table's own predicates do.
        selectivities = [
            estimator.conjunction_selectivity(
                predicate.resolved_selectivity(estimator)
                for predicate in template.predicates
                if predicate.table_name == template.table_name)
            for template in paper_templates()
        ]
        assert min(selectivities) < 0.05

    def test_predicate_kinds_cover_equality_and_range(self):
        kinds = {predicate.kind
                 for template in paper_templates()
                 for predicate in template.predicates}
        assert kinds == {PredicateKind.EQUALITY, PredicateKind.RANGE}


class TestLookups:
    def test_template_by_name(self):
        template = template_by_name("q6_forecast_revenue")
        assert template.name == "q6_forecast_revenue"

    def test_template_by_name_unknown(self):
        with pytest.raises(WorkloadError):
            template_by_name("q99_unknown")

