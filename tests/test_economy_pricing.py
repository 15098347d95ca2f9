"""Unit tests for plan pricing (Eq. 4 against the cache state)."""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.manager import CacheManager
from repro.costmodel.amortization import DecliningAmortization, UniformAmortization
from repro.economy.pricing import PlanPricer, PricedPlan
from repro.planner.enumerator import EnumeratorConfig, PlanEnumerator
from repro.planner.plan import PlanKind
from repro.workload.templates import paper_templates


@pytest.fixture
def enumerator(execution_model, system):
    return PlanEnumerator(execution_model, candidate_indexes=system.candidate_indexes,
                          config=EnumeratorConfig(max_extra_nodes=1))


@pytest.fixture
def pricer(structure_costs):
    return PlanPricer(structure_costs, UniformAmortization(100))


class TestPricing:
    def test_backend_plan_price_is_pure_execution(self, enumerator, pricer, sample_query):
        cache = CacheManager()
        priced = pricer.price_plans(enumerator.enumerate(sample_query()), cache, now=0.0)
        backend = next(p for p in priced if p.plan.kind is PlanKind.BACKEND)
        assert backend.is_existing
        assert backend.amortized_dollars == 0.0
        assert backend.price == pytest.approx(backend.execution_dollars)

    def test_possible_plans_amortize_estimated_build_costs(self, enumerator, pricer,
                                                           structure_costs, sample_query):
        cache = CacheManager()
        priced = pricer.price_plans(enumerator.enumerate(sample_query()), cache, now=0.0)
        column_plan = next(p for p in priced
                           if p.plan.kind is PlanKind.CACHE_COLUMN_SCAN
                           and p.plan.node_count == 1)
        assert not column_plan.is_existing
        expected = sum(
            structure_costs.build_cost(structure) / 100
            for structure in column_plan.plan.structures
        )
        assert column_plan.amortized_dollars == pytest.approx(expected)
        assert set(column_plan.amortized_by_structure) == set(
            s.key for s in column_plan.plan.structures
        )

    def test_built_structures_amortize_their_actual_build_cost(self, enumerator, pricer,
                                                               structure_costs, schema,
                                                               sample_query):
        query = sample_query("q6_forecast_revenue")
        cache = CacheManager()
        plans = enumerator.enumerate(query)
        column_plan = next(p for p in plans
                           if p.kind is PlanKind.CACHE_COLUMN_SCAN and p.node_count == 1)
        for structure in column_plan.structures:
            cache.admit(structure, size_bytes=structure.size_bytes(schema),
                        build_cost=10.0,
                        maintenance_rate=0.0, now=0.0)
        priced = pricer.price_plans([column_plan], cache, now=0.0)[0]
        assert priced.is_existing
        assert priced.amortized_dollars == pytest.approx(
            10.0 / 100 * len(column_plan.structures)
        )

    def test_fully_recovered_structures_stop_charging(self, enumerator, pricer, schema,
                                                      sample_query):
        query = sample_query("q6_forecast_revenue")
        cache = CacheManager()
        plans = enumerator.enumerate(query)
        column_plan = next(p for p in plans
                           if p.kind is PlanKind.CACHE_COLUMN_SCAN and p.node_count == 1)
        for structure in column_plan.structures:
            cache.admit(structure, size_bytes=structure.size_bytes(schema),
                        build_cost=10.0, maintenance_rate=0.0, now=0.0)
            cache.record_amortized_recovery(structure.key, 10.0)
        priced = pricer.price_plans([column_plan], cache, now=0.0)[0]
        assert priced.amortized_dollars == 0.0
        assert priced.price == pytest.approx(priced.execution_dollars)

    def test_maintenance_dues_reported_but_not_priced(self, enumerator, pricer, schema,
                                                      sample_query):
        query = sample_query("q6_forecast_revenue")
        cache = CacheManager()
        plans = enumerator.enumerate(query)
        column_plan = next(p for p in plans
                           if p.kind is PlanKind.CACHE_COLUMN_SCAN and p.node_count == 1)
        for structure in column_plan.structures:
            cache.admit(structure, size_bytes=structure.size_bytes(schema),
                        build_cost=0.0, maintenance_rate=0.001, now=0.0)
        priced = pricer.price_plans([column_plan], cache, now=100.0)[0]
        assert priced.maintenance_dollars == pytest.approx(
            0.1 * len(column_plan.structures)
        )
        assert priced.price == pytest.approx(
            priced.execution_dollars + priced.amortized_dollars
        )

    def test_cheaper_existing_plans_price_below_possible_ones(self, enumerator, pricer,
                                                              sample_query):
        cache = CacheManager()
        priced = pricer.price_plans(enumerator.enumerate(sample_query()), cache, now=0.0)
        backend = next(p for p in priced if p.plan.kind is PlanKind.BACKEND)
        possible = [p for p in priced if not p.is_existing]
        assert possible, "expected not-yet-buildable plans on an empty cache"
        assert all(p.response_time_s <= backend.response_time_s for p in possible
                   if p.plan.node_count >= 1)


# -- parity with the per-plan algorithm ----------------------------------------


def per_plan_reference(structure_costs, amortization, plan, cache, now):
    """The per-plan pricing algorithm: every plan rebuilds the cached-column
    key set and calls the cost model for each of its unbuilt structures."""
    cached_column_keys = {
        key for key in cache.built_keys if key.startswith("column:")
    }
    amortized_total = 0.0
    maintenance_total = 0.0
    amortized_by_structure = {}
    new_structures = []
    for structure in plan.structures:
        if cache.contains(structure.key):
            entry = cache.entry(structure.key)
            charge = amortization.charge(entry.build_cost, entry.queries_served)
            charge = min(charge, entry.unrecovered_build_cost())
            maintenance_total += entry.accrued_maintenance(now)
        else:
            new_structures.append(structure)
            build_cost = structure_costs.build_cost(
                structure, cached_columns=cached_column_keys
            )
            charge = amortization.charge(build_cost, 0)
        amortized_by_structure[structure.key] = charge
        amortized_total += charge
    return PricedPlan(
        plan=plan,
        execution_dollars=plan.execution_dollars,
        amortized_dollars=amortized_total,
        maintenance_dollars=maintenance_total,
        new_structures=tuple(new_structures),
        amortized_by_structure=amortized_by_structure,
    )


def _bits(value):
    return struct.pack("<d", value)


def assert_bitwise_equal(actual, expected):
    assert actual.plan is expected.plan
    for name in ("execution_dollars", "amortized_dollars",
                 "maintenance_dollars"):
        assert _bits(getattr(actual, name)) == _bits(getattr(expected, name)), name
    assert actual.new_structures == expected.new_structures
    assert list(actual.amortized_by_structure) == list(
        expected.amortized_by_structure
    )
    for key, charge in expected.amortized_by_structure.items():
        assert _bits(actual.amortized_by_structure[key]) == _bits(charge), key


amortizations = st.one_of(
    st.integers(min_value=1, max_value=500).map(UniformAmortization),
    st.floats(min_value=0.01, max_value=0.99).map(DecliningAmortization),
)

entry_states = st.tuples(
    st.floats(min_value=0.0, max_value=50.0),     # build_cost
    st.floats(min_value=0.0, max_value=0.01),     # maintenance_rate
    st.integers(min_value=0, max_value=300),      # queries_served
    st.floats(min_value=0.0, max_value=60.0),     # amortized_recovered
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), amortization=amortizations,
       template_index=st.integers(min_value=0, max_value=6),
       max_extra_nodes=st.integers(min_value=0, max_value=2),
       query_id=st.integers(min_value=0, max_value=10_000))
def test_price_plans_bitwise_equal_to_per_plan_reference(
        data, amortization, template_index, max_extra_nodes, query_id,
        execution_model, structure_costs, system, schema):
    template = paper_templates()[template_index]
    query = template.instantiate(query_id=query_id, arrival_time=0.0)
    enumerator = PlanEnumerator(execution_model,
                                candidate_indexes=system.candidate_indexes,
                                config=EnumeratorConfig(
                                    max_extra_nodes=max_extra_nodes))
    plans = enumerator.enumerate(query)
    structures = {}
    for plan in plans:
        for structure in plan.structures:
            structures[structure.key] = structure
    keys = sorted(structures)

    # One pricer across two successive cache states: its build-cost memo
    # must stay valid as the built subset changes.
    pricer = PlanPricer(structure_costs, amortization)
    for _ in range(2):
        cache = CacheManager()
        built = data.draw(st.lists(st.sampled_from(keys), unique=True))
        for key in built:
            build_cost, rate, served, recovered = data.draw(entry_states)
            structure = structures[key]
            cache.admit(structure, size_bytes=structure.size_bytes(schema),
                        build_cost=build_cost, maintenance_rate=rate, now=0.0)
            entry = cache.entry(key)
            entry.queries_served = served
            entry.amortized_recovered = recovered
        now = data.draw(st.floats(min_value=0.0, max_value=5_000.0))

        priced = pricer.price_plans(plans, cache, now)
        assert len(priced) == len(plans)
        for actual, plan in zip(priced, plans):
            expected = per_plan_reference(structure_costs, amortization,
                                          plan, cache, now)
            assert_bitwise_equal(actual, expected)
            assert_bitwise_equal(pricer.price_plans([plan], cache, now)[0],
                                 expected)
