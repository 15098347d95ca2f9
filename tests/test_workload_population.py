"""Tests for the tenant population layer (Zipf activity, churn, lifecycle)."""

import pytest

from repro.economy.tenancy import TenantRegistry
from repro.errors import WorkloadError
from repro.policies.economic import EconomicSchemeConfig
from repro.simulator.metrics import breakdown_by_tenant
from repro.simulator.simulation import CloudSimulation, SimulationConfig
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.population import (
    PopulationSpec,
    TenantLifecycleMarker,
    TenantPopulation,
)


@pytest.fixture
def base_workload():
    return WorkloadGenerator(
        WorkloadSpec(query_count=200, interarrival_s=2.0, seed=5)
    ).generate()


class TestPopulationSpec:
    def test_rejects_bad_values(self):
        with pytest.raises(WorkloadError):
            PopulationSpec(tenant_count=0)
        with pytest.raises(WorkloadError):
            PopulationSpec(zipf_exponent=-1.0)
        with pytest.raises(WorkloadError):
            PopulationSpec(churn_fraction=1.5)

    def test_marker_kind_validated(self):
        with pytest.raises(WorkloadError):
            TenantLifecycleMarker(time_s=0.0, tenant_id="a", kind="resign")


class TestPopulate:
    def test_only_tenant_ids_change(self, base_workload):
        populated = TenantPopulation(PopulationSpec(
            tenant_count=10, seed=1)).populate(base_workload)
        assert len(populated.queries) == len(base_workload)
        for before, after in zip(base_workload, populated.queries):
            assert after.query_id == before.query_id
            assert after.arrival_time == before.arrival_time
            assert after.template_name == before.template_name
            assert after.predicates == before.predicates
            assert after.tenant_id != "default"

    def test_deterministic(self, base_workload):
        spec = PopulationSpec(tenant_count=10, churn_period=50, seed=9)
        first = TenantPopulation(spec).populate(base_workload)
        second = TenantPopulation(spec).populate(base_workload)
        assert first == second

    def test_zipf_skew_concentrates_traffic(self, base_workload):
        populated = TenantPopulation(PopulationSpec(
            tenant_count=20, zipf_exponent=1.5, seed=2)).populate(base_workload)
        counts = {}
        for query in populated.queries:
            counts[query.tenant_id] = counts.get(query.tenant_id, 0) + 1
        top = max(counts.values())
        assert top > len(base_workload) / 5  # head tenant dominates
        assert counts.get("t00000", 0) == top  # rank 0 is the head slot

    def test_uniform_when_exponent_zero(self, base_workload):
        populated = TenantPopulation(PopulationSpec(
            tenant_count=4, zipf_exponent=0.0, seed=2)).populate(base_workload)
        counts = {}
        for query in populated.queries:
            counts[query.tenant_id] = counts.get(query.tenant_id, 0) + 1
        assert max(counts.values()) < 2.5 * min(counts.values())

    def test_initial_arrivals_announced(self, base_workload):
        populated = TenantPopulation(PopulationSpec(
            tenant_count=7, seed=0)).populate(base_workload)
        arrivals = [marker for marker in populated.lifecycle
                    if marker.kind == "arrival"]
        assert len(arrivals) == 7
        assert all(marker.time_s == base_workload[0].arrival_time
                   for marker in arrivals)

    def test_churn_replaces_tenants(self, base_workload):
        populated = TenantPopulation(PopulationSpec(
            tenant_count=10, churn_period=50, churn_fraction=0.2,
            seed=4)).populate(base_workload)
        # 200 queries / 50 per wave -> 3 waves of 2 tenants each.
        assert populated.churn_waves == 6
        assert populated.tenant_count == 16
        churned = {marker.tenant_id for marker in populated.lifecycle
                   if marker.kind == "churn"}
        # A churned tenant issues no queries after its churn instant
        # (arrival times are distinct under the fixed interarrival process).
        churn_time = {marker.tenant_id: marker.time_s
                      for marker in populated.lifecycle
                      if marker.kind == "churn"}
        for query in populated.queries:
            if query.tenant_id in churned:
                assert query.arrival_time < churn_time[query.tenant_id]

    def test_empty_workload_rejected(self):
        with pytest.raises(WorkloadError):
            TenantPopulation().populate([])


class TestSimulationIntegration:
    def test_lifecycle_events_drive_the_registry(self, system, base_workload):
        populated = TenantPopulation(PopulationSpec(
            tenant_count=10, churn_period=50, churn_fraction=0.2,
            initial_credit=20.0, seed=4)).populate(base_workload)
        registry = TenantRegistry()
        for profile in populated.profiles:
            registry.register(profile)
        scheme = system.scheme(
            "econ-cheap", economic_config=EconomicSchemeConfig(tenants=registry)
        )
        result = CloudSimulation(scheme, SimulationConfig()).run(
            populated.queries, tenant_lifecycle=populated.lifecycle
        )
        assert result.summary.query_count == len(populated.queries)
        churned = {marker.tenant_id for marker in populated.lifecycle
                   if marker.kind == "churn"}
        assert churned
        for tenant_id in churned:
            assert not registry.state(tenant_id).active
        # Replacements (and survivors) remain active.
        assert len(registry.active_ids()) == 10

    def test_per_tenant_breakdowns_cover_all_traffic(self, system,
                                                     base_workload):
        populated = TenantPopulation(PopulationSpec(
            tenant_count=5, seed=8)).populate(base_workload)
        scheme = system.scheme("bypass")
        result = CloudSimulation(scheme, SimulationConfig()).run(
            populated.queries, tenant_lifecycle=populated.lifecycle
        )
        breakdowns = breakdown_by_tenant(result.steps)
        assert sum(item.query_count for item in breakdowns.values()) == len(
            populated.queries
        )
        hits = sum(item.cache_hits for item in breakdowns.values())
        assert hits / len(populated.queries) == pytest.approx(
            result.summary.cache_hit_rate
        )


class TestChurnDisabled:
    def test_zero_fraction_disables_churn(self, base_workload):
        populated = TenantPopulation(PopulationSpec(
            tenant_count=6, churn_period=50, churn_fraction=0.0,
            seed=1)).populate(base_workload)
        assert populated.churn_waves == 0
        assert populated.tenant_count == 6
