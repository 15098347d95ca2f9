"""Unit tests for the execution cost model (Eqs. 8 and 9)."""

import pytest

from repro.costmodel.config import CostModelConfig
from repro.costmodel.execution import ExecutionCostModel, ExecutionEstimate
from repro.errors import PlanningError
from repro.pricing.catalog import network_only_pricing
from repro.structures.cached_index import CachedIndex
from repro.workload.templates import template_by_name


@pytest.fixture
def q6(sample_query):
    """A selective LINEITEM query (TPC-H Q6 analogue)."""
    return sample_query("q6_forecast_revenue")


@pytest.fixture
def q10(sample_query):
    """A result-heavy query (TPC-H Q10 analogue)."""
    return sample_query("q10_returned_items")


class TestCacheExecution:
    def test_estimate_components_are_positive(self, execution_model, q6):
        estimate = execution_model.cache_execution(q6)
        assert estimate.cost_units > 0
        assert estimate.io_operations > 0
        assert estimate.cpu_seconds > 0
        assert estimate.response_time_s > 0
        assert estimate.network_bytes == 0
        assert estimate.network_dollars == 0
        assert estimate.dollars == pytest.approx(
            estimate.cpu_dollars + estimate.io_dollars
        )

    def test_eq8_cost_formula(self, execution_model, q6):
        """Eq. 8: Ce = lcpu * fcpu * qtot * c + fio * io * iotot."""
        config = execution_model.config
        estimate = execution_model.cache_execution(q6)
        expected_cpu = (config.cpu_load_factor * config.cpu_cost_factor
                        * estimate.cost_units * config.pricing.cpu_second)
        expected_io = estimate.io_operations * config.pricing.io_operation
        assert estimate.cpu_dollars == pytest.approx(expected_cpu)
        assert estimate.io_dollars == pytest.approx(expected_io)

    def test_response_time_uses_fcpu_emulation(self, execution_model, q6):
        config = execution_model.config
        estimate = execution_model.cache_execution(q6)
        assert estimate.response_time_s == pytest.approx(
            config.cpu_cost_factor * estimate.cost_units
        )

    def test_more_nodes_are_faster_but_cost_more_cpu(self, execution_model, q6):
        single = execution_model.cache_execution(q6, node_count=1)
        triple = execution_model.cache_execution(q6, node_count=3)
        assert triple.response_time_s < single.response_time_s
        assert triple.cpu_seconds > single.cpu_seconds
        assert triple.io_operations == pytest.approx(single.io_operations)

    def test_three_nodes_match_paper_scaling(self, execution_model):
        """A fully parallel query should be ~2x faster at 25% extra CPU."""
        query = template_by_name("q6_forecast_revenue").instantiate(0, 0.0)
        fully_parallel = query.__class__(**{**query.__dict__, "parallel_fraction": 1.0})
        single = execution_model.cache_execution(fully_parallel, node_count=1)
        triple = execution_model.cache_execution(fully_parallel, node_count=3)
        assert single.response_time_s / triple.response_time_s == pytest.approx(2.0)
        assert triple.cpu_seconds / single.cpu_seconds == pytest.approx(1.25)

    def test_invalid_node_count_rejected(self, execution_model, q6):
        with pytest.raises(PlanningError):
            execution_model.cache_execution(q6, node_count=0)


class TestIndexExecution:
    def test_matching_index_reduces_work(self, execution_model, q6):
        index = CachedIndex("lineitem", ("l_shipdate",))
        scan = execution_model.cache_execution(q6)
        probe = execution_model.cache_execution(q6, index=index)
        assert probe.cost_units < scan.cost_units
        assert probe.io_operations < scan.io_operations
        assert probe.response_time_s < scan.response_time_s

    def test_irrelevant_index_falls_back_to_scan(self, execution_model, q6):
        index = CachedIndex("lineitem", ("l_orderkey",))  # not predicated by Q6
        scan = execution_model.cache_execution(q6)
        probe = execution_model.cache_execution(q6, index=index)
        assert probe.cost_units == pytest.approx(scan.cost_units)

    def test_unselective_index_never_beats_full_scan_badly(self, execution_model, q10):
        """An index on a 33%-selectivity flag should not look better than it is."""
        index = CachedIndex("lineitem", ("l_returnflag",))
        scan = execution_model.cache_execution(q10)
        probe = execution_model.cache_execution(q10, index=index)
        assert probe.cost_units <= scan.cost_units * 1.0001

    def test_composite_index_prefix_rule(self, execution_model, sample_query):
        """A range predicate ends key-prefix usability."""
        query = sample_query("q12_shipping_modes")
        narrow = CachedIndex("lineitem", ("l_shipmode",))
        wide = CachedIndex("lineitem", ("l_shipmode", "l_receiptdate"))
        narrow_est = execution_model.cache_execution(query, index=narrow)
        wide_est = execution_model.cache_execution(query, index=wide)
        # The wide index serves the extra (range) predicate too, so it should
        # be at least as selective as the narrow one.
        assert wide_est.cost_units <= narrow_est.cost_units * 1.0001


class TestBackendExecution:
    def test_eq9_adds_transfer_on_top_of_execution(self, execution_model, q10, estimator):
        backend = execution_model.backend_execution(q10)
        cache = execution_model.cache_execution(q10)
        transfer = execution_model.transfer(q10.result_bytes(estimator))
        assert backend.dollars == pytest.approx(cache.dollars + transfer.dollars)
        assert backend.response_time_s == pytest.approx(
            cache.response_time_s + transfer.response_time_s
        )
        assert backend.network_bytes == pytest.approx(q10.result_bytes(estimator))

    def test_result_heavy_queries_pay_more_network(self, execution_model, q6, q10):
        light = execution_model.backend_execution(q6)
        heavy = execution_model.backend_execution(q10)
        assert heavy.network_dollars > light.network_dollars


class TestTransfer:
    def test_transfer_time_follows_throughput(self, execution_model):
        config = execution_model.config
        estimate = execution_model.transfer(config.network_throughput_bps * 10)
        assert estimate.response_time_s == pytest.approx(10.0)

    def test_transfer_charges_bandwidth_and_cpu(self, execution_model):
        config = execution_model.config
        size = 1_000_000_000
        estimate = execution_model.transfer(size)
        assert estimate.network_dollars == pytest.approx(size * config.pricing.network_byte)
        assert estimate.cpu_dollars > 0

    def test_zero_bytes_is_free_with_zero_latency(self, execution_model):
        estimate = execution_model.transfer(0)
        assert estimate.dollars == 0
        assert estimate.response_time_s == 0

    def test_negative_bytes_rejected(self, execution_model):
        with pytest.raises(PlanningError):
            execution_model.transfer(-1)

    def test_latency_adds_to_time(self, estimator):
        config = CostModelConfig(network_latency_s=2.0)
        model = ExecutionCostModel(config, estimator)
        assert model.transfer(0).response_time_s == pytest.approx(2.0)


class TestNetworkOnlyPricing:
    def test_net_only_pricing_zeroes_cache_execution_cost(self, estimator, sample_query):
        model = ExecutionCostModel(
            CostModelConfig(pricing=network_only_pricing()), estimator
        )
        estimate = model.cache_execution(sample_query())
        assert estimate.dollars == 0.0

    def test_net_only_pricing_still_charges_transfers(self, estimator, sample_query):
        model = ExecutionCostModel(
            CostModelConfig(pricing=network_only_pricing()), estimator
        )
        estimate = model.backend_execution(sample_query("q10_returned_items"))
        assert estimate.network_dollars > 0
        assert estimate.cpu_dollars == 0


class TestCombinedEstimates:
    def test_combined_with_sums_all_fields(self):
        a = ExecutionEstimate(1, 2, 3, 4, 5, 6, 7, 8)
        b = ExecutionEstimate(10, 20, 30, 40, 50, 60, 70, 80)
        combined = a.combined_with(b)
        assert combined.cost_units == 11
        assert combined.io_operations == 22
        assert combined.cpu_seconds == 33
        assert combined.network_bytes == 44
        assert combined.response_time_s == 55
        assert combined.dollars == pytest.approx(a.dollars + b.dollars)


class TestCacheExecutions:
    """``cache_executions`` is ``cache_execution`` for several node counts."""

    NODE_COUNTS = (1, 2, 3, 5)

    @pytest.mark.parametrize("template_name", [
        "q6_forecast_revenue", "q10_returned_items", "q14_promotion_effect",
    ])
    @pytest.mark.parametrize("index", [
        None,
        CachedIndex("lineitem", ("l_shipdate",)),
        CachedIndex("lineitem", ("l_quantity", "l_shipmode")),
        CachedIndex("lineitem", ("l_orderkey",)),
    ])
    def test_each_estimate_equals_cache_execution(self, execution_model,
                                                  sample_query, template_name,
                                                  index):
        query = sample_query(template_name)
        estimates = execution_model.cache_executions(query, index,
                                                     self.NODE_COUNTS)
        assert len(estimates) == len(self.NODE_COUNTS)
        for estimate, node_count in zip(estimates, self.NODE_COUNTS):
            single = execution_model.cache_execution(query, index=index,
                                                     node_count=node_count)
            for name in ExecutionEstimate.__dataclass_fields__:
                assert getattr(estimate, name) == getattr(single, name), name

    def test_no_node_counts_gives_no_estimates(self, execution_model, q6):
        assert execution_model.cache_executions(q6, None, ()) == []

    @pytest.mark.parametrize("node_counts", [(0,), (1, 0), (2, -1, 3)])
    def test_node_count_below_one_raises(self, execution_model, q6,
                                         node_counts):
        with pytest.raises(PlanningError):
            execution_model.cache_executions(q6, None, node_counts)
        with pytest.raises(PlanningError):
            execution_model.cache_execution(q6, node_count=min(node_counts))
