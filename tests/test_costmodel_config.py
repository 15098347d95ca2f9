"""Unit tests for the cost-model configuration."""

import pytest

from repro import constants
from repro.costmodel.config import CostModelConfig
from repro.errors import ConfigurationError
from repro.pricing.catalog import ec2_2009_pricing


class TestDefaults:
    def test_paper_parameters(self):
        config = CostModelConfig()
        assert config.cpu_load_factor == 1.0
        assert config.cpu_cost_factor == pytest.approx(0.014)
        assert config.network_cpu_fraction == 1.0
        assert config.network_latency_s == 0.0
        assert config.network_throughput_bps == pytest.approx(25e6 / 8)

    def test_duration_scale_defaults_to_one(self):
        assert CostModelConfig().disk_duration_scale == 1.0


class TestValidation:
    @pytest.mark.parametrize("field, value", [
        ("cpu_cost_factor", 0.0),
        ("io_cost_factor", -1.0),
        ("network_throughput_bps", 0.0),
        ("bytes_per_cost_unit", 0.0),
        ("io_page_bytes", 0.0),
        ("index_random_access_penalty", 0.0),
        ("disk_duration_scale", 0.0),
        ("network_latency_s", -1.0),
        ("node_boot_time_s", -1.0),
        ("cpu_load_factor", 0.5),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            CostModelConfig(**{field: value})


class TestDerivedRates:
    def test_storage_rate_applies_duration_scale(self):
        base = CostModelConfig()
        scaled = CostModelConfig(disk_duration_scale=10.0)
        assert scaled.storage_rate_per_byte_second == pytest.approx(
            10.0 * base.storage_rate_per_byte_second
        )

    def test_node_uptime_rate_applies_duration_scale(self):
        base = CostModelConfig()
        scaled = CostModelConfig(disk_duration_scale=4.0)
        assert scaled.node_uptime_rate_per_second == pytest.approx(
            4.0 * base.node_uptime_rate_per_second
        )

    def test_with_overrides(self):
        config = CostModelConfig().with_overrides(network_latency_s=0.5)
        assert config.network_latency_s == 0.5
        assert config.pricing.network_gb == ec2_2009_pricing().network_gb
