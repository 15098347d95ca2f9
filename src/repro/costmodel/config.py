"""Configuration of the cost model.

Collects every tunable the cost equations depend on: the resource price
catalog, the conversion factors of Eq. 8, the network parameters of Eq. 9,
and the knobs of the simulator's analytic query-execution model (how
optimizer cost units and I/O operations are derived from bytes processed).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import constants
from repro.errors import ConfigurationError
from repro.pricing.catalog import ResourcePricing, ec2_2009_pricing


@dataclass(frozen=True)
class CostModelConfig:
    """All parameters of the execution and structure cost models.

    Attributes:
        pricing: the resource price catalog ($ per CPU-second, byte-second of
            disk, I/O operation, network byte).
        cpu_load_factor: ``lcpu`` of Eq. 8; 1.0 means nodes are never
            overloaded (the paper's setting).
        cpu_cost_factor: ``fcpu`` of Eq. 8, converting optimizer cost units
            into CPU seconds (0.014 emulates SDSS response times).
        io_cost_factor: ``fio`` of Eq. 8, converting optimizer I/O units into
            billable I/O operations.
        network_cpu_fraction: ``fn`` of Eqs. 9 and 12, the fraction of a CPU
            consumed while a transfer is in flight (1.0 in the paper).
        network_latency_s: ``l`` of Eq. 9 (0 in the paper).
        network_throughput_bps: ``t`` of Eq. 9, bytes per second (25 Mbps).
        node_boot_time_s: ``b`` of Eq. 10.
        bytes_per_cost_unit: how many processed bytes make one optimizer cost
            unit (``qtot``); together with ``cpu_cost_factor`` this sets the
            absolute response-time scale of the analytic execution model.
        io_page_bytes: bytes read per I/O operation (``iotot`` is processed
            bytes divided by this).
        index_random_access_penalty: multiplier on the bytes an index-driven
            plan touches, modelling random-access inefficiency relative to a
            sequential column scan.
        index_probe_fraction: fraction of the index size read while probing
            it (B-tree descent plus leaf range scan).
        disk_duration_scale: multiplier applied to time-proportional costs
            (disk storage, node uptime). The paper's workload spans a million
            queries; when an experiment simulates a subsample it can scale
            the per-second rates up by (paper queries / simulated queries) so
            that storage cost per query matches the full-scale run. 1.0 means
            no scaling (honest wall-clock accounting).
    """

    pricing: ResourcePricing = field(default_factory=ec2_2009_pricing)
    cpu_load_factor: float = constants.DEFAULT_CPU_LOAD_FACTOR
    cpu_cost_factor: float = constants.DEFAULT_CPU_COST_FACTOR
    io_cost_factor: float = constants.DEFAULT_IO_COST_FACTOR
    network_cpu_fraction: float = constants.DEFAULT_NETWORK_CPU_FRACTION
    network_latency_s: float = constants.DEFAULT_NETWORK_LATENCY_S
    network_throughput_bps: float = constants.DEFAULT_NETWORK_THROUGHPUT_BPS
    node_boot_time_s: float = constants.DEFAULT_NODE_BOOT_TIME_S
    bytes_per_cost_unit: float = float(constants.GB)
    io_page_bytes: float = float(constants.MB)
    index_random_access_penalty: float = 3.0
    index_probe_fraction: float = 0.05
    disk_duration_scale: float = 1.0

    def __post_init__(self) -> None:
        positive_fields = (
            "cpu_cost_factor", "io_cost_factor", "network_throughput_bps",
            "bytes_per_cost_unit", "io_page_bytes",
            "index_random_access_penalty", "disk_duration_scale",
        )
        for name in positive_fields:
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        non_negative_fields = (
            "cpu_load_factor", "network_cpu_fraction", "network_latency_s",
            "node_boot_time_s", "index_probe_fraction",
        )
        for name in non_negative_fields:
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.cpu_load_factor < 1.0:
            raise ConfigurationError(
                "cpu_load_factor represents overload and must be >= 1.0"
            )

    def with_overrides(self, **overrides) -> "CostModelConfig":
        """Copy of the config with arbitrary fields replaced."""
        return replace(self, **overrides)

    @property
    def storage_rate_per_byte_second(self) -> float:
        """Effective $ per byte-second of cache storage, after duration scaling."""
        return self.pricing.disk_byte_second * self.disk_duration_scale

    @property
    def node_uptime_rate_per_second(self) -> float:
        """Effective $ per second of keeping one extra node up, after scaling."""
        return self.pricing.cpu_node_per_second * self.disk_duration_scale
