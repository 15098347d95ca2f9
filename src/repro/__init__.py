"""Reproduction of "An Economic Model for Self-Tuned Cloud Caching" (ICDE 2009).

The package implements the paper's self-tuned cache economy (budget-function
negotiation, per-structure regret, investment, amortised cost model) together
with every substrate the evaluation needs: a TPC-H-like catalog scaled to
2.5 TB, an SDSS-like evolving workload generator, an analytic execution cost
model, a cache manager, the bypass-yield baseline, and an event-driven
simulator.

Quickstart::

    from repro import CloudSystem, WorkloadGenerator, WorkloadSpec, run_scheme

    system = CloudSystem()
    workload = WorkloadGenerator(WorkloadSpec(query_count=500)).generate()
    result = run_scheme(system.scheme("econ-cheap"), workload)
    print(result.summary.operating_cost, result.summary.mean_response_time_s)
"""

from repro.system import CloudSystem, CloudSystemConfig
from repro.costmodel.config import CostModelConfig
from repro.pricing.catalog import ResourcePricing, ec2_2009_pricing
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.query import Query, QueryTemplate
from repro.simulator.simulation import CloudSimulation, SimulationConfig, run_scheme
from repro.simulator.results import SimulationResult
from repro.policies.factory import SCHEME_NAMES, build_scheme
from repro.sharding import ShardCoordinator, TenantPartitioner
from repro.distcache import DistCacheRunner, StructurePartitioner

__version__ = "0.2.0"

__all__ = [
    "CloudSystem",
    "CloudSystemConfig",
    "CostModelConfig",
    "ResourcePricing",
    "ec2_2009_pricing",
    "WorkloadGenerator",
    "WorkloadSpec",
    "Query",
    "QueryTemplate",
    "CloudSimulation",
    "SimulationConfig",
    "SimulationResult",
    "run_scheme",
    "build_scheme",
    "SCHEME_NAMES",
    "ShardCoordinator",
    "TenantPartitioner",
    "DistCacheRunner",
    "StructurePartitioner",
    "__version__",
]
