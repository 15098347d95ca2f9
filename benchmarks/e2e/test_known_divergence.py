"""Why ``tenants-partitioned2`` uses hash placement, kept as a strict xfail.

Adaptive placement with batched planning diverges from scalar planning.
Observed with 1,000 tenants, 1,500 queries, settlement every 60 s, seed 0:

* in-process (``max_workers=1``) the batched run raises
  ``CacheError: time went backwards``;
* with 2 workers it finishes, but with hit rate 0.169 and cost 222.19,
  against 0.461 and 200.54 for scalar planning.

The likely cause: ``extract_entry``/``install_entry`` in
``repro.distcache.manager`` change a partition's resident set without
bumping ``CacheManager.version``, the key the batched pricing memo is
cached under, so batched pricing keeps charging for structures that
moved. When a fix lands this test passes, and ``strict=True`` turns that
into a failure: drop the marker then, and consider adaptive placement for
the benchmark.
"""

from __future__ import annotations

import pytest

from repro import DistCacheRunner
from repro.errors import CacheError
from repro.experiments.tenants import (
    TenantExperimentConfig,
    tenant_aggregate_table,
    top_tenant_table,
)


def _adaptive_tables(planning: str) -> str:
    config = TenantExperimentConfig(
        scheme="econ-cheap", tenant_count=1000, query_count=1500,
        interarrival_s=1.0, settlement_period_s=60.0, planning=planning,
        seed=0)
    cell = DistCacheRunner(2, max_workers=1, placement="adaptive",
                           compare_baseline=False).run_cell(config).cell
    return tenant_aggregate_table(cell) + top_tenant_table(cell)


@pytest.mark.xfail(strict=True, raises=(CacheError, AssertionError),
                   reason="adaptive handoffs do not bump the cache version "
                          "the batched pricing memo keys on")
def test_adaptive_placement_batched_matches_scalar():
    assert _adaptive_tables("batched") == _adaptive_tables("scalar")
