"""Exception hierarchy for the cloud-cache economy reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming errors
such as ``TypeError`` raised by misuse of the Python API itself.
"""

from __future__ import annotations

import concurrent.futures.process
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, List, Sequence, Type


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class PricingError(ConfigurationError):
    """A resource price is unknown or invalid (for example, negative)."""


class SchemaError(ReproError):
    """A table, column, or index referenced in a query does not exist."""


class UnknownTableError(SchemaError):
    """A query or structure references a table not present in the catalog."""

    def __init__(self, table_name: str) -> None:
        super().__init__(f"unknown table: {table_name!r}")
        self.table_name = table_name


class UnknownColumnError(SchemaError):
    """A query or structure references a column not present in the catalog."""

    def __init__(self, table_name: str, column_name: str) -> None:
        super().__init__(f"unknown column: {table_name!r}.{column_name!r}")
        self.table_name = table_name
        self.column_name = column_name


class WorkloadError(ReproError):
    """The workload specification or generated workload is invalid."""


class BudgetFunctionError(ReproError):
    """A user budget function violates its contract (e.g. not descending)."""


class PlanningError(ReproError):
    """Plan enumeration failed or produced no feasible plan."""


class CacheError(ReproError):
    """The cache manager was asked to perform an impossible operation."""


class InsufficientSpaceError(CacheError):
    """A structure cannot be admitted because space cannot be reclaimed."""


class EconomyError(ReproError):
    """The economy engine reached an inconsistent state."""


class InsufficientCreditError(EconomyError):
    """An investment was attempted that exceeds the cloud's credit."""


class SimulationError(ReproError):
    """The event-driven simulator reached an inconsistent state."""


class ExperimentError(ReproError):
    """An experiment driver was configured inconsistently."""


class ShardingError(ReproError):
    """A sharded run was mis-configured or its shards diverged.

    Raised both for plain configuration mistakes (shard counts < 1, a
    worker asked about a tenant it does not own) and — more seriously —
    when the merge barrier detects that two shards disagree about a
    replicated quantity, which means the simulation was not deterministic.
    """


class PartitioningError(ReproError):
    """A stable-hash partitioning primitive was misused.

    Raised by :mod:`repro.partitioning`, the helper shared by tenant
    sharding (:mod:`repro.sharding`) and structure partitioning
    (:mod:`repro.distcache`); the two layers wrap it in their own error
    types at their public boundaries.
    """


class DistCacheError(ReproError):
    """A partitioned-cache run was mis-configured or violated an invariant.

    Raised for configuration mistakes (partition counts < 1, partitioned
    mode requested for a scheme with no economy) and — more seriously —
    when an audit detects a broken invariant: a structure admitted by a
    partition that does not own its key, a directory entry without a live
    owner, or a sub-account whose ledger no longer folds to its credit.
    """


def call_naming_failures(where: Callable[[], str],
                         error_type: Type[ReproError], fn: Callable, *args):
    """``fn(*args)``, with any failure prefixed by ``where()``.

    The guard the process-parallel layers put around each worker call: a
    dead worker process (``BrokenProcessPool``) and any non-library
    exception become ``error_type``; library errors keep their type, so
    callers that catch one still do, and gain the same prefix.
    """
    try:
        return fn(*args)
    except concurrent.futures.process.BrokenProcessPool as error:
        raise error_type(f"{where()}: a worker process died") from error
    except ReproError as error:
        error.args = (f"{where()}: {error}",)
        raise
    except Exception as error:
        raise error_type(
            f"{where()}: {type(error).__name__}: {error}") from error


def map_naming_failures(fn: Callable, items: Sequence, workers: int,
                        where: Callable[[object], str],
                        error_type: Type[ReproError]) -> List:
    """``[fn(item) for item in items]`` over a pool of ``workers`` processes.

    Results come back in ``items`` order. Each call is guarded by
    :func:`call_naming_failures` with ``where(item)`` as its prefix, so an
    exception escaping a worker names the item it was running. With one
    worker or one item the calls run in this process, labelled the same
    way. A worker that dies breaks the pool, failing every unfinished
    item with it; the error names the first of those in ``items`` order.
    """
    if min(workers, len(items)) <= 1:
        return [call_naming_failures(lambda: where(item), error_type,
                                     fn, item)
                for item in items]
    with ProcessPoolExecutor(
            max_workers=min(workers, len(items))) as executor:
        futures: List[Future] = []
        broken = None
        for item in items:
            if broken is None:
                try:
                    futures.append(executor.submit(fn, item))
                    continue
                except concurrent.futures.process.BrokenProcessPool as error:
                    # A worker died before every item was handed out:
                    # stop submitting; the rest fail with the pool.
                    broken = error
            failed: Future = Future()
            failed.set_exception(broken)
            futures.append(failed)
        return [call_naming_failures(lambda: where(item), error_type,
                                     future.result)
                for item, future in zip(items, futures)]
