"""Epoch-level batch scheduling for the vectorized planning fast path.

Batched planning is the engine's default
(:attr:`~repro.economy.engine.EconomyConfig.planning`). The
:class:`BatchScheduler` sits between the simulator and the engine's
per-query pipeline: :meth:`BatchScheduler.prime` receives a feed of the
upcoming arrivals, which it groups into **epochs** at settlement
boundaries as it reads. A plain run primes it once, with the whole
stream. The partitioned runner primes each partition's scheduler once
per window of epochs it has read ahead
(:func:`repro.distcache.runner.routed_epochs`), with that partition's
queries of the window. When the engine asks for the first query of an
unevaluated epoch, the scheduler pulls a *window* off the feed — as many
consecutive epochs as fit in :data:`MAX_BATCH_SIZE` (1,024) queries —
scores every template's batch in it in one vectorized pass
(:func:`repro.costmodel.vectorized.evaluate_plan_table`), and hands the
per-query results out as the queries arrive. The feed may be a lazy
stream: nothing past the next window is ever read.

Only *execution estimates* are precomputed this way — they depend on the
query instance and the immutable cost model alone, never on cache state,
so scoring ahead of time is exact. Pricing against the mutable cache
(amortisation charges, accrued maintenance, what is built) stays strictly
per-query inside the engine, which is how the batched path keeps outcomes
bit-for-bit identical to scalar processing.

Evaluated blocks are dropped as soon as their last query is consumed,
which bounds the arrays a scheduler holds to one window. A partition's
window spans several epochs, so between two of them its scheme still
holds the window's primed queries and arrays; a pickled scheme carries
them along.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.costmodel.execution import ExecutionCostModel
from repro.costmodel.vectorized import BatchPlanEstimates, evaluate_plan_table
from repro.planner.enumerator import PlanEnumerator
from repro.planner.plan_table import PlanTable, PlanTableCache
from repro.workload.query import Query

#: Queries evaluated in one vectorized pass at most, which bounds the
#: arrays a window holds. A 4,096-query window held a whole 3,000-query
#: single-tenant run and raised its peak RSS by about 3 MiB; 512 saves
#: little more memory than 1,024 but doubles the evaluation time.
MAX_BATCH_SIZE = 1024


class _TemplateBlock:
    """One template's evaluated batch within the current epoch."""

    __slots__ = ("table", "estimates")

    def __init__(self, table: PlanTable, estimates: BatchPlanEstimates) -> None:
        self.table = table
        self.estimates = estimates


class BatchScheduler:
    """Pulls primed arrivals one window of epochs at a time and evaluates it.

    A window is read when the engine asks for its first query, so the
    scheduler holds at most one window (:data:`MAX_BATCH_SIZE` queries)
    ahead of the kernel, plus the part of the next epoch read to see it
    not fit.
    """

    def __init__(self, enumerator: PlanEnumerator,
                 execution_model: ExecutionCostModel,
                 tables: Optional[PlanTableCache] = None) -> None:
        self._enumerator = enumerator
        self._execution = execution_model
        self._tables = tables if tables is not None else PlanTableCache()
        self._feed: Optional[Iterator[Query]] = None
        self._period: Optional[float] = None
        self._start_s: Optional[float] = None
        self._slot: Optional[int] = None
        self._slot_count = 0
        # Queries read off the feed but not yet windowed, with their epoch
        # keys: a prefix of the head epoch plus at most one later query.
        self._ahead: Deque[Tuple[Tuple[int, int], Query]] = deque()
        self._blocks: Dict[str, _TemplateBlock] = {}
        # The current window's queries not yet handed out: template name
        # and column, or None for a query that cannot use the batch.
        self._columns: Dict[int, Optional[Tuple[str, int]]] = {}
        self._remaining = 0
        # Observability sink (duck-typed TraceRecorder); None = disabled.
        self._trace = None

    def attach_trace(self, recorder) -> None:
        """Attach a read-only trace recorder (batch-window events)."""
        self._trace = recorder

    @property
    def tables(self) -> PlanTableCache:
        """The plan-table cache (shared across primes and epochs)."""
        return self._tables

    @property
    def pending_queries(self) -> int:
        """Primed queries of the current window not yet handed out."""
        return len(self._columns)

    def prime(self, queries: Iterable[Query],
              settlement_period_s: Optional[float] = None,
              grid_start_s: Optional[float] = None) -> None:
        """Register upcoming arrivals, replacing any previous priming.

        Nothing is read here: windows are pulled from ``queries`` as the
        engine reaches them.

        Args:
            queries: the arrivals, in arrival order (any iterable).
            settlement_period_s: when set, epoch boundaries follow the
                simulation's settlement grid (arrivals between consecutive
                settlement events form one epoch); otherwise the workload
                is chunked by :data:`MAX_BATCH_SIZE` alone.
            grid_start_s: where that grid starts; defaults to the first
                primed arrival, which is where a run's grid starts when
                ``queries`` are all of its arrivals.
        """
        self.clear()
        self._feed = iter(queries)
        self._period = settlement_period_s or None
        self._start_s = grid_start_s

    def view_for(self, query: Query
                 ) -> Optional[Tuple[PlanTable, BatchPlanEstimates, int]]:
        """The evaluated batch view of ``query``, or ``None`` to fall back.

        Each primed query is handed out exactly once; asking again (or
        asking for an unprimed query) returns ``None`` and the engine runs
        its scalar path, which is outcome-identical by construction.
        """
        if query.query_id not in self._columns:
            if not self._advance_to(query):
                return None
        entry = self._columns.pop(query.query_id)
        if entry is None:
            return None
        template_name, column = entry
        block = self._blocks[template_name]
        self._remaining -= 1
        if self._remaining <= 0:
            # Window drained: release the arrays eagerly.
            self._blocks = {}
            self._columns = {}
        return block.table, block.estimates, column

    def clear(self) -> None:
        """Drop all primed queries and evaluated blocks."""
        self._feed = None
        self._start_s = None
        self._slot = None
        self._slot_count = 0
        self._ahead = deque()
        self._blocks = {}
        self._columns = {}
        self._remaining = 0

    # -- internals -------------------------------------------------------------

    def _pull(self) -> bool:
        """Read one query off the feed, keyed by its epoch ``(settlement
        slot, MAX_BATCH_SIZE chunk)``; False at the end of the feed."""
        query = None if self._feed is None else next(self._feed, None)
        if query is None:
            self._feed = None
            return False
        if self._start_s is None:
            self._start_s = query.arrival_time
        slot = (int((query.arrival_time - self._start_s) // self._period)
                if self._period else 0)
        if slot != self._slot:
            self._slot = slot
            self._slot_count = 0
        self._ahead.append(((slot, self._slot_count // MAX_BATCH_SIZE),
                            query))
        self._slot_count += 1
        return True

    def _head_epoch(self, limit: int) -> int:
        """How many queries of the head epoch are read, reading at most
        ``limit`` of them (fewer means the whole epoch is read)."""
        ahead = self._ahead
        while True:
            if ahead and ahead[-1][0] != ahead[0][0]:
                return len(ahead) - 1
            if len(ahead) >= limit or not self._pull():
                return len(ahead)

    def _advance_to(self, query: Query) -> bool:
        """Evaluate the window starting at ``query``'s epoch.

        Earlier epochs nobody asked for are skipped, like queries that
        were never requested. Returns False, leaving the current window in
        place, when ``query`` is not ahead in the feed.
        """
        while True:
            held = self._head_epoch(MAX_BATCH_SIZE + 1)
            if not held:
                return False
            if any(item.query_id == query.query_id
                   for _, item in islice(self._ahead, held)):
                break
            if self._ahead[held - 1][1].arrival_time >= query.arrival_time:
                return False
            for _ in range(held):
                self._ahead.popleft()
        self._evaluate_window()
        return True

    def _evaluate_window(self) -> None:
        # Execution estimates depend on the query instance and the
        # immutable cost model alone — never on settlement state — so one
        # vectorized pass may span as many consecutive epochs as fit in
        # the memory bound. Epochs stay the grouping unit; only the
        # evaluation is amortized across them.
        queries: List[Query] = []
        epochs = 0
        while True:
            room = MAX_BATCH_SIZE - len(queries)
            held = self._head_epoch(room + 1)
            if not held or (queries and held > room):
                break
            queries.extend(self._ahead.popleft()[1] for _ in range(held))
            epochs += 1
        groups: Dict[str, List[Query]] = {}
        for query in queries:
            groups.setdefault(query.template_name, []).append(query)
        blocks: Dict[str, _TemplateBlock] = {}
        columns: Dict[int, Optional[Tuple[str, int]]] = dict.fromkeys(
            query.query_id for query in queries)
        usable_count = 0
        for template_name, group in groups.items():
            representative = group[0]
            table = self._tables.table_for(
                representative, self._enumerator, self._execution
            )
            # A template name reused with a different shape cannot be
            # batched against this table; those queries fall back to the
            # scalar path (see view_for).
            usable = [
                query for query in group
                if len(query.predicates) == table.predicate_count
                and query.table_name == representative.table_name
            ]
            if not usable:
                continue
            estimates = evaluate_plan_table(table, usable, self._execution)
            blocks[template_name] = _TemplateBlock(table, estimates)
            for column, query in enumerate(usable):
                columns[query.query_id] = (template_name, column)
            usable_count += len(usable)
        self._blocks = blocks
        self._columns = columns
        self._remaining = usable_count
        if self._trace is not None and queries:
            self._trace.event(
                "batch_window",
                time_s=queries[0].arrival_time,
                size=len(queries),
                templates=len(blocks),
                epochs=epochs,
            )
