"""The restrictive top-k search interface (paper §2.1).

This is the *only* channel estimators may use to see the database.  A query
returns at most ``k`` tuples chosen by the proprietary ranking; whether more
matches exist is revealed only through the overflow flag (no counts).

Query evaluation strategy:

* If the query's predicate attributes are a prefix of some registered
  attribute order, the query is a tree node whose matching set is a
  contiguous range in that order's
  :class:`~repro.hiddendb.store.PrefixIndex` — counted with a batch of
  nodes in one backend call (:meth:`TopKInterface.count_nodes`), page
  materialised lazily.  :meth:`TopKInterface.search` is
  :meth:`TopKInterface.search_many` of one; batched drill-down walks
  count whole tree levels and charge the queries themselves.
* Otherwise (ad-hoc conjunctions) evaluation falls back to a full scan.
  The scan path doubles as the correctness oracle in property tests.

Both strategies run on the columnar query plane: candidate tids come from
the index as vectors (:meth:`PrefixIndex.node_tids`), scan predicates are
matched against the frozen blocks' value matrices
(:meth:`TupleStore.scan_match`), and a valid result carries a deferred
:class:`~repro.hiddendb.result.PageColumns`: page selection
(``np.argpartition`` + exact lexsort, tie-broken ``(-score, tid)``) and
tuple materialisation run only when a consumer reads the page.  Deferred
*valid* pages are pinned to the store's mutation epoch and raise
:class:`~repro.errors.StaleResultError` rather than reflect post-query
state; the intra-round update driver is safe because
:class:`~repro.hiddendb.session.QuerySession` freezes results before its
mutation hook fires.  *Overflow* pages are lazy: prefix loaders re-read the
current index state at access, scan loaders rank a query-time snapshot.
The parity suites compare every result against the per-tuple reference
(``store.get`` + a heap top-k) kept in ``tests/reference_plane.py``.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from ..errors import StaleResultError
from ..obs import OBS
from .database import HiddenDatabase
from .query import ConjunctiveQuery
from .result import (
    PageColumns,
    QueryResult,
    QueryStatus,
    top_k_select,
)
from .tuples import HiddenTuple


#: Registry handles per query status, created once at import so the hot
#: path (``search``) never takes the registry's get-or-create lock.
_STATUS_COUNTERS = {
    QueryStatus.UNDERFLOW: OBS.counter(
        "repro_queries_total", {"status": "underflow"}
    ),
    QueryStatus.VALID: OBS.counter(
        "repro_queries_total", {"status": "valid"}
    ),
    QueryStatus.OVERFLOW: OBS.counter(
        "repro_queries_total", {"status": "overflow"}
    ),
}


class InterfaceStats:
    """Simulator-side counters (a real site would keep these server-side).

    Updates run under a per-instance lock, so observers reading during a
    ``run_round(parallel=N)`` (telemetry, ``Engine.metrics()``) always see
    a consistent ``queries == underflow + valid + overflow`` snapshot.
    """

    __slots__ = ("queries", "underflow", "valid", "overflow", "_lock")

    def __init__(self) -> None:
        self.queries = 0
        self.underflow = 0
        self.valid = 0
        self.overflow = 0
        self._lock = threading.Lock()

    def record(self, status: QueryStatus) -> None:
        """Count one charged query (:meth:`record_many` of one)."""
        self.record_many(
            int(status is QueryStatus.UNDERFLOW),
            int(status is QueryStatus.VALID),
            int(status is QueryStatus.OVERFLOW),
        )

    def merge(self, other: "InterfaceStats") -> None:
        """Fold another stats object into this one (both stay valid).

        Snapshots ``other`` first, then adds under this instance's lock —
        never holding both, so concurrent merges cannot deadlock.
        """
        snapshot = other.to_dict()
        with self._lock:
            self.queries += snapshot["queries"]
            self.underflow += snapshot["underflow"]
            self.valid += snapshot["valid"]
            self.overflow += snapshot["overflow"]

    def to_dict(self) -> dict[str, int]:
        """Consistent counter snapshot (stable keys)."""
        with self._lock:
            return {
                "queries": self.queries,
                "underflow": self.underflow,
                "valid": self.valid,
                "overflow": self.overflow,
            }

    def record_many(self, underflow: int, valid: int, overflow: int) -> None:
        """Count a batch of charged queries by status under one lock."""
        with self._lock:
            self.queries += underflow + valid + overflow
            self.underflow += underflow
            self.valid += valid
            self.overflow += overflow
        if OBS.enabled:
            for status, count in (
                (QueryStatus.UNDERFLOW, underflow),
                (QueryStatus.VALID, valid),
                (QueryStatus.OVERFLOW, overflow),
            ):
                if count:
                    _STATUS_COUNTERS[status].inc(count)


class TopKInterface:
    """Search endpoint of a hidden database with page size ``k``."""

    def __init__(self, db: HiddenDatabase, k: int):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.db = db
        self.k = k
        self.stats = InterfaceStats()

    @property
    def schema(self):
        return self.db.schema

    @property
    def current_round(self) -> int:
        """Round index, as a client could infer from wall-clock time."""
        return self.db.current_round

    @property
    def backend(self) -> str:
        """Storage backend behind the database (simulator-side metadata)."""
        return self.db.backend

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def search(self, query: ConjunctiveQuery) -> QueryResult:
        """Execute one conjunctive search query (a batch of one)."""
        return self.search_many((query,))[0]

    def search_many(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> list[QueryResult]:
        """Execute a batch of conjunctive queries, every one of them charged.

        All queries are validated before any runs.  Queries whose
        attributes are a prefix of a registered order become tree nodes
        counted with one :meth:`~repro.hiddendb.store.PrefixIndex.count_nodes`
        call per order; other conjunctions fall back to a scan.  The whole
        batch reads one store state, so the answers do not depend on the
        order of the queries; the statuses are recorded under one lock.
        """
        schema = self.db.schema
        for query in queries:
            query.validate(schema)
        store = self.db.read_store
        orders = store.index_orders()
        results: list = [None] * len(queries)
        nodes: dict[tuple[int, ...], tuple[list[int], list[int], list[int]]] = {}
        for position, query in enumerate(queries):
            prefix = self._match_prefix_order(query, orders)
            if prefix is None:
                results[position] = self._evaluate_scan(store, query)
                continue
            attr_order, prefix_values = prefix
            depth, code = store.ensure_index(attr_order).node_of(prefix_values)
            positions, depths, codes = nodes.setdefault(attr_order, ([], [], []))
            positions.append(position)
            depths.append(depth)
            codes.append(code)
        for attr_order, (positions, depths, codes) in nodes.items():
            index = store.ensure_index(attr_order)
            counts = index.count_nodes(depths, codes)
            for position, depth, code, count in zip(
                positions, depths, codes, counts
            ):
                results[position] = self._node_result(
                    store, index, depth, code, count
                )
        tally = {status: 0 for status in QueryStatus}
        for result in results:
            tally[result.status] += 1
        self.stats.record_many(
            tally[QueryStatus.UNDERFLOW],
            tally[QueryStatus.VALID],
            tally[QueryStatus.OVERFLOW],
        )
        return results

    def count_nodes(
        self,
        attr_order: Sequence[int],
        depths: Sequence[int],
        codes: Sequence[int],
    ) -> list[int]:
        """Match counts of query-tree nodes, uncharged and unrecorded.

        A node is ``(depth, code)`` under a registered ``attr_order`` (see
        :meth:`~repro.hiddendb.store.KeyCodec.prefix_code`).  Batched
        drill-down walks evaluate a whole tree level with one call, then
        charge only the queries the sequential schedule would have issued
        (recording them with :meth:`InterfaceStats.record_many`) and build
        those results with :meth:`node_result`.
        """
        index = self.db.read_store.ensure_index(attr_order)
        return index.count_nodes(depths, codes)

    def node_result(
        self, attr_order: Sequence[int], depth: int, code: int, count: int
    ) -> QueryResult:
        """The result page of node ``(depth, code)`` that matched ``count``
        tuples in the current store state (see :meth:`count_nodes`)."""
        store = self.db.read_store
        index = store.ensure_index(attr_order)
        return self._node_result(store, index, depth, code, count)

    def register_attr_order(self, attr_order: Sequence[int]) -> None:
        """Pre-register an attribute order so its queries use the index.

        Resolves against the context's read store: inside an epoch-pinned
        round this builds an epoch-local index from the frozen heap and
        leaves the live store (being churned concurrently) untouched.
        """
        self.db.read_store.ensure_index(attr_order)

    def _match_prefix_order(
        self,
        query: ConjunctiveQuery,
        orders: Sequence[tuple[int, ...]] | None = None,
    ) -> tuple[tuple[int, ...], list[int]] | None:
        """Find a registered order whose prefix covers the query's attributes."""
        if orders is None:
            # A snapshot: another tenant's thread may register a new index
            # (ensure_index) while this query plans.
            orders = self.db.read_store.index_orders()
        if not query.predicates:
            # Root query: any registered index (or none yet) works.
            for attr_order in orders:
                return attr_order, []
            return None
        wanted = {a: v for a, v in query.predicates}
        for attr_order in orders:
            head = attr_order[: len(wanted)]
            if set(head) == set(wanted):
                return attr_order, [wanted[a] for a in head]
        return None

    @staticmethod
    def _epoch_guarded(store, fetch: Callable) -> Callable:
        """Pin a deferred column fetch / page load to the store's state.

        ``store`` is the context's read store: a page pinned to a published
        :class:`~repro.hiddendb.epoch.StoreEpoch` can never go stale (the
        epoch's mutation counter is frozen), so overlapped churn on the
        live store does not invalidate reads started before the flip.
        """
        epoch = store.mutation_epoch

        def guarded():
            if store.mutation_epoch != epoch:
                raise StaleResultError(
                    "result page read after a database mutation; read "
                    "pages before mutating (QuerySession freezes them "
                    "ahead of its on_query hook)"
                )
            return fetch()
        return guarded

    def _node_result(
        self, store, index, depth: int, code: int, matching: int
    ) -> QueryResult:
        if matching == 0:
            return QueryResult(QueryStatus.UNDERFLOW, self.k, tuples=())
        if matching <= self.k:
            fetch = self._epoch_guarded(
                store, lambda: store.gather(index.node_tids(depth, code))
            )
            return QueryResult(
                QueryStatus.VALID,
                self.k,
                page=PageColumns(matching, self.k, fetch),
            )

        def load_columns() -> list[HiddenTuple]:
            # Overflow pages re-read the index at access time
            # (leaf-overflow outcomes are read mid-round by the
            # intra-round driver), so no epoch guard here.
            rows = store.gather(index.node_tids(depth, code))
            batch = rows.batch
            order = top_k_select(batch.scores, batch.tids, self.k)
            return [rows.materialize_row(int(row)) for row in order]

        return QueryResult(QueryStatus.OVERFLOW, self.k, loader=load_columns)

    def _evaluate_scan(self, store, query: ConjunctiveQuery) -> QueryResult:
        """Full-scan evaluation for arbitrary conjunctions."""
        tids, scores = store.scan_match(query.predicates)
        matching = len(tids)
        if matching == 0:
            return QueryResult(QueryStatus.UNDERFLOW, self.k, tuples=())
        if matching <= self.k:
            fetch = self._epoch_guarded(store, lambda: store.gather(tids))
            return QueryResult(
                QueryStatus.VALID,
                self.k,
                page=PageColumns(matching, self.k, fetch),
            )
        # Overflow scans are a query-time snapshot: select and gather the
        # page rows now (k rows — cheap next to the scan itself) and defer
        # just the materialization.
        rows = store.gather(tids[top_k_select(scores, tids, self.k)])
        return QueryResult(
            QueryStatus.OVERFLOW,
            self.k,
            loader=lambda: [
                rows.materialize_row(row) for row in range(len(rows))
            ],
        )
