"""The per-tuple reference plane — the oracle of the parity suites.

The library answers every top-k interface call and every bulk load through
one columnar data plane.  This module keeps the per-tuple implementation
of the same five entry points, verbatim, so parity tests can run any
workload both ways and demand byte-identical results:

* ``TopKInterface._node_result`` — per-tuple ``store.get`` over the index
  range, ranked by :func:`top_k_by_score`;
* ``TopKInterface._evaluate_scan`` — ``query.matches`` over
  ``db.tuples()``;
* ``TupleStore.insert_batch`` / ``PrefixIndex.bulk_add_batch`` — per-tuple
  heap inserts and index adds;
* ``HiddenDatabase.insert_many`` — the per-row insert path.

:func:`reference_plane` patches them at class level, so round-pool worker
threads and forked round workers run the reference too.  Tests choose a
plane by name with :func:`plane_scope` (``"vectorized"`` is the library
as shipped, ``"scalar"`` the reference).
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager, nullcontext
from typing import Iterable

from repro.errors import SchemaError
from repro.hiddendb.database import HiddenDatabase
from repro.hiddendb.interface import TopKInterface
from repro.hiddendb.result import QueryResult, QueryStatus
from repro.hiddendb.store import PrefixIndex, TupleStore
from repro.hiddendb.tuples import HiddenTuple, TupleBatch


def top_k_by_score(
    candidates: Iterable[HiddenTuple], k: int
) -> list[HiddenTuple]:
    """Top-k tuples by (score desc, tid asc) — the interface's page order."""
    return heapq.nsmallest(k, candidates, key=lambda t: (-t.score, t.tid))


def _node_result(self, store, index, depth, code, matching):
    if matching == 0:
        return QueryResult(QueryStatus.UNDERFLOW, self.k, tuples=())

    def load_page() -> list[HiddenTuple]:
        return top_k_by_score(
            (store.get(tid) for tid in index.iter_node_tids(depth, code)),
            self.k,
        )

    if matching <= self.k:
        return QueryResult(QueryStatus.VALID, self.k, tuples=load_page())
    return QueryResult(QueryStatus.OVERFLOW, self.k, loader=load_page)


def _evaluate_scan(self, store, query):
    matches = [t for t in self.db.tuples() if query.matches(t)]
    if not matches:
        return QueryResult(QueryStatus.UNDERFLOW, self.k, tuples=())
    if len(matches) <= self.k:
        return QueryResult(
            QueryStatus.VALID, self.k,
            tuples=top_k_by_score(matches, self.k),
        )
    return QueryResult(
        QueryStatus.OVERFLOW,
        self.k,
        loader=lambda: top_k_by_score(matches, self.k),
    )


def _insert_batch(self, batch):
    n = len(batch)
    if n == 0:
        return 0
    if batch.tids is None or batch.scores is None:
        raise SchemaError("insert_batch requires an identified batch")
    with self.bulk():
        for t in batch.iter_tuples():
            self.insert(t)
    return n


def _bulk_add_batch(self, batch):
    self.bulk_add(batch.iter_tuples())


def _insert_many(self, rows):
    if isinstance(rows, TupleBatch):
        return self.insert_batch(rows)
    count = 0
    with self.store.bulk():
        for values, measures in rows:
            self.insert(values, measures)
            count += 1
    return count


_PATCHES = (
    (TopKInterface, "_node_result", _node_result),
    (TopKInterface, "_evaluate_scan", _evaluate_scan),
    (TupleStore, "insert_batch", _insert_batch),
    (PrefixIndex, "bulk_add_batch", _bulk_add_batch),
    (HiddenDatabase, "insert_many", _insert_many),
)


@contextmanager
def reference_plane():
    """Run the enclosed code on the per-tuple reference plane.

    Patches are class-level (every thread and forked child sees them) and
    restored on exit, so scopes nest.
    """
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in _PATCHES]
    for cls, name, replacement in _PATCHES:
        setattr(cls, name, replacement)
    try:
        yield
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)


def plane_scope(plane: str | None):
    """``reference_plane()`` for ``"scalar"``; a no-op for ``"vectorized"``
    or ``None``."""
    if plane == "scalar":
        return reference_plane()
    if plane in (None, "vectorized"):
        return nullcontext()
    raise ValueError(f"unknown plane {plane!r}")
