"""Drill-down walks: fresh drill-downs and reissue updates, batched.

A *drill-down* (paper §3.1) walks a random root-to-leaf path top-down and
stops at the first non-overflowing node — the *top non-overflowing query*
``q(r)`` for that signature.  A *reissue update* (§3.1, §3.2.2) revisits a
signature in a later round starting from where the walk stopped last time:

* if the remembered node overflows now, descend until non-overflowing
  (Case 2 — the node's parent is known to overflow, so it is top);
* otherwise, walk *up* re-asking ancestors until the parent overflows
  (Cases 1 and 3) — this is the sound "strict" mode matching §4.1's
  two-queries-per-stable-drill-down accounting;
* ``parent_check="lazy"`` reproduces Algorithm 1 literally: a currently
  valid node is accepted without confirming its parent still overflows.
  That saves one query per stable drill-down but silently mis-prices p(q)
  after heavy deletions (measured in the parent-check ablation).

A fresh drill-down is the reissue walk that starts at the root, so both
are one state machine.  :class:`FrontierWalker` runs an ordered *plan* of
such walks per round: it counts the next node of every active walk with
one batched index call per tree level (a round reads one store state, so
answers do not depend on query order), then charges the queries in plan
order exactly as one-query-at-a-time walks would issue them — budget
cut, counters, cache hits, outcomes and RNG position included.  Sessions
with an ``on_query`` mutation hook run with a frontier of one walk.  See
"Batched drill-down frontier" in ``docs/architecture.md``.

:func:`drill_from_root` and :func:`reissue_update` are plans of one walk.
The unbiasedness of every estimator rests on the invariant that, in
strict mode, ``reissue_update`` terminates at exactly the node
``drill_from_root`` would find for the same signature and database state
(property-tested).
"""

from __future__ import annotations

import math
import random
from itertools import islice
from typing import Iterator, Sequence

from ..errors import QueryBudgetExhausted, QueryError
from ..hiddendb.result import QueryResult
from ..hiddendb.session import QuerySession
from .tree import QueryTree, Signature

#: Accepted parent-check policies for reissue updates.
PARENT_CHECK_MODES = ("strict", "lazy")

#: One planned walk: ``(signature, start_depth)``.  A ``None`` signature is
#: a fresh drill-down whose signature is drawn when the plan runs.
PlannedWalk = tuple["Signature | None", int]

#: A fresh drill-down from a newly drawn signature.
FRESH: PlannedWalk = (None, 0)

#: Walk phases: the first query, descending, confirming upwards.
_FIRST, _DOWN, _UP = 0, 1, 2


class DrillOutcome:
    """Terminal state of one drill-down or reissue-update walk."""

    __slots__ = ("signature", "depth", "result", "queries_spent", "leaf_overflow")

    def __init__(
        self,
        signature: Signature,
        depth: int,
        result: QueryResult,
        queries_spent: int,
        leaf_overflow: bool = False,
    ):
        self.signature = signature
        #: Depth of the top non-overflowing node (== tree.max_depth when the
        #: walk hit an overflowing leaf; then ``leaf_overflow`` is set).
        self.depth = depth
        self.result = result
        self.queries_spent = queries_spent
        #: True when even the leaf overflowed (tuples colliding on every
        #: searchable attribute) — estimates from this outcome are biased.
        self.leaf_overflow = leaf_overflow

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"DrillOutcome(depth={self.depth}, status={self.result.status.value},"
            f" cost={self.queries_spent})"
        )


class _Walk:
    """One walk's evaluated queries and replay position."""

    __slots__ = ("signature", "depth", "code", "phase", "steps", "results",
                 "replayed", "spent", "terminal", "done")

    def __init__(self, signature: Signature, depth: int, code: int):
        self.signature = signature
        #: The node the walk asks next (tree depth and index-side code).
        self.depth = depth
        self.code = code
        self.phase = _FIRST
        #: ``(depth, code, count)`` of every evaluated query, in order.
        self.steps: list[tuple[int, int, int]] = []
        #: Result of every replayed query (cache / hook sessions only).
        self.results: list[QueryResult] = []
        self.replayed = 0
        self.spent = 0
        self.terminal = -1
        self.done = False


class FrontierWalker:
    """Batched drill-down walks over one round's :class:`QuerySession`.

    Create one per round (it remembers node counts for as long as the
    store state stays the same) and feed it plans with :meth:`walk` and
    :meth:`fresh_until_exhausted`.  After a plan stops at the budget cut,
    :attr:`exhausted` is set.
    """

    def __init__(
        self,
        session: QuerySession,
        tree: QueryTree,
        parent_check: str = "strict",
    ):
        if parent_check not in PARENT_CHECK_MODES:
            raise QueryError(f"unknown parent_check mode {parent_check!r}")
        self.session = session
        self.tree = tree
        self.exhausted = False
        self._lazy = parent_check == "lazy"
        self._interface = session.interface
        self._k = session.k
        self._hook = session.on_query is not None
        self._cache = session.cache_within_round
        # Cache and hook sessions need a result object per charged query.
        self._settling = self._hook or self._cache
        # Node counts per tree depth, valid for one (store, mutation) state.
        self._memo: list[dict[int, int]] = []
        self._memo_state: tuple | None = None
        self._tally = [0, 0, 0]  # underflow, valid, overflow

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def walk(
        self,
        plan: Sequence[PlannedWalk],
        rng: random.Random | None = None,
    ) -> Iterator[DrillOutcome]:
        """Run ``plan`` and yield each completed walk's outcome in order.

        Fresh entries draw their signatures from ``rng`` in plan order.
        Outcomes stop at the budget cut: the walks before it completed,
        the rest never ran (and ``rng`` sits where the sequential schedule
        leaves it).  Consume the iterator to the end.
        """
        remaining = self.session.remaining
        if not self._cache and remaining is not None:
            # Every walk costs at least one query, so the cut falls within
            # the first ``remaining + 1`` walks.
            plan = plan[:remaining + 1]
        width = 1 if self._hook else max(len(plan), 1)
        for start in range(0, len(plan), width):
            yield from self._wave(plan[start:start + width], rng)
            if self.exhausted:
                return

    def fresh_until_exhausted(
        self, rng: random.Random
    ) -> Iterator[DrillOutcome]:
        """Fresh drill-downs until the budget runs out, in waves sized by
        the remaining budget over the round's mean fresh-walk cost."""
        walks = spent = 0
        while not self.exhausted:
            remaining = self.session.remaining
            if self._hook or remaining is None:
                width = 1
            else:
                cost = spent / walks if walks else self._fresh_cost_guess()
                width = max(1, math.ceil(remaining / max(cost, 1.0)))
            for outcome in self.walk([FRESH] * width, rng):
                walks += 1
                spent += outcome.queries_spent
                yield outcome

    def _fresh_cost_guess(self) -> int:
        """Queries a fresh drill-down would need on uniform data: one more
        than the depth at which a node's expected count drops to ``k``
        (only sizes speculation; the outcomes never depend on it)."""
        tree = self.tree
        total = self._interface.count_nodes(
            tree.attr_order, [tree.root_depth], [tree.root_code]
        )[0]
        depth = 0
        while (
            depth < tree.max_depth
            and total * tree.selection_probability(depth) > self._k
        ):
            depth += 1
        return depth + 1

    # ------------------------------------------------------------------
    # One wave: evaluate level by level, replay in order
    # ------------------------------------------------------------------
    def _wave(
        self, plan: Sequence[PlannedWalk], rng: random.Random | None
    ) -> Iterator[DrillOutcome]:
        fresh = sum(1 for signature, _depth in plan if signature is None)
        if fresh:
            assert rng is not None, "fresh walks need an rng"
            state = rng.getstate()
            drawn = iter(self.tree.random_signatures(rng, fresh))
        walks = [
            self._start(next(drawn) if signature is None else signature, depth)
            for signature, depth in plan
        ]
        cursor = 0
        active = self._frontier(walks, cursor)
        while True:
            if active:
                for walk, count in zip(active, self._count(active)):
                    self._advance(walk, count)
            # Replay as far as the evaluated queries reach.
            while cursor < len(walks):
                walk = walks[cursor]
                if not self._replay(walk):
                    break
                self._flush()
                yield self._outcome(walk)
                cursor += 1
            if self.exhausted:
                self._flush()
                if fresh:
                    used = sum(
                        1 for signature, _depth in plan[:cursor + 1]
                        if signature is None
                    )
                    if used < fresh:
                        rng.setstate(state)
                        self.tree.random_signatures(rng, used)
                return
            if cursor == len(walks):
                self._flush()
                return
            active = self._frontier(walks, cursor)

    def _start(self, signature: Signature, start_depth: int) -> _Walk:
        tree = self.tree
        if start_depth < 0 or start_depth > tree.max_depth:
            raise QueryError(f"start_depth {start_depth} out of range")
        code = tree.root_code
        for depth in range(start_depth):
            code = code * tree.free_sizes[depth] + self._digit(signature, depth)
        return _Walk(signature, start_depth, code)

    def _digit(self, signature: Signature, depth: int) -> int:
        digit = signature[depth]
        if digit >= self.tree.free_sizes[depth]:
            attribute = self.tree.schema.attributes[self.tree.free_order[depth]]
            raise QueryError(
                f"value index {digit} out of range for attribute "
                f"{attribute.name!r}"
            )
        return digit

    def _frontier(self, walks: list[_Walk], cursor: int) -> list[_Walk]:
        """Walks to evaluate next: unfinished ones whose next query can
        still fall inside the budget.  An unfinished walk costs at least
        its evaluated queries plus one, so once the queries ahead of a
        walk's next one reach the remaining budget, it and every later
        walk lie past the cut.  (Cached answers are free, so cache
        sessions cannot prune.)"""
        remaining = self.session.remaining
        if self._cache or remaining is None:
            return [walk for walk in islice(walks, cursor, None) if not walk.done]
        active = []
        ahead = 0
        for walk in islice(walks, cursor, None):
            ahead += len(walk.steps) - walk.replayed
            if walk.done:
                continue
            if ahead >= remaining:
                break
            active.append(walk)
            ahead += 1
        return active

    def _count(self, active: list[_Walk]) -> list[int]:
        """Match counts of the active walks' next nodes, each distinct
        node counted once per store state."""
        tree = self.tree
        store = self._interface.db.read_store
        state = (store, store.mutation_epoch)
        if state != self._memo_state:
            self._memo = [{} for _ in range(tree.max_depth + 1)]
            self._memo_state = state
        memo = self._memo
        counts = []
        missing: dict[tuple[int, int], list[int]] = {}
        for position, walk in enumerate(active):
            count = memo[walk.depth].get(walk.code)
            if count is None:
                missing.setdefault((walk.depth, walk.code), []).append(position)
            counts.append(count)
        if missing:
            nodes = list(missing)
            found = self._interface.count_nodes(
                tree.attr_order,
                [tree.root_depth + depth for depth, _code in nodes],
                [code for _depth, code in nodes],
            )
            for (depth, code), count in zip(nodes, found):
                memo[depth][code] = count
                for position in missing[(depth, code)]:
                    counts[position] = count
        if self._hook and self._cache:
            # A remembered answer may predate the hook's last mutation; the
            # one-at-a-time walk would have followed it, so this walk does.
            for position, walk in enumerate(active):
                cached = self.session.cached(
                    tree.query_at(walk.signature, walk.depth)
                )
                if cached is not None:
                    counts[position] = (
                        self._k + 1 if cached.overflow else len(cached)
                    )
        return counts

    def _advance(self, walk: _Walk, count: int) -> None:
        """Feed the count of the walk's current node; pick its next node
        or finish it (the branches of the one-at-a-time walks)."""
        depth = walk.depth
        walk.steps.append((depth, walk.code, count))
        sizes = self.tree.free_sizes
        if walk.phase == _UP:
            if count > self._k:
                # The parent still overflows: the node below it is q(r).
                walk.terminal = len(walk.steps) - 2
                walk.done = True
            elif depth == 0 or (self._lazy and count):
                walk.terminal = len(walk.steps) - 1
                walk.done = True
            else:
                walk.depth = depth - 1
                walk.code //= sizes[depth - 1]
            return
        if count > self._k:
            if depth < self.tree.max_depth:
                # Case 2 / a fresh descent: keep drilling down.
                walk.code = walk.code * sizes[depth] + self._digit(
                    walk.signature, depth
                )
                walk.depth = depth + 1
                walk.phase = _DOWN
                return
        elif walk.phase == _FIRST and depth > 0 and not (self._lazy and count):
            # A remembered node no longer overflows: walk up until the
            # parent does (lazy mode only rolls up underflowing nodes).
            walk.phase = _UP
            walk.depth = depth - 1
            walk.code //= sizes[depth - 1]
            return
        walk.terminal = len(walk.steps) - 1
        walk.done = True

    # ------------------------------------------------------------------
    # Sequential replay
    # ------------------------------------------------------------------
    def _replay(self, walk: _Walk) -> bool:
        """Charge the walk's evaluated queries in order; True once the
        whole walk is charged.  Sets :attr:`exhausted` at the budget cut."""
        session = self.session
        budget = session.budget
        steps = walk.steps
        while walk.replayed < len(steps):
            if self._settling:
                if not self._settle(walk, steps[walk.replayed]):
                    self.exhausted = True
                    return False
            else:
                if budget is not None and session.queries_used >= budget:
                    self.exhausted = True
                    return False
                session.queries_used += 1
                walk.spent += 1
                count = steps[walk.replayed][2]
                self._tally[
                    0 if count == 0 else 1 if count <= self._k else 2
                ] += 1
            walk.replayed += 1
        if walk.done:
            return True
        if not self._cache and not session.can_afford():
            # The walk needs another query the budget cannot pay for.
            self.exhausted = True
        return False

    def _settle(self, walk: _Walk, step: tuple[int, int, int]) -> bool:
        """Replay one query of a cache or hook session (False at the cut)."""
        depth, code, count = step
        session = self.session
        query = self.tree.query_at(walk.signature, depth)
        result = session.cached(query)
        if result is None:
            if not session.can_afford():
                return False
            session.queries_used += 1
            walk.spent += 1
            result = self._interface.node_result(
                self.tree.attr_order, self.tree.root_depth + depth, code, count
            )
            self._tally[
                0 if result.underflow else 1 if result.valid else 2
            ] += 1
            self._flush()
            session.settle(query, result)
        walk.results.append(result)
        return True

    def _flush(self) -> None:
        tally = self._tally
        if tally[0] or tally[1] or tally[2]:
            self._interface.stats.record_many(*tally)
            self._tally = [0, 0, 0]

    def _outcome(self, walk: _Walk) -> DrillOutcome:
        depth, code, count = walk.steps[walk.terminal]
        if self._settling:
            result = walk.results[walk.terminal]
        else:
            result = self._interface.node_result(
                self.tree.attr_order, self.tree.root_depth + depth, code, count
            )
        return DrillOutcome(
            walk.signature, depth, result, walk.spent,
            leaf_overflow=result.overflow,
        )


def _one_walk(
    walker: FrontierWalker, signature: Signature, start_depth: int
) -> DrillOutcome:
    for outcome in walker.walk([(signature, start_depth)]):
        return outcome
    raise QueryBudgetExhausted(walker.session.budget or 0)


def drill_from_root(
    session: QuerySession, tree: QueryTree, signature: Signature
) -> DrillOutcome:
    """Walk the signature's path from the root down to ``q(r)``.

    Raises :class:`~repro.errors.QueryBudgetExhausted` when the budget
    runs out mid-walk (the queries before the cut stay charged).
    """
    return _one_walk(FrontierWalker(session, tree), signature, 0)


def reissue_update(
    session: QuerySession,
    tree: QueryTree,
    signature: Signature,
    start_depth: int,
    parent_check: str = "strict",
) -> DrillOutcome:
    """Re-locate ``q(r)`` in the current round, starting from ``start_depth``.

    ``start_depth`` is the depth where the drill-down terminated when last
    updated.  Query cost is whatever the walk needs: 1 query if the node
    overflows and its child is terminal, 2 for a stable drill-down in
    strict mode, up to a full path in pathological churn.
    """
    walker = FrontierWalker(session, tree, parent_check)
    return _one_walk(walker, signature, start_depth)
