"""Batched drill-down frontier == the one-query-at-a-time schedule.

Every estimator round runs its walks as level-synchronous plans
(:class:`repro.core.drilldown.FrontierWalker`).  These tests run each
estimator next to its sequential twin from ``tests/frontier_oracle.py`` on
two identically built and identically churned databases and demand exact
equality of everything the round leaves behind: reports, drill-down
records, archive entries, interface counters, ``queries_used`` and the
RNG state.
"""

from __future__ import annotations

import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HiddenDatabase, QueryTree, TopKInterface
from repro.core.aggregates import count_all, size_change, sum_measure
from repro.core.drilldown import drill_from_root, reissue_update
from repro.data.schedules import FreshTupleSchedule, apply_round
from repro.data.synthetic import skewed_source
from repro.errors import QueryBudgetExhausted
from repro.hiddendb.database import reading_epoch
from repro.hiddendb.schema import Attribute, Schema
from repro.hiddendb.session import QuerySession
from repro.hiddendb.store import SortedKeyList
from tests.frontier_oracle import (
    ORACLES,
    oracle_drill_from_root,
    oracle_reissue_update,
    oracle_signature,
)
from tests.reference_plane import plane_scope

#: Keys fit int64 (packed runs and frozen int64 vectors) ...
NARROW = (2, 3, 5, 4, 3, 2)
#: ... and keys beyond int64 (Python-int runs, probe arrays, limbs).
WIDE = (8,) * 10 + (3, 5)

BACKENDS = ("blocked", "packed", "sharded", "mapped")
ALGORITHMS = tuple(ORACLES)


class _Churner:
    """An ``on_query`` hook: every charged query inserts four tuples and
    deletes four (seeded, so twin databases change identically) — heavy
    enough that remembered answers go stale within a round."""

    def __init__(self, db: HiddenDatabase):
        self.db = db
        self.rng = random.Random(29)

    def __call__(self) -> None:
        sizes = self.db.schema.domain_sizes
        for _ in range(4):
            self.db.insert(
                bytes(self.rng.randrange(size) for size in sizes),
                (round(self.rng.uniform(0.0, 100.0), 2),),
            )
        for tid in self.db.store.random_tids(self.rng, 4):
            self.db.delete(tid)


def _trace(algorithm, oracle, *, backend="blocked", plane="vectorized",
           domains=NARROW, budget=60, rounds=4, k=10, hook=False,
           pinned=False, **options):
    """Run ``rounds`` rounds of one estimator (or its oracle twin) with
    churn between rounds; return everything each round leaves behind."""
    with plane_scope(plane):
        source = skewed_source(
            domains, exponent=0.5, seed=11, measures=("m",),
            measure_sampler=lambda rng: (round(rng.uniform(0.0, 100.0), 2),),
        )
        db = HiddenDatabase(source.schema, backend=backend)
        db.insert_many(source.batch_columns(1500, distinct=False))
        interface = TopKInterface(db, k=k)
        count = count_all()
        specs = [count, sum_measure(db.schema, "m"), size_change(count)]
        estimator_class = ORACLES[algorithm][1 if oracle else 0]
        estimator = estimator_class(
            interface, specs, budget_per_round=budget, seed=3, **options
        )
        archive = estimator.attach_archive()
        if hook:
            estimator.on_query = _Churner(db)
        schedule = FreshTupleSchedule(
            source, inserts_per_round=40, delete_fraction=0.03
        )
        churn_rng = random.Random(17)
        trace = []
        for _ in range(rounds):
            if pinned:
                epoch = db.publish_epoch()
                with reading_epoch(db, epoch):
                    report = estimator.run_round()
            else:
                report = estimator.run_round()
            round_index = report.round_index
            trace.append({
                "report": report.to_dict(),
                "records": [
                    (r.signature, r.depth, r.last_round, r.contributions,
                     r.leaf_overflow)
                    for r in estimator.records
                ],
                "archive": [
                    (a.depth, a.probability, [t.tid for t in a.tuples],
                     a.leaf_overflow)
                    for a in archive._by_round.get(round_index, ())
                ],
                "stats": interface.stats.to_dict(),
                "rng": estimator.rng.getstate(),
            })
            apply_round(db, schedule, churn_rng)
            db.advance_round()
        return trace


def _assert_parity(algorithm, **kwargs):
    batched = _trace(algorithm, oracle=False, **kwargs)
    sequential = _trace(algorithm, oracle=True, **kwargs)
    for round_number, (got, want) in enumerate(zip(batched, sequential)):
        for key in want:
            assert got[key] == want[key], (round_number, key)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("plane", ["vectorized", "scalar"])
@pytest.mark.parametrize("domains", [NARROW, WIDE], ids=["narrow", "wide"])
def test_backends_and_planes(algorithm, backend, plane, domains):
    _assert_parity(algorithm, backend=backend, plane=plane, domains=domains)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("backend", ["blocked", "packed"])
@pytest.mark.parametrize("domains", [NARROW, WIDE], ids=["narrow", "wide"])
def test_epoch_pinned_rounds(algorithm, backend, domains):
    _assert_parity(algorithm, backend=backend, domains=domains, pinned=True)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("parent_check", ["strict", "lazy"])
@pytest.mark.parametrize("cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("hook", [False, True], ids=["nohook", "hook"])
def test_parent_check_cache_and_hooks(algorithm, parent_check, cache, hook):
    _assert_parity(
        algorithm, parent_check=parent_check, cache_within_round=cache,
        hook=hook, rounds=5,
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("budget", [1, 2, 3, 7, 500])
def test_budget_cuts(algorithm, budget):
    _assert_parity(algorithm, budget=budget, rounds=5)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("budget", [2, 7])
def test_budget_cuts_with_hooks_and_cache(algorithm, budget):
    _assert_parity(
        algorithm, budget=budget, rounds=5, hook=True, cache_within_round=True
    )


class TestSingleWalks:
    """``drill_from_root`` / ``reissue_update`` are plans of one walk."""

    @pytest.fixture
    def db(self):
        source = skewed_source(NARROW, exponent=0.5, seed=4)
        db = HiddenDatabase(source.schema)
        db.insert_many(source.batch_columns(800, distinct=False))
        return db

    def _session(self, db, budget):
        return QuerySession(TopKInterface(db, k=5), budget=budget)

    @pytest.mark.parametrize("budget", [1, 2, 3, None])
    @pytest.mark.parametrize("start", [0, 2, 4, 6])
    @pytest.mark.parametrize("mode", ["strict", "lazy"])
    def test_cut_mid_walk_charges_the_same(self, db, budget, start, mode):
        tree = QueryTree(db.schema)
        signatures = [oracle_signature(tree, random.Random(seed))
                      for seed in range(12)]
        for signature in signatures:
            outcomes = []
            for walk in (reissue_update, oracle_reissue_update):
                session = self._session(db, budget)
                try:
                    outcome = walk(session, tree, signature, start, mode)
                    summary = (outcome.depth, outcome.queries_spent,
                               outcome.leaf_overflow, outcome.result.status)
                except QueryBudgetExhausted:
                    summary = "cut"
                outcomes.append(
                    (summary, session.queries_used,
                     session.interface.stats.to_dict())
                )
            assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("budget", [1, 2, 4, None])
    def test_drill_from_root_matches(self, db, budget):
        tree = QueryTree(db.schema)
        for seed in range(12):
            signature = oracle_signature(tree, random.Random(seed))
            outcomes = []
            for walk in (drill_from_root, oracle_drill_from_root):
                session = self._session(db, budget)
                try:
                    outcome = walk(session, tree, signature)
                    summary = (outcome.depth, outcome.queries_spent,
                               outcome.leaf_overflow)
                except QueryBudgetExhausted:
                    summary = "cut"
                outcomes.append((summary, session.queries_used))
            assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("size", range(1, 65))
def test_random_signatures_match_randrange(size):
    """Same stream and final RNG state as repeated ``random_signature``
    (``randrange``) calls, for every domain size from 1 to 64."""
    schema = Schema([
        Attribute(f"A{i}", other)
        for i, other in enumerate((size, 2, size, 7))
    ])
    tree = QueryTree(schema)
    batched, sequential = random.Random(size), random.Random(size)
    signatures = tree.random_signatures(batched, 25)
    expected = [oracle_signature(tree, sequential) for _ in range(25)]
    assert signatures == expected
    assert batched.getstate() == sequential.getstate()
    assert tree.random_signature(batched) == oracle_signature(tree, sequential)
    assert batched.getstate() == sequential.getstate()


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 60)),
        st.tuples(st.just("remove"), st.integers(0, 60)),
        st.tuples(st.just("bulk_add"), st.lists(st.integers(0, 60),
                                                max_size=30)),
        st.tuples(st.just("bulk_remove"), st.integers(0, 30)),
        st.tuples(st.just("freeze"), st.none()),
        st.tuples(st.just("query"), st.tuples(st.integers(-2, 63),
                                              st.integers(-2, 63))),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(operations=_OPS, block_size=st.integers(1, 6))
def test_blocked_rank_matches_brute_force(operations, block_size):
    """``rank`` / ``count_range`` / ``count_ranges`` of the blocked engine
    equal a brute-force count across interleaved mutations and freezes
    (the cumulative block offsets must follow every change)."""
    keys = SortedKeyList(block_size=block_size)
    truth: list[int] = []
    rng = random.Random(len(operations))
    for operation, argument in operations:
        if operation == "add":
            keys.add(argument)
            truth.append(argument)
        elif operation == "remove":
            if argument in truth:
                keys.remove(argument)
                truth.remove(argument)
        elif operation == "bulk_add":
            keys.bulk_add(argument)
            truth.extend(argument)
        elif operation == "bulk_remove":
            victims = rng.sample(truth, min(argument, len(truth)))
            keys.bulk_remove(victims)
            for victim in victims:
                truth.remove(victim)
        elif operation == "freeze":
            keys.freeze()
        else:
            lo, hi = argument
            ordered = sorted(truth)
            assert keys.rank(lo) == bisect_left(ordered, lo)
            expected = sum(1 for key in truth if lo <= key < hi)
            assert keys.count_range(lo, hi) == expected
            assert keys.count_ranges([lo, hi], [hi, lo]) == [
                expected, sum(1 for key in truth if hi <= key < lo)
            ]
        keys.check_invariants()
        probes = list(range(-1, 63, 7))
        ordered = sorted(truth)
        assert [keys.rank(probe) for probe in probes] == [
            bisect_left(ordered, probe) for probe in probes
        ]
