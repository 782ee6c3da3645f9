"""Unit and property tests for the mixed-radix prefix index."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Attribute, Schema, SchemaError
from repro.hiddendb.store import PrefixIndex
from repro.hiddendb.tuples import make_tuple


@pytest.fixture
def index(small_schema):
    return PrefixIndex(small_schema, (0, 1, 2), block_size=8)


class TestEncoding:
    def test_order_must_be_permutation(self, small_schema):
        with pytest.raises(SchemaError):
            PrefixIndex(small_schema, (0, 1))
        with pytest.raises(SchemaError):
            PrefixIndex(small_schema, (0, 1, 1))

    def test_encode_monotone_in_order(self, index):
        a = index.encode(make_tuple(0, [0, 0, 0]))
        b = index.encode(make_tuple(0, [0, 0, 1]))
        c = index.encode(make_tuple(0, [0, 1, 0]))
        d = index.encode(make_tuple(0, [1, 0, 0]))
        assert a < b < c < d

    def test_tid_breaks_ties(self, index):
        a = index.encode(make_tuple(3, [1, 2, 3]))
        b = index.encode(make_tuple(4, [1, 2, 3]))
        assert a < b

    def test_prefix_range_nesting(self, index):
        outer = index.prefix_range([1])
        inner = index.prefix_range([1, 2])
        assert outer[0] <= inner[0] < inner[1] <= outer[1]

    def test_root_range_covers_everything(self, index):
        lo, hi = index.prefix_range([])
        full = index.encode(make_tuple(123, [1, 2, 3]))
        assert lo <= full < hi

    def test_respects_custom_order(self, small_schema):
        index = PrefixIndex(small_schema, (2, 0, 1))
        # First attribute of the order is "kind" (index 2).
        a = index.encode(make_tuple(0, [1, 2, 0]))
        b = index.encode(make_tuple(0, [0, 0, 1]))
        assert a < b  # kind=0 sorts before kind=1 regardless of the rest


class TestCounting:
    def test_count_and_iter_match_naive(self, small_schema):
        rng = random.Random(3)
        index = PrefixIndex(small_schema, (0, 1, 2), block_size=8)
        tuples = []
        for tid in range(200):
            t = make_tuple(tid, [rng.randrange(2), rng.randrange(3),
                                 rng.randrange(4)])
            tuples.append(t)
            index.add(t)
        for prefix in ([], [0], [1], [1, 2], [0, 1, 3], [1, 0, 0]):
            expected = [
                t.tid
                for t in tuples
                if all(t.values[i] == v for i, v in enumerate(prefix))
            ]
            assert index.count_prefix(prefix) == len(expected)
            node = index.node_of(prefix)
            assert sorted(index.iter_node_tids(*node)) == sorted(expected)
            # Array-native variant: same tids, same (key) order.
            assert index.node_tids(*node).tolist() == list(
                index.iter_node_tids(*node)
            )

    def test_range_tids_wide_keys(self):
        """Schemas whose keys exceed int64 use the per-key modulo path."""
        schema = Schema([Attribute(f"a{i}", 7) for i in range(30)])
        index = PrefixIndex(schema, tuple(range(30)))
        assert not index.codec.fits_int64
        rng = random.Random(5)
        tuples = [
            make_tuple(tid, [rng.randrange(7) for _ in range(30)])
            for tid in range(50)
        ]
        for t in tuples:
            index.add(t)
        for prefix in ([], [3], [3, 1]):
            node = index.node_of(prefix)
            assert index.node_tids(*node).tolist() == list(
                index.iter_node_tids(*node)
            )

    def test_remove_updates_counts(self, small_schema):
        index = PrefixIndex(small_schema, (0, 1, 2))
        t = make_tuple(9, [1, 1, 1])
        index.add(t)
        assert index.count_prefix([1]) == 1
        index.remove(t)
        assert index.count_prefix([1]) == 0
        assert len(index) == 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 1), st.integers(0, 2), st.integers(0, 3)
        ),
        max_size=80,
    ),
    st.permutations([0, 1, 2]),
    st.lists(st.integers(0, 3), max_size=3),
)
def test_prefix_count_matches_filter(rows, order, raw_prefix):
    """Counts through the index equal naive filtering, any attr order."""
    schema = Schema(
        [Attribute("a", 2), Attribute("b", 3), Attribute("c", 4)]
    )
    index = PrefixIndex(schema, order, block_size=4)
    tuples = [make_tuple(tid, list(row)) for tid, row in enumerate(rows)]
    for t in tuples:
        index.add(t)
    # Clip the prefix to valid values for the ordered attributes.
    sizes = [schema.attributes[a].size for a in order]
    prefix = [v % sizes[i] for i, v in enumerate(raw_prefix)]
    expected = [
        t.tid
        for t in tuples
        if all(t.values[order[i]] == v for i, v in enumerate(prefix))
    ]
    assert index.count_prefix(prefix) == len(expected)
    assert sorted(index.iter_node_tids(*index.node_of(prefix))) == sorted(
        expected
    )
