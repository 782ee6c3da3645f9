"""Property tests: ``top_k_select`` must equal ``top_k_by_score``.

The columnar query plane selects pages with an ``np.argpartition`` +
lexsort pass over score/tid vectors; the reference plane
(``tests/reference_plane.py``) uses a heap over
``(-score, tid)`` keys.  Both must implement the same total order — score
descending, tid ascending — for every score distribution hypothesis can
throw at them: heavy ties, duplicated scores, signed zeros, k = 0, k >= n.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hiddendb.result import top_k_select
from repro.hiddendb.tuples import HiddenTuple
from tests.reference_plane import top_k_by_score


def _tuples_from(scores):
    return [
        HiddenTuple(tid, b"\x00", (), score)
        for tid, score in enumerate(scores)
    ]


#: Finite scores drawn from a tiny pool to force ties, plus free floats.
score_lists = st.one_of(
    st.lists(
        st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 1.0, 2.0]),
        max_size=60,
    ),
    st.lists(
        st.floats(
            min_value=-1e12,
            max_value=1e12,
            allow_nan=False,
            allow_infinity=False,
        ),
        max_size=60,
    ),
)


@given(scores=score_lists, k=st.integers(min_value=0, max_value=80))
@settings(max_examples=300, deadline=None)
def test_select_matches_heap_oracle(scores, k):
    tuples = _tuples_from(scores)
    oracle = top_k_by_score(tuples, k)
    order = top_k_select(
        np.asarray(scores, dtype=np.float64),
        np.arange(len(scores), dtype=np.int64),
        k,
    )
    assert [t.tid for t in oracle] == order.tolist()


@given(scores=score_lists, k=st.integers(min_value=0, max_value=80))
@settings(max_examples=200, deadline=None)
def test_tie_break_invariant(scores, k):
    """The page is strictly sorted by (-score, tid) — a total order."""
    order = top_k_select(
        np.asarray(scores, dtype=np.float64),
        np.arange(len(scores), dtype=np.int64),
        k,
    )
    page = [(-scores[row], row) for row in order]
    assert page == sorted(page)
    assert len(set(order.tolist())) == len(order)  # no row twice
    assert len(order) == min(k, len(scores))


@given(
    scores=st.lists(
        st.sampled_from([0.0, 1.0, 2.0]), min_size=1, max_size=40
    ),
    k=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=200, deadline=None)
def test_shuffled_tids_do_not_change_the_page(scores, k):
    """Candidate order is irrelevant: shuffling rows yields the same page."""
    n = len(scores)
    rng = np.random.default_rng(0)
    permutation = rng.permutation(n)
    scores_arr = np.asarray(scores, dtype=np.float64)
    tids = np.arange(n, dtype=np.int64)
    baseline = tids[top_k_select(scores_arr, tids, k)]
    shuffled = tids[permutation][
        top_k_select(scores_arr[permutation], tids[permutation], k)
    ]
    assert baseline.tolist() == shuffled.tolist()


def test_k_zero_and_empty_inputs():
    empty = top_k_select(np.empty(0), np.empty(0, dtype=np.int64), 5)
    assert empty.tolist() == []
    zero_k = top_k_select(
        np.array([1.0, 2.0]), np.array([0, 1], dtype=np.int64), 0
    )
    assert zero_k.tolist() == []
    assert top_k_by_score(_tuples_from([1.0, 2.0]), 0) == []


def test_k_at_least_n_returns_full_sort():
    scores = [1.0, 3.0, 3.0, 2.0]
    order = top_k_select(
        np.asarray(scores), np.arange(4, dtype=np.int64), 10
    )
    assert order.tolist() == [1, 2, 3, 0]
    assert [t.tid for t in top_k_by_score(_tuples_from(scores), 10)] == [
        1, 2, 3, 0,
    ]
