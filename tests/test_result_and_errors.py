"""Coverage for result laziness, the error hierarchy, and package wiring."""

import pytest

import repro
from repro import (
    ConjunctiveQuery,
    EstimationError,
    ExperimentError,
    QueryBudgetExhausted,
    QueryError,
    ReproError,
    SchemaError,
)
from repro.hiddendb.result import QueryResult, QueryStatus
from repro.hiddendb.tuples import make_tuple
from tests.reference_plane import top_k_by_score


class TestLazyResults:
    def test_loader_called_once(self):
        calls = []

        def loader():
            calls.append(1)
            return [make_tuple(0, [0])]

        result = QueryResult(QueryStatus.OVERFLOW, k=1, loader=loader)
        assert len(result.tuples) == 1
        assert len(result.tuples) == 1
        assert len(calls) == 1

    def test_overflow_flag_without_materialisation(self):
        exploded = []
        result = QueryResult(
            QueryStatus.OVERFLOW, k=1, loader=lambda: exploded.append(1) or []
        )
        assert result.overflow
        assert not exploded  # reading the flag must not rank the page

    def test_eager_tuples(self):
        page = (make_tuple(0, [0]),)
        result = QueryResult(QueryStatus.VALID, k=5, tuples=page)
        assert result.tuples == page
        assert len(result) == 1

    def test_top_k_by_score_order(self):
        tuples = [
            make_tuple(0, [0], score=0.1),
            make_tuple(1, [0], score=0.9),
            make_tuple(2, [0], score=0.5),
        ]
        page = top_k_by_score(tuples, 2)
        assert [t.tid for t in page] == [1, 2]

    def test_top_k_tid_tiebreak(self):
        tuples = [make_tuple(i, [0], score=0.5) for i in (5, 1, 3)]
        page = top_k_by_score(tuples, 3)
        assert [t.tid for t in page] == [1, 3, 5]


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        (SchemaError, QueryError, QueryBudgetExhausted, EstimationError,
         ExperimentError),
    )
    def test_all_derive_from_repro_error(self, exc):
        if exc is QueryBudgetExhausted:
            instance = exc(5)
        else:
            instance = exc("boom")
        assert isinstance(instance, ReproError)

    def test_budget_error_carries_budget(self):
        error = QueryBudgetExhausted(42)
        assert error.budget == 42
        assert "42" in str(error)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackages_import(self):
        import repro.data
        import repro.experiments
        import repro.extensions
        import repro.marketplace

        assert repro.data.AUTOS_TOTAL_TUPLES
        assert repro.experiments.FIGURES
        assert repro.extensions.CountAssistedEstimator
        assert repro.marketplace.watch_schema

    def test_query_reexported(self):
        assert ConjunctiveQuery.root().num_predicates == 0
