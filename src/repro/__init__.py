"""repro — Aggregate Estimation Over Dynamic Hidden Web Databases.

A faithful, self-contained reproduction of Liu, Thirumuruganathan, Zhang &
Das (VLDB 2014): estimate and track COUNT / SUM / AVG aggregates over a
database hidden behind a restrictive top-k search interface with a per-round
query budget, while the database changes between rounds.

Quick start (the :mod:`repro.api` facade)::

    from repro.api import Engine, EngineConfig, EstimationTask
    from repro import count_all
    from repro.data import autos_snapshot

    schema, payloads = autos_snapshot(total=20_000, seed=7)
    engine = Engine(
        EngineConfig(k=100, budget_per_round=300, seed=7), schema=schema
    )
    engine.load(payloads[:18_000])
    engine.submit(EstimationTask("census", [count_all()], estimator="RS"))
    report = engine.run_round()["census"]
    print(report.estimates["count"], "vs truth", len(engine.db))

The pre-facade entry points (building ``HiddenDatabase`` /
``TopKInterface`` / estimator classes by hand, ``Experiment`` kwargs)
remain supported and produce bit-identical estimates — see the migration
table in the README.
"""

from .api import (
    Engine,
    EngineConfig,
    EstimationTask,
    available_estimators,
    register_estimator,
    resolve_estimator,
)
from .core import (
    AggregateSpec,
    EstimatorBase,
    QueryTree,
    RatioSpec,
    ReissueEstimator,
    RestartEstimator,
    RoundReport,
    RsEstimator,
    RunningAverageSpec,
    SizeChangeSpec,
    avg_measure,
    count_all,
    count_where,
    proportion_where,
    running_average,
    size_change,
    sum_measure,
)
from .errors import (
    EstimationError,
    ExperimentError,
    QueryBudgetExhausted,
    QueryError,
    ReproError,
    SchemaError,
)
from .hiddendb import (
    Attribute,
    ConjunctiveQuery,
    HiddenDatabase,
    HiddenTuple,
    QueryResult,
    QuerySession,
    QueryStatus,
    Schema,
    TopKInterface,
    available_backends,
    boolean_schema,
    get_default_backend,
    set_default_backend,
    using_backend,
)

__version__ = "1.1.0"

__all__ = [
    "AggregateSpec",
    "Attribute",
    "ConjunctiveQuery",
    "Engine",
    "EngineConfig",
    "EstimationError",
    "EstimationTask",
    "EstimatorBase",
    "ExperimentError",
    "HiddenDatabase",
    "HiddenTuple",
    "QueryBudgetExhausted",
    "QueryError",
    "QueryResult",
    "QuerySession",
    "QueryStatus",
    "QueryTree",
    "RatioSpec",
    "ReissueEstimator",
    "ReproError",
    "RestartEstimator",
    "RoundReport",
    "RsEstimator",
    "RunningAverageSpec",
    "Schema",
    "SchemaError",
    "SizeChangeSpec",
    "TopKInterface",
    "available_backends",
    "available_estimators",
    "avg_measure",
    "boolean_schema",
    "count_all",
    "count_where",
    "get_default_backend",
    "proportion_where",
    "register_estimator",
    "resolve_estimator",
    "running_average",
    "set_default_backend",
    "size_change",
    "sum_measure",
    "using_backend",
    "__version__",
]
