"""The paper's contribution: drill-down machinery and the three estimators."""

from .aggregates import (
    AggregateSpec,
    RatioSpec,
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
from .allocation import GroupParams, combined_variance, integer_allocation, waterfill
from .drilldown import DrillOutcome, drill_from_root, reissue_update
from .estimators import (
    EstimatorBase,
    ReissueEstimator,
    RestartEstimator,
    RoundReport,
    RsEstimator,
    available_estimators,
    register_estimator,
    resolve_estimator,
)
from .theory import (
    reissue_beats_restart,
    reissue_error_ratio_bound,
    restart_expected_cost_lower_bound,
)
from .tree import QueryTree

__all__ = [
    "AggregateSpec",
    "DrillOutcome",
    "EstimatorBase",
    "GroupParams",
    "QueryTree",
    "RatioSpec",
    "ReissueEstimator",
    "RestartEstimator",
    "RoundReport",
    "RsEstimator",
    "RunningAverageSpec",
    "SizeChangeSpec",
    "available_estimators",
    "avg_measure",
    "combined_variance",
    "count_all",
    "count_where",
    "drill_from_root",
    "integer_allocation",
    "proportion_where",
    "register_estimator",
    "reissue_beats_restart",
    "reissue_error_ratio_bound",
    "reissue_update",
    "resolve_estimator",
    "restart_expected_cost_lower_bound",
    "running_average",
    "size_change",
    "sum_measure",
    "waterfill",
]
