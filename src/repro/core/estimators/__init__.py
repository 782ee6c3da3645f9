"""The three dynamic-aggregate estimators of the paper."""

from .base import DrillDownRecord, EstimatorBase, RoundReport
from .registry import (
    available_estimators,
    register_estimator,
    resolve_estimator,
)
from .reissue import ReissueEstimator
from .restart import RestartEstimator
from .rs import RsEstimator

register_estimator("RESTART", RestartEstimator)
register_estimator("REISSUE", ReissueEstimator)
register_estimator("RS", RsEstimator)

__all__ = [
    "DrillDownRecord",
    "EstimatorBase",
    "ReissueEstimator",
    "RestartEstimator",
    "RoundReport",
    "RsEstimator",
    "available_estimators",
    "register_estimator",
    "resolve_estimator",
]
