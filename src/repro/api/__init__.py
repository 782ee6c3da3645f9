"""``repro.api`` — the unified public facade.

One config object (:class:`EngineConfig`), one service boundary
(:class:`Engine`), and symmetric registries for storage backends and
estimators.  The CLI, the experiment harness, and the figure drivers are
thin clients of this module; everything here is importable as::

    from repro.api import Engine, EngineConfig, EstimationTask

Extension points:

* :func:`register_estimator` — ship a new estimation algorithm under a
  public name (see :mod:`repro.extensions.counts` for a worked example
  that adapts the interface before constructing its estimator).
* :func:`register_backend` — ship a new storage engine behind the prefix
  indexes (see :mod:`repro.hiddendb.backends`).
"""

from ..core.estimators.registry import (
    available_estimators,
    register_estimator,
    resolve_estimator,
)
from ..hiddendb.backends import (
    available_backends,
    get_default_backend,
    get_default_backend_options,
    register_backend,
    set_default_backend,
    set_default_backend_options,
    using_backend,
    using_backend_options,
)
from ..obs import (
    OBS,
    get_default_observability,
    set_default_observability,
    using_observability,
)
from ..tuning import (
    CostModel,
    TuningController,
    TuningDecision,
    WorkloadProfile,
)
from .config import (
    ROUND_EXECUTORS,
    SEED_POLICIES,
    EngineConfig,
    get_default_parallelism,
    set_default_parallelism,
    using_parallelism,
)
from .engine import GAP_TASK, Engine, EstimationTask, ReportGap, TaskHandle
from .persistence import has_snapshot, load_engine, save_engine

__all__ = [
    "Engine",
    "EngineConfig",
    "EstimationTask",
    "GAP_TASK",
    "ROUND_EXECUTORS",
    "ReportGap",
    "SEED_POLICIES",
    "TaskHandle",
    "OBS",
    "CostModel",
    "TuningController",
    "TuningDecision",
    "WorkloadProfile",
    "has_snapshot",
    "load_engine",
    "save_engine",
    "available_backends",
    "available_estimators",
    "get_default_backend",
    "get_default_backend_options",
    "get_default_observability",
    "get_default_parallelism",
    "register_backend",
    "register_estimator",
    "resolve_estimator",
    "set_default_backend",
    "set_default_backend_options",
    "set_default_observability",
    "set_default_parallelism",
    "using_backend",
    "using_backend_options",
    "using_observability",
    "using_parallelism",
]
