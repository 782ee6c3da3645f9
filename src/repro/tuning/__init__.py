"""``repro.tuning`` — cost-based self-tuning of the engine's knobs.

The reproduction exposes four storage backends x
shard/worker/overlap knobs, all hand-picked until now.  This package
closes the loop (ROADMAP open item 5): a :class:`CostModel` scores
candidate configs against the observed store-size/churn/query profile
(per-backend cost signatures from :mod:`repro.hiddendb.backends`, priors
measured on the fig-12 workload, live rates from the
:mod:`repro.obs` windowed delta snapshots), and a
:class:`TuningController` applies decisions at the engine's safe seams —
initial config at construction, online backend/shard migration at the
epoch-publish flip (:meth:`repro.hiddendb.store.TupleStore
.migrate_backend`: an O(n) rebuild that swaps in atomically, never
stop-the-world, never changes estimates).

Enable with ``EngineConfig(auto=True)`` (or ``repro-serve --auto``);
opt out per knob by pinning it explicitly, or entirely with
``auto=False``.  See ``docs/tuning.md``.
"""

from .controller import (
    ACTION_INITIAL,
    ACTION_KEEP,
    ACTION_MIGRATE,
    TuningController,
    TuningDecision,
)
from .model import (
    Candidate,
    CostModel,
    DEFAULT_PRIORS,
    WorkloadProfile,
    default_candidates,
    priors_from_baselines,
)

__all__ = [
    "ACTION_INITIAL",
    "ACTION_KEEP",
    "ACTION_MIGRATE",
    "Candidate",
    "CostModel",
    "DEFAULT_PRIORS",
    "TuningController",
    "TuningDecision",
    "WorkloadProfile",
    "default_candidates",
    "priors_from_baselines",
]
