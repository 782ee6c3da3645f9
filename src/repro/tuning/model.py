"""The cost model: score candidate engine configs against a workload.

Everything here is a *pure function* of its inputs — no wall clock, no
randomness, no hidden process state — so the controller's decision
sequence replays exactly from a recorded profile stream (the determinism
contract tested in ``tests/test_tuning.py``).

Inputs
------
* A :class:`WorkloadProfile` — the observed store-size/churn/query shape
  of a window of rounds, gathered by the engine from its own counters
  plus a windowed :meth:`repro.obs.MetricsRegistry.delta` snapshot.
* Per-backend **cost signatures**
  (:data:`repro.hiddendb.backends.BACKEND_COST_SIGNATURES`) — unitless
  ratios describing how each storage engine's probe, bulk-maintenance
  and fixed per-round costs relate.
* **Priors** — relative wall times of the shipped backends on the fig-12
  workload, used to scale the signatures toward reality:
  :data:`DEFAULT_PRIORS`, or :func:`priors_from_baselines` over an
  explicitly given baselines payload.

The scored quantity is an abstract *probe-equivalent cost per round*:

``queries x probe x log2(n) / round_workers``  (rank probes are
logarithmic in the run length, and independent tenants fan out across
round workers) ``+ churn x bulk_per_row x (1 + delete_penalty x
delete_share) / maintenance_workers`` (bulk merges are linear in churned
rows, delete-heavy mixes cost extra on layouts that compact, and only
the sharded engine divides the work across workers) ``+ round_fixed``
(per-shard dispatch overhead for the sharded engine, flat fsync overhead
for the mapped engine).

Absolute values are meaningless; only the *ordering* of candidates
matters, plus the ratio the controller's hysteresis threshold is applied
to.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Mapping, Sequence

from ..errors import ExperimentError
from ..hiddendb.backends import (
    BACKEND_COST_SIGNATURES,
    available_backends,
)

#: Per-backend priors (relative wall time, min-normalized to 1.0): what
#: :func:`priors_from_baselines` derived from the shipped
#: ``benchmarks/baselines.json`` when these were fixed in code, so a
#: model's decisions never depend on the working directory.
DEFAULT_PRIORS: dict[str, float] = {
    "blocked": 1.0,
    "packed": 0.95,
    "sharded": 1.2,
    "mapped": 3.3,
}

#: Baselines.json key pairs whose walls measure the *same* workload on
#: two backends (raw fig-12 loop for blocked/packed; engine-at-scale for
#: sharded/mapped).  Only within-pair ratios are comparable — the pairs
#: run different harnesses, so their absolute walls must never be
#: compared against each other.
_BASELINE_RATIO_PAIRS: tuple[tuple[str, str, str, str], ...] = (
    ("packed", "fig12_packed", "blocked", "fig12_blocked"),
    ("mapped", "mapped_fig12", "sharded", "sharded_fig12"),
)


def priors_from_baselines(source: str | Mapping) -> dict[str, float]:
    """Per-backend relative cost priors from a baselines payload.

    ``source`` is a path to a ``baselines.json`` or an already-parsed
    mapping; an unreadable file yields :data:`DEFAULT_PRIORS`.

    Starts from :data:`DEFAULT_PRIORS` and refines it with measured
    *within-pair* wall ratios (:data:`_BASELINE_RATIO_PAIRS`): e.g. the
    packed prior becomes the blocked prior scaled by the measured
    packed/blocked wall ratio.  Ratios are clamped to a sane band so one
    stale outlier baseline nudges rather than dominates; pairs without
    both walls keep the defaults.  Deterministic: same payload, same
    priors.
    """
    payload: Mapping | None = None
    if isinstance(source, Mapping):
        payload = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = None
    priors = dict(DEFAULT_PRIORS)
    if not payload:
        return priors

    def _wall(key: str) -> float | None:
        entry = payload.get(key)
        if isinstance(entry, Mapping):
            wall = entry.get("wall_seconds")
            if isinstance(wall, (int, float)) and wall > 0:
                return float(wall)
        return None

    for backend, key, anchor, anchor_key in _BASELINE_RATIO_PAIRS:
        wall, anchor_wall = _wall(key), _wall(anchor_key)
        if wall is None or anchor_wall is None:
            continue
        # Clamp: baselines are coarse (runner speed, harness drift), so
        # a measured ratio nudges the defaults rather than dominating.
        ratio = max(0.5, min(4.0, wall / anchor_wall))
        priors[backend] = priors.get(anchor, 1.0) * ratio
    return priors


@dataclasses.dataclass(frozen=True)
class WorkloadProfile:
    """The observed workload shape of a window of rounds.

    All fields are plain numbers so a profile can be recorded, shipped as
    JSON, and replayed through the model bit-identically.

    ``store_size`` is the live tuple count at observation time;
    ``churn_per_round`` the average mutated rows (inserts + deletes) per
    round in the window; ``delete_share`` the deleted fraction of that
    churn; ``queries_per_round`` the average top-k queries the tenants
    spent per round; ``tenants`` the active task count; ``rounds`` how
    many rounds the window covered (0 = cold start, priors only).
    """

    store_size: int = 0
    churn_per_round: float = 0.0
    delete_share: float = 0.0
    queries_per_round: float = 0.0
    tenants: int = 0
    rounds: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "WorkloadProfile":
        known = {field.name for field in dataclasses.fields(cls)}
        return cls(**{
            key: value for key, value in payload.items() if key in known
        })


@dataclasses.dataclass(frozen=True)
class Candidate:
    """One scoreable engine configuration."""

    backend: str
    shards: int | None = None
    parallelism: int = 1

    def backend_options(self) -> dict:
        """The factory options this candidate implies (mirrors
        :meth:`repro.api.EngineConfig.backend_factory_options`)."""
        if self.backend != "sharded":
            return {}
        options: dict = {}
        if self.shards is not None:
            options["shards"] = self.shards
        if self.parallelism > 1:
            options["workers"] = self.parallelism
        return options

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class CostModel:
    """Scores :class:`Candidate` configs for a :class:`WorkloadProfile`.

    ``priors`` maps backend name to a relative wall-time factor
    (default :data:`DEFAULT_PRIORS`; see :func:`priors_from_baselines`);
    ``signatures`` defaults to the
    registry-backed :data:`BACKEND_COST_SIGNATURES`.  Instances are
    immutable in practice — nothing here mutates after construction — so
    one model can serve every decision of a controller.
    """

    def __init__(
        self,
        priors: Mapping[str, float] | None = None,
        signatures: Mapping[str, Mapping] | None = None,
    ):
        self.priors = dict(
            priors if priors is not None else DEFAULT_PRIORS
        )
        self.signatures = {
            name: dict(signature)
            for name, signature in (
                signatures if signatures is not None
                else BACKEND_COST_SIGNATURES
            ).items()
        }

    def score(self, candidate: Candidate, profile: WorkloadProfile) -> float:
        """Predicted probe-equivalent cost per round (lower is better)."""
        signature = self.signatures.get(candidate.backend)
        if signature is None:
            raise ExperimentError(
                f"no cost signature for backend {candidate.backend!r}; "
                f"available: {', '.join(sorted(self.signatures))}"
            )
        prior = float(self.priors.get(candidate.backend, 1.0))
        n = max(2, profile.store_size)
        depth = math.log2(n)
        queries = max(profile.queries_per_round, 1.0)
        # Independent tenants fan out across round workers; one tenant
        # gains nothing from extra workers.
        round_workers = max(1, min(candidate.parallelism,
                                   max(1, profile.tenants)))
        query_cost = queries * signature["probe"] * prior * depth
        query_cost /= round_workers
        churn = profile.churn_per_round
        maintenance = churn * signature["bulk_per_row"] * prior
        shards = candidate.shards or 1
        if signature.get("parallel_maintenance"):
            # The sharded engine splits bulk merges across its shards and
            # dispatches them on up to ``workers`` threads.
            maintenance /= max(1, min(shards, candidate.parallelism))
            fixed = signature["round_fixed"] * shards
        else:
            fixed = signature["round_fixed"]
        # Deletions dirty the dead-buffer path (tombstone subtract on the
        # next merge); dense layouts additionally compact, so the penalty
        # is per-backend.
        maintenance *= (
            1.0 + signature.get("delete_penalty", 0.5) * profile.delete_share
        )
        return query_cost + maintenance + fixed

    def rank(
        self,
        candidates: Sequence[Candidate],
        profile: WorkloadProfile,
    ) -> list[tuple[float, Candidate]]:
        """All candidates scored and sorted, best (lowest cost) first.

        Ties break on the candidate's deterministic sort key (backend
        name, shard count, parallelism) — never on input order — so the
        ranking is a pure function of the candidate *set*.
        """
        scored = [
            (self.score(candidate, profile), candidate)
            for candidate in candidates
        ]
        scored.sort(key=lambda pair: (
            pair[0], pair[1].backend, pair[1].shards or 0,
            pair[1].parallelism,
        ))
        return scored


def default_candidates(
    cpu_budget: int,
    pinned: Mapping | None = None,
) -> list[Candidate]:
    """The candidate grid the controller searches.

    Backends come from the registry intersected with the signature table
    (an extension backend without a signature cannot be scored, so it is
    only ever *chosen* by pinning it).  Shard counts are powers of two up
    to ``cpu_budget``; parallelism is 1 or the cpu budget.  ``pinned``
    maps field name (``backend`` / ``shards`` / ``parallelism``) to a
    required value — the grid then only contains matching candidates, so
    an explicitly configured knob is never overridden.
    """
    pinned = dict(pinned or {})
    cpu_budget = max(1, int(cpu_budget))
    backends = [
        name for name in available_backends()
        if name in BACKEND_COST_SIGNATURES
    ]
    if "backend" in pinned:
        backends = [name for name in backends if name == pinned["backend"]]
    if pinned.get("shards") is not None:
        # A pinned shard count only makes sense on the sharded engine
        # (EngineConfig validates the same way).
        backends = [name for name in backends if name == "sharded"]
    shard_counts = [2]
    while shard_counts[-1] * 2 <= max(2, cpu_budget):
        shard_counts.append(shard_counts[-1] * 2)
    if "shards" in pinned and pinned["shards"] is not None:
        shard_counts = [pinned["shards"]]
    widths = sorted({1, cpu_budget})
    if "parallelism" in pinned and pinned["parallelism"] is not None:
        widths = [pinned["parallelism"]]
    candidates: list[Candidate] = []
    for backend in backends:
        for width in widths:
            if backend == "sharded":
                for shards in shard_counts:
                    candidates.append(Candidate(backend, shards, width))
            else:
                candidates.append(Candidate(backend, None, width))
    return candidates
