"""One config object for every engine knob.

Before :mod:`repro.api`, the knobs of a simulation were threaded ad hoc:
``backend=`` kwargs, an interface ``k`` here, a ``budget_per_round``
there, and environment variables (the benchmarks'
``REPRO_BENCH_BACKEND``) that could silently override program decisions.
:class:`EngineConfig` consolidates them with one documented precedence
order, highest first:

1. **Explicit config field** — a non-``None`` value on the
   :class:`EngineConfig` an :class:`~repro.api.engine.Engine` was built
   with (or a per-task override on an
   :class:`~repro.api.engine.EstimationTask`).
2. **Process-wide programmatic default** — ``set_default_backend`` /
   ``set_default_parallelism`` / ``set_default_observability`` (or their
   scoped ``using_*`` twins).
3. **Environment variable** — ``REPRO_OBS`` for the observability plane.
   Environment variables are *defaults only*: they never override
   levels 1–2.
4. **Built-in default** — ``blocked`` storage, sequential rounds,
   observability off.

``REPRO_BENCH_BACKEND`` remains a benchmarks-harness convenience (it calls
``set_default_backend`` at level 2) and is not consulted by the library.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from typing import Iterator
from zlib import crc32

from ..errors import ExperimentError, SchemaError
from ..hiddendb.backends import (
    DEFAULT_BLOCK_SIZE,
    get_default_backend,
    resolve_backend,
    using_backend,
    using_backend_options,
)
from ..obs import get_default_observability, using_observability

#: How per-task estimator seeds derive from :attr:`EngineConfig.seed` when
#: a task does not pin one explicitly.
SEED_POLICIES = ("per-task", "shared")

#: Executors ``run_round`` can fan active tasks out to when
#: ``parallelism > 1``: worker threads sharing the process (default), or
#: forked worker processes handing estimator state back over the strict-JSON
#: wire seam (POSIX fork platforms only).
ROUND_EXECUTORS = ("thread", "fork")

#: Process-wide default round parallelism (level 2 of the precedence
#: order); configs with ``parallelism=None`` resolve against it.
_default_parallelism = 1


def get_default_parallelism() -> int:
    """The worker count engines use when their config does not pin one."""
    return _default_parallelism


def set_default_parallelism(workers: int) -> int:
    """Set the process-wide default parallelism; returns the previous."""
    global _default_parallelism
    if workers < 1:
        raise ExperimentError("parallelism must be at least 1")
    previous = _default_parallelism
    _default_parallelism = workers
    return previous


@contextmanager
def using_parallelism(workers: int | None) -> Iterator[int]:
    """Scope the default parallelism (``None`` leaves it untouched)."""
    if workers is None:
        yield get_default_parallelism()
        return
    previous = set_default_parallelism(workers)
    try:
        yield workers
    finally:
        set_default_parallelism(previous)


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """Every knob of an estimation engine, in one JSON-serializable object.

    Parameters
    ----------
    backend:
        Storage backend behind every prefix index of the engine's
        database.  ``None`` defers to the process default
        (``set_default_backend``, built-in ``"blocked"``).
    k:
        Page size of the hidden database's top-k interface.
    budget_per_round:
        Default per-round query budget ``G`` a task receives when it does
        not pin its own ``budget`` or ``budget_share``.
    seed:
        Base seed of the engine's seed policy.
    seed_policy:
        ``"per-task"`` (default): each task's estimator seed is derived
        from ``seed`` and the task *name* (stable across runs and
        submission order).  ``"shared"``: every task uses ``seed``
        verbatim.  A task's explicit ``seed`` always wins.
    block_size:
        Storage-engine block/buffer tuning knob, threaded to the backend.
    shards:
        Shard count of the ``sharded`` storage backend (``None`` = the
        backend's default).  Only meaningful when the engine's database
        resolves to the sharded engine; setting it alongside an explicit
        non-sharded ``backend`` raises.
    parallelism:
        Worker threads :meth:`~repro.api.Engine.run_round` fans active
        tasks out to (and, on a sharded database, the per-shard bulk
        dispatch width).  ``1`` = sequential; results are bit-identical
        either way.  ``None`` defers to the process default
        (:func:`set_default_parallelism`, built-in ``1``).
    overlap:
        Enable the HTAP epoch split: ``advance_round`` publishes an
        immutable :class:`~repro.hiddendb.epoch.StoreEpoch` and
        ``run_round`` pins every estimator to it, so ``apply_updates``
        churn for the *next* round can run concurrently with this round's
        queries instead of serializing behind the round barrier.
        Estimates are bit-identical to sequential mode; the only
        behavioral difference is visibility — mutations reach estimators
        at the next publish flip rather than immediately.  Incompatible
        with tasks that install ``on_query`` hooks (the intra-round
        update model needs read-your-writes).
    round_executor:
        ``"thread"`` (default): round workers are threads.  ``"fork"``:
        with ``parallelism > 1``, each active task runs in a forked
        worker process against the fork-time copy-on-write snapshot and
        hands its report + estimator state back over the
        :mod:`repro.core.wire` strict-JSON seam.  Requires a platform
        with ``fork`` (raises at round time otherwise); results remain
        bit-identical.
    report_log_limit:
        Upper bound on retained reports: both the engine's execution-order
        log (drained by ``stream_reports()``) and each task's history on
        :class:`~repro.api.TaskHandle` drop their oldest entries past it.
        Budget accounting stays exact regardless (``budget_ledger()``
        reads O(1) counters).  ``None`` (default) keeps every report —
        bound it in long-running services.
    store_dir:
        Durable store directory (see :mod:`repro.api.persistence` and
        ``docs/format.md``).  ``Engine.save()`` defaults to it, and a
        ``mapped`` database lays its scratch run files under
        ``<store_dir>/runs`` instead of the system temp dir, so one
        directory holds everything the deployment writes.  ``None``
        (default) = no durable directory; snapshots then need an explicit
        path.
    observability:
        Enable the :mod:`repro.obs` metrics/tracing plane for engines
        built with this config (see ``docs/observability.md``).  ``None``
        defers to the process default
        (:func:`repro.obs.set_default_observability` > ``REPRO_OBS`` env
        var > off).  Estimates are bit-identical either way; enabling is
        engine-wide (the registry is process-global) and an engine never
        *disables* a registry another engine enabled.
    auto:
        Enable cost-based self-tuning (:mod:`repro.tuning`, see
        ``docs/tuning.md``): the engine picks backend / shard count /
        parallelism from a cost model at construction and re-evaluates at
        every ``advance_round``, migrating the store's indexes online at
        the epoch-publish seam when the observed profile shifts.
        Explicitly set fields (``backend``, ``shards``, ``parallelism``)
        act as pins the tuner never overrides — the per-knob opt-out.
        Estimates are bit-identical with tuning on or off; only wall
        time changes.
    """

    backend: str | None = None
    k: int = 100
    budget_per_round: int = 300
    seed: int = 0
    seed_policy: str = "per-task"
    block_size: int = DEFAULT_BLOCK_SIZE
    shards: int | None = None
    parallelism: int | None = None
    overlap: bool = False
    round_executor: str = "thread"
    report_log_limit: int | None = None
    store_dir: str | None = None
    observability: bool | None = None
    auto: bool = False

    def __post_init__(self) -> None:
        if self.observability is not None and not isinstance(
            self.observability, bool
        ):
            raise ExperimentError("observability must be a bool or None")
        if not isinstance(self.auto, bool):
            raise ExperimentError("auto must be a bool")
        if self.k < 1:
            raise ExperimentError("k must be at least 1")
        if self.budget_per_round < 1:
            raise ExperimentError("budget_per_round must be positive")
        if self.block_size < 2:
            raise ExperimentError("block_size must be at least 2")
        if self.shards is not None:
            if self.shards < 1:
                raise ExperimentError("shards must be at least 1")
            if self.backend is not None and self.backend != "sharded":
                raise ExperimentError(
                    "shards only applies to the 'sharded' backend, got "
                    f"backend={self.backend!r}"
                )
        if self.parallelism is not None and self.parallelism < 1:
            raise ExperimentError("parallelism must be at least 1")
        if self.report_log_limit is not None and self.report_log_limit < 1:
            raise ExperimentError("report_log_limit must be positive")
        if self.round_executor not in ROUND_EXECUTORS:
            raise ExperimentError(
                f"unknown round executor {self.round_executor!r}; "
                f"available: {', '.join(ROUND_EXECUTORS)}"
            )
        if self.seed_policy not in SEED_POLICIES:
            raise ExperimentError(
                f"unknown seed policy {self.seed_policy!r}; "
                f"available: {', '.join(SEED_POLICIES)}"
            )
        if self.backend is not None:
            try:
                resolve_backend(self.backend)
            except SchemaError as exc:
                # One exception surface for every bad config field.
                raise ExperimentError(str(exc)) from None

    # ------------------------------------------------------------------
    # Resolution against the process-wide defaults (precedence levels 2-4)
    # ------------------------------------------------------------------
    def resolved_backend(self) -> str:
        """The backend this config selects, after the precedence order."""
        return self.backend if self.backend is not None else (
            get_default_backend()
        )

    def resolved_parallelism(self) -> int:
        """The round parallelism, after the precedence order."""
        return self.parallelism if self.parallelism is not None else (
            get_default_parallelism()
        )

    def resolved_observability(self) -> bool:
        """Whether this config enables the observability plane, after the
        precedence order (explicit field > ``set_default_observability``
        > ``REPRO_OBS`` > off)."""
        return self.observability if self.observability is not None else (
            get_default_observability()
        )

    def backend_factory_options(self) -> dict:
        """The backend-specific factory options this config implies.

        The sharded engine takes its shard count and — so multi-core
        engines parallelize shard maintenance with the same knob that
        parallelizes their rounds — the bulk-dispatch worker width.  The
        mapped engine takes the directory its scratch run files live in:
        ``<store_dir>/runs`` when this config pins a ``store_dir``, so a
        durable deployment keeps every file it writes under one root.
        Raises rather than silently dropping ``shards`` when the
        *resolved* backend is not sharded (``__post_init__`` can only
        check an explicit ``backend`` field; the process default is known
        here, at engine build time).
        """
        resolved = self.resolved_backend()
        if resolved != "sharded":
            if self.shards is not None:
                raise ExperimentError(
                    f"shards={self.shards} requires the 'sharded' "
                    f"backend, but this engine resolves to "
                    f"{self.resolved_backend()!r}"
                )
            if resolved == "mapped" and self.store_dir is not None:
                return {"path": os.path.join(self.store_dir, "runs")}
            return {}
        options: dict = {}
        if self.shards is not None:
            options["shards"] = self.shards
        workers = self.resolved_parallelism()
        if workers > 1:
            options["workers"] = workers
        return options

    @contextmanager
    def apply(self) -> Iterator["EngineConfig"]:
        """Scope the active defaults to this config's explicit choices.

        ``None`` fields leave the corresponding default untouched, so
        wrapping legacy code in ``config.apply()`` is always safe.  A
        non-``None`` ``shards`` scopes the sharded engine's default
        options; a non-``None`` ``parallelism`` scopes the process
        default engines resolve against.
        """
        shard_options = (
            {"shards": self.shards} if self.shards is not None else None
        )
        with using_backend(self.backend), using_backend_options(
            "sharded", shard_options
        ), using_parallelism(self.parallelism), using_observability(
            self.observability
        ):
            yield self

    def task_seed(self, task_name: str, explicit: int | None = None) -> int:
        """The estimator seed for a named task under the seed policy."""
        if explicit is not None:
            return explicit
        if self.seed_policy == "shared":
            return self.seed
        # Stable, submission-order-independent derivation: the same
        # (config seed, task name) pair always yields the same stream.
        return self.seed + (crc32(task_name.encode("utf-8")) % 1_000_003)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def replace(self, **changes) -> "EngineConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """A strict-JSON-safe payload (with ``schema_version``);
        :meth:`from_dict` round-trips it."""
        from ..core.wire import stamp

        return stamp(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Forward tolerant (the wire versioning policy of
        :mod:`repro.core.wire`): unknown keys — fields added by a newer
        producer, plus ``schema_version`` itself — are ignored, and a
        payload without a version is read as the pre-versioning v0 form.
        Known fields still validate through ``__post_init__``, so
        tolerance never admits an invalid config.
        """
        known = {field.name for field in dataclasses.fields(cls)}
        return cls(**{
            key: value for key, value in payload.items() if key in known
        })
