"""The engine facade: one hidden database, many estimation tenants.

The paper's setting is inherently multi-tenant — many analysts track their
own aggregates over one dynamic hidden database, each through their own
budgeted connection to the same top-k interface.  :class:`Engine` is that
service boundary:

* it owns the :class:`~repro.hiddendb.database.HiddenDatabase` and builds
  one :class:`~repro.hiddendb.interface.TopKInterface` per tenant (budget
  and query counters are per-tenant, the store is shared);
* tenants are named :class:`EstimationTask`\\ s — an estimator (resolved
  through the registry), the aggregates it tracks, and its budget share;
* the lifecycle is ``submit()`` → ``run_round()`` (every active task runs
  its round over the shared store) → ``apply_updates()`` /
  ``advance_round()`` → repeat, with ``stream_reports()`` draining the
  report log;
* three locks serialize the boundary: the *session lock* guards the task
  table and report log (``submit`` / ``cancel`` / ``stream_reports`` /
  ``budget_ledger`` — always short critical sections); the *round
  barrier* guards round execution (``run_round``); and the *write lock*
  guards store mutation (``apply_updates`` / ``load`` /
  ``advance_round``).  Sequentially (the default) writers take the round
  barrier too, so the store is round-static exactly as the paper's round
  model requires.  With ``EngineConfig(overlap=True)`` writers take only
  the write lock: ``run_round`` pins every estimator to the published
  :class:`~repro.hiddendb.epoch.StoreEpoch` (an immutable snapshot
  flipped in atomically by ``advance_round``), so round-boundary churn
  for round ``i+1`` overlaps round ``i``'s queries — the HTAP split.
  Estimates stay bit-identical; only *visibility* changes (mutations
  reach estimators at the next publish flip);
* within a round, tasks run over the round-static store (or the pinned
  epoch) — sequentially in submission order, or fanned out to a worker
  pool (``run_round(parallel=N)`` / ``EngineConfig.parallelism``), as
  threads or — ``EngineConfig(round_executor="fork")`` — as forked
  worker processes that hand their report + estimator state back over
  the :mod:`repro.core.wire` strict-JSON seam.  Each task owns its RNG,
  its interface counters, and its session, and the store is
  read-concurrent (see :class:`~repro.hiddendb.store.TupleStore`), so
  every schedule is bit-identical to the sequential one; reports are
  merged in deterministic submission order either way (see
  ``tests/test_engine_concurrency.py``).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Mapping, Sequence

from ..core.aggregates import AnySpec
from ..core.estimators.base import RoundReport
from ..core.estimators.registry import EstimatorFactory, resolve_estimator
from ..errors import (
    DuplicateTaskError,
    ExperimentError,
    UnknownTaskError,
    error_from_wire,
    wire_error,
)
from ..hiddendb.database import HiddenDatabase, reading_epoch
from ..hiddendb.epoch import StoreEpoch
from ..hiddendb.interface import TopKInterface
from ..hiddendb.ranking import RankingPolicy
from ..hiddendb.schema import Schema
from ..obs import OBS
from ..tuning import (
    ACTION_MIGRATE,
    Candidate,
    TuningController,
    WorkloadProfile,
)
from .config import EngineConfig

#: Task-name slot of the truncation markers ``stream_reports()`` yields
#: when ``report_log_limit`` eviction opened a gap in the replayed log.
GAP_TASK = "__gap__"

# Import-time observability handles (see repro.obs); per-task handles are
# created once per submit and cached on the TaskHandle.
_ROUNDS_TOTAL = OBS.counter("repro_rounds_total")
_ROUND_SECONDS = OBS.histogram("repro_round_seconds")
_WORKER_UTILIZATION = OBS.gauge("repro_worker_utilization")


@dataclasses.dataclass(frozen=True)
class ReportGap:
    """A truncation marker in the report stream: ``dropped`` reports were
    evicted (``report_log_limit``) between the previous yielded entry and
    the next one — the log is *not* contiguous across this marker."""

    dropped: int



def _describable(value):
    """``value`` if JSON can express it, else its repr (description only)."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, (list, tuple)):
        return [_describable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _describable(item) for key, item in value.items()}
    return repr(value)


class EstimationTask:
    """One tenant's estimation assignment.

    Parameters
    ----------
    name:
        Unique handle of the task within its engine.
    specs:
        The aggregates this tenant tracks.
    estimator:
        Registry name (``"RESTART"`` / ``"REISSUE"`` / ``"RS"`` / anything
        registered via :func:`~repro.core.estimators.registry
        .register_estimator`) or a factory callable.
    budget:
        Absolute per-round query budget; overrides the engine default.
    budget_share:
        Fraction of the engine's ``budget_per_round`` (mutually exclusive
        with ``budget``).
    seed:
        Explicit estimator seed; ``None`` derives one from the engine
        config's seed policy and the task name.
    options:
        Extra keyword arguments for the estimator factory
        (``parent_check=``, ``push_selection=``, ...).
    """

    __slots__ = ("name", "specs", "estimator", "budget", "budget_share",
                 "seed", "options")

    def __init__(
        self,
        name: str,
        specs: Sequence[AnySpec],
        estimator: str | EstimatorFactory = "RS",
        budget: int | None = None,
        budget_share: float | None = None,
        seed: int | None = None,
        options: Mapping | None = None,
    ):
        if not name:
            raise ExperimentError("task name must be non-empty")
        self.specs = list(specs)
        if not self.specs:
            raise ExperimentError("at least one aggregate spec is required")
        if budget is not None and budget_share is not None:
            raise ExperimentError(
                "budget and budget_share are mutually exclusive"
            )
        if budget is not None and budget < 1:
            raise ExperimentError("budget must be positive")
        if budget_share is not None and not 0.0 < budget_share <= 1.0:
            raise ExperimentError("budget_share must be in (0, 1]")
        self.name = name
        self.estimator = estimator
        self.budget = budget
        self.budget_share = budget_share
        self.seed = seed
        self.options = dict(options) if options else {}

    def budget_for(self, config: EngineConfig) -> int:
        """The per-round budget this task gets under an engine config."""
        if self.budget is not None:
            return self.budget
        if self.budget_share is not None:
            return max(1, round(config.budget_per_round * self.budget_share))
        return config.budget_per_round

    def to_dict(self) -> dict:
        """A JSON-safe description (estimators/specs appear by name only —
        rebuilding a task needs the spec objects, not this payload; option
        values JSON cannot express, e.g. callables, appear as reprs)."""
        from ..core.wire import stamp

        estimator = self.estimator
        if not isinstance(estimator, str):
            estimator = getattr(
                estimator, "name", getattr(estimator, "__name__", repr(estimator))
            )
        return stamp({
            "name": self.name,
            "estimator": estimator,
            "specs": [spec.name for spec in self.specs],
            "budget": self.budget,
            "budget_share": self.budget_share,
            "seed": self.seed,
            "options": {
                str(key): _describable(value)
                for key, value in self.options.items()
            },
        })

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"EstimationTask({self.name!r}, estimator={self.estimator!r})"


class TaskHandle:
    """A live task inside an engine: its estimator, budget, and reports."""

    __slots__ = ("name", "estimator", "budget_per_round", "task",
                 "_reports", "_history_limit", "rounds_run", "queries_total",
                 "_obs_task_seconds", "_obs_budget_spent")

    def __init__(self, name, estimator, budget_per_round, task,
                 history_limit: int | None = None):
        self.name = name
        self.estimator = estimator
        self.budget_per_round = budget_per_round
        self.task = task
        #: Retained report history, oldest first; bounded by the engine
        #: config's ``report_log_limit`` (accounting stays exact in the
        #: O(1) counters below even when old reports drop).
        self._reports: list[RoundReport] = []
        self._history_limit = history_limit
        self.rounds_run = 0
        self.queries_total = 0
        # Per-task registry handles, resolved once here so rounds never
        # take the registry's get-or-create lock.
        self._obs_task_seconds = OBS.histogram(
            "repro_round_task_seconds", {"task": name}
        )
        self._obs_budget_spent = OBS.counter(
            "repro_budget_spent_total", {"task": name}
        )

    @property
    def reports(self) -> tuple[RoundReport, ...]:
        """The retained reports, in round order (see ``rounds_run`` for
        the lifetime count when a history limit is set)."""
        return tuple(self._reports)

    @property
    def latest(self) -> RoundReport | None:
        """The most recent report, if any round ran yet."""
        return self._reports[-1] if self._reports else None

    @property
    def interface(self) -> TopKInterface:
        """This tenant's private connection to the shared database."""
        return self.estimator.interface

    @contextmanager
    def throttled(self, budget: int):
        """Scope a reduced per-round query budget on this task's estimator.

        The budget-governor hook (:mod:`repro.service.governor`): a
        degraded round runs exactly as if the tenant had been granted the
        smaller budget — same estimator, same RNG stream position — and
        the previous budget is restored afterwards.  ``budget_per_round``
        on the handle (and therefore the ledger) keeps reporting the
        tenant's *nominal* allowance; degradation is reported through the
        governor's telemetry, never silently.  Callers must serialize this
        scope with the round that runs under it (the service plane runs
        all mutating operations on one worker thread).
        """
        if budget < 1:
            raise ExperimentError("throttled budget must be positive")
        previous = self.estimator.budget_per_round
        self.estimator.budget_per_round = budget
        try:
            yield self
        finally:
            self.estimator.budget_per_round = previous

    def _record(self, report: RoundReport) -> None:
        self._reports.append(report)
        if (
            self._history_limit is not None
            and len(self._reports) > self._history_limit
        ):
            del self._reports[: len(self._reports) - self._history_limit]
        self.rounds_run += 1
        self.queries_total += report.queries_used
        if OBS.enabled:
            self._obs_budget_spent.inc(report.queries_used)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"TaskHandle({self.name!r}, rounds={self.rounds_run}, "
            f"queries={self.queries_total})"
        )


class Engine:
    """A multi-tenant estimation service over one dynamic hidden database.

    Build it around an existing database or let it build one::

        config = EngineConfig(backend="packed", k=100, budget_per_round=300)
        engine = Engine(config, schema=schema)
        engine.load(payloads)
        engine.submit(EstimationTask("count", [count_all()], "RS"))
        report = engine.run_round()["count"]

    When ``db`` is given, its storage backend stands as built — the
    config's ``backend`` field only governs databases the engine itself
    creates.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        db: HiddenDatabase | None = None,
        schema: Schema | None = None,
        ranking: RankingPolicy | None = None,
    ):
        self.config = config if config is not None else EngineConfig()
        # Enable-only: the registry is process-global, so one engine
        # opting in must never switch off another engine's plane.
        if self.config.resolved_observability():
            OBS.enable()
        #: Self-tuning controller (``config.auto``); ``None`` when the
        #: config is fully hand-picked.  Explicit config fields become
        #: pins the tuner must respect — the per-knob opt-out.
        self._tuning: TuningController | None = None
        self._tuning_marks: dict | None = None
        if self.config.auto:
            pinned: dict = {}
            if self.config.backend is not None:
                pinned["backend"] = self.config.backend
            if self.config.shards is not None:
                pinned["shards"] = self.config.shards
            if self.config.parallelism is not None:
                pinned["parallelism"] = self.config.parallelism
            self._tuning = TuningController(pinned=pinned)
        if db is None:
            if schema is None:
                raise ExperimentError(
                    "Engine needs either an existing db or a schema to "
                    "build one"
                )
            if self._tuning is not None:
                # Construction is the first safe seam: nothing exists
                # yet, so the initial (priors-only) choice costs nothing
                # to apply.
                choice = self._tuning.initial_decision().choice
                self.config = self._config_with_choice(choice)
            db = HiddenDatabase(
                schema,
                ranking=ranking,
                block_size=self.config.block_size,
                backend=self.config.backend,
                backend_options=self.config.backend_factory_options(),
            )
        elif schema is not None:
            raise ExperimentError("pass either db or schema, not both")
        elif ranking is not None:
            raise ExperimentError(
                "ranking only applies when the engine builds the database; "
                "an existing db keeps the policy it was built with"
            )
        elif self.config.shards is not None and db.backend != "sharded":
            # An existing db stands as built; a shard count that cannot
            # apply to it must not be silently dropped.  (A pre-built
            # *sharded* db is fine — the Experiment flow constructs it
            # under config.apply(), which scopes the same shard count.)
            raise ExperimentError(
                f"config pins shards={self.config.shards} but the "
                f"supplied database uses backend {db.backend!r}"
            )
        self.db = db
        if self._tuning is not None and self._tuning.current is None:
            # An existing db stands as built: adopt it as the tuner's
            # current choice (later observations may still migrate it).
            self._tuning.current = Candidate(
                db.backend,
                self.config.shards if db.backend == "sharded" else None,
                self.config.resolved_parallelism(),
            )
        #: Session lock: task table + report log.  Held only for short,
        #: bounded critical sections — never across estimator execution —
        #: so ``stream_reports()`` / ``budget_ledger()`` from other
        #: threads respond while a long round is in flight.
        self._lock = threading.RLock()
        #: Round barrier: round execution.  ``run_round`` holds it while
        #: its tasks read; sequentially (``overlap=False``) writers hold
        #: it too, so the store is round-static exactly as the paper's
        #: round model requires.  Reentrant so an ``apply_updates``
        #: callback may call ``advance_round`` itself.
        self._round_lock = threading.RLock()
        #: Write lock: store mutation + epoch publish.  In overlap mode
        #: writers take *only* this lock (reads ride the published epoch,
        #: so churn no longer waits for the round barrier).  Lock order
        #: where both are held: round barrier first, then write lock.
        self._write_lock = threading.RLock()
        self._tasks: dict[str, TaskHandle] = {}
        #: Execution log: ``(task name, report)`` in the order produced,
        #: bounded by ``config.report_log_limit`` (oldest entries drop).
        self._log: list[tuple[str, RoundReport]] = []
        #: Absolute execution index of ``_log[0]`` (> 0 once entries drop).
        self._log_start = 0

    def _append_log(self, name: str, report: RoundReport) -> None:
        self._log.append((name, report))
        limit = self.config.report_log_limit
        if limit is not None and len(self._log) > limit:
            drop = len(self._log) - limit
            del self._log[:drop]
            self._log_start += drop

    @property
    def _writer_lock(self):
        """The lock writers take.

        Sequential mode: the round barrier (writers and rounds exclude
        each other — the store stays round-static).  Overlap mode: the
        write lock only, so ``apply_updates`` / ``load`` run concurrently
        with an epoch-pinned round and serialize just against each other
        and the publish flip.
        """
        return self._write_lock if self.config.overlap else self._round_lock

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Storage backend behind the shared database."""
        return self.db.backend

    @property
    def current_round(self) -> int:
        return self.db.current_round

    def tasks(self) -> tuple[str, ...]:
        """Names of the active tasks, in submission order."""
        with self._lock:
            return tuple(self._tasks)

    def __getitem__(self, name: str) -> TaskHandle:
        with self._lock:
            try:
                return self._tasks[name]
            except KeyError:
                raise UnknownTaskError(name) from None

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._tasks

    # ------------------------------------------------------------------
    # Data loading / churn (simulator side)
    # ------------------------------------------------------------------
    def _load_rows(self, rows) -> int:
        """Bulk-load tuples into the shared database (``engine.load(...)``
        on an instance — see :class:`_LoadName`); returns rows inserted."""
        with self._writer_lock:
            return self.db.insert_many(rows)

    class _LoadName:
        """``Engine.load``'s two faces, told apart by how it is reached.

        On an *instance*, ``engine.load(rows)`` is the bulk-loader it has
        always been.  On the *class*, ``Engine.load(path)`` restores a
        saved engine from a snapshot store directory (see
        :mod:`repro.api.persistence` — ``load_engine`` additionally
        returns the saved ``extra`` payload).  The two uses cannot
        collide: one needs an engine, the other produces one.
        """

        def __get__(self, instance, owner):
            if instance is not None:
                return instance._load_rows
            return owner._load_path

    load = _LoadName()

    @classmethod
    def _load_path(cls, path: str) -> "Engine":
        """Restore an engine from the committed snapshot in ``path``.

        The restored engine resumes bit-identically to the one
        :meth:`save` captured — same estimates, RNG streams, histories,
        and ledgers (see :mod:`repro.api.persistence`).
        """
        from .persistence import load_engine

        engine, _extra = load_engine(path)
        return engine

    def save(self, path: str | None = None, extra=None) -> dict:
        """Snapshot this engine atomically; returns the manifest.

        ``path`` defaults to the config's ``store_dir``.  The snapshot is
        taken under all three engine locks — even in overlap mode, where
        a snapshot needs full quiescence (estimator state and store must
        agree; a mid-round epoch would pair post-round estimators with a
        pre-round store) — so it observes a quiescent point between
        rounds and mutations; ``extra`` (JSON values only) rides along
        and is handed back by :func:`repro.api.persistence.load_engine`.
        Crash-safe: the previous committed snapshot stays readable until
        the new manifest is atomically renamed in.
        """
        from .persistence import save_engine

        if path is None:
            path = self.config.store_dir
        if path is None:
            raise ExperimentError(
                "Engine.save needs a path (or a config with store_dir set)"
            )
        with self._round_lock, self._write_lock, self._lock:
            return save_engine(self, path, extra=extra)

    def apply_updates(
        self, mutate: Callable[[HiddenDatabase], None]
    ) -> None:
        """Run a mutation function against the shared database.

        Sequentially, serialized with every estimation session (the
        round barrier).  In overlap mode, serialized only with other
        writers: churn lands on the live store while a round reads the
        published epoch, and becomes visible to estimators at the next
        ``advance_round`` publish flip.
        """
        with self._writer_lock:
            mutate(self.db)

    def advance_round(self) -> int:
        """Start the next round and return its index.

        In overlap mode this is also the atomic publish flip: the live
        store (with all churn applied so far) is frozen into a new
        :class:`~repro.hiddendb.epoch.StoreEpoch` and installed as the
        version the next ``run_round`` pins its estimators to.

        With ``config.auto`` this is additionally the tuning seam: the
        controller observes the windowed workload profile and, when the
        cost model predicts a big enough win, migrates the store's
        indexes to a new backend/shard layout right here — after the
        publish flip, so overlap-mode readers keep serving the epoch
        just published while the O(n) rebuild proceeds, and content is
        untouched, so estimates are bit-identical across the swap.
        """
        with self._writer_lock:
            round_index = self.db.advance_round()
            if self.config.overlap:
                self.db.publish_epoch()
            if self._tuning is not None:
                self._auto_tune()
            return round_index

    # ------------------------------------------------------------------
    # Self-tuning (config.auto; see repro.tuning and docs/tuning.md)
    # ------------------------------------------------------------------
    def _config_with_choice(self, choice: Candidate) -> EngineConfig:
        """The engine config with a tuning choice folded in.

        Pinned fields are unchanged by construction — the controller's
        candidate grid never contradicts a pin — so the uniform replace
        is safe.
        """
        return self.config.replace(
            backend=choice.backend,
            shards=choice.shards if choice.backend == "sharded" else None,
            parallelism=choice.parallelism,
        )

    def _tuning_profile(self) -> WorkloadProfile:
        """The workload window since the previous tuning observation.

        Built purely from the engine's own deterministic counters — live
        tuple count, the database's tid allocator (every inserted row
        consumes exactly one tid), the tenants' lifetime query totals,
        and the round index — so the profile stream replays
        bit-identically and never depends on wall clock or the
        observability plane being on.
        """
        marks = self._tuning_marks or {}
        n = len(self.db.store)
        allocated = self.db._next_tid
        with self._lock:
            queries = sum(
                handle.queries_total for handle in self._tasks.values()
            )
            tenants = len(self._tasks)
        round_index = self.db._round
        rounds = max(1, round_index - marks.get("round_index",
                                                round_index - 1))
        # Row-accurate churn: inserts come straight off the tid
        # allocator; deletes are whatever inserts did not show up as
        # size growth.
        inserts = max(0, allocated - marks.get("allocated", 0))
        grew = n - marks.get("store_size", 0)
        deletes = max(0, inserts - grew)
        churn_total = inserts + deletes
        delete_share = deletes / churn_total if churn_total > 0 else 0.0
        queries_delta = max(0, queries - marks.get("queries_total", 0))
        self._tuning_marks = {
            "round_index": round_index,
            "allocated": allocated,
            "store_size": n,
            "queries_total": queries,
        }
        return WorkloadProfile(
            store_size=n,
            churn_per_round=churn_total / rounds,
            delete_share=delete_share,
            queries_per_round=queries_delta / rounds,
            tenants=tenants,
            rounds=rounds,
        )

    def _auto_tune(self) -> None:
        """One controller observation; applies a migrate decision.

        Called from ``advance_round`` under the writer scope (and after
        the publish flip in overlap mode), which is exactly the
        serialization the migration seam requires.
        """
        decision = self._tuning.observe(self._tuning_profile())
        if decision.action != ACTION_MIGRATE:
            return
        choice = decision.choice
        config = self._config_with_choice(choice)
        # Derive factory options from the *new* config so knobs the
        # candidate does not model (a mapped run directory under
        # store_dir, the sharded dispatch width) come along too.
        options = config.backend_factory_options()
        if (
            choice.backend != self.db.backend
            or options != dict(self.db.store.backend_options)
        ):
            # Only a changed storage layout needs the O(n) rebuild; a
            # parallelism-only decision just rebinds the config.
            self.db.migrate_backend(choice.backend, options)
        self.config = config

    def tuning_report(self) -> dict:
        """A stamped, strict-JSON audit of the self-tuning plane.

        Always callable: with ``auto=False`` it reports
        ``enabled: false`` and the (hand-picked) effective config, so
        the service telemetry block has one shape either way.
        """
        from ..core.wire import stamp

        payload: dict = {
            "enabled": self._tuning is not None,
            "backend": self.backend,
            "effective": {
                "backend": self.config.resolved_backend(),
                "shards": self.config.shards,
                "parallelism": self.config.resolved_parallelism(),
                "overlap": self.config.overlap,
            },
        }
        if self._tuning is not None:
            payload.update(self._tuning.report())
        return stamp(payload)

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def submit(self, task: EstimationTask) -> TaskHandle:
        """Register a task and build its estimator over the shared store.

        The task gets its own :class:`TopKInterface` (per-tenant budget
        accounting and query counters) bound to the shared database.

        Holds the writer scope (estimator construction may build and
        backfill indexes over the shared store — the round barrier
        sequentially, the write lock in overlap mode) and then the
        session lock for the table insert — always in that order.
        """
        with self._writer_lock, self._lock:
            if task.name in self._tasks:
                raise DuplicateTaskError(task.name)
            factory = resolve_estimator(task.estimator)
            budget = task.budget_for(self.config)
            interface = TopKInterface(self.db, self.config.k)
            estimator = factory(
                interface,
                task.specs,
                budget_per_round=budget,
                seed=self.config.task_seed(task.name, task.seed),
                **task.options,
            )
            handle = TaskHandle(
                task.name, estimator, budget, task,
                history_limit=self.config.report_log_limit,
            )
            self._tasks[task.name] = handle
            return handle

    def cancel(self, name: str) -> TaskHandle:
        """Remove a task; its handle (with history) is returned."""
        with self._lock:
            try:
                return self._tasks.pop(name)
            except KeyError:
                raise UnknownTaskError(name) from None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_estimator(
        self,
        handle: TaskHandle,
        epoch: StoreEpoch | None = None,
    ) -> RoundReport:
        """One task's round, pinned in overlap mode to the round's
        published epoch.

        The epoch pin is a :class:`~contextvars.ContextVar`, which worker
        threads do not inherit from the submitting thread — hence it is
        re-established here, on the thread that runs the task.
        """
        if epoch is None:
            return handle.estimator.run_round()
        with reading_epoch(self.db, epoch):
            return handle.estimator.run_round()

    def _forked_round_main(self, handle, epoch, conn) -> None:
        """Entry point of one forked round worker (runs in the child).

        Sends either ``{"report", "estimator"}`` (both strict-JSON, the
        :mod:`repro.core.wire` seam) or ``{"error"}`` over the pipe, then
        exits via ``os._exit`` — skipping interpreter teardown so the
        child's copies of weakref finalizers (e.g. the mapped backend's
        run-directory cleanup) can never touch state shared with the
        parent.
        """
        try:
            # First thing in the child: all instrumentation is guarded by
            # OBS.enabled, so disabling here guarantees the child never
            # touches registry or span-log locks (another thread may have
            # held one at fork time — touching it would deadlock).  The
            # child's metrics are intentionally lost; the parent records
            # the round outcome when it adopts the report.
            OBS.disable()
            try:
                report = self._run_estimator(handle, epoch)
                payload = {
                    "report": report.to_dict(),
                    "estimator": handle.estimator.state_to_wire(),
                }
            except BaseException as exc:
                payload = {"error": wire_error(exc)}
            conn.send_bytes(json.dumps(payload).encode("utf-8"))
            conn.close()
        finally:
            os._exit(0)

    def _run_round_forked(
        self, selected, epoch, workers
    ) -> list[RoundReport | BaseException]:
        """Fan the round out to forked worker processes, in waves of
        ``workers``.

        Each child runs its task against the fork-time copy-on-write
        snapshot of the store and hands report + estimator state back as
        strict JSON; the parent adopts the state
        (:meth:`~repro.core.estimators.base.Estimator.restore_state`), so
        the next round continues bit-identically to an in-process run.
        """
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            raise ExperimentError(
                "round_executor='fork' needs a platform with fork "
                "(POSIX); use the thread executor here"
            ) from None
        produced: list[RoundReport | BaseException] = [None] * len(selected)
        indexed = list(enumerate(selected))
        for start in range(0, len(indexed), workers):
            running = []
            for index, handle in indexed[start:start + workers]:
                receiver, sender = ctx.Pipe(duplex=False)
                worker = ctx.Process(
                    target=self._forked_round_main,
                    args=(handle, epoch, sender),
                    daemon=True,
                )
                worker.start()
                sender.close()
                running.append((index, handle, worker, receiver))
            for index, handle, worker, receiver in running:
                try:
                    data = receiver.recv_bytes()
                except EOFError:
                    data = None
                worker.join()
                receiver.close()
                if data is None:
                    produced[index] = ExperimentError(
                        f"forked round worker for task {handle.name!r} "
                        f"died without reporting "
                        f"(exit code {worker.exitcode})"
                    )
                    continue
                payload = json.loads(data.decode("utf-8"))
                if "error" in payload:
                    produced[index] = error_from_wire(payload["error"])
                    continue
                handle.estimator.restore_state(payload["estimator"])
                produced[index] = RoundReport.from_dict(payload["report"])
        return produced

    def run_round(
        self,
        tasks: Sequence[str] | None = None,
        *,
        parallel: int | None = None,
    ) -> dict[str, RoundReport]:
        """Run one round for every (or the named) active task.

        Tasks run over the shared, round-static store; each spends only
        its own budget.  ``parallel`` is the worker-thread count (``None``
        defers to ``config.parallelism``, then the process default;
        ``1`` = sequential).  Estimates are bit-identical across schedules
        — every task owns its RNG, interface counters, and session, and
        the store honors the reader-concurrency contract — and reports
        are recorded in deterministic submission order either way.

        The round barrier is held for the duration — sequentially that
        makes mutations wait; in overlap mode estimators are pinned to
        the published epoch instead, so ``apply_updates`` churn proceeds
        concurrently (only other rounds and ``save`` wait).  The session
        lock is only taken for the initial task snapshot and the final
        report merge, so ``stream_reports()`` and ``budget_ledger()``
        from other threads stay responsive during a long round.  Returns
        ``{task name: report}``.
        """
        if not OBS.enabled:
            return self._run_round_inner(tasks, parallel)
        _ROUNDS_TOTAL.inc()
        started = perf_counter()
        with OBS.span("engine.run_round"):
            try:
                return self._run_round_inner(tasks, parallel)
            finally:
                _ROUND_SECONDS.observe(perf_counter() - started)

    def _run_round_inner(
        self,
        tasks: Sequence[str] | None,
        parallel: int | None,
    ) -> dict[str, RoundReport]:
        with self._round_lock:
            with self._lock:
                if tasks is None:
                    selected = list(self._tasks.values())
                else:
                    selected = [self[name] for name in tasks]
            workers = (
                parallel
                if parallel is not None
                else self.config.resolved_parallelism()
            )
            if workers < 1:
                raise ExperimentError("parallel must be at least 1")
            hooked = any(
                getattr(handle.estimator, "on_query", None) is not None
                for handle in selected
            )
            epoch: StoreEpoch | None = None
            if self.config.overlap:
                if hooked:
                    # The intra-round update driver needs its mutations
                    # visible to the very next query — epoch pinning
                    # defers visibility to the next publish flip.
                    raise ExperimentError(
                        "overlap mode cannot serve estimators with an "
                        "on_query mutation hook (intra-round update "
                        "model needs read-your-writes)"
                    )
                epoch = self.db.published
                if epoch is None:
                    # First round before any advance: publish lazily.
                    # Briefly take the write lock — a concurrent
                    # apply_updates must not churn mid-freeze.  (Lock
                    # order: round barrier, already held, then write.)
                    with self._write_lock:
                        epoch = self.db.published
                        if epoch is None:
                            epoch = self.db.publish_epoch()
            if OBS.enabled:
                # Per-task wall times both feed the per-task histograms
                # and, summed against the round wall below, the worker-
                # utilization gauge.  The list append is GIL-atomic, so
                # pool workers share it without a lock.
                round_started = perf_counter()
                task_seconds: list[float] = []

                def runner(handle, epoch):
                    task_started = perf_counter()
                    try:
                        with OBS.span("round.task"):
                            return self._run_estimator(handle, epoch)
                    finally:
                        elapsed = perf_counter() - task_started
                        handle._obs_task_seconds.observe(elapsed)
                        task_seconds.append(elapsed)
            else:
                task_seconds = []
                runner = self._run_estimator
            # Outcomes are RoundReports or the exception a task raised;
            # completed tasks' reports are recorded either way (their
            # budget was spent and their RNG advanced — dropping them
            # would desync the ledger from actual interface usage).
            produced: list[RoundReport | BaseException] = []
            if workers > 1 and len(selected) > 1:
                if hooked:
                    # The intra-round update driver mutates the store
                    # between queries — incompatible with concurrent
                    # readers.  (A single hooked task runs sequentially
                    # below regardless of the worker count.)
                    raise ExperimentError(
                        "run_round(parallel>1) cannot serve estimators "
                        "with an on_query mutation hook (intra-round "
                        "update model)"
                    )
                if self.config.round_executor == "fork":
                    produced = self._run_round_forked(
                        selected, epoch, workers
                    )
                else:
                    with ThreadPoolExecutor(
                        max_workers=min(workers, len(selected)),
                        thread_name_prefix="repro-round",
                    ) as pool:
                        futures = [
                            pool.submit(runner, handle, epoch)
                            for handle in selected
                        ]
                        for future in futures:
                            try:
                                produced.append(future.result())
                            except BaseException as exc:
                                produced.append(exc)
            else:
                for handle in selected:
                    try:
                        produced.append(runner(handle, epoch))
                    except BaseException as exc:
                        # Sequential semantics: later tasks do not run
                        # this round (matches the pre-parallel engine).
                        produced.append(exc)
                        break
            if (
                OBS.enabled
                and workers > 1
                and len(selected) > 1
                and self.config.round_executor != "fork"
                and task_seconds
            ):
                wall = perf_counter() - round_started
                effective = min(workers, len(selected))
                if wall > 0:
                    _WORKER_UTILIZATION.set(
                        min(1.0, sum(task_seconds) / (effective * wall))
                    )
            with self._lock:
                reports: dict[str, RoundReport] = {}
                error: BaseException | None = None
                for handle, outcome in zip(selected, produced):
                    if isinstance(outcome, BaseException):
                        if error is None:
                            error = outcome
                        continue
                    handle._record(outcome)
                    # A task cancelled (or cancelled-and-replaced) while
                    # the round ran keeps the report on its own handle —
                    # returned to the cancel() caller — but stays out of
                    # the engine log, which must agree with the ledger
                    # about whatever currently owns the name.
                    if self._tasks.get(handle.name) is handle:
                        self._append_log(handle.name, outcome)
                    reports[handle.name] = outcome
                if error is not None:
                    raise error
                return reports

    def stream_reports(
        self, task: str | None = None
    ) -> Iterator[tuple[str, RoundReport]]:
        """Yield ``(task name, report)`` in execution order.

        Drains everything still in the (``report_log_limit``-bounded) log
        — including reports appended by other threads while iterating —
        then stops.  Safe to call again later; it always starts from the
        oldest retained entry.

        Wherever eviction opened a gap — reports already dropped when the
        stream started, or dropped mid-iteration under a fast producer —
        the stream yields a ``(GAP_TASK, ReportGap(dropped))`` marker
        (never silently replaying a gapped log as if it were contiguous).
        Markers are yielded even under a ``task`` filter: the filter
        cannot know whether dropped entries matched.
        """
        index = 0
        while True:
            with self._lock:
                if index < self._log_start:
                    dropped = self._log_start - index
                    index = self._log_start
                    entry = (GAP_TASK, ReportGap(dropped))
                elif index - self._log_start >= len(self._log):
                    return
                else:
                    entry = self._log[index - self._log_start]
                    index += 1
            name, report = entry
            if name == GAP_TASK or task is None or task == name:
                yield entry

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def budget_ledger(self) -> dict[str, dict[str, int]]:
        """Per-task budget accounting snapshot."""
        with self._lock:
            return {
                name: {
                    "budget_per_round": handle.budget_per_round,
                    "rounds": handle.rounds_run,
                    "queries_total": handle.queries_total,
                    "queries_last_round": (
                        handle.latest.queries_used if handle.latest else 0
                    ),
                }
                for name, handle in self._tasks.items()
            }

    def metrics(self) -> dict:
        """A stamped, strict-JSON observability snapshot of this engine.

        Combines the engine's own view (round index, backend, per-task
        counters and interface stats) with the process-global registry
        (:meth:`repro.obs.MetricsRegistry.snapshot`) and its derived
        summary.  Always callable — with observability disabled the
        registry portion reports ``enabled: false`` and whatever was
        recorded while it was last on.
        """
        from ..core.wire import stamp

        with self._lock:
            tasks = {
                name: {
                    "rounds": handle.rounds_run,
                    "queries_total": handle.queries_total,
                    "interface": handle.interface.stats.to_dict(),
                }
                for name, handle in self._tasks.items()
            }
        return stamp({
            "enabled": OBS.enabled,
            "round_index": self.current_round,
            "backend": self.backend,
            "tasks": tasks,
            "registry": OBS.snapshot(),
            "summary": OBS.summary(),
        })

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Engine(backend={self.backend!r}, n={len(self.db)}, "
            f"round={self.current_round}, tasks={list(self._tasks)})"
        )
