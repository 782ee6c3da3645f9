"""The three benchmark workloads, driven through ``repro.api`` / ``repro.service``.

Each workload draws all of its inputs from the seed before any timing
starts (:meth:`Workload.synthesize`) and then runs *passes*: a pass builds
a fresh engine (the set-up) and runs a fixed number of round periods.
Every pass of one seed does exactly the same work, so passes can be
pooled, their estimate digests must agree, and a traced pass can be set
against an untraced one to price the tracing.  After each pass its
engine is snapshot and restored in a fresh process (:meth:`restore`,
outside the round timing), and the restored engine is checked against the
live one.  Every timed set-up starts from a collected heap.
After every round period, a reference kernel is timed (see
``calibration``) so that the pass's times can be scaled to a fixed host
speed.

Why these three (see also ``BENCHMARK.json``):

* ``steady_rounds`` — the paper's fig12 shape with little change per
  round: nearly all time is one-at-a-time ``TopKInterface.search`` calls
  inside the estimators.
* ``big_change`` — the paper's big-change schedule applied by a writer
  thread while the round reads the published epoch: churn apply and the
  publish flip dominate.
* ``service_durable`` — fifty tiny tenants over HTTP with a snapshot after
  every round: per-task engine overhead, the governor, the HTTP/JSON hop
  and snapshot writes dominate, not queries.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import math
import random
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibration
import repro
from repro.api import Engine, EngineConfig, EstimationTask
from repro.core.aggregates import count_all
from repro.core.estimators.base import RoundReport
from repro.data.schedules import FreshTupleSchedule, apply_round
from repro.data.synthetic import skewed_source
from repro.service import (
    RoundRequest,
    ServiceApp,
    ServiceClient,
    ServiceServer,
)

ALGORITHMS = ("RESTART", "REISSUE", "RS")

#: Rate of the open-loop HTTP poller (requests per second).  Nothing in
#: the program or the paper fixes one; between 5 and 20 Hz the mean poll
#: latency moved by under a tenth, and 20 Hz gives the most polls per run
#: to average.
HTTP_POLL_HZ = 20.0

#: Observer calls the engine workloads make between two round periods.
OBSERVER_CALLS_PER_ROUND = 30


@dataclass
class Inputs:
    """Everything a pass consumes, drawn from the seed up front."""

    schema: object
    base: object
    churn: list
    inserts_per_round: int
    delete_fraction: float


@dataclass
class PassResult:
    """What one pass measured, checked and counted."""

    setup_s: float
    backend: str
    overlap: bool
    round_ms: list = field(default_factory=list)
    queries: int = 0
    updates: int = 0
    poll_ms: list = field(default_factory=list)
    poll_late_ms: list = field(default_factory=list)
    #: Host-speed scales (``calibration.scale``) taken right after each
    #: round period; their mean scales the pass's times.
    round_scales: list = field(default_factory=list)
    digest: str = ""
    rel_errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    interface: dict = field(default_factory=dict)
    drilldowns_fresh: int = 0
    drilldowns_reissued: int = 0
    layers: dict = field(default_factory=dict)


class EstimateTrace:
    """Order-sensitive digest of every report's estimates and spend."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, position: int, reports) -> None:
        for name in sorted(reports):
            report = reports[name]
            if report is None:
                line = f"{position}|{name}|failed"
            else:
                estimates = ",".join(
                    f"{key}={float(value).hex()}"
                    for key, value in sorted(report.estimates.items())
                )
                line = f"{position}|{name}|{report.queries_used}|{estimates}"
            self._hash.update(line.encode("utf-8") + b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class PredrawnInserts:
    """Stands in for the synthetic source inside ``FreshTupleSchedule``:
    hands out each round's insert batch, drawn before the timed window."""

    def __init__(self, batches):
        self._batches = iter(batches)

    def batch_columns(self, count, distinct=True, rng=None):
        return next(self._batches)


class Churn:
    """One pass's round-boundary churn, as an ``apply_updates`` callback.

    Deletes are drawn from the store as it stands, with a per-round RNG
    derived from the seed, so every pass applies the same mutations.
    """

    def __init__(self, inputs: Inputs, seed: int, tracer):
        self.schedule = FreshTupleSchedule(
            PredrawnInserts(inputs.churn),
            inserts_per_round=inputs.inserts_per_round,
            delete_fraction=inputs.delete_fraction,
        )
        self.seed = seed
        self.tracer = tracer
        self.applied = 0
        self.rows = 0

    def __call__(self, db) -> None:
        self.applied += 1
        rng = random.Random(f"perfbench-churn:{self.seed}:{self.applied}")
        started = perf_counter()
        rows = apply_round(db, self.schedule, rng)
        self.tracer.add("churn", perf_counter() - started, calls=rows)
        self.rows += rows


class Observer:
    """Synchronous observer: ``calls`` timed calls on the driver thread
    after each round period, outside the round timing."""

    def __init__(self, call, calls: int):
        self.call = call
        self.calls = calls
        self.issued = 0
        self.failed = 0
        self.latency_ms: list[float] = []
        self.late_ms: list[float] = []

    def issue(self, started: float) -> None:
        try:
            self.call(self.issued)
        except Exception:  # noqa: BLE001 - counted against error_rate
            self.failed += 1
        self.issued += 1
        self.latency_ms.append((perf_counter() - started) * 1000.0)

    def between_rounds(self) -> None:
        for _ in range(self.calls):
            self.issue(perf_counter())

    def close(self) -> None:
        pass


class Poller(Observer):
    """Open-loop observer on a thread of its own: one call every
    ``1/rate`` seconds, each timed from when it was due, so a stalled
    generator shows as latency."""

    def __init__(self, call, rate_hz: float):
        super().__init__(call, 0)
        self.period = 1.0 / rate_hz
        self.stop = threading.Event()
        self.thread = threading.Thread(
            target=self.run, name="perfbench-poller"
        )
        self.thread.start()

    def run(self) -> None:
        due = perf_counter()
        while not self.stop.is_set():
            now = perf_counter()
            if now < due:
                self.stop.wait(due - now)
                continue
            self.late_ms.append((now - due) * 1000.0)
            self.issue(due)
            due += self.period

    def close(self) -> None:
        self.stop.set()
        self.thread.join()


def relative_errors(reports, truth: int) -> list[float]:
    errors = []
    for report in reports.values():
        if report is None:
            continue
        estimate = float(report.estimates["count"])
        errors.append(
            abs(estimate - truth) / truth if math.isfinite(estimate)
            else math.inf
        )
    return errors


def restore_in_child(kind: str, path: str) -> dict:
    """Run ``restore_child.py`` on a snapshot and return its result."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("restore_child.py")),
         "--src", str(Path(repro.__file__).resolve().parents[1]),
         "--kind", kind, "--path", path],
        capture_output=True, text=True, timeout=150,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"restore failed: {completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_restored(label: str, child: dict, ledger, expected) -> list[str]:
    """Problems found comparing a child's restored engine with the live
    one: its ledger and its next-round reports."""
    problems = []
    if child["ledger"] != json.loads(json.dumps(ledger)):
        problems.append(f"{label}: restored ledger differs")
    restored = {
        name: RoundReport.from_dict(report)
        for name, report in child["reports"].items()
    }
    return problems + compare_reports(label, expected, restored)


def compare_reports(label: str, live, restored) -> list[str]:
    """Problems found comparing two ``{task: report}`` maps."""
    mismatched = sorted(
        name for name in set(live) | set(restored)
        if name not in live or name not in restored
        or live[name].estimates != restored[name].estimates
        or live[name].queries_used != restored[name].queries_used
    )
    if mismatched:
        return [f"{label}: next-round estimates differ for {mismatched[:5]}"]
    return []


@dataclass
class Run:
    """One pass's live state, from set-up to its restore check."""

    engine: Engine
    churn: Churn
    reports: dict
    truth: int
    setup_s: float
    app: ServiceApp | None = None
    server: _Server | None = None
    client: _TimedClient | None = None
    store_dir: str | None = None


class Workload:
    """The pass loop; subclasses supply set-up, round period and observers."""

    name = ""
    rounds = 0
    #: Restores (each in a fresh process) after each pass.  One restore
    #: of the small stores varies by about a tenth from process to process.
    restores_per_pass = 3

    def __init__(self, seed: int, scale: float, tmp_dir: str):
        self.seed = seed
        self.scale = scale
        self.tmp_dir = tmp_dir

    def scaled(self, value: int, floor: int = 1) -> int:
        return max(floor, int(value * self.scale))

    def synthesize(self) -> Inputs:
        source = self.source()
        base = source.batch_columns(self.n)
        rng = random.Random(f"perfbench-inserts:{self.seed}")
        churn = [
            source.batch_columns(
                self.inserts_per_round, distinct=False, rng=rng
            )
            for _ in range(self.rounds)
        ]
        return Inputs(
            source.schema, base, churn,
            self.inserts_per_round, self.delete_fraction,
        )

    def fresh_setup(self, inputs: Inputs, tracer) -> Run:
        """``setup`` on a collected heap, so that no earlier pass's
        garbage decides when the collector runs inside the timed set-up."""
        gc.collect()
        return self.setup(inputs, tracer)

    def setup_only(self, inputs: Inputs, tracer) -> float:
        run = self.fresh_setup(inputs, tracer)
        self.stop(run)
        self.release(run)
        return run.setup_s

    def stop(self, run: Run) -> None:
        """End the pass's client-facing side (the server, if any)."""

    def restores(self, kind, path, ledger, expected):
        """``restores_per_pass`` timed restores of ``path``, each checked."""
        samples, problems = [], []
        for _ in range(self.restores_per_pass):
            child = restore_in_child(kind, path)
            samples.append((child["seconds"], child["scale"]))
            problems += check_restored(self.name, child, ledger, expected)
        return samples, problems

    def release(self, run: Run) -> None:
        """Drop what outlives the pass's engine (its store, if any)."""

    def run_pass(self, inputs: Inputs, tracer) -> tuple[PassResult, Run]:
        run = self.fresh_setup(inputs, tracer)
        engine = run.engine
        result = PassResult(run.setup_s, engine.backend, engine.config.overlap)
        tasks = len(engine.tasks())
        trace = EstimateTrace()
        trace.add(0, run.reports)
        result.rel_errors.extend(relative_errors(run.reports, run.truth))
        result.attempted += 2 * tasks
        observer = self.observer(run, tracer)
        try:
            for position in range(1, self.rounds):
                started = perf_counter()
                churned = run.churn.rows
                try:
                    reports, truth = self.cycle(run)
                except Exception:  # noqa: BLE001 - counted, pass goes on
                    reports = dict.fromkeys(engine.tasks())
                    truth = len(engine.db)
                result.round_ms.append((perf_counter() - started) * 1000.0)
                result.round_scales.append(calibration.scale())
                # A task with no report failed or was refused.
                result.failed += sum(r is None for r in reports.values())
                result.attempted += tasks + 1
                result.updates += run.churn.rows - churned
                result.queries += sum(
                    r.queries_used for r in reports.values()
                    if r is not None
                )
                result.rel_errors.extend(relative_errors(reports, truth))
                trace.add(position, reports)
                observer.between_rounds()
        finally:
            observer.close()
            self.stop(run)
        result.digest = trace.hexdigest()
        result.poll_ms = observer.latency_ms
        result.poll_late_ms = observer.late_ms
        result.attempted += observer.issued
        result.failed += observer.failed
        for name in engine.tasks():
            handle = engine[name]
            for key, value in handle.interface.stats.to_dict().items():
                result.interface[key] = result.interface.get(key, 0) + value
            for report in handle.reports:
                result.drilldowns_fresh += report.drilldowns_new
                result.drilldowns_reissued += report.drilldowns_updated
        result.layers = tracer.freeze()
        return result, run


# ----------------------------------------------------------------------
# In-process engine workloads
# ----------------------------------------------------------------------
class EngineWorkload(Workload):
    """Three tenants (RESTART, REISSUE, RS) over the fig12-shaped store."""

    overlap = False
    k = 100
    budget = 500

    def source(self):
        domain_sizes = [2 + (i % 7) for i in range(50)]
        return skewed_source(domain_sizes, exponent=0.4, seed=self.seed)

    def setup(self, inputs: Inputs, tracer) -> Run:
        """Construct, load, submit and run the first (cold) round."""
        churn = Churn(inputs, self.seed, tracer)
        started = perf_counter()
        engine = Engine(
            EngineConfig(
                k=self.k,
                budget_per_round=self.budget,
                seed=self.seed,
                overlap=self.overlap,
                observability=False,
            ),
            schema=inputs.schema,
        )
        engine.load(inputs.base)
        for algorithm in ALGORITHMS:
            engine.submit(
                EstimationTask(algorithm, [count_all()], algorithm)
            )
        if self.overlap:
            # Publish before any writer thread exists, so the first
            # round's view cannot depend on which thread wins the lock.
            engine.db.publish_epoch()
        run = Run(engine, churn, {}, 0, 0.0)
        run.reports, run.truth = self.cycle(run, first=True)
        run.setup_s = perf_counter() - started
        return run

    def observer(self, run: Run, tracer) -> Observer:
        """In-process twins of the service's observer endpoints: the
        ledger and one task's reports, in turn, between rounds."""
        engine = run.engine
        names = engine.tasks()

        def call(index: int):
            if index % 2 == 0:
                return engine.budget_ledger()
            return engine[names[(index // 2) % len(names)]].reports

        return Observer(call, OBSERVER_CALLS_PER_ROUND)

    def restore(self, run: Run) -> tuple[list, list]:
        """Snapshot the live engine, time ``Engine.load`` of it in fresh
        processes, and demand each restored engine match the live one:
        same ledger, same next-round estimates.  Returns ``([(seconds,
        host-speed scale)], problems)``."""
        path = tempfile.mkdtemp(prefix="restore-", dir=self.tmp_dir)
        try:
            run.engine.save(path)
            ledger = run.engine.budget_ledger()
            expected = run.engine.run_round()
            return self.restores("engine", path, ledger, expected)
        finally:
            shutil.rmtree(path, ignore_errors=True)


class SteadyRounds(EngineWorkload):
    """fig12 shape, n=100k, little change per round, sequential."""

    name = "steady_rounds"

    def __init__(self, seed, scale, tmp_dir):
        super().__init__(seed, scale, tmp_dir)
        self.n = self.scaled(100_000, 500)
        self.inserts_per_round = max(1, self.n // 500)
        self.delete_fraction = 0.001
        self.rounds = self.scaled(120, 4)

    def cycle(self, run: Run, first=False):
        """Churn, then ``advance_round``, then ``run_round``."""
        engine = run.engine
        if not first:
            engine.apply_updates(run.churn)
            engine.advance_round()
        truth = len(engine.db)
        return engine.run_round(), truth


class BigChange(EngineWorkload):
    """Big-change schedule, n=200k, churn overlapped with the round."""

    name = "big_change"
    overlap = True
    # A restore of this store takes about 2.5 s, a quarter of a pass.
    restores_per_pass = 1

    def __init__(self, seed, scale, tmp_dir):
        super().__init__(seed, scale, tmp_dir)
        self.n = self.scaled(200_000, 500)
        self.inserts_per_round = self.scaled(10_000)
        self.delete_fraction = 0.05
        self.rounds = self.scaled(20, 4)

    def cycle(self, run: Run, first=False):
        """The next round's churn on a writer thread while ``run_round``
        reads the published epoch, then ``advance_round`` (the flip)."""
        engine = run.engine
        truth = len(engine.db.published)
        errors: list[BaseException] = []

        def write():
            try:
                engine.apply_updates(run.churn)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        writer = threading.Thread(target=write, name="perfbench-churn")
        writer.start()
        try:
            reports = engine.run_round()
        finally:
            writer.join()
        if errors:
            raise errors[0]
        engine.advance_round()
        return reports, truth


# ----------------------------------------------------------------------
# The durable HTTP service
# ----------------------------------------------------------------------
class _Server:
    """A ``ServiceServer`` on its own event-loop thread."""

    def __init__(self, app: ServiceApp):
        self.server = ServiceServer(app, port=0)
        self.error: BaseException | None = None
        ready = threading.Event()

        def serve() -> None:
            async def main() -> None:
                await self.server.start()
                ready.set()
                await self.server.serve_forever()

            try:
                asyncio.run(main())
            except BaseException as exc:  # noqa: BLE001 - reported below
                self.error = exc
            finally:
                ready.set()

        self.thread = threading.Thread(target=serve, name="perfbench-server")
        self.thread.start()
        ready.wait(60)
        if self.error is not None or not self.thread.is_alive():
            self.thread.join(10)
            raise RuntimeError(f"service failed to start: {self.error!r}")
        self.port = self.server.port

    def stop(self, client: ServiceClient) -> None:
        client.shutdown()
        self.thread.join(60)
        if self.thread.is_alive():
            raise RuntimeError("service did not shut down")


class ServiceDurable(Workload):
    """Fifty RS tenants over HTTP, snapshot after every round."""

    name = "service_durable"
    k = 20

    def __init__(self, seed, scale, tmp_dir):
        super().__init__(seed, scale, tmp_dir)
        self.n = self.scaled(20_000, 500)
        self.inserts_per_round = max(1, self.n // 500)
        self.delete_fraction = 0.001
        self.rounds = self.scaled(80, 4)
        self.tenants = [
            (f"tenant{index:02d}", 8 + (index % 3) * 6)
            for index in range(self.scaled(50, 3))
        ]

    def source(self):
        return skewed_source(
            [12, 10, 12, 8, 6, 5], exponent=0.4, seed=self.seed
        )

    def config(self) -> EngineConfig:
        return EngineConfig(
            k=self.k, budget_per_round=20, seed=self.seed,
            observability=False,
        )

    def setup(self, inputs: Inputs, tracer) -> Run:
        """Construct, load, serve, submit over HTTP, first POST."""
        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.tmp_dir)
        started = perf_counter()
        engine = Engine(self.config(), schema=inputs.schema)
        engine.load(inputs.base)
        app = ServiceApp(engine, store_dir=store_dir, snapshot_every=1)
        server = _Server(app)
        client = _TimedClient(server.port, tracer)
        for name, budget in self.tenants:
            client.submit(name=name, estimator="RS", budget=budget)
        truth = len(engine.db)
        reports = self.post_round(client)
        return Run(
            engine, Churn(inputs, self.seed, tracer), reports, truth,
            perf_counter() - started, app, server, client, store_dir,
        )

    def stop(self, run: Run) -> None:
        run.server.stop(run.client)

    def release(self, run: Run) -> None:
        shutil.rmtree(run.store_dir, ignore_errors=True)

    def observer(self, run: Run, tracer) -> Observer:
        """An open-loop poller over ``/v1/tasks/{name}/reports``,
        ``/v1/ledger`` and ``/v1/healthz`` in turn, the reports route
        cycling through the tenants."""
        client = _TimedClient(run.server.port, tracer)
        names = [name for name, _budget in self.tenants]

        def call(index: int):
            kind = index % 3
            if kind == 0:
                name = names[(index // 3) % len(names)]
                return client.reports(name)
            if kind == 1:
                return client.ledger()
            return client.health()

        return Poller(call, HTTP_POLL_HZ)

    @staticmethod
    def post_round(client) -> dict:
        """One ``POST /v1/rounds``; a refused tenant maps to ``None``."""
        response = client.run_rounds(rounds=1)
        return {
            outcome["task"]: (
                RoundReport.from_dict(outcome["report"])
                if outcome.get("report") is not None else None
            )
            for outcome in response["results"][0]["outcomes"]
            if outcome["status"] != "deferred"
        }

    def cycle(self, run: Run):
        """Churn, then ``advance_round``, then ``POST /v1/rounds`` (which
        snapshots the store before it answers)."""
        run.engine.apply_updates(run.churn)
        run.engine.advance_round()
        truth = len(run.engine.db)
        return self.post_round(run.client), truth

    def restore(self, run: Run) -> tuple[list, list]:
        """Time ``ServiceApp.restore`` of the last per-round snapshot in
        fresh processes and demand the same ledger and next-round
        estimates as the live app."""

        def next_round(service):
            outcome = service.run_rounds(RoundRequest(rounds=1)).to_wire()
            return {
                entry["task"]: RoundReport.from_dict(entry["report"])
                for entry in outcome["results"][0]["outcomes"]
            }

        ledger = run.app.ledger().to_wire()
        # The live app's next round must not overwrite the snapshot.
        run.app.snapshot_every = None
        expected = next_round(run.app)
        return self.restores("service", run.store_dir, ledger, expected)

    def direct_digest(self, inputs: Inputs, tracer) -> str:
        """The same tenants and churn driven straight at an ``Engine``."""
        engine = Engine(self.config(), schema=inputs.schema)
        engine.load(inputs.base)
        for name, budget in self.tenants:
            engine.submit(
                EstimationTask(name, [count_all()], "RS", budget=budget)
            )
        churn = Churn(inputs, self.seed, tracer)
        trace = EstimateTrace()
        trace.add(0, engine.run_round())
        for position in range(1, self.rounds):
            engine.apply_updates(churn)
            engine.advance_round()
            trace.add(position, engine.run_round())
        return trace.hexdigest()


class _TimedClient(ServiceClient):
    """A ``ServiceClient`` whose requests the traced run times (for the
    HTTP hop: client latency minus handler time)."""

    def __init__(self, port: int, tracer):
        super().__init__("127.0.0.1", port, timeout=60)
        self.tracer = tracer

    def request(self, method, path, payload=None):
        started = perf_counter()
        try:
            return super().request(method, path, payload)
        finally:
            self.tracer.add("client", perf_counter() - started)


WORKLOADS = {
    workload.name: workload
    for workload in (SteadyRounds, BigChange, ServiceDurable)
}
