"""Layer timers for the traced run, kept entirely inside the benchmark.

:class:`Tracer` wraps public functions of each layer in place (class
attributes and module globals) while a traced pass runs, and restores the
originals afterwards.  Timed passes never install it, so the end-to-end
numbers carry no instrumentation at all.  The wrappers only time and
count; they never touch arguments, results or random streams, which is
why the estimate digest must come out identical with and without them.

Times are summed per layer over one pass; nested layers are separated by
subtraction (estimator self time = ``EstimatorBase.run_round`` minus the
``QuerySession.search`` calls inside it).
"""

from __future__ import annotations

import functools
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _targets():
    """``(owner, attribute, key)`` for every wrapped public call.

    Module-level functions are patched in each module that imported them
    by name, since those modules call their own binding.
    """
    from repro.api import persistence
    from repro.api.engine import Engine
    from repro.core.estimators import base as estimator_base
    from repro.core.estimators import reissue, rs
    from repro.data.synthetic import SyntheticSource
    from repro.hiddendb import interface, result
    from repro.hiddendb.database import HiddenDatabase
    from repro.hiddendb.interface import TopKInterface
    from repro.hiddendb.query import ConjunctiveQuery
    from repro.hiddendb.session import QuerySession
    from repro.hiddendb.store import PrefixIndex, TupleStore
    from repro.service.app import ServiceApp
    from repro.service.governor import BudgetGovernor

    return [
        (SyntheticSource, "batch_columns", "synth"),
        (HiddenDatabase, "insert_many", "load"),
        (HiddenDatabase, "publish_epoch", "publish"),
        (TopKInterface, "register_attr_order", "index_build"),
        (TopKInterface, "search", "search"),
        (ConjunctiveQuery, "validate", "validate"),
        (PrefixIndex, "count_prefix", "count_prefix"),
        (TupleStore, "gather", "gather"),
        (interface, "top_k_select", "topk"),
        (result, "top_k_select", "topk"),
        (estimator_base, "drill_from_root", "drill_from_root"),
        (rs, "drill_from_root", "drill_from_root"),
        (rs, "reissue_update", "reissue_update"),
        (reissue, "reissue_update", "reissue_update"),
        (QuerySession, "search", "session_search"),
        (estimator_base.EstimatorBase, "run_round", "estimator_round"),
        (Engine, "run_round", "engine_round"),
        (persistence, "save_engine", "snapshot"),
        (ServiceApp, "run_rounds", "handler.run_rounds"),
        (ServiceApp, "submit", "handler.submit"),
        (ServiceApp, "reports", "handler.reports"),
        (ServiceApp, "ledger", "handler.ledger"),
        (ServiceApp, "health", "handler.health"),
        (BudgetGovernor, "admit", "governor"),
        (BudgetGovernor, "commit", "governor"),
    ]


def dir_bytes(path: str) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


class Tracer:
    """Per-layer time and call counters behind temporary wrappers."""

    def __init__(self):
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self.active = False
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.seconds: dict[str, float] = defaultdict(float)
            self.calls: dict[str, int] = defaultdict(int)
            self.snapshot_sizes: list[int] = []

    def freeze(self) -> dict:
        """A copy of everything booked so far (layer counters are read
        before a pass's restore check, which is not part of its work)."""
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "calls": dict(self.calls),
                "snapshot_sizes": list(self.snapshot_sizes),
            }

    def add(self, key: str, seconds: float, calls: int = 1) -> None:
        """Book time measured by the benchmark's own code (no-op when
        the tracer is not installed)."""
        if not self.active:
            return
        with self._lock:
            self.seconds[key] += seconds
            self.calls[key] += calls

    def _wrap(self, function, key: str):
        @functools.wraps(function)
        def timed(*args, **kwargs):
            started = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                with self._lock:
                    self.seconds[key] += elapsed
                    self.calls[key] += 1

        if key != "snapshot":
            return timed

        @functools.wraps(function)
        def sized(engine, path, *args, **kwargs):
            manifest = timed(engine, path, *args, **kwargs)
            size = dir_bytes(path)
            with self._lock:
                self.snapshot_sizes.append(size)
            return manifest

        return sized

    def install(self) -> None:
        if self.active:
            raise RuntimeError("tracer already installed")
        for owner, attribute, key in _targets():
            # Read the raw attribute, not the bound or inherited one, so
            # uninstall puts back exactly what was there.
            original = vars(owner)[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, key))
        self.active = True

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
        self.active = False

    @contextmanager
    def installed(self, on: bool = True):
        """Wrap the layers for the duration of the block (if ``on``)."""
        if not on:
            yield self
            return
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
