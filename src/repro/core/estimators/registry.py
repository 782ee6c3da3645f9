"""First-class estimator registry (mirrors ``register_backend``).

Estimators are registered under a public name so experiment harnesses, the
CLI, and the :mod:`repro.api` engine facade can resolve them without
importing concrete classes.  Anything callable as::

    factory(interface, specs, budget_per_round=..., seed=..., **options)

can register — the shipped estimator *classes* qualify directly, and
wrappers may adapt the interface first (see
:mod:`repro.extensions.counts`, which wraps the plain top-k interface in a
count-revealing one before constructing its estimator).
"""

from __future__ import annotations

from typing import Callable

from ...errors import EstimationError

#: Builds an estimator bound to an interface: ``factory(interface, specs,
#: budget_per_round=..., seed=..., **options)``.
EstimatorFactory = Callable[..., object]

_REGISTRY: dict[str, EstimatorFactory] = {}


def register_estimator(name: str, factory: EstimatorFactory) -> None:
    """Register an estimator factory under ``name`` (overwrites silently)."""
    _REGISTRY[name] = factory


def available_estimators() -> tuple[str, ...]:
    """Names of all registered estimators."""
    return tuple(sorted(_REGISTRY))


def resolve_estimator(ref: str | EstimatorFactory) -> EstimatorFactory:
    """A factory from a registry name (or pass a factory through as-is)."""
    if not isinstance(ref, str):
        if not callable(ref):
            raise EstimationError(
                f"estimator must be a registry name or a callable factory, "
                f"got {ref!r}"
            )
        return ref
    try:
        return _REGISTRY[ref]
    except KeyError:
        raise EstimationError(
            f"unknown estimator {ref!r}; "
            f"available: {', '.join(available_estimators())}"
        ) from None
