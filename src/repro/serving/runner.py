"""The unified runner protocol and the ``serve`` facade.

:class:`ServingRunner` is the structural contract both
:class:`~repro.streams.fleet.FleetRunner` and
:class:`~repro.cluster.runner.ClusterRunner` satisfy: ``run(scenario)``
serves one scenario to completion, ``reset()`` clears any cross-run
state so one runner instance can serve many scenarios bit-identically.

:func:`serve` is the one entry point the rest of the repo (examples,
benches, report tables) builds on: it takes a declarative
:class:`~repro.serving.spec.ServingSpec` (or its dict/JSON form),
instantiates every policy from the registries, runs the matching
topology, and returns the runner's
:class:`~repro.streams.fleet.ServingResult` with the spec, runner and
observers filled in.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Protocol, runtime_checkable

from repro.cluster.runner import ClusterRunner
from repro.cluster.scenarios import ClusterScenario
from repro.errors import ConfigurationError
from repro.serving.registry import (
    ADMISSIONS,
    ARBITERS,
    AUTOSCALERS,
    BALANCERS,
    MIGRATIONS,
    OBSERVERS,
    PLACEMENTS,
    RENEGOTIATIONS,
    SCENARIOS,
)
from repro.serving.spec import PolicySpec, ServingSpec
from repro.streams.fleet import FleetRunner, ServingResult
from repro.streams.scenarios import Scenario


@runtime_checkable
class ServingRunner(Protocol):
    """What every serving topology's runner provides.

    ``run`` serves one scenario to completion and returns its
    :class:`~repro.streams.fleet.ServingResult`; ``reset`` restores the runner to its
    just-constructed state so back-to-back ``run`` calls replay
    bit-identically (see ``tests/serving/test_serving_reset.py``).
    """

    def run(self, scenario): ...

    def reset(self) -> None: ...


def _coerce_spec(spec) -> ServingSpec:
    if isinstance(spec, ServingSpec):
        return spec
    if isinstance(spec, str):
        return ServingSpec.from_json(spec)
    if isinstance(spec, Mapping):
        return ServingSpec.from_dict(spec)
    raise ConfigurationError(
        f"serve() takes a ServingSpec, mapping, or JSON string, "
        f"got {type(spec).__name__}"
    )


def _create(registry, policy: PolicySpec, field_name: str, *args,
            classes=None, slos=None):
    """Registry create with kwarg mistakes reported against the field.

    ``classes`` is the spec's ``service_classes`` catalog: factories
    registered with ``sla_aware=True`` metadata receive it as their
    ``classes`` kwarg unless the policy's own kwargs already name one.
    ``slos`` works the same way for ``slo_aware=True`` factories (the
    spec's declared objectives reach the SLO observer and the
    invariant ledger's budget-conservation law).
    """
    kwargs = policy.kwargs
    meta = registry.meta(policy.name)
    if (
        classes is not None
        and "classes" not in kwargs
        and meta.get("sla_aware")
    ):
        kwargs = {**kwargs, "classes": classes}
    if slos is not None and "slos" not in kwargs and meta.get("slo_aware"):
        kwargs = {**kwargs, "slos": slos}
    try:
        return registry.create(policy.name, *args, **kwargs)
    except TypeError as error:
        # chained, not suppressed: the TypeError may also be a bug
        # inside a third-party factory, so keep its traceback
        raise ConfigurationError(
            f"{field_name}: cannot construct {policy.name!r} "
            f"with kwargs {kwargs!r}: {error}"
        ) from error


def build_scenario(spec: ServingSpec):
    """Instantiate the spec's workload from the scenario registry."""
    scenario = _create(SCENARIOS, spec.scenario, "scenario")
    expected = Scenario if spec.topology == "fleet" else ClusterScenario
    if not isinstance(scenario, expected):
        raise ConfigurationError(
            f"scenario: generator {spec.scenario.name!r} returned "
            f"{type(scenario).__name__}, expected {expected.__name__} "
            f"for topology {spec.topology!r}"
        )
    return scenario


def _optional(registry, policy: PolicySpec | None, field_name: str,
              classes=None):
    if policy is None:
        return None
    return _create(registry, policy, field_name, classes=classes)


def build_runner(
    spec: ServingSpec,
    scenario=None,
    observers: Sequence = (),
) -> ServingRunner:
    """Instantiate the spec's runner (policies resolved by name).

    ``scenario`` is only needed to resolve a relative
    (``{"utilization": f}``) fleet capacity; pass the one you will run.
    """
    classes = spec.service_classes
    renegotiation = _optional(
        RENEGOTIATIONS, spec.renegotiation, "renegotiation"
    )
    max_rounds = 100_000 if spec.max_rounds is None else spec.max_rounds
    if spec.topology == "fleet":
        # the scenario is only needed to resolve a relative capacity
        if scenario is None and isinstance(spec.capacity, Mapping):
            scenario = build_scenario(spec)
        capacity = spec.resolve_capacity(scenario)
        admission = (
            None
            if spec.admission is None
            else _create(
                ADMISSIONS, spec.admission, "admission", capacity,
                classes=classes,
            )
        )
        return FleetRunner(
            capacity=capacity,
            arbiter=_create(ARBITERS, spec.arbiter, "arbiter",
                            classes=classes),
            admission=admission,
            constraint_mode=spec.constraint_mode,
            granularity=spec.granularity,
            max_rounds=max_rounds,
            observers=observers,
            service_classes=classes,
            renegotiation=renegotiation,
            engine=spec.engine,
        )
    if spec.admission is None:
        admission_factory = None
        admission = False
    else:
        gate = spec.admission
        admission_factory = lambda capacity: _create(
            ADMISSIONS, gate, "admission", capacity, classes=classes
        )
        admission = True
    return ClusterRunner(
        placement=_create(PLACEMENTS, spec.placement, "placement",
                          classes=classes),
        migration=_optional(MIGRATIONS, spec.migration, "migration",
                            classes=classes),
        balancer=_optional(BALANCERS, spec.balancer, "balancer"),
        autoscaler=_optional(AUTOSCALERS, spec.autoscaler, "autoscaler",
                             classes=classes),
        max_rounds=max_rounds,
        observers=observers,
        arbiter=_create(ARBITERS, spec.arbiter, "arbiter", classes=classes),
        admission=admission,
        admission_factory=admission_factory,
        constraint_mode=spec.constraint_mode,
        granularity=spec.granularity,
        service_classes=classes,
        renegotiation=renegotiation,
        engine=spec.engine,
    )


def build_observers(spec: ServingSpec, existing: Sequence = ()) -> tuple:
    """Instantiate the spec's declared observers from the registry.

    A spec that declares ``slos`` gets an
    :class:`~repro.obs.slo.SloObserver` evaluating them appended
    automatically, unless its ``observers`` list already names one
    (declare ``{"name": "slo", "kwargs": {...}}`` to override the
    wiring) or ``existing`` — the caller-passed instances — already
    contains one (the CLI builds its own to watch live status).
    """
    built = [
        _create(OBSERVERS, policy, "observers",
                classes=spec.service_classes, slos=spec.slos)
        for policy in spec.observers
    ]
    if spec.slos is not None and not any(
        policy.name == "slo" for policy in spec.observers
    ):
        from repro.obs.slo import SloObserver

        if not any(isinstance(o, SloObserver) for o in existing):
            built.append(_create(
                OBSERVERS, PolicySpec("slo"), "slos",
                classes=spec.service_classes, slos=spec.slos,
            ))
    return tuple(built)


def _wire_observers(observers) -> None:
    """Point every sink-less SLO observer at the run's first event log,
    so burn-rate alerts interleave into the JSONL event stream."""
    # deferred import: the obs layer builds on serving (registry-factory
    # pattern)
    from repro.obs.events import StructuredEventLog
    from repro.obs.slo import SloObserver

    log = next(
        (o for o in observers if isinstance(o, StructuredEventLog)), None
    )
    if log is None:
        return
    for observer in observers:
        if isinstance(observer, SloObserver) and observer.sink is None:
            observer.sink = log


def _close_observers(observers) -> None:
    """End-of-run lifecycle: flush/finalize observers that support it."""
    for observer in observers:
        close = getattr(observer, "close", None)
        if callable(close):
            close()


def serve(spec, observers: Sequence = ()) -> ServingResult:
    """Run one declarative serving spec end to end.

    ``spec`` may be a :class:`ServingSpec`, its ``to_dict`` mapping
    form, or a JSON string; ``observers`` are
    :class:`~repro.serving.observers.RoundObserver` instances threaded
    through the run's lifecycle hooks, in addition to any the spec
    itself declares (``spec.observers``, built from the ``OBSERVERS``
    registry).  When the run ends — normally or by raising — every
    attached observer that defines ``close()`` has it called (flushing
    partial telemetry windows, event-log file handles, and invariant
    finalizers); the full tuple is returned on
    :attr:`ServingResult.observers`.
    """
    spec = _coerce_spec(spec)
    scenario = build_scenario(spec)
    all_observers = tuple(observers) + build_observers(
        spec, existing=observers
    )
    _wire_observers(all_observers)
    runner = build_runner(spec, scenario=scenario, observers=all_observers)
    try:
        result = runner.run(scenario)
    finally:
        _close_observers(all_observers)
    result.spec = spec
    result.runner = runner
    result.observers = all_observers
    return result
