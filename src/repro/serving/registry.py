"""String-keyed policy registries: the serving layer's extension point.

Every pluggable policy family of the serving stack — capacity arbiters,
admission gates, placement, migration, headroom balancing, and the
scenario generators themselves — is resolved **by name with kwargs**
through one :class:`PolicyRegistry` instance per family.  A
:class:`~repro.serving.spec.ServingSpec` validates its policy names
against these tables eagerly, and :func:`repro.serving.serve` builds
the runner from them, so a third-party policy plugs into every entry
point (specs, examples, benches, the CLI) with one ``register_*``
call and zero runner changes::

    from repro.serving import register_arbiter

    @register_arbiter("lottery")
    class LotteryArbiter(CapacityArbiter):
        name = "lottery"
        ...

    serve({"scenario": {"name": "steady", "kwargs": {"count": 4}},
           "capacity": 64e6, "arbiter": "lottery"})
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.migration import (
    LoadBalanceMigration,
    NoMigration,
    QueueRebalanceMigration,
)
from repro.cluster.placement import (
    BestFitPlacement,
    LeastLoadedPlacement,
    PredictivePlacement,
    QualityAwarePlacement,
    RoundRobinPlacement,
)
from repro.cluster.runner import HeadroomBalancer
from repro.cluster.scenarios import (
    flash_crowd_split,
    shard_outage,
    skewed_churn,
    skewed_cluster,
)
from repro.errors import ConfigurationError
from repro.serving.observers import CountingObserver
from repro.sla.admission import PriorityAdmissionController
from repro.sla.arbiter import SlaQualityFairArbiter, SlaWeightedArbiter
from repro.sla.classes import STANDARD_CLASSES, ServiceClass
from repro.sla.migration import SlaMigration
from repro.sla.placement import SlaPlacement
from repro.sla.renegotiation import StepRenegotiation
from repro.sla.scenarios import gold_rush, sla_churn, sla_skewed_cluster
from repro.streams.admission import AdmissionController
from repro.streams.arbiter import (
    EqualShareArbiter,
    QualityFairArbiter,
    WeightedShareArbiter,
)
from repro.streams.scenarios import (
    flash_crowd,
    heterogeneous_mix,
    poisson_churn,
    steady_fleet,
)


class PolicyRegistry:
    """A named factory table for one policy family.

    Entries map a policy name to a factory callable plus optional
    metadata (the scenario registry records each generator's topology
    there).  Registration rejects duplicates unless ``overwrite=True``
    so two plugins cannot silently shadow each other.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, tuple[Callable, dict]] = {}

    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        factory: Callable | None = None,
        *,
        overwrite: bool = False,
        **meta,
    ):
        """Register ``factory`` under ``name``; usable as a decorator."""
        if factory is None:
            return lambda f: self.register(name, f, overwrite=overwrite, **meta)
        if not isinstance(name, str) or not name:
            raise ConfigurationError(
                f"{self.kind} name must be a non-empty string, got {name!r}"
            )
        if not callable(factory):
            raise ConfigurationError(
                f"{self.kind} factory for {name!r} must be callable"
            )
        if name in self._entries and not overwrite:
            raise ConfigurationError(
                f"{self.kind} {name!r} is already registered "
                "(pass overwrite=True to replace it)"
            )
        self._entries[name] = (factory, meta)
        return factory

    def unregister(self, name: str) -> None:
        """Drop an entry (plugin teardown, tests)."""
        if name not in self._entries:
            raise ConfigurationError(f"unknown {self.kind} {name!r}")
        del self._entries[name]

    # ------------------------------------------------------------------

    def factory(self, name: str) -> Callable:
        try:
            return self._entries[name][0]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; "
                f"expected one of {self.names()}"
            ) from None

    def meta(self, name: str) -> dict:
        self.factory(name)  # raises on unknown
        return dict(self._entries[name][1])

    def create(self, name: str, *args, **kwargs):
        """Instantiate the named policy with the given arguments."""
        return self.factory(name)(*args, **kwargs)

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries


#: The serving stack's policy families, seeded with the built-ins below.
ARBITERS = PolicyRegistry("arbiter")
ADMISSIONS = PolicyRegistry("admission")
PLACEMENTS = PolicyRegistry("placement")
MIGRATIONS = PolicyRegistry("migration")
BALANCERS = PolicyRegistry("balancer")
SCENARIOS = PolicyRegistry("scenario")
SLA_CLASSES = PolicyRegistry("service class")
RENEGOTIATIONS = PolicyRegistry("renegotiation")
OBSERVERS = PolicyRegistry("observer")
AUTOSCALERS = PolicyRegistry("autoscaler")

#: Topologies a scenario generator may declare (and a spec may request).
TOPOLOGIES = ("fleet", "cluster")


def register_arbiter(name, factory=None, *, overwrite=False, **meta):
    """Register a :class:`~repro.streams.arbiter.CapacityArbiter` factory.

    ``sla_aware=True`` metadata marks factories accepting a ``classes``
    kwarg: :func:`~repro.serving.runner.build_runner` forwards a spec's
    ``service_classes`` catalog to them automatically.
    """
    return ARBITERS.register(name, factory, overwrite=overwrite, **meta)


def register_admission(name, factory=None, *, overwrite=False, **meta):
    """Register an admission factory called as ``factory(capacity, **kw)``.

    Returning ``None`` means the pool runs ungated (see ``"none"``).
    ``sla_aware=True`` metadata works as in :func:`register_arbiter`.
    """
    return ADMISSIONS.register(name, factory, overwrite=overwrite, **meta)


def register_placement(name, factory=None, *, overwrite=False, **meta):
    """Register a :class:`~repro.cluster.placement.PlacementPolicy` factory.

    ``sla_aware=True`` metadata works as in :func:`register_arbiter`.
    """
    return PLACEMENTS.register(name, factory, overwrite=overwrite, **meta)


def register_migration(name, factory=None, *, overwrite=False, **meta):
    """Register a :class:`~repro.cluster.migration.MigrationPolicy` factory.

    ``sla_aware=True`` metadata works as in :func:`register_arbiter`.
    """
    return MIGRATIONS.register(name, factory, overwrite=overwrite, **meta)


def register_balancer(name, factory=None, *, overwrite=False):
    """Register a cross-shard balancer factory (``None`` = no lending)."""
    return BALANCERS.register(name, factory, overwrite=overwrite)


def register_service_class(service_class: ServiceClass, *, overwrite=False):
    """Register a :class:`~repro.sla.classes.ServiceClass` by its name.

    Registered classes are resolvable anywhere a ``classes`` kwarg or a
    spec's ``service_classes`` field accepts a name string.
    """
    if not isinstance(service_class, ServiceClass):
        raise ConfigurationError(
            f"expected a ServiceClass, got {type(service_class).__name__}"
        )
    SLA_CLASSES.register(
        service_class.name,
        lambda sc=service_class: sc,
        overwrite=overwrite,
    )
    return service_class


def register_renegotiation(name, factory=None, *, overwrite=False):
    """Register a mid-stream renegotiation policy factory.

    Policies must be stateless (shared across every session of a run);
    see :class:`repro.sla.renegotiation.StepRenegotiation`.
    """
    return RENEGOTIATIONS.register(name, factory, overwrite=overwrite)


def register_observer(name, factory=None, *, overwrite=False, **meta):
    """Register a :class:`~repro.serving.observers.RoundObserver` factory.

    Named observers let a :class:`~repro.serving.spec.ServingSpec`
    declare its telemetry (``"observers": [{"name": "telemetry", ...}]``)
    the same way it declares policies; :func:`repro.serve` builds them,
    threads them through the run, and calls each one's ``close()`` when
    the run ends.  ``sla_aware=True`` metadata works as in
    :func:`register_arbiter`.
    """
    return OBSERVERS.register(name, factory, overwrite=overwrite, **meta)


def register_autoscaler(name, factory=None, *, overwrite=False, **meta):
    """Register an :class:`~repro.horizon.autoscaler.Autoscaler` factory.

    ``sla_aware=True`` metadata works as in :func:`register_arbiter`
    (the spec's catalog reaches the policy's ``classes`` kwarg, so its
    pressure weighting follows the run's declared tiers).
    """
    return AUTOSCALERS.register(name, factory, overwrite=overwrite, **meta)


def register_scenario(
    name, factory=None, *, topology="fleet", open_ended=False, overwrite=False
):
    """Register a scenario generator, tagged with its topology.

    ``topology="fleet"`` generators return a
    :class:`~repro.streams.scenarios.Scenario`; ``"cluster"`` generators
    return a :class:`~repro.cluster.scenarios.ClusterScenario`.  Specs
    check the tag eagerly so a cluster workload can never be handed to a
    fleet runner.  ``open_ended=True`` marks always-on generators whose
    arrivals never stop: a spec naming one must set an explicit
    ``max_rounds`` (checked eagerly too).
    """
    if topology not in TOPOLOGIES:
        raise ConfigurationError(
            f"scenario topology must be one of {TOPOLOGIES}, got {topology!r}"
        )
    return SCENARIOS.register(
        name, factory, overwrite=overwrite, topology=topology,
        open_ended=bool(open_ended),
    )


def scenario_topology(name: str) -> str:
    """Which topology the named scenario generator serves."""
    return SCENARIOS.meta(name)["topology"]


def scenario_open_ended(name: str) -> bool:
    """Is the named generator an always-on (never-ending) source?"""
    return bool(SCENARIOS.meta(name).get("open_ended", False))


# ----------------------------------------------------------------------
# built-ins
# ----------------------------------------------------------------------

register_arbiter("equal-share", EqualShareArbiter)
register_arbiter("weighted-share", WeightedShareArbiter)
register_arbiter("quality-fair", QualityFairArbiter)
register_arbiter("sla-weighted", SlaWeightedArbiter, sla_aware=True)
register_arbiter("sla-quality-fair", SlaQualityFairArbiter, sla_aware=True)


def _no_admission(capacity=None):
    """The ungated pool: every offer is accepted outright."""
    return None


register_admission("feasibility", AdmissionController)
register_admission("none", _no_admission)
register_admission("priority", PriorityAdmissionController, sla_aware=True)

register_placement("round-robin", RoundRobinPlacement)
register_placement("least-loaded", LeastLoadedPlacement)
register_placement("best-fit", BestFitPlacement)
register_placement("predictive", PredictivePlacement)
register_placement("quality-aware", QualityAwarePlacement)
register_placement("sla-aware", SlaPlacement, sla_aware=True)

register_migration("none", NoMigration)
register_migration("queue-rebalance", QueueRebalanceMigration)
register_migration("load-balance", LoadBalanceMigration)
register_migration("sla-aware", SlaMigration, sla_aware=True)

register_balancer("headroom", HeadroomBalancer)

register_renegotiation("step", StepRenegotiation)


# observer factories import repro.obs lazily: obs modules import this
# registry at module level (they *are* policy families), so eager
# imports here would be circular
def _telemetry_observer(**kwargs):
    from repro.obs.metrics import TelemetryObserver

    return TelemetryObserver(**kwargs)


def _event_log_observer(**kwargs):
    from repro.obs.events import StructuredEventLog

    return StructuredEventLog(**kwargs)


def _invariant_observer(**kwargs):
    from repro.obs.invariants import InvariantObserver

    return InvariantObserver(**kwargs)


def _perf_observer(**kwargs):
    from repro.obs.profiling import PerfObserver

    return PerfObserver(**kwargs)


def _slo_observer(**kwargs):
    from repro.obs.slo import SloObserver

    return SloObserver(**kwargs)


def _trace_observer(**kwargs):
    from repro.obs.tracing import TraceObserver

    return TraceObserver(**kwargs)


register_observer("telemetry", _telemetry_observer)
register_observer("events", _event_log_observer)
register_observer("invariants", _invariant_observer, sla_aware=True,
                  slo_aware=True)
register_observer("perf", _perf_observer)
register_observer("counting", CountingObserver)
register_observer("slo", _slo_observer, sla_aware=True, slo_aware=True)
register_observer("trace", _trace_observer)

for _service_class in STANDARD_CLASSES:
    register_service_class(_service_class)

register_scenario("steady", steady_fleet, topology="fleet")
register_scenario("heterogeneous-mix", heterogeneous_mix, topology="fleet")
register_scenario("poisson-churn", poisson_churn, topology="fleet")
register_scenario("flash-crowd", flash_crowd, topology="fleet")
register_scenario("sla-churn", sla_churn, topology="fleet")
register_scenario("gold-rush", gold_rush, topology="fleet")
register_scenario("skewed-cluster", skewed_cluster, topology="cluster")
register_scenario("skewed-churn", skewed_churn, topology="cluster")
register_scenario("shard-outage", shard_outage, topology="cluster")
register_scenario("flash-crowd-split", flash_crowd_split, topology="cluster")
register_scenario(
    "sla-skewed-cluster", sla_skewed_cluster, topology="cluster"
)


# the always-on sources live one layer up (repro.horizon imports the
# streams/cluster/sla/obs leaves, never this module), so importing them
# here — after every registry exists — closes the loop without a cycle
from repro.horizon.sources import (  # noqa: E402
    diurnal_cluster,
    diurnal_live,
    drift_cluster,
    drift_live,
    flash_crowd_cluster,
    flash_crowd_live,
)


def _signal_autoscaler(**kwargs):
    from repro.horizon.autoscaler import SignalAutoscaler

    return SignalAutoscaler(**kwargs)


register_autoscaler("signal", _signal_autoscaler, sla_aware=True)

register_scenario(
    "diurnal-live", diurnal_live, topology="fleet", open_ended=True
)
register_scenario(
    "flash-live", flash_crowd_live, topology="fleet", open_ended=True
)
register_scenario(
    "drift-live", drift_live, topology="fleet", open_ended=True
)
register_scenario(
    "diurnal-cluster", diurnal_cluster, topology="cluster", open_ended=True
)
register_scenario(
    "flash-cluster", flash_crowd_cluster, topology="cluster", open_ended=True
)
register_scenario(
    "drift-cluster", drift_cluster, topology="cluster", open_ended=True
)
