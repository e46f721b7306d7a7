"""One serving API: declarative specs, policy registries, unified runs.

The serving layers beneath this package expose three hand-wired entry
points (single-run convenience functions, ``FleetRunner``,
``ClusterRunner``).  This package puts one declarative surface over all
of them:

* :class:`ServingSpec` — a JSON-round-trippable document naming the
  topology, capacity, workload, and every policy **by registry name
  with kwargs**, validated eagerly with field-precise errors;
* the policy registries (:data:`ARBITERS`, :data:`ADMISSIONS`,
  :data:`PLACEMENTS`, :data:`MIGRATIONS`, :data:`BALANCERS`,
  :data:`SCENARIOS`) and their ``register_*`` helpers — third-party
  policies plug into every entry point without touching runner code;
* :class:`ServingRunner` — the protocol both runners implement
  (``run`` + ``reset``), and :func:`serve`, the facade that builds and
  runs a spec and returns a unified :class:`ServingResult`;
* :class:`RoundObserver` — lifecycle hooks (``on_round`` / ``on_admit``
  / ``on_reject`` / ``on_migrate`` / ``on_depart``) threaded through
  both runners, the attachment point for windowed metrics and
  autoscaling.

Quick start::

    import repro

    result = repro.serve({
        "topology": "fleet",
        "scenario": {"name": "heterogeneous-mix",
                     "kwargs": {"count": 12, "frames": 16}},
        "capacity": {"utilization": 0.6},
        "arbiter": "quality-fair",
    })
    print(result.summary())
"""

from repro.serving.observers import (
    CountingObserver,
    RoundObserver,
    phase_timing_enabled,
)
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
    SLA_CLASSES,
    TOPOLOGIES,
    PolicyRegistry,
    register_admission,
    register_arbiter,
    register_autoscaler,
    register_balancer,
    register_migration,
    register_observer,
    register_placement,
    register_renegotiation,
    register_scenario,
    register_service_class,
    scenario_open_ended,
    scenario_topology,
)
from repro.serving.runner import (
    ServingRunner,
    build_observers,
    build_runner,
    build_scenario,
    serve,
)
from repro.serving.spec import CONSTRAINT_MODES, PolicySpec, ServingSpec
from repro.streams.fleet import ServingResult

__all__ = [
    "ADMISSIONS",
    "ARBITERS",
    "AUTOSCALERS",
    "BALANCERS",
    "CONSTRAINT_MODES",
    "CountingObserver",
    "MIGRATIONS",
    "OBSERVERS",
    "PLACEMENTS",
    "PolicyRegistry",
    "PolicySpec",
    "RENEGOTIATIONS",
    "RoundObserver",
    "SCENARIOS",
    "SLA_CLASSES",
    "ServingResult",
    "ServingRunner",
    "ServingSpec",
    "TOPOLOGIES",
    "build_observers",
    "build_runner",
    "build_scenario",
    "phase_timing_enabled",
    "register_admission",
    "register_arbiter",
    "register_autoscaler",
    "register_balancer",
    "register_migration",
    "register_observer",
    "register_placement",
    "register_renegotiation",
    "register_scenario",
    "register_service_class",
    "scenario_open_ended",
    "scenario_topology",
    "serve",
]
