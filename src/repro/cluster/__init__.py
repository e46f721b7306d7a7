"""Sharded cluster serving: multiple capacity pools, one control plane.

PR 1's streams layer serves one pool; this package models a
multi-processor server as a cluster of :class:`Shard`s — each a pool
with its own :class:`~repro.streams.arbiter.CapacityArbiter` and
:class:`~repro.streams.admission.AdmissionController` — coordinated by
a :class:`ClusterRunner`:

* arrivals are routed by a pluggable :class:`PlacementPolicy`
  (round-robin / least-loaded / feasibility-aware best-fit /
  quality-aware);
* a :class:`MigrationPolicy` moves queued or quality-starved streams
  off overloaded shards between rounds;
* a :class:`HeadroomBalancer` (the arbiter-of-arbiters) lends idle
  shards' spare cycles to overloaded ones each round.

Everything reuses :class:`~repro.streams.session.StreamSession` and
:class:`~repro.streams.scenarios.Scenario` unchanged; a run returns
the same :class:`~repro.streams.fleet.ServingResult` a fleet run does,
one pool record per shard (global acceptance ratio, per-stream and
cross-shard Jain fairness, load imbalance, migration counts).

Entry points: build a workload with :mod:`repro.cluster.scenarios`,
pick a placement (and optionally migration / balancing), hand both to
:class:`ClusterRunner`.
"""

from repro.cluster.migration import (
    LoadBalanceMigration,
    MigrationMove,
    MigrationPolicy,
    NoMigration,
    QueueRebalanceMigration,
)
from repro.cluster.placement import (
    BestFitPlacement,
    LeastLoadedPlacement,
    PlacementPolicy,
    PredictivePlacement,
    QualityAwarePlacement,
    RoundRobinPlacement,
)
from repro.cluster.runner import (
    ClusterRunner,
    HeadroomBalancer,
    build_shards,
)
from repro.cluster.scenarios import (
    CapacityEvent,
    ClusterScenario,
    flash_crowd_split,
    shard_outage,
    skewed_churn,
    skewed_cluster,
)
from repro.cluster.shard import Shard

__all__ = [
    "BestFitPlacement",
    "CapacityEvent",
    "ClusterRunner",
    "ClusterScenario",
    "HeadroomBalancer",
    "LeastLoadedPlacement",
    "LoadBalanceMigration",
    "MigrationMove",
    "MigrationPolicy",
    "NoMigration",
    "PlacementPolicy",
    "PredictivePlacement",
    "QualityAwarePlacement",
    "QueueRebalanceMigration",
    "RoundRobinPlacement",
    "Shard",
    "build_shards",
    "flash_crowd_split",
    "shard_outage",
    "skewed_churn",
    "skewed_cluster",
]
