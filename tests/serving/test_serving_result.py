"""One result type: both topologies answer the same accessors.

``FleetRunner.run``, ``ClusterRunner.run`` and ``serve()`` all return a
:class:`~repro.streams.fleet.ServingResult` whose accessors are written
once over its per-pool records.  These tests pin that every accessor
exists on both topologies and agrees with the pool records it reads,
and that the per-pool table labels each row with its real shard id.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.metrics import jain_fairness_index, load_imbalance
from repro.analysis.report import pool_table
from repro.serving import serve
from tests.horizon.test_horizon_determinism import always_on_spec

FLEET_SPEC = {
    "scenario": {"name": "flash-crowd",
                 "kwargs": {"base": 2, "crowd": 3, "crowd_round": 2,
                            "frames": 4, "scale": 27}},
    "capacity": 20e6,
    "admission": "feasibility",
}

CLUSTER_SPEC = {
    "topology": "cluster",
    "scenario": {"name": "skewed-cluster",
                 "kwargs": {"streams": 6, "frames": 4}},
    "placement": "round-robin",
    "migration": "load-balance",
}


def finite_mean(values):
    finite = [v for v in values if math.isfinite(v)]
    return sum(finite) / len(finite) if finite else math.nan


@pytest.mark.parametrize(
    "spec", [FLEET_SPEC, CLUSTER_SPEC], ids=["fleet", "cluster"]
)
def test_accessors_agree_with_pool_records(spec):
    result = serve(spec)
    pools = result.pools
    outcomes = [o for pool in pools for o in pool.outcomes]

    assert result.raw is result
    assert result.total_deadline_misses() == sum(
        o.result.deadline_miss_count for o in outcomes
    )
    assert result.mean_psnr() == pytest.approx(
        finite_mean([o.result.mean_psnr() for o in outcomes])
    )
    assert result.fairness_psnr() == jain_fairness_index(
        [o.result.mean_psnr() for o in outcomes]
    )
    assert result.migration_count == len(result.migrations)
    assert result.load_imbalance() == load_imbalance(
        [pool.demand_cycles for pool in pools]
    )
    per_pool = result.per_pool()
    assert [entry["shard"] for entry in per_pool] == [
        pool.shard_id for pool in pools
    ]
    assert [entry["peak_concurrency"] for entry in per_pool] == [
        pool.peak_concurrency for pool in pools
    ]
    assert [entry["served"] for entry in per_pool] == [
        len(pool.outcomes) for pool in pools
    ]
    pool_quality = [
        finite_mean([o.result.mean_quality() for o in pool.outcomes])
        for pool in pools
    ]
    assert result.fairness_cross_shard() == pytest.approx(
        jain_fairness_index([q for q in pool_quality if not math.isnan(q)])
    )
    assert result.served_count == len(outcomes)
    assert result.summary()["served"] == len(outcomes)


def test_fleet_is_one_pool_without_cluster_tier():
    result = serve(FLEET_SPEC)
    assert result.topology == "fleet"
    assert len(result.pools) == 1
    assert result.pools[0].shard_id is None
    assert result.pools[0].peak_concurrency > 0
    assert result.migration_count == 0
    assert result.active_migration_count == 0
    assert (
        result.placement_name, result.migration_name, result.balancer_name,
    ) == ("none", "none", "none")
    assert result.scale_actions == [] and result.lent_cycles == 0.0


def test_cluster_records_its_policies_and_moves():
    result = serve(CLUSTER_SPEC)
    assert result.topology == "cluster"
    assert [pool.shard_id for pool in result.pools] == [
        "shard-0", "shard-1", "shard-2",
    ]
    assert result.placement_name == "round-robin"
    assert result.migration_name == "load-balance"
    assert result.migration_count > 0


def test_pool_table_labels_autoscaled_pools_by_shard_id():
    """Regression: rows used to be labelled ``shard-<row index>``, but
    ``pools`` is the live shards followed by the retired ones and
    autoscaled pools are named ``scale-N``."""
    result = serve(always_on_spec())
    ids = [pool.shard_id for pool in result.pools]
    assert any(shard_id.startswith("scale-") for shard_id in ids)
    rows = pool_table(result).splitlines()[2:]
    assert [row.split()[0] for row in rows] == ids + ["all"]
