"""serve(spec) is bit-identical to hand-constructing the runners.

The acceptance criterion of the serving-API redesign: for every
existing fleet and cluster scenario generator, the declarative path
(registry-resolved policies, spec-driven construction) reproduces the
imperative path (direct ``FleetRunner`` / ``ClusterRunner``
construction) exactly — same summaries, same per-stream series.  And
observers with no-op hooks change nothing.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterRunner,
    flash_crowd_split,
    shard_outage,
    skewed_cluster,
)
from repro.serving import (
    ARBITERS,
    MIGRATIONS,
    PLACEMENTS,
    RoundObserver,
    ServingSpec,
    serve,
)
from repro.streams import AdmissionController, FleetRunner
from repro.streams.scenarios import (
    flash_crowd,
    heterogeneous_mix,
    poisson_churn,
    steady_fleet,
)

# every fleet scenario generator, with small kwargs shared by both paths
FLEET_CASES = [
    ("steady", steady_fleet, {"count": 3, "frames": 4}),
    ("heterogeneous-mix", heterogeneous_mix, {"count": 4, "frames": 4}),
    (
        "poisson-churn",
        poisson_churn,
        {"rate": 0.8, "horizon": 6, "mean_frames": 6, "min_frames": 4},
    ),
    (
        "flash-crowd",
        flash_crowd,
        {"base": 2, "crowd": 3, "crowd_round": 2, "frames": 4, "scale": 27},
    ),
]

# every cluster scenario generator
CLUSTER_CASES = [
    ("skewed-cluster", skewed_cluster, {"streams": 6, "frames": 4}),
    ("shard-outage", shard_outage, {"streams": 6, "frames": 6}),
    (
        "flash-crowd-split",
        flash_crowd_split,
        {"base": 2, "crowd": 4, "crowd_round": 2, "frames": 4},
    ),
]

CAPACITY = 24e6


def assert_values_equal(mine, theirs):
    """Bit-identical comparison where nan == nan (idle pools, all-skip
    streams legitimately produce nan metrics on both paths)."""
    import math

    assert len(mine) == len(theirs)
    for x, y in zip(mine, theirs):
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y)
        else:
            assert x == y


def assert_summaries_equal(mine, theirs):
    assert mine.keys() == theirs.keys()
    assert_values_equal(list(mine.values()), list(theirs.values()))


def assert_fleet_identical(served, direct):
    assert_summaries_equal(served.raw.summary(), direct.summary())
    assert_values_equal(
        served.raw.per_stream_quality(), direct.per_stream_quality()
    )
    assert_values_equal(served.raw.per_stream_psnr(), direct.per_stream_psnr())
    assert [o.spec.name for o in served.outcomes] == [
        o.spec.name for o in direct.streams
    ]


def assert_cluster_identical(served, direct):
    assert_summaries_equal(served.raw.summary(), direct.summary())
    assert_values_equal(
        served.raw.per_stream_quality(), direct.per_stream_quality()
    )
    assert served.raw.shard_demand_cycles == direct.shard_demand_cycles
    assert served.raw.migrations == direct.migrations
    for mine, theirs in zip(served.raw.shard_results, direct.shard_results):
        assert_summaries_equal(mine.summary(), theirs.summary())


@pytest.mark.parametrize(
    "name,generator,kwargs", FLEET_CASES, ids=[c[0] for c in FLEET_CASES]
)
def test_fleet_scenarios_equivalent(name, generator, kwargs):
    spec = ServingSpec.from_dict({
        "topology": "fleet",
        "scenario": {"name": name, "kwargs": kwargs},
        "capacity": CAPACITY,
        "arbiter": "quality-fair",
        "admission": "feasibility",
    })
    served = serve(spec)
    direct = FleetRunner(
        CAPACITY, ARBITERS.create("quality-fair"), AdmissionController(CAPACITY)
    ).run(generator(**kwargs))
    assert_fleet_identical(served, direct)


def test_fleet_without_admission_equivalent():
    kwargs = {"count": 3, "frames": 4}
    served = serve({
        "scenario": {"name": "steady", "kwargs": kwargs},
        "capacity": CAPACITY,
        "arbiter": "equal-share",
        "admission": "none",
    })
    direct = FleetRunner(CAPACITY, ARBITERS.create("equal-share")).run(
        steady_fleet(**kwargs)
    )
    assert_fleet_identical(served, direct)


def test_fleet_utilization_capacity_equivalent():
    kwargs = {"count": 3, "frames": 4}
    scenario = steady_fleet(**kwargs)
    served = serve({
        "scenario": {"name": "steady", "kwargs": kwargs},
        "capacity": {"utilization": 0.7},
        "arbiter": "weighted-share",
        "admission": "none",
    })
    direct = FleetRunner(
        0.7 * scenario.total_demand(), ARBITERS.create("weighted-share")
    ).run(scenario)
    assert_fleet_identical(served, direct)
    assert served.runner.capacity == 0.7 * scenario.total_demand()


@pytest.mark.parametrize(
    "name,generator,kwargs", CLUSTER_CASES, ids=[c[0] for c in CLUSTER_CASES]
)
def test_cluster_scenarios_equivalent(name, generator, kwargs):
    spec = ServingSpec.from_dict({
        "topology": "cluster",
        "scenario": {"name": name, "kwargs": kwargs},
        "placement": "best-fit",
        "migration": "load-balance",
        "balancer": "headroom",
    })
    served = serve(spec)
    from repro.cluster import HeadroomBalancer

    direct = ClusterRunner(
        placement=PLACEMENTS.create("best-fit"),
        migration=MIGRATIONS.create("load-balance"),
        balancer=HeadroomBalancer(),
    ).run(generator(**kwargs))
    assert_cluster_identical(served, direct)


def test_cluster_plain_equivalent():
    kwargs = {"streams": 6, "frames": 4}
    served = serve({
        "topology": "cluster",
        "scenario": {"name": "skewed-cluster", "kwargs": kwargs},
        "placement": "round-robin",
    })
    direct = ClusterRunner(placement=PLACEMENTS.create("round-robin")).run(
        skewed_cluster(**kwargs)
    )
    assert_cluster_identical(served, direct)


class TestNoOpObserversChangeNothing:
    def test_fleet(self):
        spec = {
            "scenario": {"name": "flash-crowd",
                         "kwargs": {"base": 2, "crowd": 2, "crowd_round": 2,
                                    "frames": 4, "scale": 27}},
            "capacity": 20e6,
        }
        bare = serve(spec)
        observed = serve(spec, observers=[RoundObserver(), RoundObserver()])
        assert bare.summary() == observed.summary()
        assert bare.per_stream_quality() == observed.per_stream_quality()

    def test_cluster(self):
        spec = {
            "topology": "cluster",
            "scenario": {"name": "skewed-cluster",
                         "kwargs": {"streams": 6, "frames": 4}},
            "placement": "best-fit",
            "migration": "load-balance",
        }
        bare = serve(spec)
        observed = serve(spec, observers=[RoundObserver()])
        assert bare.summary() == observed.summary()
        assert bare.raw.migrations == observed.raw.migrations


class TestServingRunnerProtocol:
    def test_both_runners_satisfy_the_protocol(self):
        from repro.cluster import RoundRobinPlacement
        from repro.serving import ServingRunner
        from repro.streams import QualityFairArbiter

        assert isinstance(
            FleetRunner(1e6, QualityFairArbiter()), ServingRunner
        )
        assert isinstance(ClusterRunner(RoundRobinPlacement()), ServingRunner)

    def test_build_runner_returns_protocol_instances(self):
        from repro.serving import ServingRunner, build_runner

        fleet = build_runner(ServingSpec(scenario="steady", capacity=1e6))
        assert isinstance(fleet, ServingRunner)
        cluster = build_runner(ServingSpec.from_dict({
            "topology": "cluster",
            "scenario": "skewed-cluster",
            "placement": "best-fit",
        }))
        assert isinstance(cluster, ServingRunner)


class TestServingResultUnification:
    """Shared accessors present and consistent across both topologies."""

    def test_summary_keys_identical(self):
        fleet = serve({
            "scenario": {"name": "steady", "kwargs": {"count": 2, "frames": 3}},
            "capacity": 32e6,
        })
        cluster = serve({
            "topology": "cluster",
            "scenario": {"name": "skewed-cluster",
                         "kwargs": {"streams": 4, "frames": 3}},
            "placement": "best-fit",
        })
        assert fleet.summary().keys() == cluster.summary().keys()
        assert fleet.topology == "fleet"
        assert cluster.topology == "cluster"
        for result in (fleet, cluster):
            assert result.served_count == len(result.outcomes)
            assert result.rejected_count == len(result.rejected)
            assert 0.0 <= result.acceptance_ratio <= 1.0
            assert result.total_frames() >= result.served_count
            assert 0.0 <= result.fairness_quality() <= 1.0
