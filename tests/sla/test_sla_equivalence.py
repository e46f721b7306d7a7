"""serve(spec) with SLA policies is bit-identical to hand-wiring.

The SLA acceptance criterion: naming the SLA arbiter, priority
admission, renegotiation, placement and migration **in JSON** (classes
included) reproduces direct construction exactly — same summaries,
same per-stream series, same per-class breakdowns — and a no-op
observer changes nothing.
"""

from __future__ import annotations

import math

from repro.cluster import ClusterRunner
from repro.serving import RoundObserver, ServingSpec, serve
from repro.sla import (
    PriorityAdmissionController,
    ServiceClass,
    SlaMigration,
    SlaPlacement,
    SlaQualityFairArbiter,
    StepRenegotiation,
    gold_rush,
    sla_skewed_cluster,
)
from repro.streams import FleetRunner

CAPACITY = 24e6

CUSTOM_CLASSES = (
    ServiceClass("gold", weight=4.0, admission_priority=2,
                 min_quality=0.4, target_quality=0.9, preempt=True),
    ServiceClass("bronze", weight=1.0, admission_priority=0,
                 min_quality=0.1, target_quality=0.45),
)


def assert_values_equal(mine, theirs):
    assert len(mine) == len(theirs)
    for x, y in zip(mine, theirs):
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y)
        else:
            assert x == y


def assert_summaries_equal(mine, theirs):
    assert mine.keys() == theirs.keys()
    assert_values_equal(list(mine.values()), list(theirs.values()))


def assert_pools_equal(served, direct):
    assert len(served.pools) == len(direct.pools)
    for mine, theirs in zip(served.per_pool(), direct.per_pool()):
        assert_summaries_equal(mine, theirs)


def assert_breakdowns_equal(mine, theirs):
    assert mine.keys() == theirs.keys()
    for name in mine:
        assert_summaries_equal(mine[name], theirs[name])


class TestFleetSlaEquivalence:
    KWARGS = {"bronze": 6, "gold": 3, "crowd_round": 2, "frames": 5,
              "scale": 27}

    def test_standard_catalog(self):
        served = serve(ServingSpec.from_dict({
            "scenario": {"name": "gold-rush", "kwargs": self.KWARGS},
            "capacity": CAPACITY,
            "arbiter": "sla-quality-fair",
            "admission": {"name": "priority", "kwargs": {"queue_limit": 2}},
            "renegotiation": {"name": "step", "kwargs": {"patience": 2}},
        }))
        direct = FleetRunner(
            CAPACITY,
            SlaQualityFairArbiter(),
            PriorityAdmissionController(CAPACITY, queue_limit=2),
            renegotiation=StepRenegotiation(patience=2),
        ).run(gold_rush(**self.KWARGS))
        assert_summaries_equal(served.summary(), direct.summary())
        assert_values_equal(
            served.per_stream_quality(), direct.per_stream_quality()
        )
        assert_breakdowns_equal(served.per_class(), direct.per_class())
        assert_pools_equal(served, direct)

    def test_custom_classes_from_json(self):
        spec = ServingSpec.from_dict({
            "scenario": {"name": "gold-rush", "kwargs": self.KWARGS},
            "capacity": CAPACITY,
            "arbiter": "sla-quality-fair",
            "admission": "priority",
            "renegotiation": "step",
            "service_classes": [c.to_dict() for c in CUSTOM_CLASSES],
        })
        # the JSON document round-trips losslessly
        assert ServingSpec.from_json(spec.to_json()) == spec
        served = serve(spec)
        direct = FleetRunner(
            CAPACITY,
            SlaQualityFairArbiter(classes=CUSTOM_CLASSES),
            PriorityAdmissionController(CAPACITY, classes=CUSTOM_CLASSES),
            service_classes=CUSTOM_CLASSES,
            renegotiation=StepRenegotiation(),
        ).run(gold_rush(**self.KWARGS))
        assert_summaries_equal(served.summary(), direct.summary())
        assert_values_equal(
            served.per_stream_quality(), direct.per_stream_quality()
        )
        assert_breakdowns_equal(served.per_class(), direct.per_class())
        assert_pools_equal(served, direct)


class TestClusterSlaEquivalence:
    KWARGS = {"streams": 8, "shards": 3, "frames": 4}

    def test_sla_cluster_stack(self):
        served = serve(ServingSpec.from_dict({
            "topology": "cluster",
            "scenario": {"name": "sla-skewed-cluster", "kwargs": self.KWARGS},
            "arbiter": "sla-quality-fair",
            "admission": "priority",
            "placement": "sla-aware",
            "migration": "sla-aware",
            "renegotiation": "step",
        }))
        direct = ClusterRunner(
            placement=SlaPlacement(),
            migration=SlaMigration(),
            arbiter=SlaQualityFairArbiter(),
            admission=True,
            admission_factory=lambda capacity: PriorityAdmissionController(
                capacity
            ),
            renegotiation=StepRenegotiation(),
        ).run(sla_skewed_cluster(**self.KWARGS))
        assert_summaries_equal(served.summary(), direct.summary())
        assert_values_equal(
            served.per_stream_quality(), direct.per_stream_quality()
        )
        assert_breakdowns_equal(served.per_class(), direct.per_class())
        assert served.migrations == direct.migrations
        assert_pools_equal(served, direct)


class TestNoOpObserversChangeNothing:
    def test_sla_fleet(self):
        spec = {
            "scenario": {"name": "gold-rush",
                         "kwargs": {"bronze": 4, "gold": 2, "crowd_round": 2,
                                    "frames": 4, "scale": 27}},
            "capacity": 18e6,
            "arbiter": "sla-quality-fair",
            "admission": {"name": "priority", "kwargs": {"queue_limit": 1}},
            "renegotiation": "step",
        }
        bare = serve(spec)
        observed = serve(spec, observers=[RoundObserver(), RoundObserver()])
        assert bare.summary() == observed.summary()
        assert bare.per_stream_quality() == observed.per_stream_quality()
        assert_breakdowns_equal(bare.per_class(), observed.per_class())
