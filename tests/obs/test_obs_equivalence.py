"""Attaching telemetry observers never changes a run's results.

The tentpole guarantee of the obs subsystem: observers are write-only
(runners never read them back), so **any combination** of them leaves
every scenario generator's results bit-identical to an observer-free
run — summaries, per-stream quality/PSNR series, per-shard breakdowns.
"""

from __future__ import annotations

import math

import pytest

from repro.obs import (
    InvariantObserver,
    PerfObserver,
    SloObserver,
    SloSpec,
    StructuredEventLog,
    TelemetryObserver,
    TraceObserver,
)
from repro.serving import serve

FLEET_SCENARIOS = [
    ("steady", {"count": 3, "frames": 4}),
    ("heterogeneous-mix", {"count": 4, "frames": 4}),
    (
        "poisson-churn",
        {"rate": 0.8, "horizon": 6, "mean_frames": 6, "min_frames": 4},
    ),
    (
        "flash-crowd",
        {"base": 2, "crowd": 3, "crowd_round": 2, "frames": 4, "scale": 27},
    ),
    ("sla-churn", {"rate": 1.0, "horizon": 8, "seed": 5, "initial": 4}),
    (
        "gold-rush",
        {"bronze": 4, "gold": 2, "crowd_round": 2, "frames": 6, "scale": 27},
    ),
]

CLUSTER_SCENARIOS = [
    ("skewed-cluster", {"streams": 6, "frames": 4}),
    ("shard-outage", {"streams": 6, "frames": 6}),
    (
        "flash-crowd-split",
        {"base": 2, "crowd": 4, "crowd_round": 2, "frames": 4},
    ),
    ("sla-skewed-cluster", {"streams": 8, "frames": 5}),
]


def fleet_spec(name, kwargs):
    spec = {
        "scenario": {"name": name, "kwargs": kwargs},
        "capacity": 24e6,
        "arbiter": "quality-fair",
        "admission": "feasibility",
    }
    if name in ("sla-churn", "gold-rush"):
        spec |= {
            "arbiter": "sla-quality-fair",
            "admission": "priority",
            "renegotiation": {"name": "step",
                              "kwargs": {"patience": 1, "step": 0.2}},
        }
    return spec


def cluster_spec(name, kwargs):
    spec = {
        "topology": "cluster",
        "scenario": {"name": name, "kwargs": kwargs},
        "arbiter": "quality-fair",
        "placement": "best-fit",
        "migration": "load-balance",
    }
    if name == "sla-skewed-cluster":
        spec |= {"arbiter": "sla-weighted", "placement": "sla-aware"}
    return spec


#: Class-agnostic objectives with explicit thresholds, attachable to
#: every scenario (most generators declare no service-class catalog).
GENERIC_SLOS = (
    SloSpec(name="any-quality", objective="quality", threshold=0.3,
            target=0.9, fast_window=3, slow_window=8),
    SloSpec(name="any-acceptance", objective="acceptance", target=0.9,
            fast_window=3, slow_window=8),
)


#: Every combination exercised: single observers, pairs, and the full
#: stack (including enforcement, which must also pass cleanly).
def observer_combos():
    return [
        ("telemetry", lambda: [TelemetryObserver(window=3)]),
        ("events", lambda: [StructuredEventLog()]),
        ("invariants", lambda: [InvariantObserver()]),
        ("perf", lambda: [PerfObserver()]),
        ("trace", lambda: [TraceObserver(segment_rounds=3)]),
        ("slo", lambda: [SloObserver(GENERIC_SLOS)]),
        ("events+perf", lambda: [StructuredEventLog(), PerfObserver()]),
        (
            "full-stack-enforced",
            lambda: [
                TelemetryObserver(window=3),
                StructuredEventLog(),
                InvariantObserver(enforce=True),
                PerfObserver(),
            ],
        ),
        (
            "full-traced-stack",
            lambda: [
                TelemetryObserver(window=3),
                StructuredEventLog(),
                InvariantObserver(enforce=True, slos=GENERIC_SLOS),
                PerfObserver(),
                TraceObserver(),
                SloObserver(GENERIC_SLOS),
            ],
        ),
    ]


def assert_values_equal(mine, theirs):
    assert len(mine) == len(theirs)
    for x, y in zip(mine, theirs):
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y)
        else:
            assert x == y


def assert_results_identical(bare, observed):
    mine, theirs = bare.summary(), observed.summary()
    assert mine.keys() == theirs.keys()
    assert_values_equal(list(mine.values()), list(theirs.values()))
    assert_values_equal(
        bare.per_stream_quality(), observed.per_stream_quality()
    )
    assert_values_equal(bare.per_stream_psnr(), observed.per_stream_psnr())
    assert [o.spec.name for o in bare.outcomes] == [
        o.spec.name for o in observed.outcomes
    ]
    for a, b in zip(bare.outcomes, observed.outcomes):
        assert_values_equal(
            list(a.result.quality_series()), list(b.result.quality_series())
        )
    assert [s.name for s in bare.rejected] == [
        s.name for s in observed.rejected
    ]
    assert [s.name for s in bare.preempted] == [
        s.name for s in observed.preempted
    ]


@pytest.mark.parametrize(
    "name,kwargs", FLEET_SCENARIOS, ids=[c[0] for c in FLEET_SCENARIOS]
)
@pytest.mark.parametrize(
    "combo,make", observer_combos(), ids=[c[0] for c in observer_combos()]
)
def test_fleet_observers_change_nothing(name, kwargs, combo, make):
    spec = fleet_spec(name, kwargs)
    bare = serve(spec)
    observed = serve(spec, observers=make())
    assert_results_identical(bare, observed)


@pytest.mark.parametrize(
    "name,kwargs", CLUSTER_SCENARIOS, ids=[c[0] for c in CLUSTER_SCENARIOS]
)
@pytest.mark.parametrize(
    "combo,make", observer_combos(), ids=[c[0] for c in observer_combos()]
)
def test_cluster_observers_change_nothing(name, kwargs, combo, make):
    spec = cluster_spec(name, kwargs)
    bare = serve(spec)
    observed = serve(spec, observers=make())
    assert_results_identical(bare, observed)
    assert bare.migrations == observed.migrations


def test_spec_declared_observers_change_nothing():
    """Declaring observers in the spec document is equally invisible."""
    base = fleet_spec("gold-rush", dict(FLEET_SCENARIOS[5][1]))
    bare = serve(base)
    observed = serve(base | {
        "observers": [
            {"name": "telemetry", "kwargs": {"window": 4}},
            "events",
            {"name": "invariants", "kwargs": {"enforce": True}},
            "perf",
            "counting",
        ],
    })
    assert_results_identical(bare, observed)
    assert len(observed.observers) == 5


def test_all_invariants_hold_across_every_scenario():
    """The acceptance criterion: every registered invariant holds on
    every existing scenario generator, fleet and cluster."""
    for name, kwargs in FLEET_SCENARIOS:
        observer = InvariantObserver()
        serve(fleet_spec(name, kwargs), observers=[observer])
        assert observer.violations == [], f"{name}: {observer.violations}"
    for name, kwargs in CLUSTER_SCENARIOS:
        observer = InvariantObserver()
        serve(cluster_spec(name, kwargs), observers=[observer])
        assert observer.violations == [], f"{name}: {observer.violations}"
