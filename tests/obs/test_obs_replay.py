"""Replay: a saved event log, folded by fresh observers, equals the live run.

Every observer in :mod:`repro.obs` is a fold over the lifecycle event
stream, and every record carries the facts its folds read.  So the
JSONL event log of a run, parsed back and fed through fresh instances
of the same observers, must reproduce what the live observers derived:

* trace JSONL, SLO reports and alerts, incident attribution, the
  invariant ledger and its violations, and the event log itself —
  byte for byte;
* telemetry windows — counts exactly, floats to 1e-9 relative (the
  JSONL sorts allocation keys, so a per-round grant sum may add in a
  different order than the runner's; headroom, a difference of such
  sums, gets the matching 1e-6-cycle absolute slack).

The specs are the golden table's (one per registered scenario
generator) plus an autoscaled diurnal cluster with a gold SLO, whose
burn alerts exercise the derived-event path.
"""

from __future__ import annotations

import math

import pytest

from repro.obs import (
    InvariantObserver,
    SloObserver,
    StructuredEventLog,
    TelemetryObserver,
    TraceObserver,
    attribute_incidents,
    canonical_document,
    parse_events,
)
from repro.serving import ServingSpec, build_observers, serve
from tests.engine.test_engine_equivalence import SCENARIO_KWARGS, spec_for

OBSERVERS = [
    {"name": "events"},
    {"name": "trace"},
    {"name": "invariants"},
    {"name": "telemetry", "kwargs": {"window": 5}},
]

#: A small always-on deployment: 2 -> 4 shards following a diurnal
#: swing, SLA classes, and a gold objective strict enough to burn.
DIURNAL_SLO = {
    "topology": "cluster",
    "scenario": {
        "name": "diurnal-cluster",
        "kwargs": {
            "base_rate": 0.25, "peak": 0.75, "period_rounds": 30,
            "loop_frames": 12, "scale": 20, "seed": 11,
            "classes": ["gold", "bronze"], "shards": 2,
            "provision_concurrency": 4.0,
        },
    },
    "placement": "least-loaded",
    "balancer": "headroom",
    "arbiter": "sla-weighted",
    "admission": {"name": "priority", "kwargs": {"queue_limit": 4}},
    "renegotiation": {
        "name": "step",
        "kwargs": {"patience": 2, "recovery_patience": 2, "step": 0.15},
    },
    "service_classes": ["gold", "bronze"],
    "max_rounds": 60,
    "slos": [{
        "name": "gold-quality", "objective": "quality",
        "service_class": "gold", "threshold": 0.5, "target": 0.95,
        "fast_window": 5, "slow_window": 20, "burn_threshold": 1.0,
    }],
    "autoscaler": {
        "name": "signal",
        "kwargs": {"window": 6, "cooldown": 8, "sustain": 1,
                   "up_pressure": 0.22, "min_shards": 2, "max_shards": 4},
    },
}

SPECS = {name: spec_for(name, "scalar") for name in sorted(SCENARIO_KWARGS)}
SPECS["diurnal-slo"] = DIURNAL_SLO


def _first(observers, cls):
    return next((o for o in observers if isinstance(o, cls)), None)


def derived(observers) -> dict:
    """Every view the observers computed, as comparable documents."""
    log = _first(observers, StructuredEventLog)
    tracer = _first(observers, TraceObserver)
    ledger = _first(observers, InvariantObserver)
    slo = _first(observers, SloObserver)
    views = {
        "events": log.to_jsonl(),
        "trace": tracer.to_jsonl(),
        "ledger": canonical_document(ledger.ledger()),
        "violations": [str(v) for v in ledger.violations],
    }
    if slo is not None:
        views["slo_reports"] = canonical_document(
            [report.to_dict() for report in slo.reports()]
        )
        views["alerts"] = canonical_document(
            [alert.to_dict() for alert in slo.alerts]
        )
        views["incidents"] = canonical_document(
            [i.to_dict() for i in attribute_incidents(slo, tracer)]
        )
    return views


def replay(spec: ServingSpec, text: str) -> tuple:
    """Fold a saved log through fresh instances of the spec's observers."""
    observers = build_observers(spec)
    log = _first(observers, StructuredEventLog)
    for observer in observers:
        if isinstance(observer, SloObserver):
            observer.sink = log
    for event in parse_events(text):
        for observer in observers:
            observer.on_event(event)
    for observer in reversed(observers):
        observer.close()
    return observers


def assert_close(live, replayed, path="telemetry"):
    if isinstance(live, dict):
        assert sorted(live) == sorted(replayed), path
        for key in live:
            assert_close(live[key], replayed[key], f"{path}.{key}")
    elif isinstance(live, list):
        assert len(live) == len(replayed), path
        for i, (a, b) in enumerate(zip(live, replayed)):
            assert_close(a, b, f"{path}[{i}]")
    elif isinstance(live, float):
        assert isinstance(replayed, float), path
        # headroom is a difference of ~1e7-cycle sums, so its rounding
        # noise is absolute: 1e-6 cycles is 1e-13 of a pool
        assert math.isclose(live, replayed, rel_tol=1e-9, abs_tol=1e-6), (
            path, live, replayed,
        )
    else:
        assert type(live) is type(replayed) and live == replayed, (
            path, live, replayed,
        )


@pytest.mark.parametrize("name", sorted(SPECS))
def test_replay_equals_live(name):
    spec = ServingSpec.from_dict({**SPECS[name], "observers": OBSERVERS})
    result = serve(spec)
    live = result.observers
    replayed = replay(spec, _first(live, StructuredEventLog).to_jsonl())

    assert derived(replayed) == derived(live)
    assert_close(
        _first(live, TelemetryObserver).snapshot(),
        _first(replayed, TelemetryObserver).snapshot(),
    )


def test_the_diurnal_objective_burns():
    """The SLO spec must actually fire, or its replay proves little."""
    result = serve({**DIURNAL_SLO, "observers": OBSERVERS})
    slo = _first(result.observers, SloObserver)
    assert {alert.state for alert in slo.alerts} == {"firing", "resolved"}
    assert result.scale_actions
