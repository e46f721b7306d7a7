"""Always-on autoscaling bench: elastic capacity vs static peak.

The tentpole experiment for the long-horizon serving layer: a diurnal
open-ended workload with a 3x peak-to-trough arrival swing, served two
ways over 300+ rounds —

* **static-peak** — the classic deployment: enough shards for the peak
  (``peak_rate * mean_lifetime`` concurrent streams), provisioned for
  the whole run;
* **autoscaled** — a small fleet plus a :class:`SignalAutoscaler`
  growing it under SLA-weighted renegotiation pressure and shrinking
  it on quality-saturated quiet windows.

The acceptance bar (gated via ``baselines.json``): the autoscaled
cluster holds gold acceptance >= 0.99 and gold mean quality at or
above the gold class target (0.85 normalized) while paying for at
most 70% of the static deployment's capacity-rounds — and the
scale-conservation and pacing invariants hold in enforce mode
throughout both runs.

Writes ``autoscale.csv`` plus a ``BENCH_autoscale.json`` trajectory
(uploaded as a CI artifact so bench history survives runs).
"""

from __future__ import annotations

import json

from repro.obs import InvariantObserver, StructuredEventLog
from repro.serving import serve
from repro.video.pipeline import ENCODER_QUALITY_LEVELS

from conftest import run_once, write_bench_trajectory

QMAX = float(max(ENCODER_QUALITY_LEVELS.levels))

#: Long horizon: three full diurnal periods, arrivals swinging
#: 0.25 -> 0.75 streams/round (the 3x peak-to-trough ratio).
MAX_ROUNDS = 300
WORKLOAD = {
    "base_rate": 0.25,
    "peak": 0.75,
    "period_rounds": 100,
    "loop_frames": 24,
    "scale": 20,
    "seed": 11,
    "classes": ("gold", "bronze"),
}

#: Shared serving policy: spread placement (count-balanced), headroom
#: lending between shard arbiters, class-weighted shares (gold pulls
#: 3x bronze), a priority admission gate, and fast step renegotiation.
POLICY = {
    "placement": "least-loaded",
    "balancer": "headroom",
    "arbiter": "sla-weighted",
    "admission": {"name": "priority", "kwargs": {"queue_limit": 4}},
    "renegotiation": {
        "name": "step",
        "kwargs": {"patience": 2, "recovery_patience": 2, "step": 0.15},
    },
    "service_classes": ["gold", "bronze"],
    "engine": "vectorized",
    "max_rounds": MAX_ROUNDS,
}

AUTOSCALER = {
    "name": "signal",
    "kwargs": {
        "window": 10,
        "cooldown": 10,
        "sustain": 1,
        "up_pressure": 0.22,
        "min_shards": 2,
        "max_shards": 6,
        "down_utilization": 0.5,
        "down_quality": 5.0,
    },
}


def build_spec(shards, provision=None, autoscaler=None):
    kwargs = dict(WORKLOAD, shards=shards)
    if provision is not None:
        kwargs["provision_concurrency"] = provision
    document = {
        "topology": "cluster",
        "scenario": {"name": "diurnal-cluster", "kwargs": kwargs},
        **POLICY,
    }
    if autoscaler is not None:
        document["autoscaler"] = autoscaler
    return document


def serve_watched(document):
    """Run one deployment under enforce-mode invariants."""
    log = StructuredEventLog()
    invariants = InvariantObserver(enforce=True)
    result = serve(document, observers=[log, invariants])
    return result, log, invariants


def gold_metrics(result, log):
    """Gold acceptance and normalized quality, mid-run rejects only.

    The stop condition drains still-active sessions by flushing queues
    at ``round_index == MAX_ROUNDS``; those flush rejections are the
    run *ending*, not the cluster failing arrivals, so acceptance
    counts rejects strictly before the horizon.
    """
    per = result.per_class()["gold"]
    rejects = sum(
        1
        for event in log.events
        if event.kind == "reject"
        and event.service_class == "gold"
        and event.round < MAX_ROUNDS
    )
    served = per["served"]
    offered = served + rejects
    return {
        "served": served,
        "midrun_rejects": rejects,
        "acceptance": served / offered if offered else 1.0,
        "quality_norm": per["mean_quality"] / QMAX,
    }


def test_bench_autoscale_diurnal(benchmark, results_dir):
    """Autoscaled diurnal serving vs the statically peaked cluster."""

    def run():
        static = serve_watched(build_spec(shards=6))
        auto = serve_watched(
            build_spec(shards=2, provision=8.0, autoscaler=AUTOSCALER)
        )
        return static, auto

    (static, static_log, static_inv), (auto, auto_log, auto_inv) = run_once(
        benchmark, run
    )

    static_gold = gold_metrics(static, static_log)
    auto_gold = gold_metrics(auto, auto_log)
    actions = [a.kind for a in auto.scale_actions]
    capacity_ratio = auto.capacity_rounds / static.capacity_rounds
    violations = len(static_inv.violations) + len(auto_inv.violations)

    rows = {
        "static-peak": (static, static_gold),
        "autoscaled": (auto, auto_gold),
    }
    print(
        f"\nalways-on diurnal serving, {MAX_ROUNDS}+ rounds, "
        f"{WORKLOAD['base_rate']}->{WORKLOAD['peak']} streams/round:"
    )
    for name, (deployment, gold) in rows.items():
        summary = deployment.summary()
        print(
            f"  {name:12s} served={summary['served']:3d} "
            f"scale_actions={len(deployment.scale_actions)} "
            f"gold_acceptance={gold['acceptance']:.3f} "
            f"gold_quality={gold['quality_norm']:.3f}"
        )
    print(
        f"  capacity-rounds ratio {capacity_ratio:.3f} "
        f"(autoscaled pays {capacity_ratio:.0%} of static peak), "
        f"actions {actions}, invariant violations {violations}"
    )

    # the ISSUE acceptance bar, asserted here and gated in baselines
    assert auto.rounds >= MAX_ROUNDS
    assert auto_gold["acceptance"] >= 0.99
    assert auto_gold["quality_norm"] >= 0.85
    assert capacity_ratio <= 0.70
    assert violations == 0
    assert "add" in actions and "remove" in actions

    with open(results_dir / "autoscale.csv", "w") as handle:
        handle.write(
            "deployment,rounds,served,scale_actions,capacity_rounds,"
            "gold_acceptance,gold_quality_norm\n"
        )
        for name, (deployment, gold) in rows.items():
            summary = deployment.summary()
            handle.write(
                f"{name},{summary['rounds']},{summary['served']},"
                f"{len(deployment.scale_actions)},"
                f"{deployment.capacity_rounds:.6e},"
                f"{gold['acceptance']:.4f},{gold['quality_norm']:.4f}\n"
            )

    payload = {
        "rounds": auto.rounds,
        "gold_acceptance": round(auto_gold["acceptance"], 4),
        "gold_quality_norm": round(auto_gold["quality_norm"], 4),
        "capacity_ratio": round(capacity_ratio, 4),
        "scale_ups": actions.count("add"),
        "scale_downs": actions.count("remove"),
        "invariant_violations": violations,
        "static_gold_quality_norm": round(static_gold["quality_norm"], 4),
    }
    path = write_bench_trajectory("autoscale", payload)
    print(f"  trajectory -> {path}")
    print(json.dumps(payload, indent=2, sort_keys=True))
