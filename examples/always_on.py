"""Always-on serving demo: open-ended arrivals, elastic capacity.

A diurnal workload that never ends on its own — arrivals swing 3x
between trough and peak, sessions depart when their cameras go idle —
served by a small cluster whose size is run by a telemetry-driven
autoscaler instead of an operator.  The run is bounded only by the
spec's explicit ``max_rounds`` stop condition.

The control loop, end to end::

    TelemetryObserver windows  ->  SignalAutoscaler.plan()
         (renegotiation pressure,      |  ScaleAction add/remove
          rejects, queues, quality)    v
    ClusterRunner applies actions between rounds
         (provision / drain+relocate, conservation-checked)

Every serving law — scale conservation, graceful pacing, admission
soundness — is watched by the runtime invariant ledger; ``--enforce``
turns the ledger into a tripwire that aborts the run at the first
violation, which is how CI runs this script.

Usage::

    PYTHONPATH=src python examples/always_on.py
    PYTHONPATH=src python examples/always_on.py --rounds 200 --enforce
"""

from __future__ import annotations

import argparse

import repro
from repro.analysis.report import telemetry_table

#: Open-ended diurnal arrivals: 0.3 -> 0.9 streams/round over a
#: 60-round day, sessions looping 12-frame clips until idle departure.
WORKLOAD = {
    "shards": 2,
    "provision_concurrency": 8.0,
    "base_rate": 0.3,
    "peak": 0.9,
    "period_rounds": 60,
    "loop_frames": 12,
    "scale": 20,
    "seed": 7,
    "classes": ("gold", "bronze"),
}


def always_on_spec(max_rounds: int, enforce: bool) -> dict:
    return {
        "topology": "cluster",
        "scenario": {"name": "diurnal-cluster", "kwargs": WORKLOAD},
        "placement": "least-loaded",
        "balancer": "headroom",
        "arbiter": "sla-weighted",
        "admission": {"name": "priority", "kwargs": {"queue_limit": 4}},
        "renegotiation": {
            "name": "step",
            "kwargs": {"patience": 2, "recovery_patience": 2, "step": 0.15},
        },
        "service_classes": ["gold", "bronze"],
        "autoscaler": {
            "name": "signal",
            "kwargs": {
                "window": 10,
                "cooldown": 10,
                "sustain": 1,
                "up_pressure": 0.22,
                "min_shards": 2,
                "max_shards": 6,
                "down_quality": 5.0,
            },
        },
        "engine": "vectorized",
        "max_rounds": max_rounds,
        "observers": [
            {"name": "telemetry", "kwargs": {"window": 15}},
            {"name": "invariants", "kwargs": {"enforce": enforce}},
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rounds", type=int, default=150,
        help="stop condition: serve this many rounds then drain",
    )
    parser.add_argument(
        "--enforce", action="store_true",
        help="abort at the first invariant violation instead of recording",
    )
    args = parser.parse_args(argv)

    result = repro.serve(always_on_spec(args.rounds, args.enforce))
    telemetry, invariants = result.observers
    summary = result.summary()

    print(
        f"== always-on diurnal cluster, {summary['rounds']} rounds, "
        f"{WORKLOAD['base_rate']}->{WORKLOAD['peak']} streams/round =="
    )
    print(
        f"served {summary['served']} sessions "
        f"(rejected {summary['rejected']}), "
        f"{len(result.scale_actions)} scale actions, "
        f"{len(result.pools)} shards over the run"
    )

    print("\n== autoscaler action log ==")
    if not result.scale_actions:
        print("(the fleet never needed to change size)")
    for action in result.scale_actions:
        target = ", ".join(action.shards) or ", ".join(
            f"{c / 1e6:.0f}M" for c in action.capacities
        )
        print(f"  {action.kind:6s} {target:18s} {action.reason}")

    print(f"\n== telemetry windows ({telemetry.window} rounds each) ==")
    print(telemetry_table(telemetry.windows))

    print("\n== per-class outcome ==")
    for name, row in sorted(result.per_class().items()):
        print(
            f"  {name:8s} served={row['served']:3d} "
            f"acceptance={row['acceptance_ratio']:.3f} "
            f"mean_quality={row['mean_quality']:.2f}"
        )

    if invariants.violations:
        for violation in invariants.violations:
            print(f"invariant violated: {violation}")
        return 1
    print("\nall serving invariants held for the whole horizon")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
