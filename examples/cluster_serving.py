"""Sharded cluster serving demo: multiple pools, one control plane.

Runs the skewed-arrival cluster scenario (heavy and light streams over
three unequal shards at fixed total capacity) under four placement
policies, then shows what migration and the arbiter-of-arbiters
(headroom lending) recover after blind placement, and finally rides
through a mid-run shard outage — every run declared as a serving-API
``ServingSpec`` and executed by ``repro.serve``.

Usage::

    PYTHONPATH=src python examples/cluster_serving.py [--streams N]
"""

from __future__ import annotations

import argparse

import repro
from repro.analysis.report import pool_table, serving_table
from repro.serving import ServingSpec

PLACEMENTS = ("round-robin", "least-loaded", "best-fit", "quality-aware")


def _cluster_spec(scenario: dict, **overrides) -> ServingSpec:
    document = {"topology": "cluster", "scenario": scenario}
    document.update(overrides)
    return ServingSpec.from_dict(document)


def placement_demo(streams: int) -> None:
    scenario = {"name": "skewed-cluster", "kwargs": {"streams": streams}}
    results = {
        name: repro.serve(_cluster_spec(scenario, placement=name))
        for name in PLACEMENTS
    }
    first = next(iter(results.values()))
    caps = ", ".join(f"{pool.capacity / 1e6:.0f}M" for pool in first.pools)
    print(
        f"== skewed cluster: {streams} streams over "
        f"shards [{caps}] cyc/round =="
    )
    print(serving_table(results.values()))
    blind = results["round-robin"]
    aware = results["best-fit"]
    print(
        f"feasibility-aware placement lifts acceptance "
        f"{blind.acceptance_ratio:.3f} -> {aware.acceptance_ratio:.3f}\n"
    )


def migration_demo(streams: int) -> None:
    scenario = {"name": "skewed-cluster", "kwargs": {"streams": streams}}
    print("== same scenario, round-robin placement, rescue mechanisms ==")
    frozen = repro.serve(_cluster_spec(scenario, placement="round-robin"))
    mobile = repro.serve(
        _cluster_spec(
            scenario, placement="round-robin", migration="load-balance"
        )
    )
    lending = repro.serve(
        _cluster_spec(scenario, placement="round-robin", balancer="headroom")
    )
    print(serving_table([frozen, mobile, lending]))
    print(
        f"migration lifts cross-shard fairness "
        f"{frozen.fairness_cross_shard():.3f} -> "
        f"{mobile.fairness_cross_shard():.3f} "
        f"({mobile.migration_count} moves); headroom lending lent "
        f"{lending.lent_cycles / 1e6:.0f} Mcyc at zero moves\n"
    )


def outage_demo() -> None:
    print(
        "== shard outage: shard-0 drops to 25% capacity at round 4 "
        "(migration on) =="
    )
    result = repro.serve(
        _cluster_spec(
            {"name": "shard-outage", "kwargs": {}},
            placement="least-loaded",
            migration="load-balance",
        )
    )
    print(pool_table(result))
    print(
        f"{result.active_migration_count} sessions moved off the "
        f"degraded shard; {result.total_skips()} frames skipped "
        f"cluster-wide"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--streams", type=int, default=12,
        help="stream count for the skewed scenario (12 = calibrated "
        "regime where the smallest shard cannot host a heavy stream)",
    )
    args = parser.parse_args()
    placement_demo(args.streams)
    migration_demo(args.streams)
    outage_demo()


if __name__ == "__main__":
    main()
