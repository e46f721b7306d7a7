"""Cluster serving bench: placement policies, migration, headroom lending.

Beyond-the-paper scaling experiment #2: the fleet layer sharded into
multiple capacity pools (a multi-processor server).  Three questions:

* how much global acceptance does feasibility-aware placement buy over
  blind round-robin when shard capacities are skewed (the cluster-wide
  admission argument of Alaya et al.),
* how much cross-shard quality fairness does migration recover after
  placement skew freezes in (the multi-server coordination of
  Changuel et al.), and
* what does the arbiter-of-arbiters (headroom lending between shard
  arbiters) add on top, at zero migration cost.

Every run is a serving-API ``ServingSpec`` executed by ``repro.serve``.
Writes ``cluster_placement.csv`` plus a ``cluster_placement.json``
trajectory (uploaded as a CI artifact so bench history survives runs).
"""

from __future__ import annotations

import json

from repro.analysis.report import serving_table
from repro.serving import ServingSpec, serve

from conftest import run_once, write_bench_trajectory

PLACEMENTS = ("round-robin", "least-loaded", "best-fit", "quality-aware")


def cluster_spec(scenario_name, scenario_kwargs, placement, **overrides):
    document = {
        "topology": "cluster",
        "scenario": {"name": scenario_name, "kwargs": scenario_kwargs},
        "placement": placement,
    }
    document.update(overrides)
    return ServingSpec.from_dict(document)


def cluster_row(result):
    """One result's headline numbers plus its cluster-tier metrics."""
    return {
        **result.summary(),
        "placement": result.placement_name,
        "migration": result.migration_name,
        "balancer": result.balancer_name,
        "shards": len(result.pools),
        "migrations": result.migration_count,
        "active_migrations": result.active_migration_count,
        "capacity_rounds": round(result.capacity_rounds, 3),
        "fairness_cross_shard": round(result.fairness_cross_shard(), 4),
        "load_imbalance": round(result.load_imbalance(), 4),
    }


def test_bench_cluster_placement(benchmark, results_dir):
    """Placement-policy comparison on the skewed cluster scenario."""
    # default size: the generator's promised regime (smallest shard
    # below a heavy stream's qmin demand) is calibrated for it
    scenario_kwargs = {"frames": 12}

    def run():
        plain = {
            name: serve(cluster_spec("skewed-cluster", scenario_kwargs, name))
            for name in PLACEMENTS
        }
        migrating = {
            name: serve(cluster_spec(
                "skewed-cluster", scenario_kwargs, name,
                migration="load-balance",
            ))
            for name in PLACEMENTS
        }
        return plain, migrating

    plain, migrating = run_once(benchmark, run)
    rows = list(plain.values()) + list(migrating.values())
    scenario = plain["round-robin"]
    print(
        f"\ncluster placement comparison, "
        f"{scenario.served_count + scenario.rejected_count} streams "
        f"over {len(scenario.pools)} skewed shards "
        f"({sum(p.capacity for p in scenario.pools) / 1e6:.0f} "
        f"Mcyc/round total):"
    )
    print(serving_table(rows))

    with open(results_dir / "cluster_placement.csv", "w") as handle:
        handle.write(
            "placement,migration,served,rejected,acceptance,migrations,"
            "mean_quality,fairness_quality,fairness_cross_shard,imbalance\n"
        )
        for result in rows:
            s = cluster_row(result)
            handle.write(
                f"{s['placement']},{s['migration']},{s['served']},"
                f"{s['rejected']},{s['acceptance_ratio']},{s['migrations']},"
                f"{s['mean_quality']},{s['fairness_quality']},"
                f"{s['fairness_cross_shard']},{s['load_imbalance']}\n"
            )
    with open(results_dir / "cluster_placement.json", "w") as handle:
        json.dump([cluster_row(r) for r in rows], handle, indent=2)

    blind = plain["round-robin"]
    aware = plain["best-fit"]
    write_bench_trajectory("cluster", {
        "blind_acceptance": round(blind.acceptance_ratio, 4),
        "best_fit_acceptance": round(aware.acceptance_ratio, 4),
        "best_fit_quality": round(aware.mean_quality(), 4),
        "migration_fairness_gain": round(
            migrating["round-robin"].fairness_cross_shard()
            - plain["round-robin"].fairness_cross_shard(),
            4,
        ),
    })
    # acceptance criterion 1: feasibility-aware placement serves
    # streams blind rotation rejects
    assert aware.acceptance_ratio > blind.acceptance_ratio + 0.1
    # acceptance criterion 2: migration recovers cross-shard fairness
    frozen = plain["round-robin"]
    mobile = migrating["round-robin"]
    assert mobile.fairness_cross_shard() > frozen.fairness_cross_shard() + 0.1
    # placement intelligence never loses streams
    assert aware.served_count >= blind.served_count


def test_bench_cluster_outage_and_lending(benchmark, results_dir):
    """Shard outage: migration vs headroom lending vs nothing."""
    scenario_kwargs = {"streams": 9, "frames": 14}

    def run():
        return {
            "frozen": serve(cluster_spec(
                "shard-outage", scenario_kwargs, "least-loaded",
            )),
            "migrating": serve(cluster_spec(
                "shard-outage", scenario_kwargs, "least-loaded",
                migration="load-balance",
            )),
            "lending": serve(cluster_spec(
                "shard-outage", scenario_kwargs, "least-loaded",
                balancer="headroom",
            )),
        }

    results = run_once(benchmark, run)
    total_capacity = sum(p.capacity for p in results["frozen"].pools)
    print(
        f"\nshard outage at round 4 "
        f"({total_capacity / 1e6:.0f} Mcyc/round, 3 shards):"
    )
    print(serving_table(results.values()))
    with open(results_dir / "cluster_outage.json", "w") as handle:
        json.dump(
            {name: cluster_row(r) for name, r in results.items()},
            handle,
            indent=2,
        )

    frozen = results["frozen"]
    migrating = results["migrating"]
    # migration rescues the degraded shard's streams
    assert migrating.total_skips() < frozen.total_skips()
    assert migrating.fairness_quality() > frozen.fairness_quality()
    # everything still served either way (admission was sized pre-outage)
    assert frozen.served_count == migrating.served_count == 9
