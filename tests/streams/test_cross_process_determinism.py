"""Fleet and cluster runs reproduce bit-identically across processes.

PR 1 replaced ``hash()`` with ``zlib.crc32`` in
``EncoderSimulation._rng`` because ``hash()`` of a str is randomized
per interpreter (PYTHONHASHSEED): the same seed gave different numbers
in different pytest invocations.  These tests extend that guarantee to
the serving layers — a fleet and a cluster run executed in a *fresh
subprocess* (fresh interpreter, fresh hash randomization, cold caches)
must produce exactly the metrics the in-process run produced.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

FLEET_SNIPPET = """
import json
from repro.streams import FleetRunner, QualityFairArbiter, AdmissionController, poisson_churn

scenario = poisson_churn(rate=0.8, horizon=10, mean_frames=10, min_frames=6, seed=5, initial=6)
capacity = 6 * 16e6
runner = FleetRunner(capacity, QualityFairArbiter(), AdmissionController(capacity))
result = runner.run(scenario)
summary = result.summary()
summary["psnr_digest"] = [round(sum(o.result.psnr_series()), 6) for o in result.outcomes]
print(json.dumps(summary))
"""

CLUSTER_SNIPPET = """
import json
from repro.cluster import ClusterRunner, RoundRobinPlacement, LoadBalanceMigration, skewed_cluster

result = ClusterRunner(RoundRobinPlacement(), migration=LoadBalanceMigration()).run(
    skewed_cluster(streams=8, frames=8)
)
summary = result.summary()
summary["moves"] = [[m.stream_id, m.source, m.dest, m.kind] for m in result.migrations]
summary["fairness_cross_shard"] = result.fairness_cross_shard()
summary["load_imbalance"] = result.load_imbalance()
print(json.dumps(summary))
"""


def run_in_subprocess(snippet: str, hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    # force a *different* hash randomization per run: determinism must
    # not depend on it (the original bug this guards against)
    env["PYTHONHASHSEED"] = hash_seed
    completed = subprocess.run(
        [sys.executable, "-c", snippet],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


class TestCrossProcess:
    def test_fleet_metrics_identical_across_processes(self):
        first = run_in_subprocess(FLEET_SNIPPET, hash_seed="1")
        second = run_in_subprocess(FLEET_SNIPPET, hash_seed="4242")
        assert first == second
        assert first["served"] > 0
        assert first["psnr_digest"]  # non-trivial run

    def test_cluster_metrics_identical_across_processes(self):
        first = run_in_subprocess(CLUSTER_SNIPPET, hash_seed="7")
        second = run_in_subprocess(CLUSTER_SNIPPET, hash_seed="31337")
        assert first == second
        assert first["served"] > 0

    def test_subprocess_matches_in_process_fleet(self):
        from repro.sim.runner import reset_caches
        from repro.streams import (
            AdmissionController,
            FleetRunner,
            QualityFairArbiter,
            poisson_churn,
        )

        reset_caches()
        scenario = poisson_churn(
            rate=0.8, horizon=10, mean_frames=10, min_frames=6, seed=5,
            initial=6,
        )
        capacity = 6 * 16e6
        result = FleetRunner(
            capacity, QualityFairArbiter(), AdmissionController(capacity)
        ).run(scenario)
        local = result.summary()
        local["psnr_digest"] = [
            round(sum(o.result.psnr_series()), 6) for o in result.outcomes
        ]
        remote = run_in_subprocess(FLEET_SNIPPET, hash_seed="99")
        assert json.loads(json.dumps(local)) == remote
