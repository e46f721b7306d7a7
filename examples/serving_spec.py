"""One serving API demo: whole runs declared as JSON documents.

Every run below — fleet and cluster alike — is a plain JSON
``ServingSpec``: topology, workload, capacity, and every policy chosen
by registry name with kwargs.  ``repro.serve`` resolves the names
through the policy registries, builds the matching runner, and returns
a unified ``ServingResult``, so the three documents land in one table
despite mixing topologies.  A ``CountingObserver`` rides along on the
last run to show the lifecycle-hook API.

Usage::

    PYTHONPATH=src python examples/serving_spec.py
"""

from __future__ import annotations

import json

import repro
from repro.analysis.report import serving_table
from repro.serving import CountingObserver, ServingSpec

SPECS_JSON = """
[
  {
    "topology": "fleet",
    "scenario": {"name": "heterogeneous-mix",
                 "kwargs": {"count": 9, "frames": 10, "seed": 11}},
    "capacity": {"utilization": 0.6},
    "arbiter": "equal-share",
    "admission": "none"
  },
  {
    "topology": "fleet",
    "scenario": {"name": "heterogeneous-mix",
                 "kwargs": {"count": 9, "frames": 10, "seed": 11}},
    "capacity": {"utilization": 0.6},
    "arbiter": {"name": "quality-fair", "kwargs": {"pressure": 2.0}},
    "admission": "none"
  },
  {
    "topology": "cluster",
    "scenario": {"name": "skewed-cluster",
                 "kwargs": {"streams": 8, "frames": 8}},
    "arbiter": "quality-fair",
    "placement": "best-fit",
    "migration": "load-balance",
    "balancer": "headroom"
  }
]
"""


def main() -> None:
    documents = json.loads(SPECS_JSON)
    specs = [ServingSpec.from_dict(document) for document in documents]

    # the JSON round trip is lossless: these specs could have been
    # loaded from files, a queue, or an API body
    assert all(ServingSpec.from_json(s.to_json()) == s for s in specs)

    print(f"== {len(specs)} serving runs declared as JSON ==")
    observer = CountingObserver()
    results = [
        repro.serve(spec, observers=[observer] if last else ())
        for last, spec in zip(
            [False] * (len(specs) - 1) + [True], specs
        )
    ]
    print(serving_table(results))

    equal, fair, cluster = results
    print(
        f"\nquality-fair arbitration lifts Jain fairness "
        f"{equal.fairness_quality():.3f} -> {fair.fairness_quality():.3f} "
        f"on the same JSON workload"
    )
    print(
        f"cluster spec: accept={cluster.acceptance_ratio:.3f} "
        f"moves={cluster.migration_count} "
        f"lent={cluster.lent_cycles / 1e6:.0f} Mcyc"
    )
    print(
        f"observer saw: {observer.counts()} "
        f"(rounds = cluster rounds x shards)"
    )


if __name__ == "__main__":
    main()
