"""Multi-stream serving demo: a fleet of QoS-controlled encoders.

Runs a heterogeneous 12-stream mix on 60% of its aggregate demand under
three capacity arbiters, then pushes a flash crowd through admission
control — everything declared through the serving API's
``ServingSpec`` documents and run with ``repro.serve``.  Shows the
layer the paper's single-application controller scales into:
per-stream fine-grain quality control, fleet-level capacity
arbitration and feasibility-gated admission.

Usage::

    PYTHONPATH=src python examples/fleet_serving.py [--streams N]
"""

from __future__ import annotations

import argparse

import repro
from repro.analysis.report import serving_table
from repro.serving import CountingObserver, ServingSpec

ARBITERS = ("equal-share", "weighted-share", "quality-fair")


def arbitration_demo(streams: int) -> None:
    results = {}
    for arbiter in ARBITERS:
        spec = ServingSpec.from_dict({
            "topology": "fleet",
            "scenario": {
                "name": "heterogeneous-mix",
                "kwargs": {"count": streams, "frames": 16, "seed": 11},
            },
            "capacity": {"utilization": 0.6},
            "arbiter": arbiter,
            "admission": "none",
        })
        results[arbiter] = repro.serve(spec)
    capacity = results["equal-share"].runner.capacity
    print(
        f"== {streams}-stream heterogeneous mix, "
        f"{capacity / 1e6:.0f} Mcyc/round shared (60% of demand) =="
    )
    print(serving_table(results.values()))
    equal = results["equal-share"].fairness_quality()
    fair = results["quality-fair"].fairness_quality()
    print(
        f"quality-fair arbitration lifts Jain fairness "
        f"{equal:.3f} -> {fair:.3f}\n"
    )


def admission_demo() -> None:
    spec = ServingSpec.from_dict({
        "topology": "fleet",
        "scenario": {
            "name": "flash-crowd",
            "kwargs": {
                "base": 3, "crowd": 5, "crowd_round": 3,
                "frames": 10, "scale": 27,
            },
        },
        "capacity": 20e6,  # room for ~4 concurrent qmin streams
        "arbiter": "quality-fair",
        "admission": "feasibility",
    })
    observer = CountingObserver()
    result = repro.serve(spec, observers=[observer])
    offered = result.served_count + result.rejected_count
    print(
        f"== flash crowd ({offered} streams) through admission, "
        f"{result.runner.capacity / 1e6:.0f} Mcyc/round =="
    )
    summary = result.summary()
    print(
        f"offered={offered} served={summary['served']} "
        f"rejected={summary['rejected']} "
        f"queued={result.runner.admission.queued_count} "
        f"peak concurrency={result.pools[0].peak_concurrency}"
    )
    for outcome in result.outcomes:
        delay = outcome.admitted_round - outcome.spec.arrival_round
        tag = f" (waited {delay} rounds)" if delay else ""
        print(
            f"  {outcome.spec.name:>10}: q={outcome.result.mean_quality():.2f} "
            f"psnr={outcome.result.mean_psnr():.2f} "
            f"skips={outcome.result.skip_count}{tag}"
        )
    print(f"observer counted {observer.counts()}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--streams", type=int, default=12, help="mix size for the arbiter demo"
    )
    args = parser.parse_args()
    arbitration_demo(args.streams)
    admission_demo()


if __name__ == "__main__":
    main()
