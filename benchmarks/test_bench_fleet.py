"""Fleet serving bench: capacity scaling and arbiter fairness.

Beyond-the-paper scaling experiment: many concurrent QoS-controlled
encoder streams share one simulated processor.  Two questions:

* how does delivered quality degrade as the fleet grows on a fixed
  shared capacity (scaling sweep), and
* does quality-fair arbitration close the per-stream quality gap that
  demand-blind equal-share opens on a heterogeneous mix (the
  quality-fairness claim of Changuel et al., asserted here and in
  ``tests/streams/test_fleet.py``).

All runs are declared as serving-API ``ServingSpec`` documents and
executed through ``repro.serve`` — the bench doubles as a regression
check that the declarative surface reproduces the hand-wired numbers.
"""

from __future__ import annotations

from repro.analysis.report import serving_table
from repro.serving import ServingSpec, build_scenario, serve

from conftest import run_once

FLEET_SIZES = (4, 8, 16, 28)


def fleet_spec(scenario_name, scenario_kwargs, capacity, arbiter, admission):
    return ServingSpec.from_dict({
        "topology": "fleet",
        "scenario": {"name": scenario_name, "kwargs": scenario_kwargs},
        "capacity": capacity,
        "arbiter": arbiter,
        "admission": admission,
    })


def test_bench_fleet_scaling(benchmark, results_dir):
    """Quality/skips vs fleet size on a fixed shared capacity."""
    frames = 20
    capacity = 8 * 16e6  # dedicated-speed budget for 8 scale-20 streams

    def sweep():
        out = {}
        for count in FLEET_SIZES:
            spec = fleet_spec(
                "steady", {"count": count, "frames": frames},
                capacity, "weighted-share", "none",
            )
            out[count] = serve(spec)
        return out

    results = run_once(benchmark, sweep)
    print(f"\nfleet scaling on fixed capacity ({capacity / 1e6:.0f} Mcyc/round):")
    with open(results_dir / "fleet_scaling.csv", "w") as handle:
        handle.write("streams,mean_quality,mean_psnr,skips,misses,fairness_q\n")
        for count, result in results.items():
            summary = result.summary()
            print(
                f"  n={count:>3}: q={summary['mean_quality']:.2f} "
                f"psnr={summary['mean_psnr']:.2f} skips={summary['skips']} "
                f"misses={summary['deadline_misses']} "
                f"fair(q)={summary['fairness_quality']:.3f}"
            )
            handle.write(
                f"{count},{summary['mean_quality']},{summary['mean_psnr']},"
                f"{summary['skips']},{summary['deadline_misses']},"
                f"{summary['fairness_quality']}\n"
            )

    # more streams on the same capacity -> monotonically cheaper service
    qualities = [results[count].mean_quality() for count in FLEET_SIZES]
    assert all(a >= b - 0.05 for a, b in zip(qualities, qualities[1:]))
    # the uncontended point serves everyone at healthy quality
    assert results[4].total_skips() == 0
    assert results[4].mean_quality() > 3.0


def test_bench_arbiter_fairness(benchmark, results_dir):
    """Equal-share vs weighted vs quality-fair on a heterogeneous mix."""
    scenario_kwargs = {"count": 24, "frames": 20, "seed": 11}
    capacity = {"utilization": 0.55}

    def run():
        return {
            arbiter: serve(fleet_spec(
                "heterogeneous-mix", scenario_kwargs,
                capacity, arbiter, "none",
            ))
            for arbiter in ("equal-share", "weighted-share", "quality-fair")
        }

    results = run_once(benchmark, run)
    print("\narbiter comparison, 24-stream heterogeneous mix, 55% capacity:")
    print(serving_table(results.values()))
    with open(results_dir / "fleet_arbiters.csv", "w") as handle:
        handle.write("arbiter,mean_quality,mean_psnr,fairness_q,fairness_psnr\n")
        for name, result in results.items():
            handle.write(
                f"{name},{result.mean_quality():.4f},{result.mean_psnr():.4f},"
                f"{result.fairness_quality():.4f},"
                f"{result.fairness_psnr():.4f}\n"
            )

    equal = results["equal-share"]
    weighted = results["weighted-share"]
    fair = results["quality-fair"]
    # the PR's acceptance criterion: quality-fair > equal-share fairness
    assert fair.fairness_quality() > equal.fairness_quality() + 0.1
    # demand-awareness already recovers most of the gap; quality
    # feedback closes the rest
    assert weighted.fairness_quality() > equal.fairness_quality()
    assert fair.fairness_quality() >= weighted.fairness_quality() - 0.01


def test_bench_churn_admission(benchmark, results_dir):
    """Poisson churn through admission control on a tight capacity."""
    spec = fleet_spec(
        "poisson-churn",
        {
            "rate": 1.0, "horizon": 25, "mean_frames": 16,
            "min_frames": 8, "seed": 5, "initial": 12,
        },
        10 * 16e6,
        "quality-fair",
        "feasibility",
    )

    def run():
        return serve(spec)

    result = run_once(benchmark, run)
    offered = len(build_scenario(spec))
    admission = result.runner.admission
    summary = result.summary()
    peak = result.pools[0].peak_concurrency
    print("\npoisson churn through admission control:")
    print(
        f"  offered={offered} served={summary['served']} "
        f"rejected={summary['rejected']} queued_total={admission.queued_count} "
        f"accept={summary['acceptance_ratio']:.3f} "
        f"peak={peak} rounds={summary['rounds']}"
    )
    print(
        f"  q={summary['mean_quality']:.2f} psnr={summary['mean_psnr']:.2f} "
        f"skips={summary['skips']} misses={summary['deadline_misses']}"
    )
    with open(results_dir / "fleet_churn.csv", "w") as handle:
        handle.write("offered,served,rejected,acceptance,peak,rounds,quality\n")
        handle.write(
            f"{offered},{summary['served']},{summary['rejected']},"
            f"{summary['acceptance_ratio']},{peak},"
            f"{summary['rounds']},{summary['mean_quality']}\n"
        )

    # every stream is eventually decided and the fleet drains
    assert summary["served"] + summary["rejected"] == offered
    assert summary["rounds"] < 400
