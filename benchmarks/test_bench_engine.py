"""Execution-engine bench: vectorized batching must pay for itself.

The acceptance criterion of the execution-engine tentpole: on a
256-stream homogeneous fleet in overload (demand at ~1.4x the shared
capacity), the vectorized engine must serve the same workload **at
least 5x faster** than the scalar engine while reproducing it exactly —
identical summaries, per-stream series and event logs, with
``InvariantObserver(enforce=True)`` attached so a run that merely
*looks* right but breaks a runtime invariant aborts.  The measured
trajectory (per-engine wall seconds, speedups, workload fingerprint)
is written to ``BENCH_engine.json`` at the repo root so the engine's
headline number is tracked PR-over-PR.

Timing methodology: one warm-up pass per engine first (banks, kernels
and compiled tables are shared, deliberately), then min-of-3 with the
repeats **interleaved** across engines — back-to-back blocks would let
a slow patch of CI noise land entirely on one engine and skew the
ratio (the failure mode that once produced a negative overhead in the
telemetry bench).

Two deterministic counters ride along and are gated by value, so they
hold on any machine: ``bank_bytes`` (the array bytes of the time banks
the fleet's sessions hold — rises if a bank keeps more than its fused
arrays) and ``completion_walks`` (distinct admission completion walks
among the fleet's configs — 1 for a same-shape fleet, rises if the
walk is keyed per config again).
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.engine.bank import bank_for
from repro.obs import InvariantObserver, StructuredEventLog
from repro.serving import build_scenario, serve
from repro.sim.runner import reset_caches
from repro.streams.admission import qmin_completions

from conftest import run_once, write_bench_trajectory

#: The tentpole's floor: scalar seconds / vectorized seconds.
SPEEDUP_FLOOR = 5.0

#: 256 homogeneous streams, 12 frames each, pool sized to 70% of
#: aggregate demand — every round is an overload round, so the arbiter,
#: admission and the per-frame decision loop all stay hot.
STREAMS = 256

ENGINES = ("scalar", "vectorized")


def engine_spec(engine: str) -> dict:
    return {
        "scenario": {
            "name": "steady",
            "kwargs": {"count": STREAMS, "frames": 12, "scale": 2},
        },
        "capacity": {"utilization": 0.7},
        "arbiter": "quality-fair",
        "admission": "feasibility",
        "granularity": 1,
        "engine": engine,
    }


def checked_run(engine: str):
    """Serve under invariant enforcement, capturing the event log."""
    log = StructuredEventLog()
    invariants = InvariantObserver(enforce=True)
    result = serve(engine_spec(engine), observers=[log, invariants])
    assert invariants.violations == []
    return result, log.to_jsonl()


def fleet_footprint(result) -> tuple[int, int]:
    """``(bank_bytes, completion_walks)`` of a served fleet.

    ``bank_for`` hands back the cached bank each session held (same
    config and salt); the walks are kept referenced while counted so
    ``id`` cannot be reused by a freed tuple.
    """
    specs = build_scenario(result.spec).specs
    banks = [bank_for(s.config, f"stream-timing-{s.name}") for s in specs]
    bank_bytes = sum(
        value.nbytes
        for bank in banks
        for value in (getattr(bank, slot) for slot in bank.__slots__)
        if isinstance(value, np.ndarray)
    )
    walks = [qmin_completions(s.config) for s in specs]
    return bank_bytes, len({id(walk) for walk in walks})


def assert_values_equal(mine, theirs):
    assert len(mine) == len(theirs)
    for x, y in zip(mine, theirs):
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y)
        else:
            assert x == y


def test_bench_engine_speedup(benchmark, results_dir):
    """Vectorized >= 5x scalar on the 256-stream overload fleet."""
    reset_caches()

    def measured():
        # correctness pass (doubles as cache warm-up): both engines
        # serve the bench workload once under enforcement and must
        # agree to the bit, event log included
        runs = {engine: checked_run(engine) for engine in ENGINES}
        scalar_result, scalar_log = runs["scalar"]
        result, log = runs["vectorized"]
        mine, theirs = scalar_result.summary(), result.summary()
        assert mine.keys() == theirs.keys()
        assert_values_equal(list(mine.values()), list(theirs.values()))
        assert log == scalar_log, "vectorized event log diverged"

        # interleaved min-of-3 wall times (see module docstring)
        seconds = {engine: math.inf for engine in ENGINES}
        for _ in range(3):
            for engine in ENGINES:
                start = time.perf_counter()
                serve(engine_spec(engine))
                seconds[engine] = min(
                    seconds[engine], time.perf_counter() - start
                )
        return runs, seconds

    runs, seconds = run_once(benchmark, measured)
    scalar_result, _ = runs["scalar"]
    speedup = seconds["scalar"] / seconds["vectorized"]

    print(
        f"\nscalar {seconds['scalar']:.3f}s, "
        f"vectorized {seconds['vectorized']:.3f}s ({speedup:.2f}x)"
    )

    # --- the acceptance criterion ---------------------------------
    summary = scalar_result.summary()
    assert summary["served"] == STREAMS
    bank_bytes, completion_walks = fleet_footprint(scalar_result)
    assert completion_walks == 1
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized speedup {speedup:.2f}x < {SPEEDUP_FLOOR}x floor"
    )

    write_bench_trajectory("engine", {
        "streams": STREAMS,
        "frames": 12,
        "granularity": 1,
        "utilization": 0.7,
        "scalar_seconds": round(seconds["scalar"], 4),
        "vectorized_seconds": round(seconds["vectorized"], 4),
        "vectorized_speedup": round(speedup, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "served": summary["served"],
        "rejected": summary["rejected"],
        "mean_quality": round(summary["mean_quality"], 4),
        "bank_bytes": bank_bytes,
        "completion_walks": completion_walks,
    })
