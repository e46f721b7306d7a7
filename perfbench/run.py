"""The serving stack's benchmark: one command, three frozen workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-steady-256 --seed 7 \\
        --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics: warm throughput, round
latency and a fresh interpreter's set-up time, all scaled to nominal
host speed (see ``worker.Calibration``), its peak memory, and the
simulated QoS.  ``--trace 1`` prints the per-layer metrics from a
separate run with spans at every layer boundary (see ``tracing.py``).
Each role runs in its own fresh interpreter (``worker.py``), one at a
time.  Every serve is checked against one serve of the same spec on the
reference engine; the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The workloads, the layer-to-metric mapping and the predictions are
documented in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Whole-run budget: a run must end within 180 s.
BUDGET_S = 170.0
#: Fresh interpreters whose import + cold serve make up ``setup_s``.
SETUP_SAMPLES = 3
#: Round-latency samples the p95 needs: at least ten beyond it.
MIN_ROUND_SAMPLES = 200
#: Extra windows the measuring worker may serve to reach that count.
MAX_EXTRA_WINDOWS = 6
OUT_DIR = ROOT / ".perfbench"


class WorkerError(RuntimeError):
    pass


class Worker:
    """One role of ``worker.py`` in a fresh interpreter.

    It reports one JSON line per request on its standard output.  Used
    as a context manager: leaving the block kills the process if it is
    still running and waits for it.
    """

    def __init__(self, role: str, args, seed: str, deadline: float):
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else src
        )
        self.role = role
        self.deadline = deadline
        self.process = subprocess.Popen(
            [
                sys.executable, str(HERE / "worker.py"), role, args.workload,
                seed, repr(args.seconds), str(OUT_DIR),
            ],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()

    def send(self, line: str) -> None:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()

    def read(self) -> dict:
        timeout = max(0.0, self.deadline - perf_counter())
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        if not ready:
            raise WorkerError(f"{self.role} worker timed out")
        line = self.process.stdout.readline()
        if not line:
            code = self.process.wait()
            raise WorkerError(f"{self.role} worker exited with {code}")
        report = json.loads(line)
        if "repro_file" in report:
            loaded = Path(report["repro_file"]).resolve()
            if not loaded.is_relative_to(ROOT / "src"):
                raise WorkerError(
                    f"imported repro from {loaded}, not this checkout"
                )
        return report


def run_worker(role: str, args, seed: str, deadline: float) -> dict:
    """Run a one-report role to completion; return its report."""
    with Worker(role, args, seed, deadline) as worker:
        report = worker.read()
        code = worker.process.wait(timeout=max(1.0, deadline - perf_counter()))
    if code != 0:
        raise WorkerError(f"{role} worker exited with {code}")
    return report


def score(marks, oracle: str) -> tuple[int, int]:
    """``(attempted, failed)``: a serve fails unless it matches the oracle."""
    failed = sum(1 for mark in marks if mark != oracle)
    return len(marks), failed


def quantile(values, q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, n=100)."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(args, seed: str, deadline: float):
    """Warm windows spread across the run, cold starts in between.

    The measuring worker serves ``--seconds`` in equal windows, one
    before, between and after the other roles, so that one slow
    stretch of a shared machine does not set the whole run's median.
    """
    others = ["reference"] + ["setup"] * (SETUP_SAMPLES - 2)
    window = repr(args.seconds / (len(others) + 1))
    walls, raw_walls, kernel_s, rounds, marks = [], [], [], [], []
    colds, raw_colds = [], []
    with Worker("measure", args, seed, deadline) as measured:
        first = measured.read()
        colds.append(first["cold_s"])
        raw_colds.append(first["cold_s_as_measured"])
        marks += first["marks"]
        qos = first["qos"]
        if qos is None:
            raise WorkerError("the cold serve failed")

        def serve_window():
            measured.send(window)
            got = measured.read()
            walls.extend(got["walls"])
            raw_walls.extend(got["raw_walls"])
            kernel_s.extend(got["kernel_s"])
            rounds.extend(got["rounds_ms"])
            marks.extend(got["marks"])

        serve_window()
        for role in others:
            report = run_worker(role, args, seed, deadline)
            colds.append(report["cold_s"])
            raw_colds.append(report["cold_s_as_measured"])
            marks += report["marks"]
            if role == "reference":
                oracle = report["reference"]
            serve_window()
        for _ in range(MAX_EXTRA_WINDOWS):
            if sum(map(len, rounds)) >= MIN_ROUND_SAMPLES:
                break
            serve_window()
        measured.send("done")
        peak_rss_mib = measured.read()["peak_rss_mib"]
    pooled = [sample for serve in rounds for sample in serve]
    if len(walls) < 3 or len(pooled) < MIN_ROUND_SAMPLES:
        raise WorkerError(
            f"too few warm samples: {len(walls)} serves, {len(pooled)} rounds"
        )
    warm = statistics.median(walls)
    metrics = {
        "frames_per_s": (qos["frames"] / warm, "1/s", len(walls)),
        # the median serve's median round: a stretch of slow serves
        # shifts a pooled median, this one only past half the serves
        "round_ms_p50": (
            statistics.median(statistics.median(serve) for serve in rounds),
            "ms", len(walls),
        ),
        "round_ms_p95": (quantile(pooled, 95), "ms", len(pooled)),
        # time to the first result: the cold serve is not reduced by a
        # warm one, since that difference of two noisy times moved by
        # more than its own size between runs
        "setup_s": (statistics.median(colds), "s", len(colds)),
        "peak_rss_mib": (peak_rss_mib, "MiB", 1),
        "acceptance": (qos["acceptance"], "ratio", 1),
        "mean_quality": (qos["mean_quality"], "level", 1),
        "fairness_jain": (qos["fairness_jain"], "ratio", 1),
        "encoded_ratio": (qos["encoded_ratio"], "ratio", 1),
        "deadline_met_ratio": (qos["deadline_met_ratio"], "ratio", 1),
        "top_class_acceptance": (qos["top_class_acceptance"], "ratio", 1),
        "top_class_quality": (qos["top_class_quality"], "level", 1),
    }
    raw_warm = statistics.median(raw_walls)
    notes = {
        "warm_serve_s_median": warm,
        "warm_serve_s_median_as_measured": raw_warm,
        "frames_per_s_as_measured": qos["frames"] / raw_warm,
        "calibration_kernel_us_median": 1e6 * statistics.median(kernel_s),
        "cold_s": colds,
        "cold_s_as_measured": raw_colds,
        "setup_s_as_measured": statistics.median(raw_colds),
        "cold_minus_warm_s": statistics.median(colds) - warm,
        "skip_ratio": qos["skip_ratio"],
        "deadline_miss_ratio": qos["deadline_miss_ratio"],
    }
    return metrics, notes, marks, oracle


#: Self time of each span, reported per warm serve under these names.
#: ``bench`` is the benchmark's root span: its self time is the wall
#: no layer span covers.
SELF_TIME = {
    "bench": "bench.unattributed_s",
    "serving.serve": "serving.self_s",
    "serving.build": "serving.build_s",
    "streams.fleet": "streams.fleet.self_s",
    "cluster.runner": "cluster.runner.self_s",
    "cluster.shard_step": "cluster.shard_step.self_s",
    "cluster.placement": "cluster.placement.s",
    "cluster.migration": "cluster.migration.s",
    "cluster.balancer": "cluster.balancer.s",
    "horizon.autoscaler": "horizon.autoscaler.s",
    "streams.arbiter": "streams.arbiter.s",
    "streams.admission": "streams.admission.s",
    "streams.session.step": "streams.session.step_s",
    "streams.session.finish": "streams.session.finish_s",
    "video.encode": "video.encode.s",
    "engine.step_sessions": "engine.step_sessions.s",
    "engine.batch": "engine.batch.s",
    "engine.scalar": "engine.scalar.s",
    "engine.bank": "engine.bank.s",
    "sim.simulation": "sim.simulation.s",
    "obs.close": "obs.close_s",
    **{f"obs.{name}": f"obs.{name}.s" for _, name in tracing.OBSERVER_CLASSES},
}
#: Spans whose call count per warm serve is reported as ``<span>.calls``.
CALLS = (
    "engine.batch", "engine.scalar", "video.encode", "streams.arbiter",
    "streams.admission", "cluster.placement", "horizon.autoscaler",
)
#: Spans whose self time in the cold serve is reported as
#: ``<span>.cold_s``.
COLD = ("engine.bank", "streams.admission", "sim.simulation")


def per_layer(args, seed: str, deadline: float):
    oracle = run_worker("reference", args, seed, deadline)
    traced = run_worker("trace", args, seed, deadline)
    marks = oracle["marks"] + traced["marks"]
    warm, cold = traced["warm"], traced["cold"]
    if not warm:
        raise WorkerError("no traced serve completed")
    fired = dict(cold["calls"])
    for totals in warm:
        for name, count in totals["calls"].items():
            fired[name] = fired.get(name, 0) + count
    missing = tracing.check_expected(args.workload, fired)
    if missing:
        raise WorkerError(f"expected spans never fired: {missing}")
    recorded = {name for totals in warm for name in totals["self_s"]}
    if recorded - SELF_TIME.keys():
        raise WorkerError(
            f"spans without a metric: {sorted(recorded - SELF_TIME.keys())}"
        )

    def mean(key, name=None):
        """Mean per warm traced serve of one total."""
        return statistics.fmean(
            totals[key] if name is None else totals[key].get(name, 0)
            for totals in warm
        )

    self_s = {span: mean("self_s", span) for span in SELF_TIME}
    traced_wall = mean("wall_s")
    # the root span opens a few microseconds inside the timed call
    if abs(sum(self_s.values()) - traced_wall) > 1e-4 * traced_wall:
        raise WorkerError(
            f"self times sum to {sum(self_s.values())}, "
            f"traced wall is {traced_wall}"
        )
    lanes = mean("tallies", "engine.batch.lanes")
    batch_calls = mean("calls", "engine.batch")
    fallback = mean("tallies", "engine.scalar.fallback")
    bank_lookups = cold["bank_hits"] + cold["bank_misses"]
    untraced = statistics.median(traced["untraced_walls"])
    traced_median = statistics.median(t["wall_s"] for t in warm)
    metrics = {
        **{SELF_TIME[span]: (self_s[span], "s") for span in SELF_TIME},
        **{f"{span}.calls": (mean("calls", span), "count") for span in CALLS},
        **{
            f"{span}.cold_s": (cold["self_s"].get(span, 0.0), "s")
            for span in COLD
        },
        "engine.batch.lanes_mean": (
            lanes / batch_calls if batch_calls else 0.0, "lanes"
        ),
        "engine.ns_per_decision": (
            1e9 * (self_s["engine.batch"] + self_s["engine.scalar"])
            / mean("decisions"), "ns",
        ),
        "engine.scalar_fallback_ratio": (
            fallback / (fallback + lanes) if fallback + lanes else 0.0,
            "ratio",
        ),
        "engine.bank.hit_ratio": (
            cold["bank_hits"] / bank_lookups if bank_lookups else 0.0,
            "ratio",
        ),
        "cluster.migration.moves": (mean("migrations"), "count"),
        "horizon.autoscaler.actions": (
            mean("tallies", "horizon.autoscaler.actions"), "count"
        ),
        "sla.renegotiations": (mean("renegotiations"), "count"),
        "sla.preemptions": (mean("preemptions"), "count"),
        "obs.hook_calls": (mean("tallies", "obs.hook_calls"), "count"),
        "bench.traced_wall_s": (traced_wall, "s"),
        "bench.trace_overhead": (traced_median / untraced - 1.0, "ratio"),
    }
    notes = {
        "traced_serves": len(warm),
        "untraced_serves": len(traced["untraced_walls"]),
        "self_times_sum_s": sum(self_s.values()),
        "spans_file": traced["spans_file"],
        "spans_written": traced["spans_written"],
    }
    return metrics, notes, marks, oracle["reference"]


def declared(trace: int) -> dict:
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` lists."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in document[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: the spec's own)")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops (and waits for) its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + BUDGET_S
    seed = "default" if args.seed is None else str(args.seed)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, notes, marks, oracle = measure(args, seed, deadline)
    except WorkerError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    printed = {name: unit for name, (_, unit, *_) in metrics.items()}
    if printed != declared(args.trace):
        print("metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    attempted, failed = score(marks, oracle)
    print(f"workload {args.workload}  seed {seed}  trace {args.trace}")
    for name, (value, unit, *samples) in metrics.items():
        count = f"  (n={samples[0]})" if samples else ""
        print(f"  {name:32s} {value:.6g} {unit}{count}")
    print(f"  {'failed_ratio':32s} {failed / attempted:.6g} "
          f"({failed} of {attempted} serves)")
    for name, value in notes.items():
        print(f"  {name}: {value}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, *_) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
