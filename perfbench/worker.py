"""One fresh interpreter's share of a benchmark run.

``run.py`` starts this script once per role, one process at a time,
with the checkout's ``src`` on ``PYTHONPATH``::

    python3 perfbench/worker.py ROLE WORKLOAD SEED SECONDS OUT_DIR

Roles:

* ``measure`` — ``import repro`` and the cold serve (timed together),
  then windows of warm serves, as many and as long as standard input
  asks for (see :func:`measure`);
* ``setup`` — the timed import and cold serve only;
* ``reference`` — the timed import and cold serve, then one serve of
  the same spec on the reference engine (the output oracle);
* ``trace`` — per-layer spans: a traced cold serve, then warm serves
  alternating untraced and traced for ``SECONDS``.

The cold start of ``measure``, ``setup`` and ``reference`` and the warm
serves of ``measure`` carry a round clock, which scales their host time
to nominal host speed (see :class:`Calibration`).  Every
report is one JSON line on standard output; the last carries
the path ``repro`` was imported from.  Every serve is fingerprinted
outside any timed region; a serve that raises is recorded as
``{"error": ...}`` and the run carries on.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

START = perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402  (benchmark-local, imports no repro)

#: Warm traced serves the per-layer means need.
MIN_TRACED_SERVES = 3
#: The traced window stops at this many times ``SECONDS``, even short
#: of ``MIN_TRACED_SERVES``.
WINDOW_CAP = 3
#: The calibration kernel's time at nominal host speed: its best time in
#: a tight loop on the two-vCPU guest the first numbers were taken on.
CAL_NOMINAL_S = 62e-6


class Calibration:
    """A fixed kernel whose time tracks the host's current speed.

    A shared host slows this interpreter by up to twice for stretches
    of seconds, with no steal time and CPU time tracking wall time.
    The kernel mixes interpreter work with NumPy work on small and
    4096-element arrays, as the scalar and vectorized engines do, so
    timing it between two rounds measures the slowdown those rounds ran
    under.  Calling it returns its best time of three, in seconds.
    """

    class Cell:
        __slots__ = ("x", "y")

        def __init__(self, x):
            self.x = x
            self.y = 0.0

    def __init__(self):
        import numpy

        self.array = numpy.arange(32.0)
        self.block = numpy.arange(4096.0)
        self.cells = [self.Cell(float(i)) for i in range(64)]

    def kernel(self) -> float:
        table = {}
        for cell in self.cells:
            cell.y = cell.x * 1.5 + table.get(int(cell.x) & 7, 0.0)
            table[int(cell.x) & 7] = cell.y
        total = 0.0
        for _ in range(8):
            total += float((self.array * 1.01 + 2.0).sum())
        for _ in range(4):
            total += float((self.block * 1.01 + 2.0).sum())
        return total

    def __call__(self) -> float:
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            self.kernel()
            best = min(best, perf_counter() - start)
        return best


def checked(serve, *args):
    """Run one serve; return ``(result, mark, wall seconds)``.

    The mark is the output fingerprint, or an error record when the
    serve raised or an invariant ledger recorded a violation.  Only the
    serve itself is timed.
    """
    start = perf_counter()
    try:
        result = serve(*args)
    except Exception:  # noqa: BLE001 - the run must count it and go on
        traceback.print_exc(file=sys.stderr)
        return None, {"error": traceback.format_exc(limit=3)}, 0.0
    wall = perf_counter() - start
    broken = workloads.violations(result)
    if broken:
        return result, {"error": f"{broken} invariant violations"}, wall
    return result, workloads.fingerprint(result), wall


def clock_type(repro, calibrate):
    """The round clock, a ``repro.RoundObserver``.

    ``repro`` is imported inside the timed cold start, so the class is
    built after it.
    """

    class RoundClock(repro.RoundObserver):
        """Host time of every stretch of a serve, scaled to nominal speed.

        ``mark`` runs the calibration kernel at the serve's start, at
        the first ``on_round`` of every round index and at its end.
        Each stretch between two marks, the kernel's own time left out,
        is scaled by ``CAL_NOMINAL_S`` over the mean kernel time at its
        two ends.
        """

        def __init__(self):
            self.ends, self.starts, self.kernel_s = [], [], []
            self.last = None

        def mark(self):
            self.ends.append(perf_counter())
            self.kernel_s.append(calibrate())
            self.starts.append(perf_counter())

        def on_round(self, round_index, allocations, capacity, shard_id=None):
            if round_index != self.last:
                self.last = round_index
                self.mark()

        def stretches(self):
            """``(raw, scaled)`` seconds of each stretch, in order."""
            raw = [
                end - start for start, end in zip(self.starts, self.ends[1:])
            ]
            speeds = [
                CAL_NOMINAL_S / ((before + after) / 2)
                for before, after in zip(self.kernel_s, self.kernel_s[1:])
            ]
            return raw, [s * speed for s, speed in zip(raw, speeds)]

    return RoundClock


def cold_start(spec):
    """``import repro`` plus the first serve, timed from process start.

    Returns ``repro``, the result, its mark, the cold start's seconds
    (``cold_s`` scaled to nominal host speed, and as measured) and the
    round clock type.  The serve is scaled by a round clock; the import
    before it by the host speed measured when it ends.
    """
    import repro

    clock_class = clock_type(repro, Calibration())
    clock = clock_class()
    clock.mark()
    result, mark, _ = checked(repro.serve, spec, [clock])
    clock.mark()
    raw, scaled = clock.stretches()
    lead_in = clock.ends[0] - START
    cold = {
        "cold_s": lead_in * CAL_NOMINAL_S / clock.kernel_s[0] + sum(scaled),
        "cold_s_as_measured": lead_in + sum(raw),
    }
    return repro, result, mark, cold, clock_class


def decisions(result) -> int:
    return sum(
        record.decisions
        for outcome in result.outcomes
        for record in outcome.result.frames
        if not record.skipped
    )


def emit(report: dict) -> None:
    print(json.dumps(report, allow_nan=True), flush=True)


def measure(spec) -> dict:
    """The cold start, then warm-serve windows on request.

    Prints the cold start's report, then reads standard input: each
    line ``SECONDS`` serves warm for that long (with a round clock
    attached) and prints that window's samples; ``done`` ends the role.
    Every serve's wall and rounds are reported scaled to nominal host
    speed (see :class:`Calibration`), the wall also as measured.
    """
    repro, result, mark, cold, RoundClock = cold_start(spec)
    emit({
        **cold,
        "marks": [mark],
        "qos": None if result is None else workloads.qos(result, spec),
    })
    del result

    for command in sys.stdin:
        if command.strip() == "done":
            break
        seconds = float(command)
        walls, raw_walls, rounds_ms, kernel_s, marks = [], [], [], [], []
        window = perf_counter()
        while perf_counter() - window < seconds:
            clock = RoundClock()
            clock.mark()
            result, mark, _ = checked(repro.serve, spec, [clock])
            clock.mark()
            marks.append(mark)
            if result is None:
                continue
            raw, scaled = clock.stretches()
            raw_walls.append(sum(raw))
            walls.append(sum(scaled))
            kernel_s.append(statistics.median(clock.kernel_s))
            # the stretches between first on_round calls of consecutive
            # round indices, without the lead-in and the wind-down
            rounds_ms.append([1e3 * s for s in scaled[1:-1]])
            del result
        emit({
            "walls": walls, "raw_walls": raw_walls, "kernel_s": kernel_s,
            "rounds_ms": rounds_ms, "marks": marks,
        })
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"peak_rss_mib": rss_mib}


def reference(spec) -> dict:
    repro, _, mark, cold, _ = cold_start(spec)
    oracle = dict(spec, engine=workloads.reference_engine(spec))
    _, reference_mark, _ = checked(repro.serve, oracle)
    if isinstance(reference_mark, dict):
        raise RuntimeError(f"reference serve failed: {reference_mark['error']}")
    return {**cold, "marks": [mark], "reference": reference_mark}


def setup(spec) -> dict:
    _, _, mark, cold, _ = cold_start(spec)
    return {**cold, "marks": [mark]}


def trace(spec, workload: str, seconds: float, out_dir: Path, seed) -> dict:
    import repro

    import tracing

    recorder = tracing.SpanRecorder()
    patches = tracing.layer_patches(recorder)
    known = tracing.observer_classes()
    from repro.engine.bank import bank_for

    def traced_serve(label, keep):
        tracing.install(patches)
        bank_before = bank_for.cache_info()
        recorder.begin(label, keep=keep)
        root = recorder.wrap(tracing.ROOT, repro.serve)
        try:
            result, mark, wall = checked(root, spec)
        finally:
            totals = recorder.end()
            tracing.uninstall(patches)
        bank_after = bank_for.cache_info()
        totals["wall_s"] = wall
        totals["bank_hits"] = bank_after.hits - bank_before.hits
        totals["bank_misses"] = bank_after.misses - bank_before.misses
        if result is not None:
            stray = [
                type(o).__name__ for o in result.observers
                if not isinstance(o, known)
            ]
            if stray:
                raise RuntimeError(f"observers without spans: {stray}")
            totals["decisions"] = decisions(result)
            totals["frames"] = result.total_frames()
            totals["renegotiations"] = result.total_renegotiations()
            totals["preemptions"] = result.preempted_count
            raw = result.raw
            totals["migrations"] = len(getattr(raw, "migrations", ()))
        return totals, mark

    cold, mark = traced_serve("cold", True)
    marks = [mark]
    warm, untraced_walls = [], []
    window = perf_counter()
    while (
        perf_counter() - window < seconds or len(warm) < MIN_TRACED_SERVES
    ) and perf_counter() - window < WINDOW_CAP * seconds:
        result, mark, wall = checked(repro.serve, spec)
        marks.append(mark)
        if result is not None:
            untraced_walls.append(wall)
        del result
        totals, mark = traced_serve("warm", not warm)
        marks.append(mark)
        if "frames" in totals:
            warm.append(totals)
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    span_count = recorder.write_jsonl(spans_path)
    return {
        "cold": cold,
        "warm": warm,
        "untraced_walls": untraced_walls,
        "marks": marks,
        "spans_file": str(spans_path),
        "spans_written": span_count,
    }


def main(argv) -> int:
    role, workload, seed, seconds, out_dir = argv
    seed = None if seed == "default" else int(seed)
    spec = workloads.spec_for(workload, seed)
    seconds = float(seconds)
    if role == "measure":
        report = measure(spec)
    elif role == "setup":
        report = setup(spec)
    elif role == "reference":
        report = reference(spec)
    elif role == "trace":
        report = trace(spec, workload, seconds, Path(out_dir), argv[2])
    else:
        raise SystemExit(f"unknown role {role!r}")
    import repro

    report["repro_file"] = repro.__file__
    emit(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
