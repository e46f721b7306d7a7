"""The fleet runner: many QoS-controlled streams on one shared capacity.

:class:`FleetRunner` drives a :class:`~repro.streams.scenarios.Scenario`
round by round:

1. streams arriving this round pass through admission control
   (accept / queue / reject against the remaining feasible capacity);
2. departures may have freed capacity, so the wait queue is re-examined;
3. the capacity arbiter partitions the shared budget across the active
   sessions from their per-round requests (demand, weight, recent
   quality, backlog);
4. every active session advances **one scheduling round** under its
   grant — round-robin interleaving, deterministic order;
5. finished sessions retire, their committed capacity is released.

A fleet is the one-pool case of the cluster layer: steps 1-5 are a
single :class:`~repro.cluster.shard.Shard` (with no shard id), and the
runner only feeds it arrivals and decides when the run is over.

The run is fully deterministic for a fixed scenario: sessions draw from
seeded generators and the loop orders everything by arrival.

Both runners return the one run-level result type defined here,
:class:`ServingResult`: per-pool :class:`PoolRecord`s plus run-level
fields, with every serving metric (acceptance ratio, per-stream mean
quality/PSNR, Jain fairness, skip and deadline-miss totals, per-class
and per-pool breakdowns) written once over the pools.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.analysis.metrics import jain_fairness_index, load_imbalance
from repro.engine import validate_engine
from repro.errors import ConfigurationError
from repro.sim.results import RunResult
from repro.streams.admission import AdmissionController
from repro.streams.arbiter import CapacityArbiter
from repro.streams.scenarios import Scenario, StreamSpec


@dataclass(frozen=True)
class StreamOutcome:
    """One served stream's spec, its run, and when it was active.

    ``renegotiations`` counts the mid-stream SLA quality-target steps
    the session executed (0 for classless runs).
    """

    spec: StreamSpec
    result: RunResult
    admitted_round: int
    finished_round: int
    renegotiations: int = 0

    @property
    def rounds_active(self) -> int:
        return self.finished_round - self.admitted_round + 1


def finite_mean(values) -> float:
    """Mean over the finite values (nan when there are none)."""
    finite = [v for v in values if np.isfinite(v)]
    return float(np.mean(finite)) if finite else math.nan


def class_breakdown(outcomes, rejected, preempted) -> dict[str, dict]:
    """Per-service-class serving metrics over one result's streams.

    Unclassed streams group under ``"unclassed"``.  ``preempted`` is
    the subset of ``rejected`` evicted from admission queues, so its
    counts are *included* in ``rejected`` (never double-counted in
    acceptance).
    """
    buckets: dict[str, dict] = {}

    def bucket(service_class):
        key = service_class if service_class is not None else "unclassed"
        return buckets.setdefault(
            key,
            {
                "served": 0,
                "rejected": 0,
                "preempted": 0,
                "renegotiations": 0,
                "qualities": [],
            },
        )

    for outcome in outcomes:
        entry = bucket(outcome.spec.service_class)
        entry["served"] += 1
        entry["renegotiations"] += outcome.renegotiations
        entry["qualities"].append(outcome.result.mean_quality())
    for spec in rejected:
        bucket(spec.service_class)["rejected"] += 1
    for spec in preempted:
        bucket(spec.service_class)["preempted"] += 1

    breakdown: dict[str, dict] = {}
    for name in sorted(buckets):
        entry = buckets.pop(name)
        qualities = entry.pop("qualities")
        decided = entry["served"] + entry["rejected"]
        entry["acceptance_ratio"] = (
            entry["served"] / decided if decided else 1.0
        )
        entry["mean_quality"] = finite_mean(qualities)
        entry["fairness_quality"] = jain_fairness_index(qualities)
        breakdown[name] = entry
    return breakdown


def _normalize_classes(classes) -> dict | None:
    """``service_classes`` runner kwarg -> ``{name: ServiceClass}``.

    Accepts ``None``, a mapping, or an iterable of classes (anything
    with a ``.name``); pure attribute access, so this module never
    imports the SLA package.
    """
    if classes is None:
        return None
    if isinstance(classes, Mapping):
        return dict(classes)
    return {c.name: c for c in classes}


def session_sla_kwargs(spec: StreamSpec, catalog, renegotiation) -> dict:
    """The SLA constructor kwargs a classed spec's session needs.

    Empty for unclassed specs.  ``catalog`` of ``None`` resolves to the
    standard gold/silver/bronze catalog (imported lazily — the streams
    layer never depends on :mod:`repro.sla` at import time); a classed
    spec whose name is missing from the catalog is a configuration
    error caught at session start, not mid-round.
    """
    if spec.service_class is None:
        return {}
    if catalog is None:
        from repro.sla.classes import resolve_classes

        catalog = resolve_classes(None)
    cls = catalog.get(spec.service_class)
    if cls is None:
        raise ConfigurationError(
            f"stream {spec.name!r} declares service class "
            f"{spec.service_class!r}, not in the catalog "
            f"{sorted(catalog)}"
        )
    return {
        "service_class": spec.service_class,
        "quality_target": cls.target_quality,
        "quality_floor": cls.min_quality,
        "renegotiation": renegotiation,
    }


def cross_class_fairness(breakdown: dict[str, dict]) -> float:
    """Jain index over per-class mean quality — Changuel et al.'s
    across-class quality-share criterion (idle classes excluded)."""
    values = [
        entry["mean_quality"]
        for entry in breakdown.values()
        if np.isfinite(entry["mean_quality"])
    ]
    return jain_fairness_index(values)


@dataclass(frozen=True)
class PoolRecord:
    """One capacity pool's serving history (see ``Shard.result``).

    ``shard_id`` is ``None`` for a fleet's single pool; ``capacity`` is
    the pool's nominal budget (cycles per round, before capacity
    events); ``demand_cycles`` is the demand its sessions put on it,
    summed over rounds.  ``preempted`` is the subset of ``rejected``
    evicted from the admission queue by priority admission.
    """

    shard_id: str | None
    arbiter_name: str
    capacity: float
    peak_concurrency: int
    demand_cycles: float
    outcomes: tuple[StreamOutcome, ...]
    rejected: tuple[StreamSpec, ...]
    preempted: tuple[StreamSpec, ...]


@dataclass
class ServingResult:
    """Everything one serving run produced, fleet or cluster.

    ``pools`` holds one :class:`PoolRecord` per capacity pool: a
    fleet's single pool, or every shard a cluster ran (live shards
    first, then the ones the autoscaler retired).  Every accessor is
    written once over the pools.  The cluster-tier fields (policy
    names, ``migrations``, ``lent_cycles``, ``capacity_rounds``,
    ``scale_actions``) keep their ``"none"`` / empty defaults on a
    fleet.

    :func:`repro.serving.serve` also fills in ``spec`` (the
    :class:`~repro.serving.spec.ServingSpec` that produced the run),
    ``runner`` (kept for post-run inspection, e.g.
    ``runner.admission.queued_count``) and ``observers`` (every
    observer attached to the run, caller-passed first, already
    ``close()``-d so telemetry, logs and ledgers are readable).
    """

    scenario_name: str
    rounds: int
    pools: list[PoolRecord]
    placement_name: str = "none"
    migration_name: str = "none"
    balancer_name: str = "none"
    migrations: list = field(default_factory=list)
    lent_cycles: float = 0.0
    #: provisioned capacity summed over rounds (cycles x rounds) — what
    #: a statically provisioned cluster "pays for"; the autoscaler
    #: benchmarks compare this across provisioning strategies
    capacity_rounds: float = 0.0
    #: scale actions the autoscaler applied (empty without one)
    scale_actions: list = field(default_factory=list)
    spec: object | None = None
    runner: object | None = None
    observers: tuple = ()

    @property
    def raw(self) -> ServingResult:
        """This result itself, read-only.

        Kept only for ``perfbench/worker.py``, which still reads
        ``result.raw``; other code uses the result directly.  Remove
        it together with that reader.
        """
        return self

    @property
    def topology(self) -> str:
        if any(pool.shard_id is not None for pool in self.pools):
            return "cluster"
        return "fleet"

    # ------------------------------------------------------------------
    # per-stream views
    # ------------------------------------------------------------------

    @property
    def outcomes(self) -> list[StreamOutcome]:
        """Every served stream's outcome, pool by pool."""
        return [o for pool in self.pools for o in pool.outcomes]

    @property
    def rejected(self) -> list[StreamSpec]:
        return [s for pool in self.pools for s in pool.rejected]

    @property
    def preempted(self) -> list[StreamSpec]:
        """Queued specs evicted by priority admission (each is also in
        ``rejected``, counted once)."""
        return [s for pool in self.pools for s in pool.preempted]

    def per_stream_quality(self) -> list[float]:
        """Mean delivered quality per served stream (nan if all skipped)."""
        return [o.result.mean_quality() for o in self.outcomes]

    def per_stream_psnr(self) -> list[float]:
        return [o.result.mean_psnr() for o in self.outcomes]

    # ------------------------------------------------------------------
    # run aggregates
    # ------------------------------------------------------------------

    @property
    def served_count(self) -> int:
        return sum(len(pool.outcomes) for pool in self.pools)

    @property
    def rejected_count(self) -> int:
        return sum(len(pool.rejected) for pool in self.pools)

    @property
    def preempted_count(self) -> int:
        return sum(len(pool.preempted) for pool in self.pools)

    @property
    def acceptance_ratio(self) -> float:
        offered = self.served_count + self.rejected_count
        return self.served_count / offered if offered else 1.0

    def total_renegotiations(self) -> int:
        return sum(o.renegotiations for o in self.outcomes)

    def per_class(self) -> dict[str, dict]:
        """Per-service-class metrics (see :func:`class_breakdown`)."""
        return class_breakdown(self.outcomes, self.rejected, self.preempted)

    def fairness_cross_class(self) -> float:
        """Jain index over per-class mean quality."""
        return cross_class_fairness(self.per_class())

    def fairness_quality(self) -> float:
        """Jain index over every served stream's mean quality — the
        headline metric."""
        return jain_fairness_index(self.per_stream_quality())

    def fairness_psnr(self) -> float:
        return jain_fairness_index(self.per_stream_psnr())

    def mean_quality(self) -> float:
        return finite_mean(self.per_stream_quality())

    def mean_psnr(self) -> float:
        return finite_mean(self.per_stream_psnr())

    def total_skips(self) -> int:
        return sum(o.result.skip_count for o in self.outcomes)

    def total_frames(self) -> int:
        return sum(len(o.result) for o in self.outcomes)

    def total_deadline_misses(self) -> int:
        return sum(o.result.deadline_miss_count for o in self.outcomes)

    # ------------------------------------------------------------------
    # per-pool views
    # ------------------------------------------------------------------

    def per_pool(self) -> list[dict]:
        """Per-pool serving metrics, one entry per pool in order."""
        breakdown = []
        for pool in self.pools:
            qualities = [o.result.mean_quality() for o in pool.outcomes]
            breakdown.append({
                "shard": pool.shard_id,
                "arbiter": pool.arbiter_name,
                "capacity": pool.capacity,
                "peak_concurrency": pool.peak_concurrency,
                "demand_cycles": pool.demand_cycles,
                "served": len(pool.outcomes),
                "rejected": len(pool.rejected),
                "preempted": len(pool.preempted),
                "frames": sum(len(o.result) for o in pool.outcomes),
                "skips": sum(o.result.skip_count for o in pool.outcomes),
                "mean_quality": finite_mean(qualities),
                "fairness_quality": jain_fairness_index(qualities),
            })
        return breakdown

    def fairness_cross_shard(self) -> float:
        """Jain index over per-pool mean quality — the cluster-level
        quality-fair-delivery criterion (idle pools excluded: an
        unused pool is a placement problem, measured by imbalance)."""
        values = [
            entry["mean_quality"]
            for entry in self.per_pool()
            if not math.isnan(entry["mean_quality"])
        ]
        return jain_fairness_index(values)

    def load_imbalance(self) -> float:
        """Peak-to-mean realized pool load (1.0 = perfectly balanced)."""
        return load_imbalance([pool.demand_cycles for pool in self.pools])

    @property
    def migration_count(self) -> int:
        return len(self.migrations)

    @property
    def active_migration_count(self) -> int:
        return sum(1 for m in self.migrations if m.kind == "active")

    # ------------------------------------------------------------------
    # observability views (SLOs, traces, incidents)
    # ------------------------------------------------------------------

    def _first_observer(self, cls):
        return next(
            (o for o in self.observers if isinstance(o, cls)), None
        )

    def slo_reports(self) -> tuple:
        """Every declared SLO's end-of-run
        :class:`~repro.obs.slo.SloReport` (empty without an attached
        SLO observer — declare ``spec.slos`` to get one)."""
        from repro.obs.slo import SloObserver

        observer = self._first_observer(SloObserver)
        return () if observer is None else observer.reports()

    def alerts(self) -> tuple:
        """Every burn-rate :class:`~repro.obs.events.AlertEvent` the
        run's SLO observer fired or resolved, in order."""
        from repro.obs.slo import SloObserver

        observer = self._first_observer(SloObserver)
        return () if observer is None else tuple(observer.alerts)

    def traces(self) -> tuple:
        """Every session's :class:`~repro.obs.tracing.TraceRecord`
        (empty without an attached trace observer)."""
        from repro.obs.tracing import TraceObserver

        observer = self._first_observer(TraceObserver)
        return () if observer is None else observer.records()

    def incidents(self, **kwargs) -> tuple:
        """Attributed :class:`~repro.obs.attribution.Incident` per
        fired alert; needs both an SLO and a trace observer attached
        (post-hoc and pure — calling this cannot change the run)."""
        from repro.obs.attribution import attribute_incidents
        from repro.obs.slo import SloObserver
        from repro.obs.tracing import TraceObserver

        slo = self._first_observer(SloObserver)
        trace = self._first_observer(TraceObserver)
        if slo is None or trace is None:
            return ()
        return attribute_incidents(slo, trace, **kwargs)

    def summary(self) -> dict:
        """Topology-independent headline numbers (stable keys).

        One pass over the outcome list: benches call this in loops.
        """
        outcomes = self.outcomes
        qualities = [o.result.mean_quality() for o in outcomes]
        return {
            "topology": self.topology,
            "scenario": self.scenario_name,
            "rounds": self.rounds,
            "served": len(outcomes),
            "rejected": self.rejected_count,
            "preempted": self.preempted_count,
            "renegotiations": sum(o.renegotiations for o in outcomes),
            "acceptance_ratio": round(self.acceptance_ratio, 4),
            "frames": sum(len(o.result) for o in outcomes),
            "skips": sum(o.result.skip_count for o in outcomes),
            "deadline_misses": sum(
                o.result.deadline_miss_count for o in outcomes
            ),
            "mean_quality": round(finite_mean(qualities), 3),
            "mean_psnr": round(
                finite_mean([o.result.mean_psnr() for o in outcomes]), 3
            ),
            "fairness_quality": round(jain_fairness_index(qualities), 4),
        }


class FleetRunner:
    """Round-robin concurrent serving of a stream scenario.

    Parameters
    ----------
    capacity:
        Shared processor cycles available per scheduling round.
    arbiter:
        A :class:`~repro.streams.arbiter.CapacityArbiter`.
    admission:
        Optional :class:`~repro.streams.admission.AdmissionController`.
        ``None`` admits everything (pure arbitration experiments).
        Its capacity should normally equal the runner's.
    constraint_mode / granularity:
        Controller settings applied to every session.
    max_rounds:
        Safety valve against runaway scenarios.
    observers:
        :class:`~repro.serving.observers.RoundObserver` instances that
        receive the run's lifecycle events (``capacity`` / ``round`` /
        ``admit`` / ``reject`` / ``depart`` / ``renegotiate`` ...).
        Observers are never read back, so they cannot change results.
    service_classes:
        SLA catalog for classed stream specs — a mapping of name to
        :class:`~repro.sla.classes.ServiceClass` or an iterable of
        classes.  ``None`` lazily falls back to the standard
        gold/silver/bronze catalog the first time a classed spec is
        admitted; classless scenarios never touch it.
    renegotiation:
        Optional stateless mid-stream renegotiation policy applied to
        every classed session (see :mod:`repro.sla.renegotiation`).
    engine:
        Session execution engine (see :mod:`repro.engine`):
        ``"scalar"`` steps sessions one by one, ``"vectorized"`` steps
        all active sessions as numpy batches.  Both engines are
        bit-identical.
    """

    def __init__(
        self,
        capacity: float,
        arbiter: CapacityArbiter,
        admission: AdmissionController | None = None,
        constraint_mode: str = "both",
        granularity: int = 1,
        max_rounds: int = 100_000,
        observers=(),
        service_classes=None,
        renegotiation=None,
        engine: str = "scalar",
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        if max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        self.capacity = capacity
        self.arbiter = arbiter
        self.admission = admission
        self.constraint_mode = constraint_mode
        self.granularity = granularity
        self.max_rounds = max_rounds
        self.observers = tuple(observers)
        self.service_classes = _normalize_classes(service_classes)
        self.renegotiation = renegotiation
        self.engine = validate_engine(engine)

    def reset(self) -> None:
        """Restore the just-constructed state for another ``run``.

        ``run`` builds all per-run state locally; the only thing that
        outlives a run is the admission controller's commitments and
        counters, which this clears.  Arbiters are stateless by
        contract (``allocate`` is pure).  ``run`` calls this on entry
        (matching ``ClusterRunner``), so back-to-back runs on one
        instance replay bit-identically to fresh-runner runs; it is
        public so callers holding a runner can also discard state
        explicitly (see ``tests/serving/test_serving_reset.py``).
        """
        if self.admission is not None:
            self.admission.reset()

    def run(self, scenario: Scenario) -> ServingResult:
        """Serve the whole scenario to completion.

        The pool round itself (offer, queue, arbitrate, step, retire)
        is one :class:`~repro.cluster.shard.Shard` with no shard id;
        this loop only feeds it arrivals and decides when the run is
        over.  Self-contained: admission state is reset on entry, so
        replaying a scenario on the same runner reproduces it exactly.
        """
        # imported lazily — the cluster layer imports this module
        from repro.cluster.shard import Shard

        self.reset()
        shard = Shard(
            shard_id=None,
            capacity=self.capacity,
            arbiter=self.arbiter,
            admission=self.admission,
            constraint_mode=self.constraint_mode,
            granularity=self.granularity,
            observers=self.observers,
            service_classes=self.service_classes,
            renegotiation=self.renegotiation,
            engine=self.engine,
        )
        phase_observers: tuple = ()
        if self.observers:
            # imported lazily — the streams layer never depends on
            # repro.obs or repro.serving at import time
            from repro.obs.events import EventPublisher
            from repro.serving.observers import phase_listeners

            phase_observers = phase_listeners(self.observers)
            EventPublisher(self.observers).capacity(self.capacity, 0)
        timed = bool(phase_observers)
        round_index = 0
        # open-ended scenarios never drain on their own: max_rounds is
        # their *stop condition* — arrivals end there, live cameras are
        # shut down and the backlog drains — so the runaway safety
        # valve has to sit past the drain tail instead
        open_ended = bool(getattr(scenario, "open_ended", False))
        stop_round = self.max_rounds
        round_limit = 2 * self.max_rounds + 1000 if open_ended else self.max_rounds
        while (
            (
                round_index < stop_round
                if open_ended
                else round_index <= scenario.last_arrival_round
            )
            or shard.busy
        ):
            if round_index >= round_limit:
                raise ConfigurationError(
                    f"fleet exceeded max_rounds={self.max_rounds}"
                    + (" (open-ended drain did not converge)" if open_ended else "")
                )
            draining = open_ended and round_index >= stop_round
            if draining:
                # stop condition reached: no new frames, no new streams
                shard.shutdown_sessions()
                shard.flush_queue(round_index)
            # arrivals through admission; departures last round may
            # have freed capacity for the queue
            t0 = perf_counter() if timed else 0.0
            if not draining:
                for spec in scenario.arrivals_at(round_index):
                    shard.offer(spec, round_index)
            shard.admit_queued(round_index)
            if timed:
                now = perf_counter()
                for observer in phase_observers:
                    observer.on_phase("admission", now - t0, round_index)
            shard.step(round_index)
            round_index += 1
        return ServingResult(
            scenario_name=scenario.name,
            rounds=round_index,
            pools=[shard.result()],
        )
