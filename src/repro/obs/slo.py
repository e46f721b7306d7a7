"""Service-level objectives: rolling error budgets + burn-rate alerts.

The SLA layer (PR 4) sells each class a quality band; this module adds
the *temporal* half of that contract, Kalinahia-style declared QoS: a
:class:`SloSpec` states what fraction of a class's serving decisions
must be good (``"gold quality >= 0.85 in >= 99% of departures"``,
``"acceptance >= 99.9%"``), and :class:`SloObserver` evaluates it live
over the observer hook stream as a **rolling error budget** with
multi-window burn-rate alerting (the SRE fast/slow window pair):

* every matching serving decision is a budget *unit* — an admission
  verdict for ``acceptance`` objectives, a departure for ``quality``
  objectives (good iff the stream's normalized mean quality met the
  bar);
* the error budget accrues at ``1 - target`` per unit and is spent one
  unit per bad decision;
* the **burn rate** over a trailing window is the window's bad
  fraction divided by the budget rate — burn 1.0 spends the budget
  exactly as fast as it accrues, burn 2.0 exhausts a just-accrued
  budget twice over;
* an alert fires when *both* the fast window (paging speed) and the
  slow window (evidence the burn is sustained, not one bad round)
  exceed ``burn_threshold``, exactly once per burn episode: the
  episode must *resolve* (both windows back under threshold) before
  the next alert can fire.

Alerts are deterministic :class:`~repro.obs.events.AlertEvent` records
— appended to the observer's ``alerts`` and, when a sink event log is
wired (``repro.serve`` does this automatically), into the run's JSONL
event stream.  End of run, :meth:`SloObserver.reports` summarizes each
objective as a :class:`SloReport` (budget consumed/remaining,
time-to-first-burn, worst windows), surfaced on
:meth:`ServingResult.slo_reports
<repro.streams.fleet.ServingResult.slo_reports>`.

Like every observer, attaching :class:`SloObserver` cannot change a
run's results — the equivalence suite asserts bit-identity.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, fields

from repro.errors import ConfigurationError
from repro.obs.events import AlertEvent
from repro.serving.observers import RoundObserver
from repro.sla.classes import resolve_classes
from repro.video.pipeline import ENCODER_QUALITY_LEVELS

#: Normalization scale: specs/classes state quality in [0, 1], runners
#: report it in encoder-quality units.
QMAX = float(max(ENCODER_QUALITY_LEVELS.levels))

OBJECTIVES = ("quality", "acceptance")


@dataclass(frozen=True)
class SloSpec:
    """One declared objective, JSON-round-trippable.

    Parameters
    ----------
    name:
        Unique label; alerts and reports carry it.
    objective:
        ``"quality"`` — one budget unit per departure of a matching
        stream, good iff its normalized mean quality reached
        ``threshold``; ``"acceptance"`` — one unit per admission
        decision, good iff admitted.
    service_class:
        Restrict to streams of this class (``None`` matches every
        stream, including unclassed ones).
    threshold:
        Normalized [0, 1] quality bar (``"quality"`` objectives only).
        ``None`` defaults to the service class's contractual
        ``target_quality`` — "gold quality" means gold's own target.
    target:
        The good fraction sold, in (0, 1): ``0.99`` leaves a 1% error
        budget.
    fast_window / slow_window:
        Trailing burn windows in scheduling rounds; the fast one pages
        quickly, the slow one confirms the burn is sustained.
    burn_threshold:
        Burn-rate multiple both windows must exceed to fire.
    """

    name: str
    objective: str
    service_class: str | None = None
    threshold: float | None = None
    target: float = 0.99
    fast_window: int = 10
    slow_window: int = 60
    burn_threshold: float = 2.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                f"slo name must be a non-empty string, got {self.name!r}"
            )
        if self.objective not in OBJECTIVES:
            raise ConfigurationError(
                f"slo {self.name!r}: objective must be one of "
                f"{OBJECTIVES}, got {self.objective!r}"
            )
        if self.service_class is not None and (
            not isinstance(self.service_class, str) or not self.service_class
        ):
            raise ConfigurationError(
                f"slo {self.name!r}: service_class must be a class name "
                f"or None, got {self.service_class!r}"
            )
        if self.objective == "acceptance" and self.threshold is not None:
            raise ConfigurationError(
                f"slo {self.name!r}: acceptance objectives take no "
                f"quality threshold"
            )
        if self.objective == "quality":
            if self.threshold is None and self.service_class is None:
                raise ConfigurationError(
                    f"slo {self.name!r}: a quality objective needs an "
                    f"explicit threshold or a service_class to default "
                    f"from"
                )
            if self.threshold is not None and not 0.0 < self.threshold <= 1.0:
                raise ConfigurationError(
                    f"slo {self.name!r}: threshold must be in (0, 1], "
                    f"got {self.threshold!r}"
                )
        if not (
            isinstance(self.target, float) and 0.0 < self.target < 1.0
        ):
            raise ConfigurationError(
                f"slo {self.name!r}: target must be a float in (0, 1), "
                f"got {self.target!r}"
            )
        for field_name in ("fast_window", "slow_window"):
            value = getattr(self, field_name)
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or value < 1
            ):
                raise ConfigurationError(
                    f"slo {self.name!r}: {field_name} must be an integer "
                    f">= 1, got {value!r}"
                )
        if self.fast_window >= self.slow_window:
            raise ConfigurationError(
                f"slo {self.name!r}: fast_window ({self.fast_window}) "
                f"must be shorter than slow_window ({self.slow_window})"
            )
        if not self.burn_threshold > 0:
            raise ConfigurationError(
                f"slo {self.name!r}: burn_threshold must be positive, "
                f"got {self.burn_threshold!r}"
            )

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "objective": self.objective,
            "service_class": self.service_class,
            "threshold": self.threshold,
            "target": self.target,
            "fast_window": self.fast_window,
            "slow_window": self.slow_window,
            "burn_threshold": self.burn_threshold,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SloSpec":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"an slo must be a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown slo field(s) {sorted(unknown)}; expected a "
                f"subset of {sorted(known)}"
            )
        for required in ("name", "objective"):
            if required not in data:
                raise ConfigurationError(f"an slo needs a {required!r}")
        return cls(**dict(data))


def resolve_slos(slos) -> tuple[SloSpec, ...]:
    """Normalize an ``slos`` declaration: specs or dicts, unique names."""
    if isinstance(slos, (SloSpec, Mapping)):
        slos = (slos,)
    resolved = []
    seen = set()
    for item in slos:
        if isinstance(item, SloSpec):
            spec = item
        elif isinstance(item, Mapping):
            spec = SloSpec.from_dict(item)
        else:
            raise ConfigurationError(
                f"slos must be SloSpec instances or dicts, got "
                f"{type(item).__name__}"
            )
        if spec.name in seen:
            raise ConfigurationError(f"duplicate slo name {spec.name!r}")
        seen.add(spec.name)
        resolved.append(spec)
    if not resolved:
        raise ConfigurationError("slos must not be empty")
    return tuple(resolved)


@dataclass(frozen=True)
class SloReport:
    """End-of-run verdict for one objective.

    Budget arithmetic is carried in *units* (one unit per serving
    decision) so the ``slo-budget-conservation`` invariant can check
    the books: ``budget_units`` accrues at ``1 - target`` per unit,
    ``consumed_units`` counts bad decisions, ``remaining_units`` is
    maintained incrementally by the tracker — accrued must equal
    consumed plus remaining.  ``budget_remaining`` is the same thing as
    a share of the accrued budget (negative = overspent).
    """

    name: str
    objective: str
    service_class: str | None
    threshold: float | None
    target: float
    units: int
    bad_units: int
    good_fraction: float
    met: bool
    budget_units: float
    consumed_units: float
    remaining_units: float
    budget_remaining: float
    alerts: int
    time_to_first_burn: int | None
    worst_fast_burn: float
    worst_slow_burn: float
    worst_window_round: int | None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SloReport":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"an slo report must be a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        missing = known - set(data)
        if unknown or missing:
            raise ConfigurationError(
                f"slo report: unknown fields {sorted(unknown)}, "
                f"missing fields {sorted(missing)}"
            )
        return cls(**dict(data))


class SloTracker:
    """The rolling error budget for one :class:`SloSpec`.

    Pure bookkeeping, usable outside the observer (the
    ``slo-budget-conservation`` invariant runs its own instances):
    :meth:`record` one decision at a round, :meth:`advance_to` the
    first round whose decisions have not all arrived yet — every round
    strictly before it is sealed and evaluated, and the burn-rate
    state machine's firing/resolution transitions come back as
    ``(state, round, fast_burn, slow_burn)`` tuples.
    """

    def __init__(self, spec: SloSpec, threshold: float | None) -> None:
        self.spec = spec
        self.threshold = threshold
        self.units = 0
        self.bad_units = 0
        # two independent ledgers of the same budget: accrued/remaining
        # advance incrementally per unit, so conservation
        # (accrued == consumed + remaining) is a real cross-check, not
        # an identity
        self.budget_units = 0.0
        self.remaining_units = 0.0
        self.alert_active = False
        self.alert_count = 0
        self.first_bad_round: int | None = None
        self.worst_fast_burn = 0.0
        self.worst_slow_burn = 0.0
        self.worst_window_round: int | None = None
        #: (round, stream) per bad unit — attribution's work list.
        self.bad_log: list[tuple[int, str]] = []
        #: (round, stream, good) per unit — durable window evidence
        #: (the rolling buckets prune themselves as the run advances).
        self.unit_log: list[tuple[int, str, bool]] = []
        self._buckets: deque = deque()  # sealed (round, units, bad)
        self._slow_units = 0
        self._slow_bad = 0
        self._cur_round: int | None = None
        self._cur_units = 0
        self._cur_bad = 0
        self._evaluated = -1

    # ------------------------------------------------------------------

    def record(self, round_index: int, stream: str, good: bool) -> None:
        if self._cur_round is None:
            self._cur_round = round_index
        self.units += 1
        rate = 1.0 - self.spec.target
        self.budget_units += rate
        self.remaining_units += rate
        self.unit_log.append((round_index, stream, good))
        if not good:
            self.bad_units += 1
            self.remaining_units -= 1.0
            self.bad_log.append((round_index, stream))
            if self.first_bad_round is None:
                self.first_bad_round = round_index
        self._cur_units += 1
        self._cur_bad += 0 if good else 1

    def advance_to(self, round_index: int) -> list[tuple]:
        """Seal and evaluate every round strictly before ``round_index``."""
        transitions: list[tuple] = []
        while self._evaluated + 1 < round_index:
            r = self._evaluated + 1
            if self._cur_round is not None and self._cur_round == r:
                self._buckets.append((r, self._cur_units, self._cur_bad))
                self._slow_units += self._cur_units
                self._slow_bad += self._cur_bad
                self._cur_round = None
                self._cur_units = 0
                self._cur_bad = 0
            transition = self._evaluate(r)
            if transition is not None:
                transitions.append(transition)
            self._evaluated = r
        return transitions

    def finish(self) -> list[tuple]:
        """Seal the final round (run over, no more decisions coming)."""
        last = self._evaluated
        if self._cur_round is not None:
            last = max(last, self._cur_round)
        return self.advance_to(last + 1)

    # ------------------------------------------------------------------

    def _evaluate(self, r: int) -> tuple | None:
        spec = self.spec
        while self._buckets and self._buckets[0][0] <= r - spec.slow_window:
            _, units, bad = self._buckets.popleft()
            self._slow_units -= units
            self._slow_bad -= bad
        fast_units = fast_bad = 0
        for round_index, units, bad in reversed(self._buckets):
            if round_index <= r - spec.fast_window:
                break
            fast_units += units
            fast_bad += bad
        rate = 1.0 - spec.target
        fast_burn = (fast_bad / fast_units) / rate if fast_units else 0.0
        slow_burn = (
            (self._slow_bad / self._slow_units) / rate
            if self._slow_units else 0.0
        )
        self._fast_burn = fast_burn
        self._slow_burn = slow_burn
        if slow_burn > self.worst_slow_burn:
            self.worst_slow_burn = slow_burn
            self.worst_window_round = r
        self.worst_fast_burn = max(self.worst_fast_burn, fast_burn)
        firing = (
            fast_burn >= spec.burn_threshold
            and slow_burn >= spec.burn_threshold
        )
        if firing and not self.alert_active:
            self.alert_active = True
            self.alert_count += 1
            return ("firing", r, fast_burn, slow_burn)
        if not firing and self.alert_active:
            self.alert_active = False
            return ("resolved", r, fast_burn, slow_burn)
        return None

    # ------------------------------------------------------------------

    def remaining_share(self) -> float:
        if self.budget_units <= 0.0:
            return 1.0
        return self.remaining_units / self.budget_units

    def status(self) -> dict:
        """Live view (through the last sealed round) for ``--watch``."""
        return {
            "budget_remaining": round(self.remaining_share(), 6),
            "alert": self.alert_active,
            "fast_burn": round(getattr(self, "_fast_burn", 0.0), 6),
            "slow_burn": round(getattr(self, "_slow_burn", 0.0), 6),
        }

    def report(self) -> SloReport:
        spec = self.spec
        good_fraction = (
            (self.units - self.bad_units) / self.units if self.units else 1.0
        )
        return SloReport(
            name=spec.name,
            objective=spec.objective,
            service_class=spec.service_class,
            threshold=self.threshold,
            target=spec.target,
            units=self.units,
            bad_units=self.bad_units,
            good_fraction=good_fraction,
            met=good_fraction >= spec.target,
            budget_units=self.budget_units,
            consumed_units=float(self.bad_units),
            remaining_units=self.remaining_units,
            budget_remaining=self.remaining_share(),
            alerts=self.alert_count,
            time_to_first_burn=self.first_bad_round,
            worst_fast_burn=self.worst_fast_burn,
            worst_slow_burn=self.worst_slow_burn,
            worst_window_round=self.worst_window_round,
        )


class SloObserver(RoundObserver):
    """Evaluates a set of :class:`SloSpec` objectives over a run.

    Parameters
    ----------
    slos:
        :class:`SloSpec` instances or dicts (``resolve_slos``); a
        spec's ``ServingSpec.slos`` builds one of these automatically.
    classes:
        SLA catalog for defaulting quality thresholds from a class's
        ``target_quality`` (the spec's ``service_classes`` is forwarded
        automatically — the factory is registered ``sla_aware``).
    sink:
        Optional :class:`~repro.obs.events.StructuredEventLog`; every
        :class:`~repro.obs.events.AlertEvent` is also recorded there,
        interleaved at its deterministic position in the run's event
        stream.  ``repro.serve`` wires the run's first event log in
        automatically when none is set.
    """

    def __init__(self, slos, classes=None, sink=None) -> None:
        specs = resolve_slos(slos)
        catalog = resolve_classes(classes)
        self.slos = specs
        self.sink = sink
        self.alerts: list[AlertEvent] = []
        self.trackers: dict[str, SloTracker] = {}
        for spec in specs:
            threshold = spec.threshold
            if spec.objective == "quality" and threshold is None:
                cls = catalog.get(spec.service_class)
                if cls is None:
                    raise ConfigurationError(
                        f"slo {spec.name!r}: service_class "
                        f"{spec.service_class!r} is not in the class "
                        f"catalog, so its quality threshold cannot "
                        f"default from target_quality"
                    )
                threshold = cls.target_quality
            self.trackers[spec.name] = SloTracker(spec, threshold)
        self._last_round = 0
        self._closed = False
        self._reports: tuple[SloReport, ...] | None = None

    # ------------------------------------------------------------------
    # clock + unit recording
    # ------------------------------------------------------------------

    def _advance(self, round_index: int) -> None:
        if round_index > self._last_round:
            self._last_round = round_index
        for tracker in self.trackers.values():
            for state, r, fast, slow in tracker.advance_to(round_index):
                self._alert(tracker, state, r, fast, slow)

    def _alert(self, tracker, state, r, fast, slow) -> None:
        event = AlertEvent(
            round=r, shard=None, slo=tracker.spec.name, state=state,
            fast_burn=fast, slow_burn=slow,
            budget_remaining=tracker.remaining_share(),
        )
        self.alerts.append(event)
        if self.sink is not None:
            self.sink.record(event)

    def _matching(self, objective, service_class):
        for tracker in self.trackers.values():
            spec = tracker.spec
            if spec.objective != objective:
                continue
            if (
                spec.service_class is not None
                and spec.service_class != service_class
            ):
                continue
            yield tracker

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------

    def on_round(self, round_index, allocations, capacity, shard_id=None):
        self._advance(round_index)

    def on_capacity(self, capacity, round_index, shard_id=None):
        self._advance(round_index)

    def on_admit(self, spec, round_index, shard_id=None):
        self._advance(round_index)
        for tracker in self._matching("acceptance", spec.service_class):
            tracker.record(round_index, spec.name, good=True)

    def on_reject(self, spec, round_index, shard_id=None):
        self._advance(round_index)
        for tracker in self._matching("acceptance", spec.service_class):
            tracker.record(round_index, spec.name, good=False)

    def on_depart(self, outcome, round_index, shard_id=None):
        self._advance(round_index)
        spec = outcome.spec
        trackers = list(self._matching("quality", spec.service_class))
        if not trackers:
            return
        mean = outcome.result.mean_quality()
        norm = mean / QMAX
        for tracker in trackers:
            # an all-skips departure has undefined (NaN) quality: that
            # is a failed delivery, not a free pass
            good = (not math.isnan(mean)) and norm >= tracker.threshold - 1e-12
            tracker.record(round_index, spec.name, good=good)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """Per-objective live state, keyed by slo name (``--watch``)."""
        return {
            name: tracker.status()
            for name, tracker in self.trackers.items()
        }

    def reports(self) -> tuple[SloReport, ...]:
        """End-of-run verdicts (closes the observer if still open)."""
        self.close()
        return self._reports

    def close(self) -> None:
        """Seal the final round and fix the reports.  Idempotent
        (:func:`repro.serve` calls it when the run completes)."""
        if self._closed:
            return
        self._closed = True
        for tracker in self.trackers.values():
            for state, r, fast, slow in tracker.finish():
                self._alert(tracker, state, r, fast, slow)
        self._reports = tuple(
            tracker.report() for tracker in self.trackers.values()
        )
