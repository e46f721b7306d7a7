"""The lifecycle event stream: typed records, their JSONL, and the log.

Every lifecycle point of a serving run — capacity declarations,
per-pool rounds, admissions, preemptions, rejections, migrations,
renegotiations, scale actions and departures (with each departed
stream's full per-frame quality timeline) — is one typed, frozen
:class:`Event` record.  The runners build each record **once**, through
an :class:`EventPublisher`, and hand that one record to every attached
observer's ``on_event``; every observer in :mod:`repro.obs` is a fold
over this stream.  Records carry every fact a fold reads, so a saved
log replayed through fresh observers reproduces the live result.

:class:`StructuredEventLog` collects the stream and dumps it to
**deterministic JSONL**: one JSON object per line, sorted keys, floats
sanitized (``NaN`` becomes ``null`` — skipped frames have no quality).
Two identical runs produce byte-identical logs, so event logs diff
cleanly across commits and CI uploads them as artifacts.

:func:`load_events` / :func:`parse_events` round-trip a log back into
the same record objects for offline analysis and replay
(``repro.analysis.report.timeline_table`` renders one as a per-round
table).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.export import canonical_line, clean_value
from repro.serving.observers import RoundObserver
from repro.streams.admission import qmin_demand


@dataclass(frozen=True)
class Event:
    """Base record: every event names its round and (optional) pool."""

    round: int
    shard: str | None

    kind = "event"

    def to_dict(self) -> dict:
        data = clean_value(asdict(self))
        data["event"] = self.kind
        return data


@dataclass(frozen=True)
class CapacityEvent(Event):
    """A pool's nominal capacity was declared or changed."""

    capacity: float

    kind = "capacity"


@dataclass(frozen=True)
class RoundEvent(Event):
    """One arbitrated round on one pool: the grants and the pool size."""

    capacity: float
    allocations: dict

    kind = "round"

    def to_dict(self) -> dict:
        data = super().to_dict()
        # insertion order is runner-dependent detail; sorted keys make
        # the line (and the round trip) canonical
        data["allocations"] = {
            k: clean_value(v) for k, v in sorted(self.allocations.items())
        }
        return data


@dataclass(frozen=True)
class AdmitEvent(Event):
    """A stream was admitted and its session started.

    ``demand`` is the stream's dedicated-speed cycles per round;
    ``qmin_demand`` is the qmin demand its admission commits (mode
    ``"average"``), the figure the migration-headroom law books.
    """

    stream: str
    service_class: str | None
    arrival_round: int
    weight: float
    demand: float
    qmin_demand: float
    frames: int

    kind = "admit"


@dataclass(frozen=True)
class PreemptEvent(Event):
    """A queued stream was evicted by a higher-priority arrival."""

    stream: str
    service_class: str | None

    kind = "preempt"


@dataclass(frozen=True)
class RejectEvent(Event):
    """A stream was finally rejected."""

    stream: str
    service_class: str | None
    arrival_round: int

    kind = "reject"


@dataclass(frozen=True)
class MigrateEvent(Event):
    """One executed migration move (``shard`` is the source)."""

    stream: str
    dest: str
    move_kind: str

    kind = "migrate"


@dataclass(frozen=True)
class RenegotiateEvent(Event):
    """A session's quality target stepped from ``old`` to ``new``."""

    stream: str
    old_target: float
    new_target: float

    kind = "renegotiate"


@dataclass(frozen=True)
class ScaleEvent(Event):
    """An autoscaler action was applied (``shard`` is always ``None``:
    a scale action is cluster-wide, its per-pool effects arrive as
    capacity / migrate events in the same round)."""

    action: str
    sources: tuple
    capacities: tuple
    created: tuple
    reason: str
    action_id: str

    kind = "scale"


@dataclass(frozen=True)
class AlertEvent(Event):
    """An SLO burn-rate alert transition (``shard`` is always ``None``:
    objectives are cluster-wide).

    ``state`` is ``"firing"`` (both burn windows crossed the
    threshold, once per burn episode) or ``"resolved"`` (both back
    under it); ``budget_remaining`` is the share of the accrued error
    budget left at the transition (negative = overspent).  Emitted by
    :class:`~repro.obs.slo.SloObserver`, interleaved into the event
    stream at the round the transition was evaluated.
    """

    slo: str
    state: str
    fast_burn: float
    slow_burn: float
    budget_remaining: float

    kind = "alert"


@dataclass(frozen=True)
class DepartEvent(Event):
    """A stream finished, with its whole quality timeline.

    ``quality_timeline`` has one entry per scheduled frame; ``None``
    marks skipped frames (their quality is undefined).
    """

    stream: str
    service_class: str | None
    admitted_round: int
    frames: int
    skips: int
    deadline_misses: int
    renegotiations: int
    mean_quality: float | None
    quality_timeline: tuple

    kind = "depart"


#: kind string -> record class, the loader's dispatch table.
EVENT_TYPES = {
    cls.kind: cls
    for cls in (
        CapacityEvent,
        RoundEvent,
        AdmitEvent,
        PreemptEvent,
        RejectEvent,
        MigrateEvent,
        RenegotiateEvent,
        ScaleEvent,
        AlertEvent,
        DepartEvent,
    )
}


def event_from_dict(data: dict) -> Event:
    """One parsed JSONL line back into its typed record."""
    if not isinstance(data, dict) or "event" not in data:
        raise ConfigurationError(
            f"an event record must be a mapping with an 'event' kind, "
            f"got {data!r}"
        )
    kind = data["event"]
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown event kind {kind!r}; "
            f"expected one of {sorted(EVENT_TYPES)}"
        )
    payload = {k: v for k, v in data.items() if k != "event"}
    expected = {f.name for f in fields(cls)}
    unknown = set(payload) - expected
    missing = expected - set(payload)
    if unknown or missing:
        raise ConfigurationError(
            f"event {kind!r}: unknown fields {sorted(unknown)}, "
            f"missing fields {sorted(missing)}"
        )
    if cls is DepartEvent:
        payload["quality_timeline"] = tuple(payload["quality_timeline"])
    if cls is ScaleEvent:
        for key in ("sources", "capacities", "created"):
            payload[key] = tuple(payload[key])
    return cls(**payload)


def event_to_line(event: Event) -> str:
    """One record as its canonical JSONL line (no newline)."""
    return canonical_line(event.to_dict())


def events_to_jsonl(events) -> str:
    """A whole event stream as deterministic JSONL text."""
    return "".join(event_to_line(e) + "\n" for e in events)


def parse_events(text_or_lines) -> list[Event]:
    """JSONL text (or an iterable of lines) back into typed records."""
    if isinstance(text_or_lines, str):
        lines = text_or_lines.splitlines()
    else:
        lines = list(text_or_lines)
    events = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"event log line {lineno} is not valid JSON: {error}"
            ) from None
        events.append(event_from_dict(data))
    return events


def load_events(path) -> list[Event]:
    """Read one JSONL event log from disk."""
    return parse_events(Path(path).read_text())


class EventPublisher:
    """Builds each lifecycle record once and delivers it to every observer.

    A runner holds one per attached observer set (none when no observer
    is attached, so bare runs build no records) and calls the method
    named after the lifecycle point.  Each method turns the runner's own
    objects into the matching record and hands that one record to every
    observer's ``on_event``, in list order.
    """

    def __init__(self, observers) -> None:
        self.observers = tuple(observers)

    def publish(self, event: Event) -> None:
        for observer in self.observers:
            observer.on_event(event)

    def capacity(self, capacity, round_index, shard_id=None) -> None:
        self.publish(CapacityEvent(
            round=round_index, shard=shard_id, capacity=capacity,
        ))

    def round(self, round_index, allocations, capacity, shard_id=None) -> None:
        self.publish(RoundEvent(
            round=round_index, shard=shard_id, capacity=capacity,
            allocations=dict(allocations),
        ))

    def admit(self, spec, round_index, shard_id=None) -> None:
        self.publish(AdmitEvent(
            round=round_index, shard=shard_id, stream=spec.name,
            service_class=spec.service_class,
            arrival_round=spec.arrival_round, weight=spec.weight,
            demand=spec.config.period,
            qmin_demand=qmin_demand(spec.config, "average"),
            frames=spec.config.frames,
        ))

    def preempt(self, spec, round_index, shard_id=None) -> None:
        self.publish(PreemptEvent(
            round=round_index, shard=shard_id, stream=spec.name,
            service_class=spec.service_class,
        ))

    def reject(self, spec, round_index, shard_id=None) -> None:
        self.publish(RejectEvent(
            round=round_index, shard=shard_id, stream=spec.name,
            service_class=spec.service_class,
            arrival_round=spec.arrival_round,
        ))

    def migrate(self, move, round_index) -> None:
        self.publish(MigrateEvent(
            round=round_index, shard=move.source, stream=move.stream_id,
            dest=move.dest, move_kind=move.kind,
        ))

    def renegotiate(
        self, stream_id, old_target, new_target, round_index, shard_id=None
    ) -> None:
        self.publish(RenegotiateEvent(
            round=round_index, shard=shard_id, stream=stream_id,
            old_target=old_target, new_target=new_target,
        ))

    def scale(self, action, round_index) -> None:
        self.publish(ScaleEvent(
            round=round_index, shard=None, action=action.kind,
            sources=tuple(action.shards),
            capacities=tuple(action.capacities),
            created=tuple(action.created), reason=action.reason,
            action_id=action.action_id,
        ))

    def depart(self, outcome, round_index, shard_id=None) -> None:
        run = outcome.result
        mean = run.mean_quality()
        self.publish(DepartEvent(
            round=round_index, shard=shard_id, stream=outcome.spec.name,
            service_class=outcome.spec.service_class,
            admitted_round=outcome.admitted_round,
            frames=len(run), skips=run.skip_count,
            deadline_misses=run.deadline_miss_count,
            renegotiations=outcome.renegotiations,
            mean_quality=None if math.isnan(mean) else float(mean),
            # single pure-python pass: at typical timeline lengths the
            # fixed cost of a numpy round trip (array + isnan + tolist)
            # exceeds per-element float() conversion
            quality_timeline=tuple(
                None if q != q else q
                for q in (float(f.mean_quality) for f in run.frames)
            ),
        ))


class StructuredEventLog(RoundObserver):
    """Collects the event stream; optionally streams JSONL to disk.

    Parameters
    ----------
    path:
        Optional output file.  When given, each event's line is written
        as it happens (crash-tolerant logs); :meth:`close` flushes and
        closes the handle (:func:`repro.serve` calls it at run end).
    timelines:
        Keep per-frame quality timelines in depart events (the bulky
        part; disable for long-horizon runs where the per-stream mean
        is enough).
    """

    def __init__(self, path=None, timelines: bool = True) -> None:
        self.events: list[Event] = []
        self.path = None if path is None else Path(path)
        self.timelines = timelines
        self._handle = None

    def on_event(self, event: Event) -> None:
        # alerts are derived: an SloObserver with this log as its sink
        # records them, so a replayed log never doubles them
        if event.kind == "alert":
            return
        if not self.timelines and event.kind == "depart":
            event = replace(event, quality_timeline=())
        self.record(event)

    def record(self, event: Event) -> None:
        """Append one record as is (an observer that derives events —
        :class:`~repro.obs.slo.SloObserver`'s alerts — interleaves them
        here at their deterministic position)."""
        self.events.append(event)
        if self.path is not None:
            if self._handle is None:
                # a record after close (an alert the SLO observer flushes
                # at run end) appends: reopening must never truncate
                mode = "w" if len(self.events) == 1 else "a"
                self._handle = open(self.path, mode)
            self._handle.write(event_to_line(event) + "\n")

    def to_jsonl(self) -> str:
        """The collected stream as deterministic JSONL text."""
        return events_to_jsonl(self.events)

    def dump(self, path) -> Path:
        """Write the whole collected stream to ``path`` in one shot."""
        path = Path(path)
        path.write_text(self.to_jsonl())
        return path

    def close(self) -> None:
        """Flush and close the streaming handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
