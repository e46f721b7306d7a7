"""Per-session causal traces: one span tree per stream, linked across
sessions to the capacity/scale events that shaped them.

"Control of Multiple Remote Servers for Quality-Fair Delivery"
(PAPERS.md) motivates per-stream quality trajectories as the unit of
diagnosis; :class:`TraceObserver` builds exactly that from the
event stream, with no new runner entry points.  Each served
stream becomes a :class:`TraceRecord` — admit (with queue wait) →
per-window grant/quality segments → renegotiate / migrate / preempt
instants → depart — and each instant span carries a **causal edge**
(``attrs["cause"]``) when the event order proves what triggered it:

* a migration fired in the same round as an applied
  :class:`~repro.horizon.autoscaler.ScaleAction` is that action's
  relocation — its cause is the action's ``action_id`` (policy
  migrations fire *earlier* in the round than scale relocations, so
  they never link falsely);
* a downward renegotiation within ``link_window`` rounds of a capacity
  dip on the stream's shard links to that dip
  (``capacity-dip@<shard>:<round>``), or failing that to a recent
  capacity-shrinking scale action.

Besides the per-session records the observer keeps the *cluster-level*
history attribution needs to reason counterfactually — capacity
declarations and dips, applied scale actions, arrivals per round,
migration and down-step rounds (see :mod:`repro.obs.attribution`).

Serialization mirrors the event log: deterministic JSONL (sorted keys,
canonical floats, records ordered by first round then stream id),
byte-identical across reruns and hash seeds, with a lossless
:func:`parse_traces` / :func:`load_traces` loader and an
``analysis.report.trace_table`` renderer.  Like every observer,
attaching it cannot change a run's results.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.export import canonical_line, clean_value
from repro.serving.observers import RoundObserver

SPAN_KINDS = (
    "admit", "grant", "renegotiate", "migrate", "preempt", "reject",
    "depart",
)

TRACE_OUTCOMES = ("served", "rejected", "active")


@dataclass(frozen=True)
class Span:
    """One node of a session's span tree.

    Instant spans (``admit`` / ``renegotiate`` / ``migrate`` /
    ``preempt`` / ``reject`` / ``depart``) have ``start == end``;
    ``grant`` segments cover a window of rounds.  ``attrs`` is a flat
    JSON-native payload per kind; causal edges live under
    ``attrs["cause"]``.
    """

    kind: str
    start: int
    end: int
    shard: str | None
    attrs: dict

    def __post_init__(self) -> None:
        if self.kind not in SPAN_KINDS:
            raise ConfigurationError(
                f"unknown span kind {self.kind!r}; expected one of "
                f"{SPAN_KINDS}"
            )
        # canonical at construction so equality == round-trip equality;
        # the common case (flat JSON-native scalars) skips the
        # recursive cleaning pass — spans are built in bulk on the
        # observer hot path
        attrs = dict(self.attrs)
        for value in attrs.values():
            kind = type(value)
            if kind is float:
                if math.isfinite(value):
                    continue
            elif kind in (str, int, bool, type(None)):
                continue
            attrs = clean_value(attrs)
            break
        object.__setattr__(self, "attrs", attrs)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "shard": self.shard,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Span":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a span must be a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        missing = known - set(data)
        if unknown or missing:
            raise ConfigurationError(
                f"span: unknown fields {sorted(unknown)}, missing "
                f"fields {sorted(missing)}"
            )
        return cls(**dict(data))


@dataclass(frozen=True)
class TraceRecord:
    """One stream's whole story: identity, outcome, span tree."""

    stream: str
    service_class: str | None
    arrival_round: int
    outcome: str
    spans: tuple

    def __post_init__(self) -> None:
        if self.outcome not in TRACE_OUTCOMES:
            raise ConfigurationError(
                f"trace outcome must be one of {TRACE_OUTCOMES}, "
                f"got {self.outcome!r}"
            )
        object.__setattr__(self, "spans", tuple(self.spans))

    @property
    def first_round(self) -> int:
        return self.spans[0].start if self.spans else self.arrival_round

    def to_dict(self) -> dict:
        return {
            "stream": self.stream,
            "service_class": self.service_class,
            "arrival_round": self.arrival_round,
            "outcome": self.outcome,
            "spans": [span.to_dict() for span in self.spans],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TraceRecord":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a trace record must be a mapping, got "
                f"{type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        missing = known - set(data)
        if unknown or missing:
            raise ConfigurationError(
                f"trace record: unknown fields {sorted(unknown)}, "
                f"missing fields {sorted(missing)}"
            )
        payload = dict(data)
        spans = payload.pop("spans")
        if not isinstance(spans, (list, tuple)):
            raise ConfigurationError(
                f"trace record spans must be a list, got "
                f"{type(spans).__name__}"
            )
        return cls(
            spans=tuple(Span.from_dict(span) for span in spans), **payload
        )


def trace_to_line(record: TraceRecord) -> str:
    """One record as its canonical JSONL line (no newline)."""
    return canonical_line(record.to_dict())


def traces_to_jsonl(records) -> str:
    """A whole trace log as deterministic JSONL text."""
    return "".join(trace_to_line(r) + "\n" for r in records)


def parse_traces(text_or_lines) -> list[TraceRecord]:
    """JSONL text (or an iterable of lines) back into trace records."""
    import json

    if isinstance(text_or_lines, str):
        lines = text_or_lines.splitlines()
    else:
        lines = list(text_or_lines)
    records = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"trace log line {lineno} is not valid JSON: {error}"
            ) from None
        records.append(TraceRecord.from_dict(data))
    return records


def load_traces(path) -> list[TraceRecord]:
    """Read one JSONL trace log from disk."""
    return parse_traces(Path(path).read_text())


class TraceObserver(RoundObserver):
    """Builds one :class:`TraceRecord` span tree per stream.

    Parameters
    ----------
    path:
        Optional output file; :meth:`close` writes the finished log
        there (trace records finalize at departure, so the log is
        written whole, not streamed).
    segment_rounds:
        Grant/quality segment length in rounds: each served stream's
        timeline is chunked into windows this long, every chunk
        carrying the granted capacity and (filled at departure from
        the session's quality timeline) the mean delivered quality.
    link_window:
        How many rounds after a capacity dip a downward renegotiation
        still links to it causally.
    """

    def __init__(
        self, path=None, segment_rounds: int = 20, link_window: int = 15,
    ) -> None:
        if (
            isinstance(segment_rounds, bool)
            or not isinstance(segment_rounds, int)
            or segment_rounds < 1
        ):
            raise ConfigurationError(
                f"segment_rounds must be an integer >= 1, got "
                f"{segment_rounds!r}"
            )
        if (
            isinstance(link_window, bool)
            or not isinstance(link_window, int)
            or link_window < 0
        ):
            raise ConfigurationError(
                f"link_window must be an integer >= 0, got {link_window!r}"
            )
        self.path = None if path is None else Path(path)
        self.segment_rounds = segment_rounds
        self.link_window = link_window
        self._records: list[TraceRecord] | None = None
        self._live: dict[str, dict] = {}
        self._finished: list[dict] = []
        self._closed = False
        # ---- cluster-level history (attribution's evidence base) ----
        #: every capacity declaration, in stream order.
        self.capacity_log: list[tuple[int, str | None, float]] = []
        #: exogenous capacity dips (scale retirements excluded).
        self.dips: list[dict] = []
        #: applied scale actions, as dicts with their ``action_id``.
        self.scale_actions: list[dict] = []
        #: offered streams per *arrival* round (queued specs count at
        #: their true arrival once a decision event reveals them).
        self.arrivals: dict[int, int] = {}
        #: round of every executed migration move.
        self.migration_rounds: list[int] = []
        #: (round, service class) of every downward renegotiation.
        self.down_steps: list[tuple[int, str | None]] = []
        self.last_round = 0
        self._capacity: dict = {}
        self._scaling: set = set()
        self._last_scale: tuple[int, str] | None = None
        self._seen: set[str] = set()
        self._class_of: dict[str, str | None] = {}

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------

    def _offered(self, event) -> None:
        if event.stream in self._seen:
            return
        self._seen.add(event.stream)
        self._class_of[event.stream] = event.service_class
        self.arrivals[event.arrival_round] = (
            self.arrivals.get(event.arrival_round, 0) + 1
        )

    def _close_segment(self, live: dict, end_round: int) -> None:
        seg = live.get("seg")
        if seg is None:
            return
        live["seg"] = None
        if end_round < seg["start"]:
            return  # migrated/departed before its first arbitrated round
        live["spans"].append({
            "kind": "grant",
            "start": seg["start"],
            "end": end_round,
            "shard": seg["shard"],
            "attrs": {
                "granted": seg["granted"],
                "rounds": seg["rounds"],
                "mean_quality": None,  # filled from the timeline at depart
            },
        })

    def _open_segment(self, live: dict, start_round: int, shard) -> None:
        live["seg"] = {
            "start": start_round, "shard": shard,
            "granted": 0.0, "rounds": 0,
        }

    def _finalize(self, live: dict, outcome: str) -> None:
        live["outcome"] = outcome
        self._finished.append(live)

    def _dip_cause(self, shard, round_index: int) -> str | None:
        for dip in reversed(self.dips):
            if dip["round"] <= round_index - self.link_window:
                break
            if dip["shard"] == shard or shard is None:
                return dip["id"]
        for action in reversed(self.scale_actions):
            if action["round"] <= round_index - self.link_window:
                break
            if action["kind"] in ("remove", "merge"):
                return action["action_id"]
        return None

    # ------------------------------------------------------------------
    # the event fold
    # ------------------------------------------------------------------

    def on_event(self, event):
        kind = event.kind
        if kind == "alert":
            return  # derived, and not part of any session's story
        if event.round > self.last_round:
            self.last_round = event.round
        if kind == "round":
            self._round(event)
        elif kind == "admit":
            self._admit(event)
        elif kind == "depart":
            self._depart(event)
        elif kind == "renegotiate":
            self._renegotiate(event)
        elif kind == "reject":
            self._reject(event)
        elif kind == "preempt":
            # a preempted spec was queued, never admitted: start its
            # (short) record here; the paired reject, published right
            # after in the same round, carries its arrival round and
            # finalizes it
            self._live[event.stream] = self._record_of(
                event, None, [self._instant(event, {})],
            )
        elif kind == "migrate":
            self._migrate(event)
        elif kind == "capacity":
            self._capacity_declared(event)
        elif kind == "scale":
            self._scale(event)

    @staticmethod
    def _instant(event, attrs) -> dict:
        return {
            "kind": event.kind,
            "start": event.round,
            "end": event.round,
            "shard": event.shard,
            "attrs": attrs,
        }

    @staticmethod
    def _record_of(event, arrival_round, spans) -> dict:
        return {
            "stream": event.stream,
            "service_class": event.service_class,
            "arrival_round": arrival_round,
            "admitted_round": event.round if event.kind == "admit" else None,
            "shard": event.shard,
            "spans": spans,
            "seg": None,
        }

    def _capacity_declared(self, event) -> None:
        shard_id, capacity = event.shard, event.capacity
        self.capacity_log.append((event.round, shard_id, float(capacity)))
        previous = self._capacity.get(shard_id)
        if shard_id in self._scaling:
            # declarations a scale action promised are provisioning,
            # not dips (the PacingScaleCooldown idiom)
            self._scaling.discard(shard_id)
        elif previous is not None and 0.0 < capacity < previous:
            self.dips.append({
                "id": f"capacity-dip@{shard_id}:{event.round}",
                "round": event.round,
                "shard": shard_id,
                "before": previous,
                "after": float(capacity),
            })
        if capacity <= 0.0:
            self._capacity.pop(shard_id, None)
        else:
            self._capacity[shard_id] = float(capacity)

    def _scale(self, event) -> None:
        self.scale_actions.append({
            "round": event.round,
            "action_id": event.action_id,
            "kind": event.action,
            "reason": event.reason,
            "shards": list(event.sources),
            "created": list(event.created),
        })
        self._last_scale = (event.round, event.action_id)
        self._scaling.update(event.sources)
        self._scaling.update(event.created)

    def _admit(self, event) -> None:
        self._offered(event)
        live = self._record_of(
            event, event.arrival_round,
            [self._instant(
                event, {"queue_wait": event.round - event.arrival_round},
            )],
        )
        self._live[event.stream] = live
        self._open_segment(live, event.round, event.shard)

    def _reject(self, event) -> None:
        self._offered(event)
        live = self._live.pop(event.stream, None)
        if live is None:
            live = self._record_of(event, event.arrival_round, [])
        else:
            live["arrival_round"] = event.arrival_round
        live["spans"].append(self._instant(
            event, {"queue_wait": event.round - event.arrival_round},
        ))
        self._finalize(live, "rejected")

    def _round(self, event) -> None:
        round_index = event.round
        segment_rounds = self.segment_rounds
        for stream_id, grant in event.allocations.items():
            live = self._live.get(stream_id)
            if live is None:
                continue
            seg = live["seg"]
            if seg is None:
                continue
            if round_index - seg["start"] >= segment_rounds:
                self._close_segment(live, round_index - 1)
                self._open_segment(live, round_index, live["shard"])
                seg = live["seg"]
            seg["granted"] += grant
            seg["rounds"] += 1

    def _migrate(self, event) -> None:
        round_index = event.round
        self.migration_rounds.append(round_index)
        live = self._live.get(event.stream)
        if live is None:
            return
        cause = None
        if self._last_scale is not None and self._last_scale[0] == round_index:
            # scale relocations are published in the same round as (and
            # after) their scale event; policy moves come earlier
            cause = self._last_scale[1]
        self._close_segment(live, round_index - 1)
        live["spans"].append(self._instant(event, {
            "dest": event.dest,
            "move_kind": event.move_kind,
            "cause": cause,
        }))
        live["shard"] = event.dest
        if event.move_kind == "active":
            self._open_segment(live, round_index, event.dest)

    def _renegotiate(self, event) -> None:
        live = self._live.get(event.stream)
        down = event.new_target < event.old_target
        if down:
            self.down_steps.append(
                (event.round, self._class_of.get(event.stream))
            )
        if live is None:
            return
        cause = (
            self._dip_cause(live["shard"], event.round) if down else None
        )
        live["spans"].append({
            **self._instant(event, {
                "old_target": event.old_target,
                "new_target": event.new_target,
                "cause": cause,
            }),
            "shard": live["shard"],
        })

    def _depart(self, event) -> None:
        round_index = event.round
        live = self._live.pop(event.stream, None)
        if live is None:
            return
        self._close_segment(live, round_index)
        timeline = event.quality_timeline
        admitted = live["admitted_round"]
        for span in live["spans"]:
            # grant windows align 1:1 with session frames (one step per
            # active round); fill each segment's delivered quality
            if span["kind"] != "grant" or admitted is None:
                continue
            lo = max(0, span["start"] - admitted)
            hi = min(len(timeline) - 1, span["end"] - admitted)
            window = [q for q in timeline[lo:hi + 1] if q is not None]
            span["attrs"]["mean_quality"] = (
                sum(window) / len(window) if window else None
            )
        live["spans"].append(self._instant(event, {
            "frames": event.frames,
            "skips": event.skips,
            "renegotiations": event.renegotiations,
            "mean_quality": event.mean_quality,
        }))
        self._finalize(live, "served")

    # ------------------------------------------------------------------
    # finalization + queries
    # ------------------------------------------------------------------

    def _build(self, live: dict, outcome: str) -> TraceRecord:
        spans = sorted(live["spans"], key=lambda span: span["start"])
        return TraceRecord(
            stream=live["stream"],
            service_class=live["service_class"],
            arrival_round=live["arrival_round"],
            outcome=outcome,
            spans=tuple(Span(**span) for span in spans),
        )

    def records(self) -> tuple[TraceRecord, ...]:
        """Every finished record, ordered by (first round, stream id).

        Closes the observer if still open (streams active at the end
        of an open-ended run get ``outcome="active"`` records).
        """
        self.close()
        return self._records

    def close(self) -> None:
        """Finalize still-active streams, fix the record order, and
        write ``path`` if one was given.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for name in sorted(self._live):
            live = self._live[name]
            self._close_segment(live, self.last_round)
            self._finalize(live, "active")
        self._live.clear()
        records = [
            self._build(live, live["outcome"]) for live in self._finished
        ]
        records.sort(key=lambda r: (r.first_round, r.stream))
        self._records = tuple(records)
        if self.path is not None:
            self.dump(self.path)

    def to_jsonl(self) -> str:
        """The finished trace log as deterministic JSONL text."""
        return traces_to_jsonl(self.records())

    def dump(self, path) -> Path:
        """Write the whole trace log to ``path`` in one shot."""
        path = Path(path)
        path.write_text(self.to_jsonl())
        return path
