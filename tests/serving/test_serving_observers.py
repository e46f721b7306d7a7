"""The lifecycle event stream: coverage, payloads, and consistency."""

from __future__ import annotations

import math

from repro.obs.events import (
    AdmitEvent,
    CapacityEvent,
    DepartEvent,
    MigrateEvent,
    RejectEvent,
    RenegotiateEvent,
    RoundEvent,
)
from repro.serving import CountingObserver, RoundObserver, serve

FLEET_SPEC = {
    "scenario": {"name": "flash-crowd",
                 "kwargs": {"base": 3, "crowd": 5, "crowd_round": 3,
                            "frames": 6, "scale": 27}},
    "capacity": 20e6,
    "arbiter": "quality-fair",
    "admission": "feasibility",
}

CLUSTER_SPEC = {
    "topology": "cluster",
    "scenario": {"name": "skewed-cluster",
                 "kwargs": {"streams": 8, "frames": 6}},
    "placement": "round-robin",
    "migration": "load-balance",
}

# overload + a bounded queue: priority admission preempts queued
# bronze when the gold crowd lands, and renegotiation steps targets
SLA_SPEC = {
    "scenario": {"name": "gold-rush",
                 "kwargs": {"bronze": 8, "gold": 3, "crowd_round": 2,
                            "frames": 6, "scale": 27}},
    "capacity": {"utilization": 0.35},
    "arbiter": "sla-quality-fair",
    "admission": {"name": "priority",
                  "kwargs": {"queue_limit": 2, "utilization_cap": 0.7}},
    "renegotiation": "step",
}


class RecordingObserver(RoundObserver):
    """Keeps every event record, by kind, for payload assertions."""

    def __init__(self) -> None:
        self.rounds = []
        self.admits = []
        self.rejects = []
        self.migrations = []
        self.renegotiations = []
        self.departs = []

    def on_event(self, event):
        by_kind = {
            "round": self.rounds,
            "admit": self.admits,
            "reject": self.rejects,
            "migrate": self.migrations,
            "renegotiate": self.renegotiations,
            "depart": self.departs,
        }
        if event.kind in by_kind:
            by_kind[event.kind].append(event)


class TestFleetHooks:
    def test_counts_match_result_bookkeeping(self):
        observer = CountingObserver()
        result = serve(FLEET_SPEC, observers=[observer])
        assert observer.admitted == result.served_count
        assert observer.rejected == result.rejected_count
        assert observer.departed == result.served_count
        assert observer.rounds == result.rounds
        assert observer.migrated == 0  # no migration in a single pool

    def test_payloads(self):
        observer = RecordingObserver()
        result = serve(FLEET_SPEC, observers=[observer])
        # fleet events carry shard=None
        assert all(r.shard is None for r in observer.rounds)
        assert all(a.shard is None for a in observer.admits)
        # allocations conserve the arbitrated pool on busy rounds
        capacity = result.runner.capacity
        busy = [r for r in observer.rounds if r.allocations]
        assert busy, "expected at least one busy round"
        for event in busy:
            assert event.capacity == capacity
            assert math.isclose(sum(event.allocations.values()), capacity)
        # departures carry each outcome's record, in result order
        assert [
            (d.stream, d.admitted_round, d.frames, d.renegotiations)
            for d in observer.departs
        ] == [
            (o.spec.name, o.admitted_round, len(o.result), o.renegotiations)
            for o in result.outcomes
        ]
        assert all(isinstance(d, DepartEvent) for d in observer.departs)
        # a queued stream's admit round can trail its arrival round
        waits = [a.round - a.arrival_round for a in observer.admits]
        assert all(w >= 0 for w in waits)
        assert any(w > 0 for w in waits), "flash crowd should queue someone"

    def test_every_observer_in_the_sequence_fires(self):
        first, second = CountingObserver(), CountingObserver()
        serve(FLEET_SPEC, observers=[first, second])
        assert first.counts() == second.counts()
        assert first.rounds > 0


class TestClusterHooks:
    def test_counts_match_result_bookkeeping(self):
        observer = CountingObserver()
        result = serve(CLUSTER_SPEC, observers=[observer])
        assert observer.admitted == result.served_count
        assert observer.rejected == result.rejected_count
        assert observer.departed == result.served_count
        # on_round fires once per round per shard
        assert observer.rounds == result.rounds * len(result.pools)
        assert observer.migrated == result.migration_count
        assert observer.migrated > 0, "skewed round-robin should migrate"

    def test_shard_ids_tag_every_pool_event(self):
        observer = RecordingObserver()
        result = serve(CLUSTER_SPEC, observers=[observer])
        expected = {pool.shard_id for pool in result.pools}
        assert {r.shard for r in observer.rounds} == expected
        assert {a.shard for a in observer.admits} <= expected
        assert {d.shard for d in observer.departs} <= expected
        # migration payloads are the executed moves, in order
        assert [
            (m.stream, m.shard, m.dest, m.move_kind)
            for m in observer.migrations
        ] == [
            (m.stream_id, m.source, m.dest, m.kind) for m in result.migrations
        ]

    def test_migrated_stream_departs_from_destination_shard(self):
        observer = RecordingObserver()
        serve(CLUSTER_SPEC, observers=[observer])
        active_moves = [
            m for m in observer.migrations if m.move_kind == "active"
        ]
        departed_at = {d.stream: d.shard for d in observer.departs}
        for move in active_moves:
            # the stream finished somewhere, and if it never moved
            # again its departure shard is the move's destination
            assert move.stream in departed_at
            last_move = [
                m for m in observer.migrations if m.stream == move.stream
            ][-1]
            assert departed_at[move.stream] == last_move.dest


class TestSlaAccounting:
    """Preempted queued specs: exactly one reject event, counted once."""

    def test_preempted_specs_rejected_exactly_once(self):
        observer = RecordingObserver()
        counting = CountingObserver()
        result = serve(SLA_SPEC, observers=[observer, counting])
        preempted = result.preempted
        assert preempted, "the gold crowd should preempt queued bronze"
        # every preempted spec is also in the rejected totals — once
        assert result.rejected_count == len(result.rejected)
        rejected_names = [s.name for s in result.rejected]
        for spec in preempted:
            assert rejected_names.count(spec.name) == 1
        # observers saw each final rejection exactly once, preempted
        # included, and nothing else
        observed = [r.stream for r in observer.rejects]
        assert sorted(observed) == sorted(rejected_names)
        assert counting.rejected == result.rejected_count
        # bookkeeping identity: every offered stream is decided once
        offered = result.served_count + result.rejected_count
        assert counting.admitted == result.served_count
        assert counting.departed == result.served_count
        assert offered == 11
        # preempted streams never ran: no admit, no depart
        admitted_names = {a.stream for a in observer.admits}
        assert admitted_names.isdisjoint(s.name for s in preempted)

    def test_renegotiation_hook_matches_result_counts(self):
        observer = RecordingObserver()
        counting = CountingObserver()
        result = serve(SLA_SPEC, observers=[observer, counting])
        total = result.total_renegotiations()
        assert total > 0, "overload should trigger renegotiation"
        assert counting.renegotiated == total
        assert len(observer.renegotiations) == total
        # payloads are (stream, old, new) with a real step each time
        served_names = {o.spec.name for o in result.outcomes}
        for event in observer.renegotiations:
            assert event.stream in served_names
            assert event.new_target != event.old_target
            assert 0.0 <= event.new_target <= 1.0
            assert event.shard is None  # fleet topology
        # per-class totals agree with the hook stream ids
        by_class = result.per_class()
        reneg_names = {r.stream for r in observer.renegotiations}
        class_of_stream = {
            o.spec.name: o.spec.service_class for o in result.outcomes
        }
        for name in reneg_names:
            assert by_class[class_of_stream[name]]["renegotiations"] > 0


class TestBaseObserverIsNoOp:
    def test_hooks_exist_and_return_none(self):
        observer = RoundObserver()
        assert observer.on_round(0, {}, 1.0) is None
        assert observer.on_round(0, {}, 1.0, shard_id="s") is None
        for event in (
            RoundEvent(round=0, shard=None, capacity=1.0, allocations={}),
            RoundEvent(round=0, shard="s", capacity=1.0, allocations={}),
            AdmitEvent(round=0, shard=None, stream="s", service_class=None,
                       arrival_round=0, weight=1.0, demand=1.0,
                       qmin_demand=1.0, frames=1),
            RejectEvent(round=0, shard=None, stream="s", service_class=None,
                        arrival_round=0),
            MigrateEvent(round=0, shard="a", stream="s", dest="b",
                         move_kind="active"),
            RenegotiateEvent(round=0, shard=None, stream="s",
                             old_target=0.8, new_target=0.7),
            DepartEvent(round=0, shard=None, stream="s", service_class=None,
                        admitted_round=0, frames=0, skips=0,
                        deadline_misses=0, renegotiations=0,
                        mean_quality=None, quality_timeline=()),
            CapacityEvent(round=0, shard=None, capacity=1.0),
        ):
            assert observer.on_event(event) is None

    def test_round_events_route_to_on_round(self):
        class Rounds(RoundObserver):
            def __init__(self):
                self.seen = []

            def on_round(self, round_index, allocations, capacity,
                         shard_id=None):
                self.seen.append((round_index, capacity, shard_id))

        observer = Rounds()
        observer.on_event(
            RoundEvent(round=3, shard="s", capacity=2.0, allocations={})
        )
        observer.on_event(CapacityEvent(round=4, shard="s", capacity=1.0))
        assert observer.seen == [(3, 2.0, "s")]
