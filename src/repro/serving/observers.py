"""Lifecycle observers: folds over the serving loop's event stream.

A :class:`RoundObserver` receives the serving loop's lifecycle as one
stream of typed :class:`~repro.obs.events.Event` records through
:meth:`~RoundObserver.on_event`.  Both
:class:`~repro.streams.fleet.FleetRunner` and
:class:`~repro.cluster.runner.ClusterRunner` accept a sequence of
observers, build each record once at the matching point of their loops
and deliver it to every observer in list order; the runners never read
anything back, so observers cannot change a run's results (asserted by
``tests/serving/test_serving_observers.py``).  Because every record is
complete, a saved event log (:func:`repro.obs.events.load_events`)
replayed through fresh observers reproduces the live result.

This is the attachment point for windowed long-horizon metrics,
autoscaling controllers, and live dashboards: subclass, override
``on_event`` and fold the kinds you care about, and pass the instance
to the runner or to :func:`repro.serving.serve`.

Stream conventions
------------------

* ``event.shard`` is ``None`` for single-pool (fleet) runs and the
  shard's id for cluster runs; a ``round`` event fires once per round
  per pool, even when the pool is idle (``allocations == {}``).
* ``admit`` fires when a stream starts (immediately on arrival or
  later from the admission queue); ``reject`` when it is finally
  refused; ``depart`` when it finishes, with its quality timeline.
* ``migrate`` fires once per executed
  :class:`~repro.cluster.migration.MigrationMove` (cluster only).
* ``preempt`` fires when priority admission evicts a queued spec,
  immediately before that spec's final ``reject`` (the preempted
  stream is still counted exactly once as rejected).
* ``capacity`` declares a pool's nominal capacity: once per pool at
  run start (round 0) and again whenever a capacity event resizes a
  shard mid-run.
* ``scale`` announces an autoscaler action before the cluster mutates;
  the ``capacity`` declarations for created (positive capacity) and
  retired (zero capacity) shards and the ``migrate`` events for
  relocated sessions follow in the same round.
* ``alert`` records are derived (an SLO observer emits them into its
  sink); the runners never publish them.

:meth:`~RoundObserver.on_phase` is a separate channel: wall-clock phase
timings (``"admission"`` / ``"arbitration"`` / ``"step"`` per pool;
``"placement"`` / ``"migration"`` / ``"balancing"`` cluster-wide),
never part of the log.  The runners only read the clock when an
attached observer actually *overrides* ``on_phase`` (see
:func:`phase_listeners`), so bare runs pay nothing for the hook's
existence.
"""

from __future__ import annotations


class RoundObserver:
    """Base lifecycle observer; observes nothing.

    Override :meth:`on_event` to fold the event stream.
    """

    def on_event(self, event):
        """One lifecycle record (see :mod:`repro.obs.events`).

        The default routes ``round`` records to :meth:`on_round` and
        ignores the rest.
        """
        if event.kind == "round":
            self.on_round(
                event.round, event.allocations, event.capacity, event.shard
            )

    def on_round(self, round_index, allocations, capacity, shard_id=None):
        """Convenience for an observer that only watches rounds.

        Kept only because the benchmark's round clock and the CLI's
        ``--watch`` printer override this alone; new observers override
        :meth:`on_event`.  ``allocations`` maps stream id to granted
        cycles this round (empty when the pool had no active sessions);
        ``capacity`` is the pool the arbiter split — the *effective*
        budget when a headroom balancer lent cycles.
        """

    def on_phase(self, phase, seconds, round_index, shard_id=None):
        """One timed phase of one round took ``seconds`` of wall clock.

        Only fired when at least one attached observer overrides this
        hook — the timings are real (non-deterministic) wall-clock
        measurements, never part of a run's results.
        """


def phase_listeners(observers) -> tuple:
    """The observers that actually override ``on_phase``.

    Runners gate every ``perf_counter`` read on this subset being
    non-empty and dispatch phase timings to it only, so attaching
    counting/event observers (which ignore phases) keeps the loop free
    of clock syscalls.
    """
    base = RoundObserver.on_phase
    return tuple(
        observer
        for observer in observers
        if getattr(type(observer), "on_phase", base) is not base
    )


class CountingObserver(RoundObserver):
    """Tallies every lifecycle event — the smoke-test observer.

    ``rounds`` counts ``round`` events (rounds x pools), the rest count
    streams/moves.  Useful as a cheap cross-check that runner
    bookkeeping and observer plumbing agree, and as the simplest
    possible example of the API.
    """

    #: event kind -> the tally it bumps
    TALLIES = {
        "round": "rounds",
        "admit": "admitted",
        "reject": "rejected",
        "preempt": "preempted",
        "migrate": "migrated",
        "renegotiate": "renegotiated",
        "depart": "departed",
        "capacity": "capacity_events",
        "scale": "scaled",
    }

    def __init__(self) -> None:
        for tally in self.TALLIES.values():
            setattr(self, tally, 0)

    def on_event(self, event):
        tally = self.TALLIES.get(event.kind)
        if tally is not None:
            setattr(self, tally, getattr(self, tally) + 1)

    def counts(self) -> dict:
        return {tally: getattr(self, tally) for tally in self.TALLIES.values()}
