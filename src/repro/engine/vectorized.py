"""The vectorized engine: step a whole pool of sessions as numpy batches.

Scalar stepping advances one session at a time, running the
per-macroblock decision loop in Python once per frame.  This engine
advances *all* sessions of a pool together in **waves**: each wave
collects at most one eligible frame per session (only the buffer head
can start — completing it moves the session's ``_free_at``, which gates
the frame behind it), groups the collected jobs by decision kernel and
granularity, and runs each group through
:func:`repro.engine.kernel.batch_decide` as one vectorized pass — a
homogeneous pool of B sessions does its controller table lookups,
deadline comparisons and quality accounting as ``(B, ...)`` array ops.

Ordering contract (what makes this bit-identical to scalar): every
per-session effect — job completion bookkeeping, arrival processing,
the signal pass, renegotiation — is applied in the caller's session
order, and each session's jobs complete in its own FIFO order.  Since
sessions share no state, the *math* is order-free; re-applying the
*effects* in scalar order makes results, records and event logs
indistinguishable from the scalar engine.

Heterogeneous pools still work: each (kernel, granularity) group
batches separately, and a group of one falls back to the scalar kernel
(same bits, no batching overhead).
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernel import batch_decide, scalar_decide


class _Lane:
    """One session's in-flight round state during a batched step."""

    __slots__ = ("session", "allocation", "speed", "limit", "encoded")

    def __init__(self, session, allocation: float, speed: float, limit: float):
        self.session = session
        self.allocation = allocation
        self.speed = speed
        self.limit = limit
        self.encoded: list[int] = []


def _drain(lanes: list[_Lane]) -> None:
    """Encode every eligible frame of every lane, in waves."""
    active = lanes
    while active:
        jobs: list[tuple[_Lane, object]] = []
        still: list[_Lane] = []
        for lane in active:
            job = lane.session.next_job(lane.limit, lane.speed)
            if job is not None:
                jobs.append((lane, job))
                # completing this job may unlock the next buffered frame
                still.append(lane)
        if not jobs:
            break
        groups: dict[tuple[int, int], list[tuple[_Lane, object]]] = {}
        for lane, job in jobs:
            session = lane.session
            key = (id(session._kernel), session.granularity)
            groups.setdefault(key, []).append((lane, job))
        for members in groups.values():
            if len(members) == 1:
                lane, job = members[0]
                session = lane.session
                timing = scalar_decide(
                    session._kernel,
                    session.granularity,
                    *session._bank.frame_lists(job.bank_frame),
                    job.budget,
                )
                session.complete_job(job, timing, lane.speed)
                lane.encoded.append(job.frame)
                continue
            session = members[0][0].session
            kernel = session._kernel
            granularity = session.granularity
            # stack the pre-fused bank rows macroblock-major and hand
            # batch_decide transposed *views*: its internal
            # back-transpose then finds contiguous arrays and skips the
            # relayout copy entirely
            grab = np.stack(
                [lane.session._bank.grab_plus[job.bank_frame] for lane, job in members],
                axis=1,
            ).T
            me = np.stack(
                [lane.session._bank.me_plus[job.bank_frame] for lane, job in members],
                axis=1,
            ).transpose(1, 0, 2)
            budgets = np.asarray([job.budget for _, job in members])
            timings = batch_decide(kernel, granularity, grab, me, budgets)
            for (lane, job), timing in zip(members, timings):
                lane.session.complete_job(job, timing, lane.speed)
                lane.encoded.append(job.frame)
        active = still


def step_sessions(sessions, allocations) -> dict:
    """Step every session one round; return ``{stream_id: SessionStep}``.

    Drop-in batched replacement for the runners' per-session
    ``session.step(allocations[id])`` loop: same validation, same
    arrival/drain semantics, same :class:`SessionStep` values — the
    caller keeps publishing observer events from its own session loop, so
    event order is untouched.
    """
    lanes: list[_Lane] = []
    for session in sessions:
        allocation = allocations[session.stream_id]
        speed, limit = session.begin_round(allocation)
        lanes.append(_Lane(session, allocation, speed, limit))

    # phase 1: frames whose start falls inside the arrival window
    _drain(lanes)

    # phase 2: arrivals (buffer skips recorded here), then the
    # backlog-drain window for camera-stopped sessions
    drain_lanes: list[_Lane] = []
    arrivals: list[tuple[int | None, bool]] = []
    for lane in lanes:
        arrived, arrival_skipped, drain_limit = lane.session.process_arrival()
        arrivals.append((arrived, arrival_skipped))
        if drain_limit is not None:
            lane.limit = drain_limit
            drain_lanes.append(lane)
    _drain(drain_lanes)

    # phase 3: close every round in session order (signal pass, SLA
    # renegotiation, the step record)
    steps: dict = {}
    for lane, (arrived, arrival_skipped) in zip(lanes, arrivals):
        steps[lane.session.stream_id] = lane.session.finish_round(
            lane.allocation, lane.speed, arrived, arrival_skipped, lane.encoded
        )
    return steps
