"""Schedule feasibility (Definition 2.2).

A schedule ``alpha`` (an execution sequence containing every action) is
*feasible* with respect to an execution-time function ``C`` and a
deadline function ``D`` when::

    min( D(alpha) - C_hat(alpha) ) >= 0

i.e. the cumulative completion time of every action stays at or below
its deadline.  The quantity ``D(alpha) - C_hat(alpha)`` is the *slack*
sequence; its minimum is the schedule's worst slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.action import Action
from repro.core.precedence import PrecedenceGraph
from repro.core.sequences import (
    INFINITY,
    Time,
    cumulative,
    minimum,
    pointwise_difference,
)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a feasibility check, with per-position diagnostics.

    ``slacks`` is a tuple from :func:`check_feasibility` and a read-only
    float64 array from the admission fast path.
    """

    feasible: bool
    worst_slack: Time
    completion_times: tuple[Time, ...]
    slacks: Sequence[Time]
    first_violation: int | None

    def __bool__(self) -> bool:
        return self.feasible


def slack_sequence(
    sequence: Sequence[Action],
    time_of: Callable[[Action], Time],
    deadline_of: Callable[[Action], Time],
    start_time: Time = 0.0,
) -> list[Time]:
    """``D(alpha) - C_hat(alpha)`` with the cumulative sum offset by
    ``start_time`` (used for suffix evaluation mid-cycle)."""
    times = [time_of(a) for a in sequence]
    completions = [start_time + c for c in cumulative(times)]
    deadlines = [deadline_of(a) for a in sequence]
    return pointwise_difference(deadlines, completions)


def check_feasibility(
    sequence: Sequence[Action],
    time_of: Callable[[Action], Time],
    deadline_of: Callable[[Action], Time],
    start_time: Time = 0.0,
) -> FeasibilityReport:
    """Evaluate Definition 2.2 and report the slack profile."""
    times = [time_of(a) for a in sequence]
    completions = tuple(start_time + c for c in cumulative(times))
    deadlines = [deadline_of(a) for a in sequence]
    slacks = tuple(d - c for d, c in zip(deadlines, completions))
    worst = minimum(slacks)
    first_violation = None
    for position, slack in enumerate(slacks):
        if slack < 0:
            first_violation = position
            break
    return FeasibilityReport(
        feasible=worst >= 0,
        worst_slack=worst,
        completion_times=completions,
        slacks=slacks,
        first_violation=first_violation,
    )


def is_feasible_schedule(
    graph: PrecedenceGraph,
    sequence: Sequence[Action],
    time_of: Callable[[Action], Time],
    deadline_of: Callable[[Action], Time],
) -> bool:
    """Definition 2.2 in full: a *schedule* of G that respects deadlines."""
    if not graph.is_schedule(sequence):
        return False
    return check_feasibility(sequence, time_of, deadline_of).feasible


def worst_slack(
    sequence: Sequence[Action],
    time_of: Callable[[Action], Time],
    deadline_of: Callable[[Action], Time],
    start_time: Time = 0.0,
) -> Time:
    """``min(D(alpha) - C_hat(alpha))`` — +inf for the empty sequence."""
    return minimum(slack_sequence(sequence, time_of, deadline_of, start_time))
