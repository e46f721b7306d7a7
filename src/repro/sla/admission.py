"""Priority admission: class-ordered queues and queued-spec preemption.

:class:`PriorityAdmissionController` keeps the base controller's
feasibility contract untouched — ACCEPTED still means the qmin
schedule fits the uncommitted budget, REJECTED still means infeasible
even alone — and changes only *who waits where*:

* the wait queue drains **highest admission priority first** (FIFO
  within a priority, and the chosen head still head-of-line blocks
  everyone behind it, so strict priority never silently skips a large
  gold stream in favour of small bronze ones);
* when the queue is full, an arriving stream whose class holds
  ``preempt`` rights may evict the lowest-priority queued spec of a
  strictly lower priority.  Only *queued* specs are ever preempted —
  a running session is never killed; its service degrades through
  arbitration and renegotiation instead.

Evicted specs travel back to the runner on the
:class:`~repro.streams.admission.AdmissionVerdict` (``preempted``) so
they are recorded as rejections and observed as a ``reject`` event
**exactly once** (see ``tests/serving/test_serving_observers.py``).
"""

from __future__ import annotations

from repro.sla.classes import class_of, resolve_classes
from repro.streams.admission import AdmissionController


class PriorityAdmissionController(AdmissionController):
    """Feasibility-gated admission with SLA class priorities.

    Parameters match :class:`~repro.streams.admission.AdmissionController`
    plus ``classes`` — the service-class catalog (names, dicts, or
    :class:`~repro.sla.classes.ServiceClass` instances; ``None`` is the
    standard gold/silver/bronze catalog).  Streams without a class (or
    with an unknown one) queue at the lowest priority and hold no
    preemption rights.
    """

    def __init__(
        self,
        capacity: float,
        mode: str = "average",
        utilization_cap: float = 1.0,
        queue_limit: int | None = None,
        classes=None,
    ) -> None:
        super().__init__(
            capacity,
            mode=mode,
            utilization_cap=utilization_cap,
            queue_limit=queue_limit,
        )
        self.classes = resolve_classes(classes)
        self.preempted_count = 0

    def reset(self) -> None:
        super().reset()
        self.preempted_count = 0

    # ------------------------------------------------------------------
    # class signals
    # ------------------------------------------------------------------

    def priority_of(self, stream) -> int:
        name = getattr(stream, "service_class", None)
        return class_of(self.classes, name).admission_priority

    def may_preempt(self, stream) -> bool:
        name = getattr(stream, "service_class", None)
        return class_of(self.classes, name).preempt

    # ------------------------------------------------------------------
    # policy hooks
    # ------------------------------------------------------------------

    def _queue_head_index(self) -> int:
        """Earliest-queued stream of the highest waiting priority."""
        best_index = 0
        best_priority = self.priority_of(self.queue[0])
        for index in range(1, len(self.queue)):
            priority = self.priority_of(self.queue[index])
            if priority > best_priority:
                best_index, best_priority = index, priority
        return best_index

    def _try_queue(self, stream) -> tuple[bool, tuple]:
        """Queue the arrival, evicting a lower-priority spec if full."""
        if self.queue_limit is None or len(self.queue) < self.queue_limit:
            self.queue.append(stream)
            return True, ()
        if not self.may_preempt(stream) or not self.queue:
            return False, ()
        arriving = self.priority_of(stream)
        # latest-queued spec of the lowest priority: within the victim
        # class the newest arrival loses first (its wait is shortest)
        victim_index = None
        victim_priority = arriving
        for index, queued in enumerate(self.queue):
            priority = self.priority_of(queued)
            if priority < victim_priority or (
                victim_index is not None and priority == victim_priority
            ):
                victim_index, victim_priority = index, priority
        if victim_index is None:
            return False, ()
        victim = self.queue[victim_index]
        del self.queue[victim_index]
        self.rejected_count += 1
        self.preempted_count += 1
        self.queue.append(stream)
        return True, (victim,)
