"""Unit tests of the graceful-pacing and scale-conservation laws.

Each invariant is fed event-by-event with hand-built sequences — one
clean run and one violating run per law — so the laws' exact
boundaries (step bound, double-flip window, action gap, dip settle,
pending declarations) are pinned independently of any runner.
"""

from __future__ import annotations

import pytest

from repro.horizon import ScaleAction
from repro.obs import (
    InvariantObserver,
    InvariantViolationError,
    PacingDegrade,
    PacingScaleCooldown,
    ScaleConservation,
)
from repro.obs.events import EventPublisher


def feed(observer):
    """Publish hand-built inputs to ``observer`` as lifecycle records."""
    return EventPublisher([observer])


def bound(invariant):
    """Bind a fresh invariant to a violation collector."""
    violations = []
    invariant.bind(violations.append)
    return invariant, violations


class TestPacingDegrade:
    def test_bounded_steps_are_clean(self):
        law, violations = bound(PacingDegrade())
        feed(law).renegotiate("s", 0.8, 0.5, 3)
        feed(law).renegotiate("s", 0.5, 0.25, 6)
        feed(law).renegotiate("s", 0.25, 0.55, 12)
        assert violations == []

    def test_cliff_edge_step_violates(self):
        law, violations = bound(PacingDegrade())
        feed(law).renegotiate("s", 0.9, 0.4, 3)
        assert len(violations) == 1
        assert "pacing bound" in violations[0].detail

    def test_single_quick_reversal_is_a_legitimate_correction(self):
        law, violations = bound(PacingDegrade())
        feed(law).renegotiate("s", 0.5, 0.6, 10)   # up
        feed(law).renegotiate("s", 0.6, 0.5, 11)   # down, 1 round later
        assert violations == []

    def test_double_quick_reversal_is_flutter(self):
        law, violations = bound(PacingDegrade())
        feed(law).renegotiate("s", 0.5, 0.6, 10)   # up
        feed(law).renegotiate("s", 0.6, 0.5, 11)   # quick flip (ok)
        feed(law).renegotiate("s", 0.5, 0.6, 12)   # second quick flip
        assert len(violations) == 1
        assert "oscillating" in violations[0].detail

    def test_slow_reversals_never_accumulate(self):
        law, violations = bound(PacingDegrade())
        for r, (old, new) in enumerate([
            (0.5, 0.6), (0.6, 0.5), (0.5, 0.6), (0.6, 0.5),
        ]):
            feed(law).renegotiate("s", old, new, r * 5)
        assert violations == []

    def test_streams_are_tracked_independently(self):
        law, violations = bound(PacingDegrade())
        feed(law).renegotiate("a", 0.5, 0.6, 10)
        feed(law).renegotiate("b", 0.6, 0.5, 11)
        feed(law).renegotiate("a", 0.6, 0.5, 11)
        feed(law).renegotiate("b", 0.5, 0.6, 12)
        # each stream has made only ONE quick flip
        assert violations == []


def declare(law, shard_id, capacity, round_index):
    feed(law).capacity(capacity, round_index, shard_id=shard_id)


class TestPacingScaleCooldown:
    def test_spaced_actions_are_clean(self):
        law, violations = bound(PacingScaleCooldown())
        declare(law, "shard-0", 1e6, 0)
        feed(law).scale(ScaleAction(kind="add", capacities=(1e6,),
                                 created=("scale-0",)), 10)
        declare(law, "scale-0", 1e6, 10)
        feed(law).scale(ScaleAction(kind="remove", shards=("scale-0",)), 18)
        declare(law, "scale-0", 0.0, 18)
        assert violations == []

    def test_rapid_fire_actions_violate(self):
        law, violations = bound(PacingScaleCooldown())
        feed(law).scale(ScaleAction(kind="add", capacities=(1e6,)), 10)
        feed(law).scale(ScaleAction(kind="add", capacities=(1e6,)), 14)
        assert len(violations) == 1
        assert "min gap" in violations[0].detail

    def test_scale_up_into_a_fresh_dip_violates(self):
        law, violations = bound(PacingScaleCooldown())
        declare(law, "shard-0", 2e6, 0)
        declare(law, "shard-0", 1e6, 20)   # outage: capacity halves
        feed(law).scale(ScaleAction(kind="add", capacities=(1e6,)), 24)
        assert len(violations) == 1
        assert "dip" in violations[0].detail

    def test_scale_up_after_the_dip_settles_is_clean(self):
        law, violations = bound(PacingScaleCooldown())
        declare(law, "shard-0", 2e6, 0)
        declare(law, "shard-0", 1e6, 20)
        feed(law).scale(ScaleAction(kind="add", capacities=(1e6,)), 28)
        assert violations == []

    def test_scale_down_into_a_dip_is_allowed(self):
        # only ADDING capacity masks a dip; retiring is degrading
        law, violations = bound(PacingScaleCooldown())
        declare(law, "shard-0", 2e6, 0)
        declare(law, "shard-1", 2e6, 0)
        declare(law, "shard-0", 1e6, 20)
        feed(law).scale(ScaleAction(kind="remove", shards=("shard-1",)), 24)
        assert violations == []

    def test_scale_triggered_declarations_are_not_dips(self):
        law, violations = bound(PacingScaleCooldown())
        declare(law, "shard-0", 2e6, 0)
        # a split re-declares lower capacities — provisioning, not dip
        feed(law).scale(
            ScaleAction(kind="split", shards=("shard-0",),
                        capacities=(1e6, 1e6),
                        created=("scale-0", "scale-1")),
            10,
        )
        declare(law, "scale-0", 1e6, 10)
        declare(law, "scale-1", 1e6, 10)
        declare(law, "shard-0", 0.0, 10)
        feed(law).scale(ScaleAction(kind="add", capacities=(1e6,),
                                 created=("scale-2",)), 20)
        assert violations == []


class TestScaleConservation:
    def test_clean_lifecycle_holds(self):
        law, violations = bound(ScaleConservation())
        declare(law, "shard-0", 2e6, 0)
        declare(law, "shard-1", 2e6, 0)
        feed(law).scale(
            ScaleAction(kind="merge", shards=("shard-0", "shard-1"),
                        created=("scale-0",)),
            5,
        )
        declare(law, "scale-0", 4e6, 5)
        declare(law, "shard-0", 0.0, 5)
        declare(law, "shard-1", 0.0, 5)
        feed(law).round(6, {}, 4e6, None)
        law.finalize()
        assert violations == []

    def test_non_conserving_split_violates(self):
        law, violations = bound(ScaleConservation())
        declare(law, "shard-0", 2e6, 0)
        feed(law).scale(
            ScaleAction(kind="split", shards=("shard-0",),
                        capacities=(1e6, 2e6),
                        created=("scale-0", "scale-1")),
            5,
        )
        assert any("split parts" in v.detail for v in violations)

    def test_wrong_merge_total_violates(self):
        law, violations = bound(ScaleConservation())
        declare(law, "shard-0", 2e6, 0)
        declare(law, "shard-1", 2e6, 0)
        feed(law).scale(
            ScaleAction(kind="merge", shards=("shard-0", "shard-1"),
                        capacities=(5e6,), created=("scale-0",)),
            5,
        )
        assert any("merge declares" in v.detail for v in violations)

    def test_unknown_shard_violates(self):
        law, violations = bound(ScaleConservation())
        feed(law).scale(ScaleAction(kind="remove", shards=("ghost",)), 5)
        assert any("unknown shard" in v.detail for v in violations)

    def test_promised_declaration_that_never_arrives_violates(self):
        law, violations = bound(ScaleConservation())
        declare(law, "shard-0", 2e6, 0)
        feed(law).scale(
            ScaleAction(kind="add", capacities=(1e6,),
                        created=("scale-0",)),
            5,
        )
        feed(law).round(6, {}, 2e6, None)  # next round, nothing declared
        assert any("never arrived" in v.detail for v in violations)

    def test_mismatched_declaration_violates(self):
        law, violations = bound(ScaleConservation())
        declare(law, "shard-0", 2e6, 0)
        feed(law).scale(
            ScaleAction(kind="add", capacities=(1e6,),
                        created=("scale-0",)),
            5,
        )
        declare(law, "scale-0", 3e6, 5)
        assert any("promised" in v.detail for v in violations)

    def test_undeclared_creation_count_violates(self):
        law, violations = bound(ScaleConservation())
        declare(law, "shard-0", 2e6, 0)
        feed(law).scale(ScaleAction(kind="add", capacities=(1e6,)), 5)
        assert any("announced" in v.detail for v in violations)


class TestEnforcementWiring:
    def test_observer_dispatches_on_scale_and_enforces(self):
        observer = InvariantObserver(
            invariants=["pacing-scale-cooldown"], enforce=True
        )
        feed(observer).scale(ScaleAction(kind="add", capacities=(1e6,)), 10)
        with pytest.raises(InvariantViolationError, match="min gap"):
            feed(observer).scale(
                ScaleAction(kind="add", capacities=(1e6,)), 12
            )

    def test_all_three_laws_are_registered(self):
        from repro.obs import INVARIANTS

        names = INVARIANTS.names()
        for name in ("scale-conservation", "pacing-degrade",
                     "pacing-scale-cooldown"):
            assert name in names
