"""The invariant ledger: broken engines are caught with named violations."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    INVARIANTS,
    GrantConservation,
    Invariant,
    InvariantObserver,
    InvariantViolationError,
    register_invariant,
)
from repro.obs.events import EventPublisher
from repro.serving import ServingSpec, register_arbiter, serve
from repro.streams.arbiter import CapacityArbiter

SLA_SPEC = {
    "scenario": {"name": "gold-rush",
                 "kwargs": {"bronze": 4, "gold": 2, "crowd_round": 2,
                            "frames": 6, "scale": 27}},
    "capacity": {"utilization": 1 / 1.5},
    "arbiter": "sla-quality-fair",
    "admission": "priority",
    "renegotiation": {"name": "step", "kwargs": {"patience": 1, "step": 0.3}},
    "service_classes": ["gold", "silver", "bronze"],
}


def feed(observer):
    """Publish hand-built inputs to ``observer`` as lifecycle records."""
    return EventPublisher([observer])


class OverAllocatingArbiter(CapacityArbiter):
    """Deliberately broken: grants every stream the whole pool."""

    name = "over-allocating"

    def allocate(self, requests, capacity):
        return {r.stream_id: capacity for r in requests}


@pytest.fixture
def broken_arbiter():
    register_arbiter("over-allocating", OverAllocatingArbiter, overwrite=True)
    yield
    from repro.serving import ARBITERS

    ARBITERS.unregister("over-allocating")


class TestLedger:
    def test_clean_run_holds_every_registered_invariant(self):
        observer = InvariantObserver()
        serve(SLA_SPEC, observers=[observer])
        assert observer.ok
        ledger = observer.ledger()
        assert set(ledger) == set(INVARIANTS.names())
        assert all(entry["holds"] for entry in ledger.values())
        assert all(entry["violations"] == 0 for entry in ledger.values())

    def test_invariant_selection_by_name_class_instance(self):
        observer = InvariantObserver(invariants=[
            "grant-conservation", GrantConservation, GrantConservation(),
        ])
        assert len(observer.invariants) == 3
        with pytest.raises(ConfigurationError, match="must be registered"):
            InvariantObserver(invariants=[42])
        with pytest.raises(ConfigurationError, match="unknown invariant"):
            InvariantObserver(invariants=["nope"])

    def test_third_party_invariant_registers(self):
        class NoThirteenthRound(Invariant):
            name = "no-thirteenth-round"
            kinds = ("round",)

            def on_event(self, event):
                if event.round == 13:
                    self.violation("round 13 happened",
                                   round_index=event.round)

        register_invariant("no-thirteenth-round", NoThirteenthRound)
        try:
            observer = InvariantObserver(invariants=["no-thirteenth-round"])
            feed(observer).round(13, {}, 1.0)
            assert [v.invariant for v in observer.violations] == [
                "no-thirteenth-round"
            ]
        finally:
            INVARIANTS.unregister("no-thirteenth-round")


class TestBrokenEngines:
    def test_broken_arbiter_caught_with_named_violation(self, broken_arbiter):
        """The acceptance criterion: a deliberately broken arbiter is
        caught by the ledger with a named grant-conservation violation."""
        spec = dict(SLA_SPEC) | {
            "arbiter": "over-allocating", "admission": "feasibility",
            "renegotiation": None, "service_classes": None,
        }
        observer = InvariantObserver()
        serve(spec, observers=[observer])
        assert not observer.ok
        names = {v.invariant for v in observer.violations}
        assert "grant-conservation" in names
        violation = next(
            v for v in observer.violations
            if v.invariant == "grant-conservation"
        )
        assert "sum" in violation.detail
        assert violation.round_index is not None
        assert not observer.ledger()["grant-conservation"]["holds"]

    def test_enforcement_raises_at_first_violation(self, broken_arbiter):
        spec = dict(SLA_SPEC) | {
            "arbiter": "over-allocating", "admission": "feasibility",
            "renegotiation": None, "service_classes": None,
        }
        with pytest.raises(InvariantViolationError) as excinfo:
            serve(spec, observers=[InvariantObserver(enforce=True)])
        assert excinfo.value.violation.invariant == "grant-conservation"
        assert "grant-conservation" in str(excinfo.value)

    def test_negative_grants_caught(self):
        observer = InvariantObserver(invariants=["grant-conservation"])
        feed(observer).round(0, {"a": -5e6, "b": 29e6}, 24e6)
        names = [v.invariant for v in observer.violations]
        assert names.count("grant-conservation") >= 1
        assert any("negative" in v.detail for v in observer.violations)


class TestUnitChecks:
    def test_class_floor_violation(self):
        observer = InvariantObserver(
            invariants=["class-floors"],
            classes=[{"name": "gold", "min_quality": 0.5,
                      "target_quality": 0.85}],
        )
        from repro.streams.scenarios import StreamSpec
        from repro.experiments.configs import scaled_config

        spec = StreamSpec("g", 0, scaled_config(scale=27, frames=4),
                          service_class="gold")
        feed(observer).admit(spec, 0)
        feed(observer).renegotiate("g", 0.85, 0.3, 4)  # below the 0.5 floor
        assert any(
            "below class floor" in v.detail for v in observer.violations
        )
        observer.violations.clear()
        feed(observer).renegotiate("g", 0.85, 0.85, 5)  # no-op step
        assert any("no-op" in v.detail for v in observer.violations)
        observer.violations.clear()
        feed(observer).renegotiate("g", 0.85, 1.2, 6)  # outside [0, 1]
        assert any("outside" in v.detail for v in observer.violations)

    def test_exactly_once_accounting_violations(self):
        from repro.streams.scenarios import StreamSpec
        from repro.experiments.configs import scaled_config

        spec = StreamSpec("s", 0, scaled_config(scale=27, frames=4))
        observer = InvariantObserver(invariants=["exactly-once-rejection"])
        feed(observer).admit(spec, 0)
        feed(observer).admit(spec, 1)
        assert any("admitted twice" in v.detail for v in observer.violations)
        observer.violations.clear()
        feed(observer).reject(spec, 2)
        assert any(
            "rejected after admission" in v.detail
            for v in observer.violations
        )

    def test_unfinished_streams_flagged_at_close(self):
        from repro.streams.scenarios import StreamSpec
        from repro.experiments.configs import scaled_config

        spec = StreamSpec("s", 0, scaled_config(scale=27, frames=4))
        observer = InvariantObserver(invariants=["exactly-once-rejection"])
        feed(observer).admit(spec, 0)
        observer.close()
        assert any("never departed" in v.detail for v in observer.violations)

    def test_migration_residency_violations(self):
        from repro.cluster.migration import MigrationMove

        observer = InvariantObserver(invariants=["migration-headroom"])
        feed(observer).migrate(
            MigrationMove(stream_id="s", source="shard-0", dest="shard-0",
                 kind="active"),
            3,
        )
        assert any(
            "identical source" in v.detail for v in observer.violations
        )
        observer.violations.clear()
        feed(observer).migrate(
            MigrationMove(stream_id="ghost", source="shard-0", dest="shard-1",
                 kind="active"),
            4,
        )
        assert any("resident" in v.detail for v in observer.violations)

    def test_migration_overcommit_violation(self):
        from repro.streams.scenarios import StreamSpec
        from repro.experiments.configs import scaled_config
        from repro.cluster.migration import MigrationMove

        config = scaled_config(scale=27, frames=4)
        observer = InvariantObserver(invariants=["migration-headroom"])
        feed(observer).capacity(1.0, 0, shard_id="shard-1")  # ~zero headroom
        feed(observer).capacity(1e9, 0, shard_id="shard-0")
        feed(observer).admit(StreamSpec("s", 0, config), 0,
                          shard_id="shard-0")
        feed(observer).migrate(
            MigrationMove(stream_id="s", source="shard-0", dest="shard-1",
                 kind="active"),
            2,
        )
        assert any("exceeds" in v.detail for v in observer.violations)
