"""Policy registries: built-ins and plug-ins."""

from __future__ import annotations

import pytest

from repro.cluster.placement import PlacementPolicy
from repro.errors import ConfigurationError
from repro.serving import (
    ADMISSIONS,
    ARBITERS,
    BALANCERS,
    MIGRATIONS,
    PLACEMENTS,
    RENEGOTIATIONS,
    SCENARIOS,
    SLA_CLASSES,
    PolicyRegistry,
    ServingSpec,
    register_arbiter,
    register_placement,
    register_scenario,
    scenario_topology,
    serve,
)
from repro.streams.arbiter import (
    CapacityArbiter,
    EqualShareArbiter,
    QualityFairArbiter,
)
from repro.streams.scenarios import steady_fleet


class TestBuiltins:
    def test_every_family_is_seeded(self):
        assert ARBITERS.names() == [
            "equal-share", "quality-fair", "sla-quality-fair",
            "sla-weighted", "weighted-share",
        ]
        assert ADMISSIONS.names() == ["feasibility", "none", "priority"]
        assert PLACEMENTS.names() == [
            "best-fit", "least-loaded", "predictive", "quality-aware",
            "round-robin", "sla-aware",
        ]
        assert MIGRATIONS.names() == [
            "load-balance", "none", "queue-rebalance", "sla-aware",
        ]
        assert "headroom" in BALANCERS
        assert SLA_CLASSES.names() == ["bronze", "gold", "silver"]
        assert "step" in RENEGOTIATIONS
        assert set(SCENARIOS.names()) >= {
            "steady", "heterogeneous-mix", "poisson-churn", "flash-crowd",
            "sla-churn", "gold-rush", "skewed-cluster", "skewed-churn",
            "shard-outage", "flash-crowd-split", "sla-skewed-cluster",
        }

    def test_create_passes_kwargs(self):
        arbiter = ARBITERS.create("quality-fair", pressure=3.0)
        assert isinstance(arbiter, QualityFairArbiter)
        assert arbiter.pressure == 3.0

    def test_admission_none_returns_ungated(self):
        assert ADMISSIONS.create("none", 1e6) is None

    def test_scenario_topology_tags(self):
        assert scenario_topology("steady") == "fleet"
        assert scenario_topology("skewed-cluster") == "cluster"

    def test_unknown_name_names_kind_and_candidates(self):
        with pytest.raises(ConfigurationError, match="arbiter 'nope'"):
            ARBITERS.create("nope")
        with pytest.raises(ConfigurationError, match="equal-share"):
            ARBITERS.create("nope")


class TestRegistration:
    def test_duplicate_rejected_unless_overwrite(self):
        registry = PolicyRegistry("widget")
        registry.register("a", object)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("a", object)
        registry.register("a", dict, overwrite=True)
        assert registry.factory("a") is dict

    def test_bad_names_and_factories_rejected(self):
        registry = PolicyRegistry("widget")
        with pytest.raises(ConfigurationError, match="non-empty string"):
            registry.register("", object)
        with pytest.raises(ConfigurationError, match="callable"):
            registry.register("a", 42)

    def test_unregister(self):
        registry = PolicyRegistry("widget")
        registry.register("a", object)
        registry.unregister("a")
        assert "a" not in registry
        with pytest.raises(ConfigurationError, match="unknown widget"):
            registry.unregister("a")

    def test_decorator_form(self):
        registry = PolicyRegistry("widget")

        @registry.register("fancy")
        class Fancy:
            pass

        assert registry.create("fancy").__class__ is Fancy


class TestThirdPartyPlugin:
    """A policy registered by name plugs into specs and serve()."""

    def test_custom_arbiter_drives_a_spec_end_to_end(self):
        @register_arbiter("test-greedy")
        class GreedyArbiter(CapacityArbiter):
            name = "test-greedy"

            def _surplus_shares(self, requests):
                # all surplus to the lexicographically first stream
                first = min(r.stream_id for r in requests)
                return [1.0 if r.stream_id == first else 0.0 for r in requests]

        try:
            result = serve({
                "scenario": {"name": "steady",
                             "kwargs": {"count": 2, "frames": 3}},
                "capacity": 32e6,
                "arbiter": "test-greedy",
                "admission": "none",
            })
            assert result.served_count == 2
            assert isinstance(ARBITERS.create("test-greedy"), GreedyArbiter)
        finally:
            ARBITERS.unregister("test-greedy")

    def test_custom_scenario_registers_with_topology(self):
        register_scenario(
            "test-tiny", lambda: steady_fleet(1, frames=2), topology="fleet"
        )
        try:
            result = serve({
                "scenario": "test-tiny",
                "capacity": 16e6,
            })
            assert result.served_count == 1
        finally:
            SCENARIOS.unregister("test-tiny")

    def test_scenario_topology_validated(self):
        with pytest.raises(ConfigurationError, match="topology"):
            register_scenario("test-bad", lambda: None, topology="mesh")

    def test_unknown_policy_is_a_spec_error(self):
        with pytest.raises(ConfigurationError, match="arbiter"):
            ServingSpec.from_dict({
                "scenario": {"name": "steady", "kwargs": {"count": 1}},
                "capacity": 1e6,
                "arbiter": "not-registered",
            })
