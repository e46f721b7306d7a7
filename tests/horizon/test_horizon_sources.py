"""Open-ended workload sources: lazy arrivals, profiles, stop rules.

The always-on subsystem's source contract: arrival schedules are
stateless and deterministic (any round, any order, same answer), the
three rate profiles have their advertised shapes, the interface guards
refuse finite-workload questions, and a run over an open-ended source
must carry an explicit ``max_rounds`` stop condition.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.horizon import (
    DiurnalScenario,
    DriftScenario,
    FlashCrowdScenario,
    diurnal_cluster,
    diurnal_live,
    drift_live,
    flash_crowd_live,
)
from repro.serving import serve
from repro.serving.registry import scenario_open_ended
from repro.serving.spec import ServingSpec
from repro.streams.scenarios import IdleDeparture


class TestArrivalSchedule:
    def test_arrivals_are_stateless_and_order_independent(self):
        scenario = diurnal_live(base_rate=0.5, peak=1.5, period_rounds=20)
        forward = [scenario.arrivals_at(r) for r in range(30)]
        backward = [scenario.arrivals_at(r) for r in reversed(range(30))]
        for mine, theirs in zip(forward, reversed(backward)):
            assert [s.name for s in mine] == [s.name for s in theirs]
            assert [s.config.seed for s in mine] == [
                s.config.seed for s in theirs
            ]

    def test_two_instances_with_one_seed_agree(self):
        a = drift_live(seed=11, start_rate=0.4, end_rate=1.2, drift_rounds=16)
        b = drift_live(seed=11, start_rate=0.4, end_rate=1.2, drift_rounds=16)
        for r in range(24):
            assert [s.name for s in a.arrivals_at(r)] == [
                s.name for s in b.arrivals_at(r)
            ]

    def test_different_seeds_differ_somewhere(self):
        a = diurnal_live(seed=1, base_rate=1.0, peak=2.0, period_rounds=10)
        b = diurnal_live(seed=2, base_rate=1.0, peak=2.0, period_rounds=10)
        counts_a = [len(a.arrivals_at(r)) for r in range(40)]
        counts_b = [len(b.arrivals_at(r)) for r in range(40)]
        assert counts_a != counts_b

    def test_every_arrival_is_unbounded_with_the_departure_policy(self):
        lifetime = IdleDeparture(min_rounds=5, patience=2)
        scenario = flash_crowd_live(
            base_rate=2.0, crowd_round=0, crowd_rate=2.0, lifetime=lifetime
        )
        specs = scenario.arrivals_at(0)
        assert specs
        for spec in specs:
            assert spec.lifetime is lifetime
            assert spec.arrival_round == 0

    def test_classes_are_drawn_from_the_declared_set(self):
        scenario = diurnal_live(
            base_rate=2.0, peak=2.0, classes=("gold", "bronze")
        )
        drawn = {
            spec.service_class
            for r in range(20)
            for spec in scenario.arrivals_at(r)
        }
        assert drawn
        assert drawn <= {"gold", "bronze"}


class TestProfiles:
    def test_diurnal_trough_at_zero_and_peak_mid_period(self):
        s = DiurnalScenario(
            name="d", base_rate=0.2, peak=0.8, period_rounds=40
        )
        assert s.rate(0) == pytest.approx(0.2)
        assert s.rate(20) == pytest.approx(0.8)
        assert s.rate(40) == pytest.approx(0.2)
        assert s.trough_rate() == 0.2 and s.peak_rate() == 0.8
        assert all(0.2 <= s.rate(r) <= 0.8 for r in range(80))

    def test_flash_crowd_spikes_only_inside_the_window(self):
        s = FlashCrowdScenario(
            name="f", base_rate=0.3, crowd_round=10, crowd_rate=2.5,
            crowd_width=3,
        )
        assert s.rate(9) == 0.3
        assert s.rate(10) == s.rate(12) == 2.5
        assert s.rate(13) == 0.3
        assert s.peak_rate() == 2.5 and s.trough_rate() == 0.3

    def test_drift_ramps_linearly_then_holds(self):
        s = DriftScenario(
            name="g", start_rate=0.2, end_rate=1.0, drift_rounds=8
        )
        assert s.rate(0) == pytest.approx(0.2)
        assert s.rate(4) == pytest.approx(0.6)
        assert s.rate(8) == s.rate(100) == pytest.approx(1.0)

    def test_expected_concurrency_is_littles_law(self):
        s = DiurnalScenario(name="d", base_rate=0.5, peak=0.5)
        expected = 0.5 * s.lifetime.mean_lifetime()
        assert s.expected_concurrency(0) == pytest.approx(expected)

    def test_mean_lifetime_estimate_is_sane(self):
        lifetime = IdleDeparture()
        assert lifetime.mean_lifetime() > lifetime.min_rounds
        assert lifetime.mean_lifetime() < lifetime.max_lifetime


class TestInterfaceGuards:
    def test_finite_workload_questions_are_refused(self):
        scenario = diurnal_live()
        with pytest.raises(ConfigurationError, match="open-ended"):
            scenario.last_arrival_round
        with pytest.raises(ConfigurationError, match="open-ended"):
            scenario.total_demand()

    def test_validation_rejects_bad_profiles(self):
        with pytest.raises(ConfigurationError):
            diurnal_live(base_rate=0.8, peak=0.2)
        with pytest.raises(ConfigurationError):
            diurnal_live(period_rounds=1)
        with pytest.raises(ConfigurationError):
            flash_crowd_live(crowd_width=0)
        with pytest.raises(ConfigurationError):
            drift_live(start_rate=-0.1)
        with pytest.raises(ConfigurationError):
            diurnal_live(loop_frames=0)
        with pytest.raises(ConfigurationError, match="IdleDeparture"):
            DiurnalScenario(name="d", lifetime=None)

    def test_registered_open_ended_flags(self):
        for name in ("diurnal-live", "flash-live", "drift-live",
                     "diurnal-cluster", "flash-cluster", "drift-cluster"):
            assert scenario_open_ended(name)
        assert not scenario_open_ended("steady")
        assert not scenario_open_ended("skewed-cluster")


class TestClusterWrapper:
    def test_default_provisioning_targets_the_peak(self):
        cluster = diurnal_cluster(shards=3, base_rate=0.2, peak=0.9)
        arrivals = cluster.arrivals
        expected_total = (
            arrivals.peak_rate()
            * arrivals.lifetime.mean_lifetime()
            * arrivals.stream_demand()
        )
        assert cluster.shard_count == 3
        assert sum(cluster.shard_capacities) == pytest.approx(expected_total)
        # equal pools
        assert len(set(cluster.shard_capacities)) == 1

    def test_explicit_concurrency_overrides_the_peak_default(self):
        cluster = diurnal_cluster(shards=2, provision_concurrency=4.0)
        total = 4.0 * cluster.arrivals.stream_demand()
        assert sum(cluster.shard_capacities) == pytest.approx(total)

    def test_cluster_scenario_reports_open_ended(self):
        assert diurnal_cluster().open_ended
        with pytest.raises(ConfigurationError):
            diurnal_cluster(shards=0)
        with pytest.raises(ConfigurationError):
            diurnal_cluster(shard_capacity=-1.0)


class TestStopCondition:
    """Satellite: open-ended runs need an explicit ``max_rounds``."""

    def test_open_ended_spec_without_max_rounds_is_refused(self):
        with pytest.raises(ConfigurationError, match="max_rounds"):
            ServingSpec.from_dict({
                "scenario": {"name": "diurnal-live"},
                "capacity": 24e6,
            })

    def test_open_ended_run_stops_at_max_rounds(self):
        result = serve({
            "scenario": {
                "name": "drift-live",
                "kwargs": {"start_rate": 0.5, "end_rate": 1.0,
                           "drift_rounds": 10, "loop_frames": 4},
            },
            "capacity": 24e6,
            "admission": "feasibility",
            "max_rounds": 12,
        })
        # arrivals stop at round 11; the drain tail is the buffered
        # frames of the shut-down sessions, not another content loop
        assert result.rounds >= 12
        assert result.rounds < 40
        assert result.served_count > 0

    def test_finite_scenarios_still_run_without_max_rounds(self):
        result = serve({
            "scenario": {"name": "steady",
                         "kwargs": {"count": 2, "frames": 4}},
            "capacity": 24e6,
        })
        assert result.served_count == 2

    def test_max_rounds_validation(self):
        base = {
            "scenario": {"name": "diurnal-live"},
            "capacity": 24e6,
        }
        with pytest.raises(ConfigurationError):
            ServingSpec.from_dict({**base, "max_rounds": 0})
        with pytest.raises(ConfigurationError):
            ServingSpec.from_dict({**base, "max_rounds": 2.5})
        spec = ServingSpec.from_dict({**base, "max_rounds": 50})
        assert spec.max_rounds == 50
        assert spec.to_dict()["max_rounds"] == 50
