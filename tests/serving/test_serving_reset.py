"""Runner reset(): one instance serves many scenarios without state bleed."""

from __future__ import annotations

from repro.cluster import ClusterRunner, skewed_cluster
from repro.serving import ARBITERS, MIGRATIONS, PLACEMENTS
from repro.streams import AdmissionController, FleetRunner
from repro.streams.scenarios import flash_crowd, steady_fleet

CAPACITY = 20e6


def flash_scenario():
    return flash_crowd(base=2, crowd=4, crowd_round=2, frames=4, scale=27)


def fleet_runner():
    return FleetRunner(
        CAPACITY, ARBITERS.create("quality-fair"), AdmissionController(CAPACITY)
    )


class TestAdmissionControllerReset:
    def test_restores_pristine_state(self):
        admission = AdmissionController(CAPACITY)
        for spec in flash_scenario().specs:
            admission.offer(spec)
        assert admission.committed > 0
        assert (
            admission.accepted_count
            + admission.queued_count
            + admission.rejected_count
            > 0
        )
        admission.reset()
        fresh = AdmissionController(CAPACITY)
        assert admission.committed == fresh.committed == 0.0
        assert list(admission.queue) == []
        assert admission.accepted_count == 0
        assert admission.rejected_count == 0
        assert admission.queued_count == 0
        assert admission.remaining == fresh.remaining


class TestFleetRunnerReset:
    def test_back_to_back_runs_bit_identical_to_fresh(self):
        scenario = flash_scenario()
        runner = fleet_runner()
        first = runner.run(scenario)
        runner.reset()
        second = runner.run(scenario)
        fresh = fleet_runner().run(scenario)
        assert first.summary() == second.summary() == fresh.summary()
        assert (
            first.per_stream_quality()
            == second.per_stream_quality()
            == fresh.per_stream_quality()
        )
        assert (
            first.per_stream_psnr()
            == second.per_stream_psnr()
            == fresh.per_stream_psnr()
        )

    def test_implicit_reset_on_run(self):
        # run() self-resets on entry (matching ClusterRunner), so even
        # without an explicit reset() admission state cannot leak
        scenario = flash_scenario()
        runner = fleet_runner()
        first = runner.run(scenario)
        second = runner.run(scenario)
        assert first.summary() == second.summary()
        # post-run admission counters reflect the last run only
        assert runner.admission.accepted_count == second.served_count

    def test_reset_clears_admission_counters(self):
        runner = fleet_runner()
        runner.run(flash_scenario())
        assert runner.admission.accepted_count > 0
        runner.reset()
        assert runner.admission.accepted_count == 0
        assert runner.admission.committed == 0.0

    def test_reset_allows_switching_scenarios(self):
        runner = fleet_runner()
        runner.run(flash_scenario())
        runner.reset()
        steady = runner.run(steady_fleet(2, frames=3))
        fresh = fleet_runner().run(steady_fleet(2, frames=3))
        assert steady.summary() == fresh.summary()

    def test_reset_without_admission_is_a_no_op(self):
        runner = FleetRunner(CAPACITY, ARBITERS.create("equal-share"))
        scenario = steady_fleet(2, frames=3)
        first = runner.run(scenario)
        runner.reset()
        assert runner.run(scenario).summary() == first.summary()


class TestClusterRunnerReset:
    def build(self):
        return ClusterRunner(
            placement=PLACEMENTS.create("round-robin"),
            migration=MIGRATIONS.create("load-balance"),
        )

    def test_back_to_back_runs_bit_identical_to_fresh(self):
        scenario = skewed_cluster(streams=6, frames=4)
        runner = self.build()
        first = runner.run(scenario)
        # run() resets on entry, and reset() is public for callers
        runner.reset()
        second = runner.run(scenario)
        fresh = self.build().run(scenario)
        assert first.summary() == second.summary() == fresh.summary()
        assert first.migrations == second.migrations == fresh.migrations
        assert (
            first.shard_demand_cycles
            == second.shard_demand_cycles
            == fresh.shard_demand_cycles
        )

    def test_implicit_reset_on_run(self):
        # even without an explicit reset() call, run() self-resets so
        # policy state (round-robin rotation, migration residency)
        # cannot leak between runs
        scenario = skewed_cluster(streams=6, frames=4)
        runner = self.build()
        first = runner.run(scenario)
        second = runner.run(scenario)
        assert first.summary() == second.summary()

    def test_reset_clears_policy_state(self):
        runner = self.build()
        runner.run(skewed_cluster(streams=6, frames=4))
        runner.placement._next = 99
        runner.migration._moved_at = {"ghost": 3}
        runner.reset()
        assert runner.placement._next == 0
        assert runner.migration._moved_at == {}
