"""Placement policies over hand-built shard states."""

import pytest

from repro.cluster.placement import (
    BestFitPlacement,
    LeastLoadedPlacement,
    QualityAwarePlacement,
    RoundRobinPlacement,
)
from repro.cluster.shard import Shard
from repro.errors import ConfigurationError
from repro.experiments.configs import scaled_config
from repro.serving import PLACEMENTS
from repro.streams import AdmissionController, WeightedShareArbiter
from repro.streams.scenarios import StreamSpec


def spec(name, scale=27, seed=3, frames=6):
    return StreamSpec(
        name=name,
        arrival_round=0,
        config=scaled_config(scale=scale, seed=seed, frames=frames),
    )


def shard(shard_id, capacity):
    return Shard(
        shard_id,
        capacity,
        WeightedShareArbiter(),
        AdmissionController(capacity),
    )


class TestRoundRobin:
    def test_cycles_blindly(self):
        shards = [shard(f"s{i}", 30e6) for i in range(3)]
        policy = RoundRobinPlacement()
        chosen = [policy.choose(spec(f"x{i}", seed=i), shards, 0) for i in range(6)]
        assert [c.shard_id for c in chosen] == ["s0", "s1", "s2"] * 2

    def test_empty_cluster_raises(self):
        with pytest.raises(ConfigurationError):
            RoundRobinPlacement().choose(spec("x"), [], 0)


class TestLeastLoaded:
    def test_prefers_lowest_relative_load(self):
        shards = [shard("s0", 30e6), shard("s1", 30e6)]
        shards[0].offer(spec("busy"), 0)
        policy = LeastLoadedPlacement()
        assert policy.choose(spec("new", seed=9), shards, 0).shard_id == "s1"

    def test_accounts_for_queued_demand(self):
        small = shard("s0", 7e6)  # fits one scale-27 qmin (~4.7M)
        big = shard("s1", 30e6)
        small.offer(spec("a"), 0)
        small.offer(spec("b", seed=9), 0)  # queued on s0
        assert len(small.queue) == 1
        # relative load counts the parked stream too
        assert small.load > big.load
        assert LeastLoadedPlacement().choose(
            spec("c", seed=10), [small, big], 0
        ).shard_id == "s1"


class TestBestFit:
    def test_picks_tightest_feasible_shard(self):
        # both fit; s1 leaves the smaller hole
        shards = [shard("s0", 60e6), shard("s1", 8e6)]
        policy = BestFitPlacement()
        assert policy.choose(spec("x"), shards, 0).shard_id == "s1"

    def test_avoids_infeasible_shard(self):
        # s1's whole budget is below a heavy stream's qmin demand
        shards = [shard("s0", 60e6), shard("s1", 3e6)]
        heavy = spec("heavy", scale=12)
        assert BestFitPlacement().choose(heavy, shards, 0).shard_id == "s0"

    def test_prefers_queueing_over_rejection(self):
        # nothing accepts now, but s0 could serve the stream alone
        s0 = shard("s0", 8e6)
        s0.offer(spec("occupant"), 0)  # commits most of s0
        s1 = shard("s1", 3e6)  # can never serve it
        choice = BestFitPlacement().choose(spec("x", seed=9), [s0, s1], 0)
        assert choice.shard_id == "s0"


class TestQualityAware:
    def test_avoids_struggling_shard(self):
        healthy = shard("s0", 30e6)
        struggling = shard("s1", 30e6)
        struggling.offer(spec("starved"), 0)
        # run the starved stream at a trickle so its quality is poor
        for round_index in range(4):
            struggling.step(round_index, capacity=0.3 * 11.85e6)
        assert struggling.mean_recent_quality() < 0.5
        choice = QualityAwarePlacement().choose(
            spec("new", seed=9), [struggling, healthy], 0
        )
        assert choice.shard_id == "s0"


class TestFactory:
    def test_make_placement(self):
        for name in ("round-robin", "least-loaded", "best-fit", "quality-aware"):
            assert PLACEMENTS.create(name).name == name
        with pytest.raises(ConfigurationError):
            PLACEMENTS.create("nope")
