"""Admission control against the paper's feasibility analysis."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.feasibility import FeasibilityReport
from repro.errors import ConfigurationError
from repro.experiments.configs import scaled_config
from repro.streams.admission import (
    AdmissionController,
    AdmissionDecision,
    qmin_completions,
    qmin_demand,
)
from repro.sim.runner import reset_caches
from repro.streams.scenarios import StreamSpec


def small_config(seed=1, frames=5):
    """Scale-27 stream: period ~11.85 Mcyc, qmin avg demand ~4.7 Mcyc."""
    return scaled_config(scale=27, seed=seed, frames=frames)


class TestQminDemand:
    def test_average_below_worst(self):
        config = small_config()
        assert qmin_demand(config, "average") < qmin_demand(config, "worst")

    def test_demand_below_period(self):
        # the scaled operating point leaves qmin headroom inside a period
        config = small_config()
        assert 0 < qmin_demand(config, "average") < config.period


class TestSharedWalk:
    def test_same_shape_shares_one_walk(self):
        config = small_config(seed=1)
        other = replace(config, seed=2)
        walk = qmin_completions(config)
        assert qmin_completions(other) is walk
        reset_caches()
        fresh = qmin_completions(config)
        assert fresh is not walk
        assert fresh == walk

    def test_slacks_shift_the_shared_completions(self):
        config = small_config()
        controller = AdmissionController(capacity=10 * config.period)
        report = controller.feasibility(config)
        assert isinstance(report.slacks, np.ndarray)
        assert not report.slacks.flags.writeable
        assert report.slacks.tolist() == [
            controller.remaining - c for c in qmin_completions(config)
        ]
        assert report.slacks[-1] == report.worst_slack


class TestDecisions:
    def test_accept_when_feasible(self):
        config = small_config()
        controller = AdmissionController(capacity=10 * config.period)
        verdict = controller.offer(StreamSpec("s0", 0, config))
        assert verdict.decision is AdmissionDecision.ACCEPTED
        assert isinstance(verdict.report, FeasibilityReport)
        assert verdict.report.worst_slack >= 0
        assert controller.committed == pytest.approx(qmin_demand(config))

    def test_reject_when_infeasible_even_alone(self):
        config = small_config()
        controller = AdmissionController(capacity=qmin_demand(config) / 2)
        verdict = controller.offer(StreamSpec("big", 0, config))
        assert verdict.decision is AdmissionDecision.REJECTED
        assert not verdict.report.feasible
        assert verdict.report.worst_slack < 0
        assert verdict.report.first_violation is not None
        assert controller.committed == 0.0

    def test_queue_then_admit_after_release(self):
        config = small_config()
        demand = qmin_demand(config)
        controller = AdmissionController(capacity=1.5 * demand)
        first = StreamSpec("first", 0, config)
        second = StreamSpec("second", 0, small_config(seed=2))
        assert controller.offer(first).decision is AdmissionDecision.ACCEPTED
        assert controller.offer(second).decision is AdmissionDecision.QUEUED
        assert len(controller.queue) == 1
        # nothing departs: queue stays parked
        assert controller.admit_queued() == []
        controller.release(first.config)
        admitted = controller.admit_queued()
        assert admitted == [second]
        assert not controller.queue

    def test_queue_limit_zero_rejects(self):
        config = small_config()
        demand = qmin_demand(config)
        controller = AdmissionController(capacity=1.5 * demand, queue_limit=0)
        controller.offer(StreamSpec("first", 0, config))
        verdict = controller.offer(StreamSpec("second", 0, small_config(seed=2)))
        assert verdict.decision is AdmissionDecision.REJECTED

    def test_worst_mode_more_conservative(self):
        config = small_config()
        # capacity between average and worst qmin demand: statistical
        # admission accepts, hard admission does not
        capacity = (qmin_demand(config, "average") + qmin_demand(config, "worst")) / 2
        statistical = AdmissionController(capacity=capacity, mode="average")
        hard = AdmissionController(capacity=capacity, mode="worst")
        assert (
            statistical.offer(StreamSpec("s", 0, config)).decision
            is AdmissionDecision.ACCEPTED
        )
        assert (
            hard.offer(StreamSpec("s", 0, config)).decision
            is AdmissionDecision.REJECTED
        )

    def test_utilization_cap_shrinks_budget(self):
        config = small_config()
        demand = qmin_demand(config)
        controller = AdmissionController(capacity=2 * demand, utilization_cap=0.5)
        assert controller.budget == pytest.approx(demand)
        assert controller.offer(StreamSpec("a", 0, config)).decision is (
            AdmissionDecision.ACCEPTED
        )
        # a second stream exceeds the capped budget even though raw
        # capacity would fit it
        follow_up = controller.offer(StreamSpec("b", 0, small_config(seed=3)))
        assert follow_up.decision is not AdmissionDecision.ACCEPTED

    def test_acceptance_ratio(self):
        config = small_config()
        controller = AdmissionController(capacity=10 * config.period)
        assert controller.acceptance_ratio == 1.0
        controller.offer(StreamSpec("a", 0, config))
        tiny = AdmissionController(capacity=qmin_demand(config) / 2)
        tiny.offer(StreamSpec("b", 0, config))
        assert controller.acceptance_ratio == 1.0
        assert tiny.acceptance_ratio == 0.0


class TestValidation:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(capacity=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionController(capacity=1.0, mode="optimistic")
        with pytest.raises(ConfigurationError):
            AdmissionController(capacity=1.0, utilization_cap=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionController(capacity=1.0, queue_limit=-1)
