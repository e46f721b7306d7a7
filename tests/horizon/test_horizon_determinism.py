"""Autoscaled long-horizon runs are deterministic and engine-stable.

Satellite acceptance: under a fixed seed an always-on, autoscaled
cluster run replays byte-for-byte — same summaries, same JSONL event
log, across repeat runs, across runner instances, and across
execution engines — with enforce-mode invariants attached throughout.
"""

from __future__ import annotations

import pytest

from repro.obs import InvariantObserver, StructuredEventLog
from repro.serving import serve


def always_on_spec(engine="scalar", max_rounds=30):
    return {
        "topology": "cluster",
        "scenario": {
            "name": "diurnal-cluster",
            "kwargs": {"shards": 2, "base_rate": 0.4, "peak": 1.4,
                       "period_rounds": 12, "loop_frames": 4,
                       "provision_concurrency": 4.0},
        },
        "placement": "best-fit",
        "admission": "feasibility",
        "autoscaler": {"name": "signal",
                       "kwargs": {"window": 6, "cooldown": 10,
                                  "sustain": 1}},
        "engine": engine,
        "max_rounds": max_rounds,
    }


def run(engine="scalar"):
    log = StructuredEventLog()
    result = serve(
        always_on_spec(engine),
        observers=[log, InvariantObserver(enforce=True)],
    )
    return result, log.to_jsonl()


def test_repeat_runs_are_byte_identical():
    first, first_log = run()
    second, second_log = run()
    assert first_log == second_log
    assert first.summary() == second.summary()
    assert [a.to_dict() for a in first.scale_actions] == [
        a.to_dict() for a in second.scale_actions
    ]


def test_the_run_actually_scales_and_serves():
    result, log = run()
    assert result.scale_actions, "the diurnal swing must trigger scaling"
    assert result.served_count > 0
    assert '"scale"' in log, "scale actions must reach the event log"


@pytest.mark.parametrize("engine", ["vectorized"])
def test_engines_replay_the_scalar_run(engine):
    scalar, scalar_log = run("scalar")
    other, other_log = run(engine)
    assert scalar_log == other_log
    assert scalar.summary() == other.summary()


def test_fresh_runner_equals_reused_runner():
    from repro.serving.runner import build_runner, build_scenario
    from repro.serving.spec import ServingSpec

    spec = ServingSpec.from_dict(always_on_spec())
    scenario = build_scenario(spec)
    runner = build_runner(spec, scenario=scenario)
    first = runner.run(scenario)
    second = runner.run(scenario)
    assert first.summary() == second.summary()
    assert [a.to_dict() for a in first.scale_actions] == [
        a.to_dict() for a in second.scale_actions
    ]
