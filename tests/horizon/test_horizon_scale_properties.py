"""Property-based tests (hypothesis): scaling conserves capacity.

For ANY legal sequence of :class:`ScaleAction`s replayed by a
:class:`ScheduledAutoscaler`, the cluster's declared capacity must
track the sequence exactly: the final live shards are precisely the
ones a model ledger predicts, shard by shard and capacity by capacity,
and the ``scale-conservation`` invariant holds in enforce mode
throughout.  Created shard ids are deterministic (``scale-<serial>``
in creation order), so the model can be built alongside the drawn
sequence.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.placement import RoundRobinPlacement
from repro.cluster.runner import ClusterRunner
from repro.cluster.scenarios import ClusterScenario
from repro.experiments.configs import scaled_config
from repro.horizon import ScaleAction, ScheduledAutoscaler
from repro.obs import InvariantObserver, StructuredEventLog
from repro.streams.scenarios import Scenario, StreamSpec

SETTINGS = settings(max_examples=25, deadline=None)

#: Shard budgets are multiples of one stream's dedicated demand and
#: never drop below two of them (only shards of at least four are
#: split), so with two streams in the run every relocation fits.
UNIT = scaled_config(scale=20, seed=5, frames=32).period

CAPACITY_CHOICES = (4.0 * UNIT, 6.0 * UNIT, 8.0 * UNIT)


def base_scenario(initial):
    """Two long-lived streams over ``initial`` shard capacities."""
    specs = tuple(
        StreamSpec(
            name=f"s{i}",
            arrival_round=0,
            config=scaled_config(scale=20, seed=5 + i, frames=32),
        )
        for i in range(2)
    )
    return ClusterScenario(
        name="scale-prop",
        arrivals=Scenario(name="pair", specs=specs),
        shard_capacities=tuple(initial),
    )


def draw_schedule(data, initial):
    """A legal action sequence plus the model ledger it must produce.

    The model mirrors the runner: created shards are named
    ``scale-<serial>`` in creation order; ``remove`` never targets the
    last shard; ``split`` only targets shards whose halves can each
    still host both streams.  Actions land on consecutive rounds
    starting at 1.
    """
    model = {f"shard-{i}": c for i, c in enumerate(initial)}
    serial = 0
    schedule = []
    for step in range(data.draw(st.integers(0, 6), label="ops")):
        splittable = sorted(s for s, c in model.items() if c >= 4.0 * UNIT)
        kinds = ["add"] + (["remove", "merge"] if len(model) > 1 else [])
        if len(model) > 1 and splittable:
            kinds.insert(2, "split")
        kind = data.draw(st.sampled_from(kinds), label=f"kind{step}")
        if kind == "add":
            cap = data.draw(
                st.sampled_from(CAPACITY_CHOICES), label=f"cap{step}"
            )
            action = ScaleAction(kind="add", capacities=(cap,))
            model[f"scale-{serial}"] = cap
            serial += 1
        elif kind == "remove":
            victim = data.draw(
                st.sampled_from(sorted(model)), label=f"victim{step}"
            )
            action = ScaleAction(kind="remove", shards=(victim,))
            del model[victim]
        elif kind == "split":
            victim = data.draw(
                st.sampled_from(splittable), label=f"victim{step}"
            )
            cap = model.pop(victim)
            parts = (cap / 2.0, cap - cap / 2.0)
            action = ScaleAction(
                kind="split", shards=(victim,), capacities=parts
            )
            for part in parts:
                model[f"scale-{serial}"] = part
                serial += 1
        else:  # merge
            pair = tuple(sorted(model))[:2]
            total = model.pop(pair[0]) + model.pop(pair[1])
            action = ScaleAction(kind="merge", shards=pair)
            model[f"scale-{serial}"] = total
            serial += 1
        schedule.append((1 + step, action))
    return schedule, model


@given(st.data())
@SETTINGS
def test_legal_action_sequences_conserve_declared_capacity(data):
    initial = data.draw(
        st.lists(st.sampled_from(CAPACITY_CHOICES), min_size=2, max_size=3),
        label="initial",
    )
    schedule, model = draw_schedule(data, initial)
    log = StructuredEventLog()
    ledger = InvariantObserver(
        invariants=["scale-conservation"], enforce=True
    )
    runner = ClusterRunner(
        RoundRobinPlacement(),
        autoscaler=ScheduledAutoscaler(schedule=tuple(schedule)),
        observers=[log, ledger],
        admission=False,
    )
    result = runner.run(base_scenario(initial))

    # every scheduled action fit inside the run and was applied
    # (capacities are sized so no relocation can ever fail)
    assert result.rounds > (schedule[-1][0] if schedule else 0)
    assert [a.kind for a in result.scale_actions] == [
        a.kind for _, a in schedule
    ]

    # replay the event log's capacity declarations: the live fleet at
    # the end must equal the model ledger exactly
    declared = {}
    for event in log.events:
        if event.kind == "capacity":
            if event.capacity <= 0.0:
                declared.pop(event.shard, None)
            else:
                declared[event.shard] = event.capacity
    assert declared.keys() == model.keys()
    for shard_id, capacity in model.items():
        assert math.isclose(
            declared[shard_id], capacity, rel_tol=1e-9, abs_tol=1e-6
        )
    assert math.isclose(
        sum(declared.values()), sum(model.values()),
        rel_tol=1e-9, abs_tol=1e-6,
    )
    assert ledger.violations == []


def test_split_that_would_strand_a_live_stream_is_dropped():
    """Regression (shrunk from the property above): splitting a pool
    into halves too small for its live stream is refused — the action
    is dropped and the pool keeps its declared capacity."""
    def split(shard, capacity):
        return ScaleAction(
            kind="split", shards=(shard,),
            capacities=(capacity / 2, capacity / 2),
        )

    schedule = (
        (1, split("shard-0", 4.0 * UNIT)),
        (2, split("scale-0", 2.0 * UNIT)),  # s0 lands on scale-2
        (3, split("scale-2", 1.0 * UNIT)),  # halves below s0's demand
    )
    log = StructuredEventLog()
    ledger = InvariantObserver(
        invariants=["scale-conservation"], enforce=True
    )
    result = ClusterRunner(
        RoundRobinPlacement(),
        autoscaler=ScheduledAutoscaler(schedule=schedule),
        observers=[log, ledger],
        admission=False,
    ).run(base_scenario((4.0 * UNIT, 4.0 * UNIT)))
    assert [a.shards for a in result.scale_actions] == [
        ("shard-0",), ("scale-0",),
    ]
    declared = {}
    for event in log.events:
        if event.kind == "capacity":
            if event.capacity <= 0.0:
                declared.pop(event.shard, None)
            else:
                declared[event.shard] = event.capacity
    assert sorted(declared) == ["scale-1", "scale-2", "scale-3", "shard-1"]
    assert math.isclose(declared["scale-2"], UNIT)
    assert ledger.violations == []


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=15, deadline=None)
def test_autoscaled_event_logs_are_byte_identical_under_any_seed(seed):
    """Satellite: fixed seed => byte-identical JSONL, any seed."""
    from repro.serving import serve

    def run():
        log = StructuredEventLog()
        result = serve({
            "topology": "cluster",
            "scenario": {
                "name": "diurnal-cluster",
                "kwargs": {"shards": 2, "seed": seed, "base_rate": 0.5,
                           "peak": 1.5, "period_rounds": 10,
                           "loop_frames": 4,
                           "provision_concurrency": 4.0},
            },
            "placement": "best-fit",
            "admission": "feasibility",
            "autoscaler": {"name": "signal",
                           "kwargs": {"window": 5, "cooldown": 8,
                                      "sustain": 1}},
            "max_rounds": 15,
        }, observers=[log])
        return result.summary(), log.to_jsonl()

    first_summary, first_log = run()
    second_summary, second_log = run()
    assert first_log == second_log
    assert first_summary == second_summary
