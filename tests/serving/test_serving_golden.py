"""Golden outcomes: every registered scenario serves exactly as recorded.

The engine and ``serve()``-vs-hand-wired equivalence suites compare two
runs through the *same* runner code, so they cannot see a behaviour
change made to the runners themselves.  This suite pins the outcome of
one scalar serve per registered scenario generator (the small kwargs
and specs of ``tests/engine/test_engine_equivalence.py``) to a
committed table, ``golden_outcomes.json``:

* ``summary()`` and ``per_class()`` of the result;
* a SHA-256 over the run's event sequence, built only from fields that
  do not depend on float rounding — event kind, round, shard, stream
  (and, for round events, which streams were granted) — so it holds
  across NumPy versions;
* all of it served under ``InvariantObserver(enforce=True)``.

Regenerate the table (only for a deliberate, documented behaviour
change) with ``PYTHONPATH=src python tests/serving/test_serving_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.obs import InvariantObserver, StructuredEventLog
from repro.serving import serve
from repro.serving.registry import SCENARIOS
from tests.engine.test_engine_equivalence import SCENARIO_KWARGS, spec_for

GOLDEN_PATH = Path(__file__).with_name("golden_outcomes.json")


def _clean(value):
    """JSON-safe copy: NaN -> None, tuples -> lists, floats kept."""
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _event_key(event) -> str:
    fields = [event.kind, str(event.round), str(event.shard)]
    fields.append(str(getattr(event, "stream", "")))
    if event.kind == "round":
        fields.append(",".join(sorted(event.allocations)))
    return "|".join(fields)


def golden_outcome(name: str) -> dict:
    """One scalar serve of ``name``, reduced to its golden record."""
    log = StructuredEventLog(timelines=False)
    result = serve(
        spec_for(name, "scalar"),
        observers=[log, InvariantObserver(enforce=True)],
    )
    digest = hashlib.sha256()
    for event in log.events:
        digest.update(_event_key(event).encode())
        digest.update(b"\n")
    return {
        "summary": _clean(result.summary()),
        "per_class": _clean(result.per_class()),
        "events": len(log.events),
        "events_sha256": digest.hexdigest(),
    }


def _assert_close(actual, expected, path="") -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert sorted(actual) == sorted(expected), path
        for key in expected:
            _assert_close(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, float) and isinstance(actual, float):
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-12), path
    else:
        assert actual == expected, path


def test_golden_table_covers_every_scenario():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(SCENARIOS.names())


@pytest.mark.parametrize("name", sorted(SCENARIO_KWARGS))
def test_serve_matches_golden_outcome(name):
    expected = json.loads(GOLDEN_PATH.read_text())[name]
    _assert_close(golden_outcome(name), expected, name)


if __name__ == "__main__":
    table = {name: golden_outcome(name) for name in sorted(SCENARIO_KWARGS)}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} golden outcomes to {GOLDEN_PATH}")
