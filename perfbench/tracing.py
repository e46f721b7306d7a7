"""Spans at the serving stack's layer boundaries, recorded from outside.

:func:`layer_patches` wraps the public functions and methods each layer
exposes, at the name its caller looks up: ``repro.engine.vectorized``
and ``repro.streams.session`` bind ``batch_decide``, ``scalar_decide``,
``bank_for`` and ``simulation_for`` at import, so those module
attributes are wrapped rather than the defining ones.  A wrapped call
opens a span on :class:`SpanRecorder`'s stack; on exit the span's self
time (its duration minus its direct children's) is added to its
layer's total.  Self times of all spans, the benchmark's root span
included, sum to the root's wall time exactly.

A missing target raises ``AttributeError`` when the patches are built,
and :func:`check_expected` fails a run in which a span that the
workload must exercise never fired, so a rename cannot silently empty
a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

#: Root span opened by the benchmark around each ``repro.serve`` call.
ROOT = "bench"

#: The observer classes whose hooks get one span name each
#: (``obs.<class name>``); ``close`` on any of them is ``obs.close``.
OBSERVER_CLASSES = (
    ("repro.obs.tracing", "TraceObserver"),
    ("repro.obs.invariants", "InvariantObserver"),
    ("repro.obs.events", "StructuredEventLog"),
    ("repro.obs.metrics", "TelemetryObserver"),
    ("repro.obs.slo", "SloObserver"),
)

#: Module-level names: (module, attribute, span, tally).  A tally names
#: a counter and how much one call adds to it.
FUNCTIONS = (
    ("repro.serving", "serve", "serving.serve", None),
    ("repro.serving.runner", "build_scenario", "serving.build", None),
    ("repro.serving.runner", "build_runner", "serving.build", None),
    ("repro.serving.runner", "build_observers", "serving.build", None),
    ("repro.engine.vectorized", "step_sessions", "engine.step_sessions", None),
    (
        "repro.engine.vectorized", "batch_decide", "engine.batch",
        ("engine.batch.lanes", lambda args, result: len(result)),
    ),
    (
        "repro.engine.vectorized", "scalar_decide", "engine.scalar",
        ("engine.scalar.fallback", lambda args, result: 1),
    ),
    ("repro.streams.session", "scalar_decide", "engine.scalar", None),
    ("repro.streams.session", "bank_for", "engine.bank", None),
    ("repro.sim.runner", "simulation_for", "sim.simulation", None),
    ("repro.streams.session", "simulation_for", "sim.simulation", None),
    ("repro.streams.admission", "simulation_for", "sim.simulation", None),
)

#: Methods: (module, class, method, span, tally).  The method is wrapped
#: on the class and on every subclass that defines its own.
METHODS = (
    ("repro.streams.fleet", "FleetRunner", "run", "streams.fleet", None),
    ("repro.cluster.runner", "ClusterRunner", "run", "cluster.runner", None),
    ("repro.cluster.shard", "Shard", "step", "cluster.shard_step", None),
    (
        "repro.cluster.placement", "PlacementPolicy", "choose",
        "cluster.placement", None,
    ),
    (
        "repro.cluster.migration", "MigrationPolicy", "plan",
        "cluster.migration", None,
    ),
    (
        "repro.cluster.runner", "HeadroomBalancer", "effective_capacities",
        "cluster.balancer", None,
    ),
    (
        "repro.horizon.autoscaler", "Autoscaler", "plan", "horizon.autoscaler",
        ("horizon.autoscaler.actions", lambda args, result: len(result)),
    ),
    (
        "repro.streams.arbiter", "CapacityArbiter", "allocate",
        "streams.arbiter", None,
    ),
    *(
        (
            "repro.streams.admission", "AdmissionController", method,
            "streams.admission", None,
        )
        for method in ("offer", "admit_queued", "release", "feasibility")
    ),
    ("repro.streams.session", "StreamSession", "step", "streams.session.step",
     None),
    (
        "repro.streams.session", "StreamSession", "finish_round",
        "streams.session.finish", None,
    ),
    (
        "repro.video.encoder_model", "AnalyticEncoder", "encode_frame",
        "video.encode", None,
    ),
)


class SpanRecorder:
    """In-memory spans for one serve at a time.

    ``begin(label, keep)`` clears the per-serve totals; with ``keep``
    every span is also stored as ``(serve, id, parent, name, start,
    end)`` for :meth:`write_jsonl`.  Wrappers pass calls straight
    through while ``enabled`` is false.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.label = ""
        self.keep = False
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.tallies: Counter = Counter()

    def begin(self, label: str, keep: bool = False) -> None:
        self.label = label
        self.keep = keep
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.tallies = Counter()
        self.enabled = True

    def end(self) -> dict:
        """Stop recording; return this serve's totals."""
        self.enabled = False
        if self.stack:
            raise RuntimeError(f"unclosed spans: {[f[0] for f in self.stack]}")
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "tallies": dict(self.tallies),
        }

    def wrap(self, name: str, fn, tally=None):
        """``fn`` recording one ``name`` span per outermost call."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder.stack
            # pass through when off, and inside a span of the same name
            # (a subclass override calling ``super()``)
            if not recorder.enabled or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            span_id = None
            if recorder.keep:
                span_id = len(recorder.spans)
                recorder.spans.append(None)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                recorder.self_s[name] += duration - frame[1]
                recorder.calls[name] += 1
                parent = None
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][2]
                if span_id is not None:
                    recorder.spans[span_id] = (
                        recorder.label, span_id, parent, name, start, end
                    )
            if tally is not None:
                key, amount = tally
                recorder.tallies[key] += amount(args, result)
            return result

        return traced

    def write_jsonl(self, path) -> int:
        """Write the kept spans, one JSON object a line; return the count."""
        with open(path, "w", encoding="utf-8") as out:
            for serve, span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({
                    "serve": serve, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")
        return len(self.spans)


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def layer_patches(recorder: SpanRecorder) -> list[tuple]:
    """Every ``(owner, attribute, original, wrapper)`` to install.

    Imports the layers first so every policy subclass exists.
    """
    for module in ("repro.serving", "repro.horizon", "repro.obs"):
        importlib.import_module(module)
    patches = []
    for module, attribute, span, tally in FUNCTIONS:
        owner = importlib.import_module(module)
        original = getattr(owner, attribute)
        patches.append(
            (owner, attribute, original, recorder.wrap(span, original, tally))
        )
    for module, class_name, method, span, tally in METHODS:
        root = getattr(importlib.import_module(module), class_name)
        getattr(root, method)  # a renamed method fails here
        for cls in _subclasses(root):
            if method in cls.__dict__:
                original = cls.__dict__[method]
                patches.append(
                    (cls, method, original, recorder.wrap(span, original, tally))
                )
    for module, class_name in OBSERVER_CLASSES:
        cls = getattr(importlib.import_module(module), class_name)
        hooks = [
            attr for attr in cls.__dict__
            if attr.startswith("on_") and attr != "on_phase"
        ]
        if not hooks:
            raise AttributeError(f"{class_name} defines no observer hooks")
        for hook in hooks:
            original = cls.__dict__[hook]
            patches.append((
                cls, hook, original,
                recorder.wrap(
                    f"obs.{class_name}", original,
                    ("obs.hook_calls", lambda args, result: 1),
                ),
            ))
        if "close" in cls.__dict__:
            original = cls.__dict__["close"]
            patches.append(
                (cls, "close", original, recorder.wrap("obs.close", original))
            )
    return patches


def install(patches) -> None:
    for owner, attribute, _, wrapper in patches:
        setattr(owner, attribute, wrapper)


def uninstall(patches) -> None:
    for owner, attribute, original, _ in patches:
        setattr(owner, attribute, original)


def observer_classes() -> tuple:
    return tuple(
        getattr(importlib.import_module(module), name)
        for module, name in OBSERVER_CLASSES
    )


#: Spans each workload must fire (cold and warm serves pooled).
COMMON = (
    ROOT, "serving.serve", "serving.build", "streams.arbiter",
    "streams.admission", "streams.session.finish", "video.encode",
    "engine.bank", "sim.simulation",
)
EXPECTED = {
    "fleet-steady-256": COMMON + (
        "streams.fleet", "engine.step_sessions", "engine.batch",
    ),
    "diurnal-slo": COMMON + (
        "cluster.runner", "cluster.shard_step", "cluster.placement",
        "cluster.balancer", "horizon.autoscaler", "engine.step_sessions",
        "engine.batch", "obs.close",
        *(f"obs.{name}" for _, name in OBSERVER_CLASSES),
    ),
    "cluster-skewed-512": COMMON + (
        "cluster.runner", "cluster.shard_step", "cluster.placement",
        "cluster.migration", "cluster.balancer", "streams.session.step",
        "engine.scalar",
    ),
}


def check_expected(workload: str, calls: Counter) -> list[str]:
    """Names of expected spans that never fired."""
    return [name for name in EXPECTED[workload] if not calls.get(name)]
