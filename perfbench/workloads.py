"""The benchmark's frozen workloads and the output fingerprint.

Every spec is a literal here, never imported from ``examples/`` or the
pytest benches, so editing an example cannot silently change what the
benchmark measures.  ``spec_for`` copies a spec and sets the scenario's
``seed`` kwarg (except on the fixed-seed diurnal trace);
``reference_engine`` names the kernel whose output every timed serve
must match.

This module imports nothing from ``repro``: worker processes load it
before their timed ``import repro``.
"""

from __future__ import annotations

import copy
import hashlib
import json

#: One literal ``ServingSpec`` document per workload.
SPECS = {
    # 256 homogeneous streams in a 0.7-utilization pool: every
    # ``batch_decide`` call carries 256 lanes; no cluster tier, no
    # observers.
    "fleet-steady-256": {
        "topology": "fleet",
        "scenario": {
            "name": "steady",
            "kwargs": {"count": 256, "frames": 12, "scale": 2, "seed": 7},
        },
        "capacity": {"utilization": 0.7},
        "arbiter": "quality-fair",
        "admission": "feasibility",
        "granularity": 1,
        "engine": "vectorized",
    },
    # The autoscaled always-on deployment: 3x diurnal swing over a 2->6
    # shard cluster, SLA classes, a gold SLO and the full observer stack
    # (the invariant ledger in enforce mode).
    "diurnal-slo": {
        "topology": "cluster",
        "scenario": {
            "name": "diurnal-cluster",
            "kwargs": {
                "base_rate": 0.25,
                "peak": 0.75,
                "period_rounds": 100,
                "loop_frames": 24,
                "scale": 20,
                "seed": 11,
                "classes": ["gold", "bronze"],
                "shards": 2,
                "provision_concurrency": 8.0,
            },
        },
        "placement": "least-loaded",
        "balancer": "headroom",
        "arbiter": "sla-weighted",
        "admission": {"name": "priority", "kwargs": {"queue_limit": 4}},
        "renegotiation": {
            "name": "step",
            "kwargs": {"patience": 2, "recovery_patience": 2, "step": 0.15},
        },
        "service_classes": ["gold", "bronze"],
        "engine": "vectorized",
        "max_rounds": 300,
        "slos": [
            {
                "name": "gold-quality",
                "objective": "quality",
                "service_class": "gold",
                "threshold": 0.35,
                "target": 0.95,
                "fast_window": 15,
                "slow_window": 60,
                "burn_threshold": 2.0,
            }
        ],
        "autoscaler": {
            "name": "signal",
            "kwargs": {
                "window": 10,
                "cooldown": 10,
                "sustain": 1,
                "up_pressure": 0.22,
                "min_shards": 2,
                "max_shards": 6,
                "down_utilization": 0.5,
                "down_quality": 5.0,
            },
        },
        "observers": [
            {"name": "trace"},
            {"name": "invariants", "kwargs": {"enforce": True}},
            {"name": "events"},
            {"name": "telemetry"},
        ],
    },
    # 512 heavy/light streams on 8 unequal shards with placement,
    # migration and lending; ``engine`` is left to the spec default.
    "cluster-skewed-512": {
        "topology": "cluster",
        "scenario": {
            "name": "skewed-cluster",
            "kwargs": {"streams": 512, "shards": 8, "seed": 7},
        },
        "placement": "best-fit",
        "migration": "load-balance",
        "balancer": "headroom",
        "arbiter": "quality-fair",
        "admission": "feasibility",
    },
}

WORKLOADS = tuple(SPECS)

#: Workloads whose scenario seed stays at the frozen default whatever
#: ``--seed`` says.  The diurnal trace's offered load moves with its
#: seed (served frames ranged 4977-7650 over seeds 1-10, and warm
#: throughput by a third between seeds), which no run-to-run bound
#: could absorb; it is served as one fixed trace.
FIXED_SEED = frozenset({"diurnal-slo"})


def spec_for(workload: str, seed: int | None = None) -> dict:
    """A private copy of the workload's spec, seeded.

    ``seed=None`` keeps the frozen default (7 for the steady and skewed
    workloads); the diurnal workload always keeps its default, 11.
    """
    spec = copy.deepcopy(SPECS[workload])
    if seed is not None and workload not in FIXED_SEED:
        spec["scenario"]["kwargs"]["seed"] = seed
    return spec


def reference_engine(spec: dict) -> str:
    """The reference kernel: scalar, or vectorized for a scalar workload.

    A spec without ``engine`` runs the spec default, which is scalar.
    """
    return "vectorized" if spec.get("engine", "scalar") == "scalar" else "scalar"


def fingerprint(result) -> str:
    """Canonical JSON of what every serve of one spec must reproduce.

    ``summary()`` and the per-class breakdown field for field, plus the
    SHA-256 of the run's ``StructuredEventLog`` JSONL when one is
    attached.  NaN serializes as a literal token, so NaN equals NaN.
    """
    from repro.obs import StructuredEventLog

    logs = [o for o in result.observers if isinstance(o, StructuredEventLog)]
    document = {
        "summary": result.summary(),
        "per_class": result.per_class(),
        "events_sha256": [
            hashlib.sha256(log.to_jsonl().encode()).hexdigest() for log in logs
        ],
    }
    return json.dumps(document, sort_keys=True, allow_nan=True)


def violations(result) -> int:
    """Invariant violations recorded by any attached ledger."""
    return sum(
        len(getattr(observer, "violations", ()))
        for observer in result.observers
    )


def qos(result, spec: dict) -> dict:
    """The simulated QoS the end-to-end metrics report.

    Deterministic under the seed.  The top class is the first class the
    spec declares (gold on diurnal-slo); a spec that declares none has
    one class, every stream.
    """
    frames = result.total_frames()
    per_class = result.per_class()
    declared = spec.get("service_classes") or []
    top = per_class[declared[0]] if declared else None
    return {
        "acceptance": result.acceptance_ratio,
        "mean_quality": result.mean_quality(),
        "fairness_jain": result.fairness_quality(),
        "encoded_ratio": 1.0 - result.total_skips() / frames,
        "deadline_met_ratio": 1.0 - result.total_deadline_misses() / frames,
        "top_class_acceptance": (
            result.acceptance_ratio if top is None else top["acceptance_ratio"]
        ),
        "top_class_quality": (
            result.mean_quality() if top is None else top["mean_quality"]
        ),
        "frames": frames,
        "skip_ratio": result.total_skips() / frames,
        "deadline_miss_ratio": result.total_deadline_misses() / frames,
    }
