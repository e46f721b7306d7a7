"""Canonical JSON/JSONL helpers shared by every obs exporter.

Every artifact the observability layer writes — event logs, trace
logs, SLO reports, incidents, telemetry snapshots — goes through the
same two primitives so all of them share one determinism contract:

* :func:`clean_value` — JSON-safe copy (``NaN``/``inf`` become
  ``null``, tuples become lists, recursively);
* :func:`canonical_line` — one mapping as its canonical compact JSON
  line: sorted keys, no whitespace, ``allow_nan=False`` so a stray
  non-finite float is an error instead of silent invalid JSON.

Two identical runs produce byte-identical files regardless of
``PYTHONHASHSEED``; the cross-process determinism suite asserts it.

:func:`export_run` bundles every artifact a
:class:`~repro.streams.fleet.ServingResult`'s observers collected
into one directory (the CI incident artifacts are written this way).
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def clean_value(value):
    """JSON-safe copy: NaN/inf -> None, tuples -> lists, recursively.

    Float subclasses (``numpy.float64`` quality means reach span
    attributes) collapse to plain ``float`` so equality, ``repr``, and
    the serialized bytes are identical to a loaded round-trip.
    """
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: clean_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [clean_value(v) for v in value]
    return value


def canonical_line(mapping: dict) -> str:
    """One mapping as its canonical JSON line (no trailing newline)."""
    return json.dumps(
        clean_value(mapping), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )


def canonical_document(value, indent: int = 2) -> str:
    """A whole document (report files) with the same determinism
    contract as :func:`canonical_line`, but indented for humans."""
    return json.dumps(
        clean_value(value), sort_keys=True, indent=indent, allow_nan=False,
    )


def write_jsonl(path, mappings) -> Path:
    """Write an iterable of mappings as canonical JSONL."""
    path = Path(path)
    path.write_text(
        "".join(canonical_line(m) + "\n" for m in mappings)
    )
    return path


def export_run(result, directory) -> dict:
    """Dump every artifact ``result``'s observers collected.

    Writes (when the matching observer is attached):

    ======================  ==========================================
    ``events.jsonl``        :class:`~repro.obs.events.StructuredEventLog`
    ``trace.jsonl``         :class:`~repro.obs.tracing.TraceObserver`
    ``slo_report.json``     :class:`~repro.obs.slo.SloObserver` reports
    ``incidents.json``      attribution over the two observers above
    ``telemetry.json``      :class:`~repro.obs.metrics.TelemetryObserver`
    ======================  ==========================================

    Returns ``{artifact name: Path}`` for whatever was written.
    """
    from repro.obs.attribution import attribute_incidents
    from repro.obs.events import StructuredEventLog
    from repro.obs.metrics import TelemetryObserver
    from repro.obs.slo import SloObserver
    from repro.obs.tracing import TraceObserver

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    observers = getattr(result, "observers", result)
    first = {}
    for observer in observers:
        for cls in (
            StructuredEventLog, TelemetryObserver, SloObserver, TraceObserver,
        ):
            if isinstance(observer, cls) and cls not in first:
                first[cls] = observer

    written: dict[str, Path] = {}
    log = first.get(StructuredEventLog)
    if log is not None:
        path = directory / "events.jsonl"
        path.write_text(log.to_jsonl())
        written["events"] = path
    tracer = first.get(TraceObserver)
    if tracer is not None:
        path = directory / "trace.jsonl"
        path.write_text(tracer.to_jsonl())
        written["trace"] = path
    slo = first.get(SloObserver)
    if slo is not None:
        path = directory / "slo_report.json"
        path.write_text(canonical_document(
            [report.to_dict() for report in slo.reports()]
        ) + "\n")
        written["slo_report"] = path
    if slo is not None and tracer is not None:
        incidents = attribute_incidents(slo, tracer)
        path = directory / "incidents.json"
        path.write_text(canonical_document(
            [incident.to_dict() for incident in incidents]
        ) + "\n")
        written["incidents"] = path
    telemetry = first.get(TelemetryObserver)
    if telemetry is not None:
        path = directory / "telemetry.json"
        path.write_text(canonical_document(telemetry.snapshot()) + "\n")
        written["telemetry"] = path
    return written
