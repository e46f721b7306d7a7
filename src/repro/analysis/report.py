"""Plain-text reporting helpers for benches and EXPERIMENTS.md."""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.sim.results import RunResult


def format_summary(result: RunResult) -> str:
    """One run's headline numbers as aligned text."""
    summary = result.summary()
    lines = [f"run: {summary['label']}"]
    for key in (
        "frames", "encoded", "skipped", "deadline_misses", "mean_psnr",
        "mean_psnr_encoded_only", "mean_utilization", "mean_quality",
        "quality_smoothness", "controller_overhead",
    ):
        lines.append(f"  {key:>24}: {summary[key]}")
    return "\n".join(lines)


def comparison_table(results: Sequence[RunResult]) -> str:
    """Side-by-side table of several runs (the per-figure bench output)."""
    columns = (
        ("label", "label", "s"),
        ("skips", "skipped", "d"),
        ("misses", "deadline_misses", "d"),
        ("PSNR", "mean_psnr", ".2f"),
        ("PSNR(enc)", "mean_psnr_encoded_only", ".2f"),
        ("util", "mean_utilization", ".3f"),
        ("q", "mean_quality", ".2f"),
        ("smooth", "quality_smoothness", ".3f"),
        ("ovh", "controller_overhead", ".4f"),
    )
    rows = [[_format(result.summary()[key], spec) for _, key, spec in columns]
            for result in results]
    headers = [name for name, _, _ in columns]
    return _aligned_table(headers, rows)


def _aligned_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Column-aligned plain-text table (shared renderer)."""
    widths = [
        max([len(h)] + [len(row[i]) for row in rows])
        for i, h in enumerate(headers)
    ]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    for row in rows:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(out)


def _format(value, spec: str) -> str:
    if spec == "s":
        return str(value)
    if spec == "d":
        return str(int(value))
    return format(float(value), spec)


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """A GitHub-markdown table (EXPERIMENTS.md fragments)."""
    out = ["| " + " | ".join(str(h) for h in headers) + " |"]
    out.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        out.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(out)


def describe_runs(runs: Mapping[str, RunResult]) -> str:
    """Comparison table over a named run dictionary."""
    return comparison_table(list(runs.values()))


def serving_table(results: Sequence) -> str:
    """Side-by-side serving metrics for several runs, fleet or cluster.

    ``results`` are :class:`~repro.streams.fleet.ServingResult` objects
    from either runner or from ``serve()``.  The policy columns come
    from the names each result stores, so hand-wired and served runs
    render the same; a fleet shows its pool's arbiter and ``none`` for
    the cluster policies.
    """
    columns = (
        ("scenario", "scenario", "s"),
        ("topology", "topology", "s"),
        ("arbiter", "arbiter", "s"),
        ("placement", "placement", "s"),
        ("migration", "migration", "s"),
        ("balancer", "balancer", "s"),
        ("served", "served", "d"),
        ("rej", "rejected", "d"),
        ("accept", "acceptance_ratio", ".3f"),
        ("frames", "frames", "d"),
        ("skips", "skips", "d"),
        ("misses", "deadline_misses", "d"),
        ("moves", "migrations", "d"),
        ("q", "mean_quality", ".2f"),
        ("PSNR", "mean_psnr", ".2f"),
        ("fair(q)", "fairness_quality", ".3f"),
        ("fair(pool)", "fairness_cross_shard", ".3f"),
        ("imbalance", "load_imbalance", ".2f"),
    )
    rows = []
    for result in results:
        summary = result.summary()
        summary.update(
            arbiter="/".join(
                dict.fromkeys(pool.arbiter_name for pool in result.pools)
            ),
            placement=result.placement_name,
            migration=result.migration_name,
            balancer=result.balancer_name,
            migrations=result.migration_count,
            fairness_cross_shard=result.fairness_cross_shard(),
            load_imbalance=result.load_imbalance(),
        )
        rows.append([_format(summary[key], spec) for _, key, spec in columns])
    headers = [name for name, _, _ in columns]
    return _aligned_table(headers, rows)


def pool_table(result) -> str:
    """Per-pool breakdown of one serving run plus an aggregate row.

    Each row is labelled with its pool's shard id (``-`` for a fleet's
    single pool), so autoscaled ``scale-N`` pools and retired pools
    keep their real names.
    """
    headers = [
        "pool", "cap(M)", "served", "rej", "peak", "frames", "skips",
        "q", "fair(q)",
    ]
    rows = [
        [
            entry["shard"] or "-",
            f"{entry['capacity'] / 1e6:.1f}",
            str(entry["served"]),
            str(entry["rejected"]),
            str(entry["peak_concurrency"]),
            str(entry["frames"]),
            str(entry["skips"]),
            _format(entry["mean_quality"], ".2f"),
            _format(entry["fairness_quality"], ".3f"),
        ]
        for entry in result.per_pool()
    ]
    rows.append([
        "all",
        f"{sum(pool.capacity for pool in result.pools) / 1e6:.1f}",
        str(result.served_count),
        str(result.rejected_count),
        "-",
        str(result.total_frames()),
        str(result.total_skips()),
        _format(result.mean_quality(), ".2f"),
        _format(result.fairness_quality(), ".3f"),
    ])
    return _aligned_table(headers, rows)


def sla_table(result, classes=None) -> str:
    """Per-service-class breakdown of one serving run.

    ``result`` is a :class:`~repro.streams.fleet.ServingResult` of
    either topology.  ``classes`` (a mapping of name to
    :class:`~repro.sla.classes.ServiceClass`, e.g. from
    :func:`repro.sla.resolve_classes`) adds each class's weight
    and normalized target columns; a final row aggregates the run and
    reports the cross-class Jain fairness.
    """
    headers = [
        "class", "weight", "target", "served", "rej", "preempt",
        "accept", "q", "fair(q)", "reneg",
    ]
    breakdown = result.per_class()
    rows = []
    for name, entry in breakdown.items():
        cls = classes.get(name) if classes else None
        rows.append([
            name,
            f"{cls.weight:.1f}" if cls else "-",
            f"{cls.target_quality:.2f}" if cls else "-",
            str(entry["served"]),
            str(entry["rejected"]),
            str(entry["preempted"]),
            f"{entry['acceptance_ratio']:.3f}",
            _format(entry["mean_quality"], ".2f"),
            _format(entry["fairness_quality"], ".3f"),
            str(entry["renegotiations"]),
        ])
    summary = result.summary()
    rows.append([
        "all", "-", "-",
        str(summary["served"]),
        str(summary["rejected"]),
        str(summary["preempted"]),
        f"{summary['acceptance_ratio']:.3f}",
        _format(summary["mean_quality"], ".2f"),
        _format(result.fairness_cross_class(), ".3f"),
        str(summary["renegotiations"]),
    ])
    return _aligned_table(headers, rows)


def timeline_table(events, limit: int | None = None) -> str:
    """A structured event log rendered as a per-event timeline.

    ``events`` is a sequence of :class:`repro.obs.events.Event` records
    (``StructuredEventLog.events`` or :func:`repro.obs.load_events` on
    a JSONL file); ``limit`` keeps only the last N events.  Each row
    shows the round, pool, event kind, subject stream, and a
    kind-specific detail column.
    """
    events = list(events)
    if limit is not None:
        events = events[-limit:]
    rows = []
    for event in events:
        detail = "-"
        kind = event.kind
        if kind == "capacity":
            detail = f"capacity={event.capacity / 1e6:.1f}M"
        elif kind == "round":
            granted = sum(event.allocations.values())
            detail = (
                f"streams={len(event.allocations)} "
                f"granted={granted / 1e6:.1f}M/"
                f"{event.capacity / 1e6:.1f}M"
            )
        elif kind == "admit":
            detail = f"class={event.service_class or '-'} w={event.weight:.1f}"
        elif kind == "reject":
            detail = (
                f"class={event.service_class or '-'} "
                f"arrived={event.arrival_round}"
            )
        elif kind == "preempt":
            detail = f"class={event.service_class or '-'}"
        elif kind == "migrate":
            detail = f"-> {event.dest} ({event.move_kind})"
        elif kind == "renegotiate":
            detail = f"{event.old_target:.2f} -> {event.new_target:.2f}"
        elif kind == "depart":
            q = event.mean_quality
            detail = (
                f"frames={event.frames} skips={event.skips} "
                f"q={'-' if q is None else format(q, '.2f')}"
            )
        rows.append([
            str(event.round),
            event.shard or "-",
            kind,
            getattr(event, "stream", "-") or "-",
            detail,
        ])
    return _aligned_table(["round", "pool", "event", "stream", "detail"], rows)


def telemetry_table(windows: Sequence[Mapping]) -> str:
    """Closed telemetry windows as one row each.

    ``windows`` is ``TelemetryObserver.windows`` (each a plain summary
    dict); pass ``observer.windows + [observer.current()]`` to include
    the live window.
    """
    def opt(value, spec):
        return "-" if value is None else format(value, spec)

    rows = [
        [
            f"{w['start_round']}..{w['end_round']}",
            str(w["admitted"]),
            str(w["rejected"]),
            str(w["preempted"]),
            str(w["departed"]),
            f"{w['acceptance']:.3f}",
            f"{w['renegotiation_density']:.2f}",
            opt(w["mean_quality"], ".2f"),
            opt(w["min_quality"], ".2f"),
            opt(w["fairness_per_class"], ".3f"),
            opt(w["utilization"], ".3f"),
        ]
        for w in windows
    ]
    headers = [
        "rounds", "adm", "rej", "pre", "dep", "accept", "reneg/r",
        "q", "q_min", "fair", "util",
    ]
    return _aligned_table(headers, rows)


def invariant_table(observer) -> str:
    """An invariant ledger (``InvariantObserver``) as a pass/fail table."""
    rows = [
        [
            name,
            "ok" if entry["holds"] else "VIOLATED",
            str(entry["violations"]),
            entry["description"],
        ]
        for name, entry in observer.ledger().items()
    ]
    return _aligned_table(["invariant", "status", "count", "description"], rows)


def slo_table(reports) -> str:
    """End-of-run SLO error budgets as one row per objective.

    ``reports`` is a sequence of :class:`repro.obs.slo.SloReport`
    (``SloObserver.reports()`` or
    ``ServingResult.slo_reports()``).  ``budget`` is the fraction of
    the run's error budget still unspent (negative = overspent);
    ``ttfb`` is the round the first burn-rate alert fired.
    """
    def opt(value, spec):
        return "-" if value is None else format(value, spec)

    rows = [
        [
            report.name,
            report.objective,
            report.service_class or "-",
            opt(report.threshold, ".2f"),
            f"{report.target:.3f}",
            str(report.units),
            str(report.bad_units),
            f"{report.budget_remaining:.3f}",
            str(report.alerts),
            opt(report.time_to_first_burn, "d"),
            f"{report.worst_fast_burn:.1f}/{report.worst_slow_burn:.1f}",
            "ok" if report.met else "MISSED",
        ]
        for report in reports
    ]
    headers = [
        "slo", "objective", "class", "thresh", "target", "units", "bad",
        "budget", "alerts", "ttfb", "burn(f/s)", "status",
    ]
    return _aligned_table(headers, rows)


def trace_table(traces, limit: int | None = None) -> str:
    """Per-session causal traces as one row per session.

    ``traces`` is a sequence of :class:`repro.obs.tracing.TraceRecord`
    (``TraceObserver.records()``, ``ServingResult.traces()``, or
    :func:`repro.obs.load_traces` on a JSONL file); ``limit`` keeps
    only the first N sessions.  ``causes`` counts spans carrying a
    causal link to a capacity or scale event.
    """
    traces = list(traces)
    if limit is not None:
        traces = traces[:limit]
    rows = []
    for trace in traces:
        kinds: dict[str, int] = {}
        caused = 0
        for span in trace.spans:
            kinds[span.kind] = kinds.get(span.kind, 0) + 1
            if span.attrs.get("cause"):
                caused += 1
        depart = next(
            (s for s in trace.spans if s.kind == "depart"), None
        )
        quality = depart.attrs.get("mean_quality") if depart else None
        rows.append([
            trace.stream,
            trace.service_class or "-",
            str(trace.arrival_round),
            trace.outcome,
            str(len(trace.spans)),
            " ".join(
                f"{kind}:{kinds[kind]}" for kind in sorted(kinds)
            ),
            str(caused),
            "-" if quality is None else format(quality, ".2f"),
        ])
    headers = [
        "stream", "class", "arrived", "outcome", "spans", "kinds",
        "causes", "q",
    ]
    return _aligned_table(headers, rows)


def incident_table(incidents) -> str:
    """Attributed incidents: one row per fired alert per ranked cause.

    ``incidents`` is a sequence of
    :class:`repro.obs.attribution.Incident`
    (:func:`repro.obs.attribute_incidents` or
    ``ServingResult.incidents()``).
    """
    rows = []
    for incident in incidents:
        for i, cause in enumerate(incident.causes):
            rows.append([
                incident.slo if i == 0 else "",
                str(incident.alert_round) if i == 0 else "",
                (f"[{incident.window_start}, {incident.window_end}]"
                 if i == 0 else ""),
                f"{incident.burn_multiple:.1f}x" if i == 0 else "",
                cause.kind,
                f"{cause.share:.2f}",
                str(cause.units),
                cause.evidence,
            ])
    headers = [
        "slo", "alert", "window", "burn", "cause", "share", "units",
        "evidence",
    ]
    return _aligned_table(headers, rows)


def stream_table(result) -> str:
    """Per-stream breakdown of one serving run, fleet or cluster
    (label, pool, rounds, quality)."""
    rows = []
    for pool in result.pools:
        for outcome in pool.outcomes:
            run = outcome.result
            rows.append([
                outcome.spec.name,
                pool.shard_id or "-",
                outcome.admitted_round,
                outcome.finished_round,
                len(run),
                run.skip_count,
                f"{run.mean_quality():.2f}",
                f"{run.mean_psnr():.2f}",
            ])
    return markdown_table(
        ["stream", "pool", "admitted", "finished", "frames", "skips", "q",
         "PSNR"],
        rows,
    )
