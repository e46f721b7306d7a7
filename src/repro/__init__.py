"""repro — reproduction of "Fine Grain QoS Control for Multimedia
Application Software" (Combaz, Fernandez, Lepley, Sifakis; DATE 2005).

The package implements the paper's QoS-control method in full —
precedence-graph application model, EDF scheduling, the
``Qual_Const_av`` / ``Qual_Const_wc`` quality constraints, the abstract
controller and its table-driven compiled form — plus every substrate
the evaluation depends on: a cycle-accounting platform simulator, a
synthetic MPEG-4-like encoder (analytic rate-distortion model and a
real pixel-level toy codec), frame buffering with skip-on-overflow,
rate control, and the baseline policies the paper compares against.

Quick start::

    from repro import mpeg4_encoder_application, TableDrivenController

    app = mpeg4_encoder_application(macroblocks=60)
    system = app.system(budget=12_000_000)
    controller = TableDrivenController(system)

Serving (the scaled-out layers) has one declarative entry point::

    import repro

    result = repro.serve({
        "scenario": {"name": "steady", "kwargs": {"count": 4}},
        "capacity": 64e6,
    })

See ``examples/quickstart.py``, ``examples/serving_spec.py``, and
README.md.
"""

from repro.core import (
    ControllerTables,
    CyclicApplication,
    DeadlineFunction,
    ParameterizedSystem,
    PrecedenceGraph,
    QualityAssignment,
    QualityDeadlineTable,
    QualitySet,
    QualityTimeTable,
    ReferenceController,
    TableDrivenController,
)

__version__ = "1.0.0"

__all__ = [
    "ControllerTables",
    "CyclicApplication",
    "DeadlineFunction",
    "ParameterizedSystem",
    "PolicySpec",
    "PrecedenceGraph",
    "QualityAssignment",
    "QualityDeadlineTable",
    "QualitySet",
    "QualityTimeTable",
    "ReferenceController",
    "RoundObserver",
    "ServiceClass",
    "ServingResult",
    "ServingSpec",
    "TableDrivenController",
    "__version__",
    "mpeg4_encoder_application",
    "serve",
]

#: Serving-layer names re-exported lazily (PEP 562) so importing the
#: core package stays light; ``repro.serve`` below is the entry point.
_SERVING_EXPORTS = (
    "PolicySpec",
    "RoundObserver",
    "ServingResult",
    "ServingSpec",
)

#: SLA-layer names re-exported lazily, same mechanism.
_SLA_EXPORTS = ("ServiceClass",)


def mpeg4_encoder_application(macroblocks: int = 1620) -> CyclicApplication:
    """The paper's MPEG-4 macroblock application (Fig. 2 graph, Fig. 5 tables).

    Convenience re-export of
    :func:`repro.video.pipeline.macroblock_application`.
    """
    from repro.video.pipeline import macroblock_application

    return macroblock_application(macroblocks)


def serve(spec, observers=()):
    """Run a declarative serving spec — fleet or cluster — end to end.

    The one serving entry point: ``spec`` is a
    :class:`~repro.serving.spec.ServingSpec`, its dict form, or a JSON
    string; returns a :class:`~repro.streams.fleet.ServingResult`.
    Convenience re-export of :func:`repro.serving.serve` (imported
    lazily — the serving layers load on first use).
    """
    from repro.serving import serve as serve_spec

    return serve_spec(spec, observers=observers)


def __getattr__(name: str):
    if name in _SERVING_EXPORTS:
        import repro.serving

        return getattr(repro.serving, name)
    if name in _SLA_EXPORTS:
        import repro.sla

        return getattr(repro.sla, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
