"""Tests for repro.video.pipeline: the Fig. 2 graph and Fig. 5 tables."""

import pytest

from repro.video.pipeline import (
    COMPRESS_ACTION,
    DEFAULT_MACROBLOCKS,
    ENCODER_QUALITY_LEVELS,
    FIXED_ACTION_TIMES,
    GRAB_ACTION,
    MACROBLOCK_ACTIONS,
    ME_ACTION,
    MOTION_ESTIMATE_TIMES,
    RECONSTRUCT_ACTION,
    macroblock_application,
    macroblock_graph,
    paper_timing_tables,
    per_macroblock_average_load,
    per_macroblock_worst_load,
)


class TestGraph:
    def test_nine_actions(self):
        graph = macroblock_graph()
        assert len(graph) == 9
        assert set(graph.actions) == set(MACROBLOCK_ACTIONS)

    def test_grab_is_the_only_source(self):
        assert macroblock_graph().sources() == (GRAB_ACTION,)

    def test_sinks_are_bitstream_and_reconstruction(self):
        assert set(macroblock_graph().sinks()) == {COMPRESS_ACTION, RECONSTRUCT_ACTION}

    def test_me_before_dct(self):
        graph = macroblock_graph()
        order = graph.topological_order()
        assert order.index(ME_ACTION) < order.index("Discrete_Cosine_Transform")

    def test_vocabulary_order_is_a_valid_schedule(self):
        graph = macroblock_graph()
        assert graph.is_schedule(list(MACROBLOCK_ACTIONS))


class TestFig5Tables:
    def test_published_me_values(self):
        # spot checks against the printed Fig. 5
        assert MOTION_ESTIMATE_TIMES[0] == (215.0, 1_000.0)
        assert MOTION_ESTIMATE_TIMES[3] == (95_000.0, 350_000.0)
        assert MOTION_ESTIMATE_TIMES[7] == (200_000.0, 1_500_000.0)

    def test_published_fixed_values(self):
        assert FIXED_ACTION_TIMES["Grab_Macro_Block"] == (12_000.0, 24_000.0)
        assert FIXED_ACTION_TIMES["Compress"] == (5_000.0, 50_000.0)
        assert FIXED_ACTION_TIMES["Discrete_Cosine_Transform"] == (16_000.0, 16_000.0)

    def test_tables_validate_definition_2_3(self):
        average, worst = paper_timing_tables()
        from repro.core.timing import QualityTimeTable

        QualityTimeTable.validate_bounds(average, worst)

    def test_only_motion_estimate_is_quality_sensitive(self):
        average, worst = paper_timing_tables()
        for action in MACROBLOCK_ACTIONS:
            sensitive = average.depends_on_quality(action) or worst.depends_on_quality(action)
            assert sensitive == (action == ME_ACTION)

    def test_per_macroblock_loads(self):
        # fixed actions sum: 12+16+6+4+5+4+20+10 = 77 kcycles
        assert per_macroblock_average_load(0) == 77_000.0 + 215.0
        assert per_macroblock_average_load(3) == 77_000.0 + 95_000.0
        assert per_macroblock_worst_load(0) == 175_000.0 + 1_000.0


class TestApplication:
    def test_default_macroblock_count_matches_pal_sd(self):
        assert DEFAULT_MACROBLOCKS == (720 // 16) * (576 // 16)

    def test_paper_operating_points(self):
        """The design-point calibration: q3 ~87 %, q4 ~95 % of P."""
        period = 320e6
        app = macroblock_application()
        assert app.average_cycle_load(3) / period == pytest.approx(0.87, abs=0.02)
        assert app.average_cycle_load(4) / period == pytest.approx(0.95, abs=0.02)
        # q5 is the last level that fits on average; q6 overloads
        assert app.average_cycle_load(5) <= period
        assert app.average_cycle_load(6) > period

    def test_qmin_worst_case_fits_the_period(self):
        """The Problem precondition holds for the paper's deployment."""
        app = macroblock_application()
        assert app.worst_cycle_load(0) <= 320e6

    def test_static_wcet_design_point_is_q0(self):
        """Classic WCET design caps at q=0 — the paper's motivation.

        Already q=1's worst-case frame load is 139 % of P; a designer
        forced to guarantee deadlines from Cwc alone must ship minimum
        quality and waste ~60 % of the budget on average.
        """
        app = macroblock_application()
        assert app.max_sustainable_quality(320e6, worst_case=True) == 0
        assert app.worst_cycle_load(1) > 320e6

    def test_small_application_system_validates(self):
        app = macroblock_application(macroblocks=10)
        system = app.system(budget=320e6 * 10 / 1620)
        assert system.is_valid()
        assert system.supports_precomputed_schedule()
