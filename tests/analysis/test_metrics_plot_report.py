"""Tests for repro.analysis: metrics, ASCII plotting, reporting."""

import math

import numpy as np
import pytest

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.metrics import (
    burst_count,
    mean_outside_regions,
    psnr_advantage,
    utilization_statistics,
)
from repro.analysis.report import comparison_table, format_summary, markdown_table
from repro.sim.results import FrameRecord, RunResult


def make_run(label, specs, period=100.0):
    """specs: list of (cycles_or_None, psnr); None = skipped."""
    run = RunResult(label=label, period=period, buffer_capacity=1)
    for index, (cycles, psnr) in enumerate(specs):
        if cycles is None:
            run.frames.append(FrameRecord(
                index=index, is_iframe=False, skipped=True,
                arrival=index * period, motion=0.5, psnr=psnr,
            ))
        else:
            run.frames.append(FrameRecord(
                index=index, is_iframe=False, skipped=False,
                arrival=index * period, motion=0.5,
                start=index * period, end=index * period + cycles,
                budget=period, encode_cycles=cycles,
                mean_quality=3.0, min_quality=3, max_quality=3, psnr=psnr,
            ))
    return run


class TestBurstCount:
    def test_empty(self):
        assert burst_count([]) == 0

    def test_single_burst(self):
        assert burst_count([10, 12, 15]) == 1

    def test_two_bursts(self):
        assert burst_count([10, 12, 200, 205], max_gap=30) == 2

    def test_gap_threshold(self):
        assert burst_count([10, 45], max_gap=30) == 2
        assert burst_count([10, 35], max_gap=30) == 1

    def test_unsorted_input(self):
        assert burst_count([205, 10, 200, 12], max_gap=30) == 2


class TestMeanOutsideRegions:
    def test_exclusion(self):
        values = [10.0, 20.0, 30.0]
        assert mean_outside_regions(values, {1}) == 20.0

    def test_nan_dropped(self):
        values = [10.0, math.nan, 30.0]
        assert mean_outside_regions(values, set()) == 20.0

    def test_all_excluded_is_nan(self):
        assert math.isnan(mean_outside_regions([1.0], {0}))


class TestPsnrAdvantage:
    def test_split_by_region(self):
        controlled = make_run("c", [(90, 36.0), (90, 33.0), (90, 36.0), (90, 36.0)])
        baseline = make_run("b", [(90, 34.0), (None, 20.0), (90, 35.0), (90, 34.0)])
        comparison = psnr_advantage(controlled, baseline, margin=1)
        # region = {0, 1, 2}; outside = {3}
        assert comparison.advantage_outside == pytest.approx(2.0)
        # inside, all frames: (36+33+36)/3 - (34+20+35)/3
        assert comparison.advantage_inside == pytest.approx(35.0 - 89.0 / 3)
        # inside, baseline-encoded frames only: indices {0, 2}
        assert comparison.advantage_inside_encoded == pytest.approx(36.0 - 34.5)
        assert comparison.baseline_skip_count == 1
        assert comparison.region_size == 3


class TestUtilizationStatistics:
    def test_stats(self):
        run = make_run("u", [(50, 35.0), (100, 35.0), (150, 35.0)])
        stats = utilization_statistics(run)
        assert stats.mean == pytest.approx(1.0)
        assert stats.median == pytest.approx(1.0)
        assert stats.above_budget_frames == 1

    def test_empty(self):
        run = make_run("e", [(None, 20.0)])
        stats = utilization_statistics(run)
        assert math.isnan(stats.mean)


class TestAsciiPlot:
    def test_contains_legend_and_axis(self):
        chart = ascii_plot({"alpha": [1, 2, 3], "beta": [3, 2, 1]}, title="T")
        assert "T" in chart
        assert "* alpha" in chart
        assert "o beta" in chart
        assert "frame 0 .. 2" in chart

    def test_nan_leaves_gaps(self):
        chart = ascii_plot({"s": [1.0, math.nan, 1.0]}, width=3, height=3)
        rows = [line for line in chart.splitlines() if "|" in line]
        marks = sum(row.count("*") for row in rows)
        assert marks == 2  # the NaN column stays blank

    def test_empty_series(self):
        assert ascii_plot({}) == "(no data)"

    def test_y_limits_respected(self):
        chart = ascii_plot({"s": [5.0]}, y_min=0.0, y_max=10.0)
        assert "10" in chart and "0" in chart

    def test_resampling_long_series(self):
        chart = ascii_plot({"s": list(range(1000))}, width=50)
        assert "frame 0 .. 999" in chart


class TestReport:
    def test_format_summary_mentions_key_fields(self):
        run = make_run("myrun", [(90, 35.0)])
        text = format_summary(run)
        assert "myrun" in text
        assert "mean_psnr" in text

    def test_comparison_table_aligned(self):
        a = make_run("short", [(90, 35.0)])
        b = make_run("a-much-longer-label", [(90, 30.0)])
        table = comparison_table([a, b])
        lines = table.splitlines()
        assert len({len(line) for line in lines if line}) == 1  # equal widths
        assert "short" in table and "a-much-longer-label" in table

    def test_markdown_table(self):
        table = markdown_table(["a", "b"], [[1, 2], [3, 4]])
        assert table.splitlines()[0] == "| a | b |"
        assert "| 3 | 4 |" in table


class TestFleetReporting:
    def test_jain_fairness_index(self):
        from repro.analysis.metrics import jain_fairness_index

        assert jain_fairness_index([3.0, 3.0, 3.0, 3.0]) == pytest.approx(1.0)
        assert jain_fairness_index([1.0, 0.0]) == pytest.approx(0.5)
        assert math.isnan(jain_fairness_index([]))
        # nans count as zero shares, not missing data
        assert jain_fairness_index([1.0, float("nan")]) == pytest.approx(0.5)

    def test_fleet_table_renders_arbiters(self):
        from repro.analysis.report import serving_table
        from repro.streams import EqualShareArbiter, FleetRunner, steady_fleet

        scenario = steady_fleet(2, frames=4, scale=27)
        result = FleetRunner(
            scenario.total_demand(), EqualShareArbiter()
        ).run(scenario)
        table = serving_table([result])
        lines = table.splitlines()
        assert "equal-share" in table
        assert "fair(q)" in lines[0]
        assert len({len(line) for line in lines if line}) == 1  # aligned

    def test_fleet_stream_table_lists_streams(self):
        from repro.analysis.report import stream_table
        from repro.streams import EqualShareArbiter, FleetRunner, steady_fleet

        scenario = steady_fleet(2, frames=4, scale=27)
        result = FleetRunner(
            scenario.total_demand(), EqualShareArbiter()
        ).run(scenario)
        table = stream_table(result)
        assert "steady-0" in table and "steady-1" in table
        assert table.splitlines()[0].startswith("| stream |")
