"""Tests for repro.experiments: paper constants and configurations."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.configs import (
    benchmark_config,
    full_config,
    scaled_config,
    tiny_config,
)
from repro.experiments.paper_data import PAPER


class TestPaperConstants:
    def test_section3_setup(self):
        assert PAPER.period == 320e6
        assert PAPER.frames == 582
        assert PAPER.sequences == 9
        assert PAPER.bitrate == 1.1e6
        assert PAPER.fps == 25.0
        assert PAPER.target_bits_per_frame == 44_000.0

    def test_period_consistent_with_clock_and_fps(self):
        """25 fps at 8 GHz is exactly 320 Mcycles per frame."""
        assert PAPER.clock_hz / PAPER.fps == PAPER.period

    def test_reported_overheads(self):
        assert PAPER.code_size_overhead == 0.02
        assert PAPER.memory_overhead == 0.01
        assert PAPER.runtime_overhead == 0.015

    def test_design_point_calibration(self):
        """The design-point calibration: q3 ~87 %, q4 ~95 %, q5 last fits."""
        assert PAPER.average_utilization(3) == pytest.approx(0.871, abs=0.005)
        assert PAPER.average_utilization(4) == pytest.approx(0.947, abs=0.005)
        assert PAPER.average_utilization(5) < 1.0
        assert PAPER.average_utilization(6) > 1.0

    def test_frame_loads_scale_with_macroblocks(self):
        assert PAPER.average_frame_load(3) == 1620 * 172_000.0
        assert PAPER.worst_frame_load(0) == 1620 * 176_000.0


class TestConfigs:
    def test_full_config_matches_paper(self):
        config = full_config()
        assert config.period == PAPER.period
        assert config.macroblocks == PAPER.macroblocks
        assert config.rate_control.bitrate == PAPER.bitrate
        assert config.buffer_capacity == 1

    def test_scaled_config_preserves_operating_points(self):
        full = full_config()
        scaled = scaled_config(scale=4)
        # per-frame load fraction of the period is scale-invariant
        full_ratio = PAPER.average_frame_load(3) / full.period
        scaled_load = PAPER.average_frame_load(3) * scaled.macroblocks / PAPER.macroblocks
        assert scaled_load / scaled.period == pytest.approx(full_ratio)
        # bits per pixel are preserved too
        assert (
            scaled.rate_control.bitrate / scaled.frame_pixels
            == pytest.approx(full.rate_control.bitrate / full.frame_pixels)
        )

    def test_scale_must_divide_macroblocks(self):
        with pytest.raises(ConfigurationError):
            scaled_config(scale=7)

    def test_tiny_config_is_small(self):
        config = tiny_config()
        assert config.macroblocks <= 100
        assert config.frames <= 100

    def test_benchmark_config_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert benchmark_config().macroblocks == PAPER.macroblocks
        monkeypatch.delenv("REPRO_FULL_SCALE")
        assert benchmark_config().macroblocks == PAPER.macroblocks // 4

    def test_configs_are_hashable_for_the_run_cache(self):
        {full_config(), scaled_config(4), tiny_config()}
