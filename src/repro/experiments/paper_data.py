"""Published constants from the paper's evaluation (section 3).

Everything numerical the paper states about its experimental setup, in
one place, so benches and docs quote a single source of truth.  The
Fig. 5 execution-time tables themselves live with the application model
in :mod:`repro.video.pipeline` (they are application data); this module
re-exports them for convenience.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.video.pipeline import (
    FIXED_ACTION_TIMES,
    MOTION_ESTIMATE_TIMES,
    per_macroblock_average_load,
    per_macroblock_worst_load,
)


@dataclass(frozen=True)
class PaperConstants:
    """Section 3's experimental constants."""

    #: frame period in cycles ("every P = 320 Mcycle")
    period: float = 320e6
    #: constant framerate (25 frame/s at 8 GHz)
    fps: float = 25.0
    #: processor clock (XiRisc at 8 GHz)
    clock_hz: float = 8e9
    #: benchmark length ("582 frames, consisting of 9 sequences")
    frames: int = 582
    sequences: int = 9
    #: target bitrate ("1.1 Mbit/s")
    bitrate: float = 1.1e6
    #: encoder source size ("more than 7000 loc" of C)
    encoder_loc: int = 7000
    #: quality levels of Motion_Estimate (Fig. 5)
    quality_levels: int = 8
    #: reported instrumentation overheads (section 3)
    code_size_overhead: float = 0.02
    memory_overhead: float = 0.01
    runtime_overhead: float = 0.015
    #: number of I-frame jumps / skip bursts visible in Figs. 6-9
    iframe_jumps: int = 8
    skip_bursts: int = 2
    #: skipped-frame PSNR bound ("e.g. lower than 25")
    skip_psnr_bound: float = 25.0
    #: macroblocks per frame — not stated in the paper; chosen so the
    #: Fig. 5 tables land on the paper's operating points (q3 ~87 %,
    #: q4 ~95 % of the period)
    macroblocks: int = 1620

    @property
    def target_bits_per_frame(self) -> float:
        return self.bitrate / self.fps

    def average_frame_load(self, quality: int) -> float:
        """Expected cycles per frame at a constant quality level."""
        return self.macroblocks * per_macroblock_average_load(quality)

    def worst_frame_load(self, quality: int) -> float:
        return self.macroblocks * per_macroblock_worst_load(quality)

    def average_utilization(self, quality: int) -> float:
        """Average load over P — the design-point calibration per quality."""
        return self.average_frame_load(quality) / self.period


PAPER = PaperConstants()

#: Re-exports of the Fig. 5 tables (defined with the application model).
FIG5_MOTION_ESTIMATE = MOTION_ESTIMATE_TIMES
FIG5_FIXED_ACTIONS = FIXED_ACTION_TIMES
