"""The paper's MPEG-4 macroblock application (Fig. 2 + Fig. 5).

Each frame is split into ``N`` macroblocks of 256 pixels (16x16); the
encoder iterates the 9-action body below once per macroblock.  Our
reading of the Fig. 2 precedence graph follows standard MPEG-4 encoder
dataflow::

    Grab_Macro_Block -> Motion_Estimate -> Discrete_Cosine_Transform
        -> Quantize -> Intra_Predict -> Compress          (bitstream path)
           Quantize -> Inverse_Quantize
        -> Inverse_Discrete_Cosine_Transform -> Reconstruct  (decode loop)

The execution-time tables are the paper's Fig. 5, verbatim, in CPU
cycles: ``Motion_Estimate`` is the only quality-dependent action
(8 levels, 0-7); every other action has a fixed average/worst-case
pair.

``N = 1620`` (PAL SD, 720x576 / 16x16 macroblocks) is the default
iteration count; with it the Fig. 5 tables land on the paper's
operating points against ``P = 320 Mcycles`` (average load ~87 % of
``P`` at q3, ~95 % at q4).
"""

from __future__ import annotations

from repro.core.action import QualitySet
from repro.core.cycles import CyclicApplication
from repro.core.precedence import PrecedenceGraph
from repro.core.timing import QualityTimeTable

#: Action names as printed in Fig. 2.
GRAB_ACTION = "Grab_Macro_Block"
ME_ACTION = "Motion_Estimate"
DCT_ACTION = "Discrete_Cosine_Transform"
QUANT_ACTION = "Quantize"
INTRA_ACTION = "Intra_Predict"
COMPRESS_ACTION = "Compress"
IQUANT_ACTION = "Inverse_Quantize"
IDCT_ACTION = "Inverse_Discrete_Cosine_Transform"
RECONSTRUCT_ACTION = "Reconstruct"

#: All 9 macroblock actions in pipeline order.
MACROBLOCK_ACTIONS: tuple[str, ...] = (
    GRAB_ACTION,
    ME_ACTION,
    DCT_ACTION,
    QUANT_ACTION,
    INTRA_ACTION,
    COMPRESS_ACTION,
    IQUANT_ACTION,
    IDCT_ACTION,
    RECONSTRUCT_ACTION,
)

#: Fig. 5 (top): Motion_Estimate (average, worst case) per quality level.
MOTION_ESTIMATE_TIMES: dict[int, tuple[float, float]] = {
    0: (215.0, 1_000.0),
    1: (30_000.0, 100_000.0),
    2: (50_000.0, 200_000.0),
    3: (95_000.0, 350_000.0),
    4: (110_000.0, 500_000.0),
    5: (120_000.0, 1_200_000.0),
    6: (150_000.0, 1_200_000.0),
    7: (200_000.0, 1_500_000.0),
}

#: Fig. 5 (bottom): quality-independent actions (average, worst case).
FIXED_ACTION_TIMES: dict[str, tuple[float, float]] = {
    GRAB_ACTION: (12_000.0, 24_000.0),
    DCT_ACTION: (16_000.0, 16_000.0),
    QUANT_ACTION: (6_000.0, 13_000.0),
    INTRA_ACTION: (4_000.0, 4_000.0),
    COMPRESS_ACTION: (5_000.0, 50_000.0),
    IQUANT_ACTION: (4_000.0, 5_000.0),
    IDCT_ACTION: (20_000.0, 50_000.0),
    RECONSTRUCT_ACTION: (10_000.0, 13_000.0),
}

#: The paper's quality levels for the encoder.
ENCODER_QUALITY_LEVELS = QualitySet.from_range(8)

#: Default macroblocks per frame (PAL SD 720x576).
DEFAULT_MACROBLOCKS = 1620


def macroblock_graph() -> PrecedenceGraph:
    """The Fig. 2 precedence graph of one macroblock."""
    return PrecedenceGraph.from_edges(
        [
            (GRAB_ACTION, ME_ACTION),
            (ME_ACTION, DCT_ACTION),
            (DCT_ACTION, QUANT_ACTION),
            (QUANT_ACTION, INTRA_ACTION),
            (INTRA_ACTION, COMPRESS_ACTION),
            (QUANT_ACTION, IQUANT_ACTION),
            (IQUANT_ACTION, IDCT_ACTION),
            (IDCT_ACTION, RECONSTRUCT_ACTION),
        ],
        actions=MACROBLOCK_ACTIONS,
    )


def paper_timing_tables() -> tuple[QualityTimeTable, QualityTimeTable]:
    """The Fig. 5 tables as (average, worst-case) QualityTimeTables."""
    quality_set = ENCODER_QUALITY_LEVELS
    av_entries: dict[str, object] = {
        ME_ACTION: {q: av for q, (av, _) in MOTION_ESTIMATE_TIMES.items()}
    }
    wc_entries: dict[str, object] = {
        ME_ACTION: {q: wc for q, (_, wc) in MOTION_ESTIMATE_TIMES.items()}
    }
    for action, (av, wc) in FIXED_ACTION_TIMES.items():
        av_entries[action] = av
        wc_entries[action] = wc
    return (
        QualityTimeTable(quality_set, av_entries),
        QualityTimeTable(quality_set, wc_entries),
    )


def macroblock_application(macroblocks: int = DEFAULT_MACROBLOCKS) -> CyclicApplication:
    """The encoder as a cyclic application: Fig. 2 body iterated N times."""
    average, worst = paper_timing_tables()
    return CyclicApplication(
        body=macroblock_graph(),
        iterations=macroblocks,
        quality_set=ENCODER_QUALITY_LEVELS,
        average_times=average,
        worst_times=worst,
    )


def per_macroblock_average_load(quality: int) -> float:
    """Average cycles for one macroblock with ME at ``quality``."""
    fixed = sum(av for av, _ in FIXED_ACTION_TIMES.values())
    return fixed + MOTION_ESTIMATE_TIMES[quality][0]


def per_macroblock_worst_load(quality: int) -> float:
    """Worst-case cycles for one macroblock with ME at ``quality``."""
    fixed = sum(wc for _, wc in FIXED_ACTION_TIMES.values())
    return fixed + MOTION_ESTIMATE_TIMES[quality][1]
