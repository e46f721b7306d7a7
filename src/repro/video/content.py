"""Synthetic camera benchmark content.

Substitute for the paper's private 582-frame benchmark: "9 sequences
produced by a camera every P = 320 Mcycle".  The figures' dynamics are
driven by the content's statistics, which we model explicitly:

* per-sequence mean *motion activity* (drives Motion_Estimate effort
  and motion-compensation difficulty),
* per-sequence *texture variance* (drives residual energy and PSNR),
* scene cuts at sequence boundaries (encoded as I-frames — the paper's
  "eight jumps corresponding to changes of video sequences"),
* two deliberately high-motion sequences that overload constant-quality
  encoders (the paper's "two bursts of jumps corresponding to frame
  skips").

Per-frame motion follows an AR(1) process around the sequence mean so
load is bursty but autocorrelated, like real video.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SequenceSpec:
    """Statistical description of one camera sequence."""

    name: str
    frames: int
    motion: float
    texture: float
    motion_wobble: float = 0.07
    motion_persistence: float = 0.85

    def __post_init__(self) -> None:
        if self.frames <= 0:
            raise ConfigurationError(f"sequence {self.name!r} must have frames > 0")
        if not 0.0 <= self.motion <= 1.0:
            raise ConfigurationError(f"motion must be in [0, 1], got {self.motion}")
        if self.texture <= 0:
            raise ConfigurationError(f"texture variance must be positive")
        if not 0.0 <= self.motion_persistence < 1.0:
            raise ConfigurationError("motion_persistence must be in [0, 1)")


@dataclass(frozen=True)
class FrameContent:
    """Per-frame content descriptor consumed by timing and PSNR models."""

    index: int
    sequence: int
    frame_in_sequence: int
    is_scene_start: bool
    motion_activity: float
    texture_variance: float

    @property
    def is_iframe(self) -> bool:
        """Scene starts are intra-coded (I-frames)."""
        return self.is_scene_start


def paper_benchmark_sequences() -> tuple[SequenceSpec, ...]:
    """The 9-sequence, 582-frame benchmark layout.

    Sequences 3 and 6 (0-based) are the high-motion segments that
    produce the two frame-skip bursts for constant-quality encoders.
    """
    specs = (
        SequenceSpec("interview", 60, motion=0.25, texture=350.0),
        SequenceSpec("street_pan", 70, motion=0.35, texture=420.0),
        SequenceSpec("weather_map", 55, motion=0.20, texture=300.0),
        SequenceSpec("football", 75, motion=0.78, texture=520.0),
        SequenceSpec("newsroom", 65, motion=0.30, texture=380.0),
        SequenceSpec("traffic", 60, motion=0.40, texture=450.0),
        SequenceSpec("concert_crowd", 72, motion=0.82, texture=560.0),
        SequenceSpec("talking_head", 58, motion=0.30, texture=320.0),
        SequenceSpec("harbour", 67, motion=0.35, texture=400.0),
    )
    assert sum(s.frames for s in specs) == 582
    return specs


def generate_content(
    sequences: Sequence[SequenceSpec] | None = None,
    seed: int = 2005,
    limit: int | None = None,
) -> list[FrameContent]:
    """Expand sequence specs into per-frame content descriptors.

    ``limit`` stops generation after that many frames.  The AR(1) noise
    is drawn sequentially in frame order, so the truncated list is
    bit-identical to the prefix of the full benchmark — short-clip
    sessions (the fleet's common case) skip the unused tail's draws.
    """
    if sequences is None:
        sequences = paper_benchmark_sequences()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    frames: list[FrameContent] = []
    index = 0
    for seq_id, spec in enumerate(sequences):
        if limit is not None and index >= limit:
            break
        motion = spec.motion
        for k in range(spec.frames):
            if limit is not None and index >= limit:
                break
            if k == 0:
                motion = spec.motion
            else:
                noise = rng.normal(0.0, spec.motion_wobble)
                motion = (
                    spec.motion
                    + spec.motion_persistence * (motion - spec.motion)
                    + noise
                )
            motion = float(np.clip(motion, 0.02, 0.98))
            texture = float(
                spec.texture * np.clip(rng.normal(1.0, 0.05), 0.8, 1.2)
            )
            frames.append(
                FrameContent(
                    index=index,
                    sequence=seq_id,
                    frame_in_sequence=k,
                    is_scene_start=(k == 0),
                    motion_activity=motion,
                    texture_variance=texture,
                )
            )
            index += 1
    return frames


def mean_motion(frames: Sequence[FrameContent]) -> float:
    """Benchmark-wide mean motion activity (used to calibrate load)."""
    if not frames:
        raise ConfigurationError("no frames")
    return float(np.mean([f.motion_activity for f in frames]))


@dataclass(frozen=True)
class MotionLoadModel:
    """Maps motion activity to a Motion_Estimate mean-time scale.

    ``scale = base + slope * motion``; with the default benchmark
    (mean motion ~0.43) the expected scale is ~1, so the Fig. 5
    averages stay the benchmark-wide means while high-motion sequences
    push the encoder toward (never past) the worst case.
    """

    base: float = 0.55
    slope: float = 1.18

    def scale(self, motion_activity: float) -> float:
        return self.base + self.slope * motion_activity

    def scales(self, motion_activities: np.ndarray) -> np.ndarray:
        return self.base + self.slope * np.asarray(motion_activities)


def macroblock_motion(
    rng: np.random.Generator,
    frame_motion: float,
    macroblocks: int,
    spread: float = 0.08,
) -> np.ndarray:
    """Per-macroblock motion activity around the frame's activity."""
    values = rng.normal(frame_motion, spread, size=macroblocks)
    return np.clip(values, 0.02, 0.98)
