"""Pre-drawn per-clip execution times: the state side of the engine split.

The scalar session used to draw each frame's stochastic action times
*while encoding it* (~10 generator calls per frame, on the hot path,
interleaved with scheduling).  :func:`draw_times` instead draws the
**entire clip's** times once, at session construction, into dense
arrays:

* ``grab``  — ``(frames, macroblocks)`` Grab times,
* ``me``    — ``(frames, macroblocks, levels)`` Motion_Estimate times
  for every quality level (I-frames hold the intra cost in every
  column, mirroring :meth:`EncoderSimulation._draw_frame_times`),
* ``post``  — ``(frames, macroblocks)`` summed post-ME action times.

A :class:`FrameTimeBank` keeps only the fused arrays the decision
kernels read (see the :mod:`repro.engine.kernel` contract), so neither
executor adds the per-macroblock constants on the hot path:

* ``grab_plus`` — ``2.0 * overhead + grab``,
* ``me_plus``   — ``me + (7.0 * overhead + post)`` broadcast over
  levels.

The raw draws are fused in place and dropped.  The fusing adds take
the operands the kernels used to add per call, in the same order up to
commutativity (which IEEE addition has), so the elapsed-time chain is
bit-for-bit unchanged.  Both the scalar and the batched kernels read
the same bank, so cross-engine bit-identity of the stochastic inputs is
structural: there is exactly one draw per (frame, macroblock, action),
made before any engine runs.

Draw order is part of the determinism contract (same config + salt =>
same bank, independent of scheduling): per bulk pass over the whole
clip — (1) macroblock motion normals, (2) Grab betas, (3) post-ME betas
in ``_POST_ME_ACTIONS`` order with the compress motion scaling,
(4) Motion_Estimate betas per level in quality order, (5) I-frame rows
overwritten by intra draws in frame order.  Deterministic distributions
(``Cav == Cwc``) consume no randomness, exactly like ``sample_many``.

Unlike the per-frame scheme, the bank draws times for *every* frame of
the clip, including frames the timeline later skips — which is what
makes the draws independent of scheduling (and hence of the engine).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.sim.encoder_loop import _POST_ME_ACTIONS
from repro.video.pipeline import COMPRESS_ACTION, GRAB_ACTION


def draw_times(
    simulation, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one clip's raw ``(grab, me, post)`` arrays (writable).

    ``simulation`` is the session's (shared) :class:`EncoderSimulation`;
    it supplies the clip contents, the per-action time distributions,
    and the config's motion/load parameters, and is only read.  ``rng``
    is the session-private timing generator (salted by stream id),
    consumed here in the module's draw order.
    """
    cfg = simulation.config
    contents = simulation.contents
    levels = simulation._levels
    frames = len(contents)
    count = cfg.macroblocks
    total = frames * count

    # (1) per-macroblock motion around each frame's activity, the
    # bulk form of video.content.macroblock_motion
    frame_motion = np.asarray(
        [content.motion_activity for content in contents], dtype=np.float64
    )
    mb_motion = np.clip(
        rng.normal(frame_motion[:, None], cfg.motion_spread, size=(frames, count)),
        0.02,
        0.98,
    )
    scales = cfg.load_model.scales(mb_motion)

    # (2) Grab, (3) post-ME sum with compress scaled by motion
    fixed = simulation._fixed_dists
    grab = fixed[GRAB_ACTION].sample_many(rng, total).reshape(frames, count)
    post = np.zeros((frames, count))
    compress_scale = 0.8 + cfg.compress_motion_slope * mb_motion
    for action in _POST_ME_ACTIONS:
        action_scales = (
            compress_scale.ravel() if action == COMPRESS_ACTION else 1.0
        )
        post += fixed[action].sample_many(rng, total, action_scales).reshape(
            frames, count
        )

    # (4) Motion_Estimate per level; (5) I-frames run intra at the
    # minimum-level cost whatever the controller asks for
    me_dists = simulation._me_dists
    flat_scales = scales.ravel()
    me = np.stack(
        [
            me_dists[q].sample_many(rng, total, flat_scales).reshape(frames, count)
            for q in levels
        ],
        axis=2,
    )
    iframe_rows = [f for f, content in enumerate(contents) if content.is_iframe]
    if iframe_rows:
        qmin = simulation.quality_set.qmin
        intra = me_dists[qmin].sample_many(
            rng, len(iframe_rows) * count
        ).reshape(len(iframe_rows), count)
        me[iframe_rows] = intra[:, :, None]
    return grab, me, post


class FrameTimeBank:
    """The fused stochastic action times for one session's clip.

    Built from :func:`draw_times` of ``simulation`` and ``rng``; holds
    only ``grab_plus`` and ``me_plus`` (read-only) plus their shape.
    """

    __slots__ = ("grab_plus", "me_plus", "frames", "macroblocks")

    def __init__(self, simulation, rng: np.random.Generator) -> None:
        grab, me, post = draw_times(simulation, rng)
        overhead = simulation.config.decision_overhead
        # the kernels' fused constants, folded in once at build time,
        # in place on the raw draws: x + c == c + x in IEEE arithmetic,
        # so the elapsed chain is bit-identical (see repro.engine.kernel)
        grab += 2.0 * overhead
        post += 7.0 * overhead
        me += post[:, :, None]
        for array in (grab, me):
            array.setflags(write=False)
        self.grab_plus = grab
        self.me_plus = me
        self.frames, self.macroblocks = grab.shape

    def frame_lists(self, frame: int) -> tuple[list, list]:
        """One frame's fused ``(grab_plus, me_plus)`` rows as Python lists.

        The scalar kernel's tight loop indexes lists, not arrays (array
        scalar extraction is ~5x slower per element); ``tolist()``
        preserves the exact IEEE doubles, so both kernels consume
        identical values.
        """
        return (
            self.grab_plus[frame].tolist(),
            self.me_plus[frame].tolist(),
        )


@lru_cache(maxsize=1024)
def bank_for(config, salt: str) -> FrameTimeBank:
    """The (shared, read-only) bank for one config and rng salt.

    The draws are a pure function of ``(config, salt)`` and the arrays
    are write-protected, so sessions recreated across runs — back-to-
    back benches, engine comparisons, ``reset()``-then-rerun — reuse
    one bank instead of re-drawing the whole clip.  Cleared by
    :func:`repro.sim.runner.reset_caches`.
    """
    from repro.sim.runner import simulation_for

    simulation = simulation_for(config)
    return FrameTimeBank(simulation, simulation._rng(salt))
