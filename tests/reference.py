"""Reference implementations that the tests check segnoise against.

Each is the slow, obvious form of what the package computes another
way: `corrupt_frame` corrupts one frame with its own RNG stream and k
whole morphology passes, which the stacked volume corruption must match
frame for frame; `loss` is 1 - f_beta, whose central differences check
the closed-form gradient that the trainer descends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from segnoise.metrics import f_beta
from segnoise.morphology import SizeChange, dilate, erode, size_change
from segnoise.noise import NoiseMode, sample_scale


@dataclass(frozen=True)
class FrameCorruption:
    """What happened to one frame: op in {dilate, erode, none}."""

    op: str
    k: int
    change: SizeChange


def corrupt_frame(
    frame, mode: NoiseMode, sigma2: float, rng: np.random.Generator
) -> tuple[np.ndarray, FrameCorruption]:
    """Corrupt one frame; k = 0 returns it unchanged with op 'none'.

    Random mode flips a fair coin for the operation first, then draws
    its own scale.
    """
    op_mode = NoiseMode(mode)
    if op_mode is NoiseMode.RANDOM:
        op_mode = NoiseMode.DILATE if rng.random() < 0.5 else NoiseMode.ERODE
    k = sample_scale(rng, sigma2)
    if k == 0:
        out = np.asarray(frame, dtype=np.uint8).copy()
        return out, FrameCorruption(op="none", k=0, change=size_change(frame, out))
    out = dilate(frame, k) if op_mode is NoiseMode.DILATE else erode(frame, k)
    return out, FrameCorruption(op=op_mode.value, k=k, change=size_change(frame, out))


def loss(p, t, beta=1.0) -> float:
    """1 - f_beta; the quantity the toy trainer descends."""
    return 1.0 - f_beta(p, t, beta)
