"""Reference implementations that the tests check segnoise against.

Each is the slow, obvious form of what the package computes another
way: `corrupt_frame` corrupts one frame with its own RNG stream and k
whole morphology passes, which the stacked volume corruption must match
frame for frame; `loss` is 1 - f_beta, whose central differences check
the closed-form gradient that the trainer descends; `descend` trains one
beta over all frames at once, which the lockstep descent must match to
1e-12; `zscore_modality` is the z-scoring formula whose bytes
`volume.zscore_normalize` must keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from segnoise.metrics import f_beta, f_beta_terms
from segnoise.morphology import SizeChange, dilate, erode, size_change
from segnoise.noise import NoiseMode, sample_scale
from segnoise.specs import TrainConfig, check_beta
from segnoise.trainer import (N_FEATURES, LinearSegmenter, TrainingDiverged, _initial_weights,
                              _sigmoid_from_half)


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


def descend(features, targets, config: TrainConfig, beta: float):
    """One beta's full-batch descent over all frames at once, as the
    trainer ran it before its betas moved into lockstep over blocks of
    frames: one product for the logits and one for the weight gradient,
    and d loss / d p in the product form t * c + a. Returns the model
    and the per-epoch mean losses."""
    w = _initial_weights(config)
    b2 = check_beta(beta) ** 2
    n_frames, n_pixels = targets.shape
    flat_features = np.reshape(features, (-1, N_FEATURES))
    sum_t = targets.sum(axis=-1)
    p = np.empty((n_frames, n_pixels))
    grad_z = np.empty_like(p)
    history = []
    for epoch in range(config.epochs):
        np.matmul(flat_features, 0.5 * w, out=p.reshape(-1))
        _sigmoid_from_half(p)
        tp = np.einsum("fp,fp->f", p, targets)
        numer, denom = f_beta_terms(tp, p.sum(axis=-1), sum_t, b2)
        mean_loss = float((1.0 - numer / denom).mean())
        if not np.isfinite(mean_loss):
            raise TrainingDiverged(epoch)
        history.append(mean_loss)
        np.multiply(targets, -(1.0 + b2) / denom[:, None], out=grad_z)
        grad_z += (numer / (denom * denom))[:, None]
        grad_z *= p
        grad_z *= np.subtract(1.0, p, out=p)
        grad_w = grad_z.reshape(-1) @ flat_features / n_frames
        w = w - config.learning_rate * grad_w
    return LinearSegmenter(weights=w), history


def zscore_modality(grid) -> np.ndarray:
    """One modality z-scored over its non-zero region as a whole float64
    volume, then cast to float32: the formula `volume.zscore_normalize`
    must match byte for byte."""
    region = grid != 0
    values = grid[region].astype(np.float64)
    out = np.zeros_like(grid, dtype=np.float64)
    out[region] = (values - values.mean()) / values.std()
    return out.astype(np.float32)
