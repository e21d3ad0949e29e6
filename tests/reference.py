"""Reference implementations that the tests check segnoise against.

Each is the slow, obvious form of what the package computes another
way: `corrupt_frame` corrupts one frame with its own RNG stream and k
whole morphology passes, which the stacked volume corruption must match
frame for frame; `loss` is 1 - f_beta, whose central differences check
the closed-form gradient that the trainer descends; `descend` trains one
beta over all frames at once, which the lockstep descent must match to
1e-12; `stacked_descend` is the lockstep descent with its products
reading a `five_plane_stack` (the stored features and a plane of ones)
in place, whose bytes the descent on the stored planes must keep;
`zscore_modality` is the z-scoring formula whose bytes
`volume.zscore_normalize` must keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from segnoise.metrics import f_beta, f_beta_loss_grad, f_beta_terms
from segnoise.morphology import SizeChange, dilate, erode, size_change
from segnoise.noise import NoiseMode, sample_scale
from segnoise.specs import TrainConfig, check_beta
from segnoise.trainer import (BLOCK_BYTES, N_FEATURES, LinearSegmenter, TrainingDiverged, _initial_weights,
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


def five_plane_stack(raw, boxes) -> np.ndarray:
    """(frames, pixels, N_FEATURES) float64 view of C-contiguous feature
    planes: the stored raw and box planes and a plane of ones, as the
    trainer materialised its features before it stored only four."""
    planes = np.empty((N_FEATURES, *np.shape(raw)))
    planes[0], planes[1:-1], planes[-1] = raw, boxes, 1.0
    return planes.transpose(1, 2, 0)


@np.errstate(all="ignore")
def stacked_descend(stack, targets, config: TrainConfig, betas):
    """The lockstep descent over blocks of frames as it ran on a
    `five_plane_stack`: both products read each block of the planes in
    place. Returns the models and the (epochs, betas) mean losses."""
    b2 = np.array([[check_beta(b) ** 2] for b in betas])
    planes = stack.transpose(2, 0, 1)
    n_frames, n_pixels = targets.shape
    step = max(1, BLOCK_BYTES // (8 * n_pixels))
    w = np.tile(_initial_weights(config), (len(b2), 1))
    history = np.empty((config.epochs, len(b2)))
    for epoch in range(config.epochs):
        half_w, grad_w, loss = 0.5 * w, np.zeros_like(w), np.zeros(len(b2))
        for start in range(0, n_frames, step):
            rows = min(step, n_frames - start)
            block = planes[:, start:start + rows].reshape(N_FEATURES, -1)
            t = targets[start:start + rows].astype(np.float64)
            q = np.tanh(half_w @ block) + 1.0  # 2p
            q_frames = q.reshape(len(b2), rows, n_pixels)
            tp = 0.5 * np.einsum("bfp,fp->bf", q_frames, t)
            numer, denom = f_beta_terms(tp, 0.5 * q_frames.sum(axis=-1), t.sum(axis=-1), b2)
            loss += (1.0 - numer / denom).sum(axis=-1)
            grad = f_beta_loss_grad(t, numer, denom, b2).reshape(q.shape) * q * (2.0 - q)
            grad_w += grad @ block.T
        history[epoch] = loss / n_frames
        if not np.isfinite(history[epoch]).all():
            raise TrainingDiverged(epoch)
        w = w - config.learning_rate * (0.25 * grad_w / n_frames)
    return [LinearSegmenter(weights=row) for row in w], history


def zscore_modality(grid) -> np.ndarray:
    """One modality z-scored over its non-zero region as a whole float64
    volume, then cast to float32: the formula `volume.zscore_normalize`
    must match byte for byte."""
    region = grid != 0
    values = grid[region].astype(np.float64)
    out = np.zeros_like(grid, dtype=np.float64)
    out[region] = (values - values.mean()) / values.std()
    return out.astype(np.float32)
