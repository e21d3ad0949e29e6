"""Soft dice / precision / recall / f-beta scores, losses and gradients.

All scores share one smoothing constant (1.0) added to numerator and
denominator, which keeps every score total (empty masks score 1) and
keeps gradients alive. With t binary, tp = sum(p*t), sum_p = sum(p),
sum_t = sum(t) and b2 = beta**2, smoothed f-beta is N / D with

    N = (1+b2)*tp + 1,   D = b2*sum_t + sum_p + 1

so f_1 is exactly the soft dice (2*tp + 1) / (sum_p + sum_t + 1), f_0
is exactly the soft precision (tp + 1) / (sum_p + 1), and f_beta tends
to the soft recall (tp + 1) / (sum_t + 1) as beta -> inf. The loss
is 1 - f_beta.

These formulas exist once, in a kernel over (..., pixels) arrays:
`confusion_sums`, `f_beta_terms` (N, D), `f_beta_grad_rows` and
`f_beta_loss_grad` (d(1 - N/D)/dp). The scores and the finite-difference
gradient run through it, and the toy trainer's descent
(`trainer._descend`, one frame per row and every beta at once, which
takes its own sums without a p * t temporary) runs its (a, c) rows,
`f_beta_grad_rows`, so `gradcheck` verifies the gradient that training
follows. Every score triple comes from `score_triples`, which takes
sums of any shape, so the oracle scores all its repetitions' integer
counts in one call.
Scores sum over the whole input, so the same functions score 2-D frames
and 3-D volumes. A volume's per-frame scores come from one loop,
`score_blocks`, which reads the prediction a block of frames at a time,
as `bundleio.open_prediction` streams them to `segnoise score`. When
both inputs are bool or integer typed (binary masks, thresholded
predictions), tp, sum_p and sum_t are exact integer counts
(`count_nonzero`) with no float copy of either array; sums of 0/1
values are exact in float64 too, so both paths give the same bits.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .specs import check_beta
from .volume import is_binary

SMOOTHING = 1.0


class ScoreTriple(NamedTuple):
    dice: float
    precision: float
    recall: float


def confusion_sums(p: np.ndarray, t: np.ndarray):
    """(tp, sum_p, sum_t) over the last axis of (..., pixels) arrays."""
    return (p * t).sum(axis=-1), p.sum(axis=-1), t.sum(axis=-1)


def f_beta_terms(tp, sum_p, sum_t, b2: float):
    """Numerator and denominator of smoothed f-beta, b2 = beta**2."""
    return (1.0 + b2) * tp + SMOOTHING, b2 * sum_t + sum_p + SMOOTHING


def f_beta_grad_rows(numer, denom, b2) -> np.ndarray:
    """(..., 2) rows (a, c) of `f_beta_loss_grad`: N/D^2 and -(1+b2)/D."""
    return np.stack(np.broadcast_arrays(numer / (denom * denom), -(1.0 + b2) / denom), axis=-1)


def f_beta_loss_grad(t: np.ndarray, numer, denom, b2) -> np.ndarray:
    """d(1 - N/D)/dp for targets (..., pixels) and N, D of shape (...).

    The partial w.r.t. p_i is (N - (1+b2)*t_i*D) / D^2 = a + c*t_i with
    a = N/D^2 and c = -(1+b2)/D. Targets are 0 or 1, so each pixel takes
    a where t = 0 and c + a, rounded once, where t = 1. This select runs
    as a product of each row's (a, c) with each pixel's (1, t) in float64:
    a*1 and c*t are exact, so only the sum rounds, and it is several times
    faster than a masked copy.
    """
    basis = np.stack(np.broadcast_arrays(1.0, t), axis=-2)  # each pixel's (1, t), in float64
    return np.matmul(f_beta_grad_rows(numer, denom, b2)[..., None, :], basis)[..., 0, :]


def _is_count(arr: np.ndarray) -> bool:
    return arr.dtype.kind in "biu"


def _as_scored(x) -> np.ndarray:
    """Bool and integer arrays as they are; anything else as float64."""
    arr = np.asarray(x)
    return arr if _is_count(arr) else arr.astype(np.float64, copy=False)


def _check_pair(p, t) -> tuple[np.ndarray, np.ndarray]:
    p_arr, t_arr = _as_scored(p), _as_scored(t)
    if p_arr.shape != t_arr.shape:
        raise ValueError(f"prediction/target shapes differ: {p_arr.shape} vs {t_arr.shape}")
    if p_arr.size == 0:
        raise ValueError("prediction/target must be non-empty")
    if not _is_count(p_arr) and not np.isfinite(p_arr).all():
        raise ValueError("prediction contains non-finite values")
    if p_arr.min() < 0 or p_arr.max() > 1:
        raise ValueError("prediction values must lie in [0, 1]")
    if not is_binary(t_arr):
        raise ValueError("target values must be exactly 0 or 1")
    return p_arr, t_arr


def _whole_sums(p_arr: np.ndarray, t_arr: np.ndarray):
    if _is_count(p_arr) and _is_count(t_arr):
        return np.count_nonzero(p_arr & t_arr), np.count_nonzero(p_arr), np.count_nonzero(t_arr)
    return confusion_sums(p_arr.reshape(-1), t_arr.reshape(-1))


def _score(sums, b2: float) -> float:
    numer, denom = f_beta_terms(*sums, b2)
    return float(numer / denom)


def score_triples(tp, sum_p, sum_t) -> np.ndarray:
    """Dice, precision and recall of broadcastable sums, stacked along a
    new last axis: f_1, f_0 and the smoothed recall."""
    dice = np.divide(*f_beta_terms(tp, sum_p, sum_t, 1.0))
    precision = np.divide(*f_beta_terms(tp, sum_p, sum_t, 0.0))
    recall = np.divide(tp + SMOOTHING, sum_t + SMOOTHING)
    return np.stack(np.broadcast_arrays(dice, precision, recall), axis=-1)


def _triple(sums) -> ScoreTriple:
    return ScoreTriple(*score_triples(*sums).tolist())


def f_beta(p, t, beta) -> float:
    """Recall/precision trade-off score; beta > 1 weights recall."""
    b = check_beta(beta)
    return _score(_whole_sums(*_check_pair(p, t)), b * b)


def grad_loss(p, t, beta=1.0) -> np.ndarray:
    """Closed-form d(1 - f_beta) / d p_i, same shape as p."""
    b = check_beta(beta)
    p_arr, t_arr = _check_pair(p, t)
    b2 = b * b
    numer, denom = f_beta_terms(*_whole_sums(p_arr, t_arr), b2)
    return f_beta_loss_grad(t_arr.reshape(-1), numer, denom, b2).reshape(p_arr.shape)


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")


def hard_metrics(p, t, threshold: float = 0.5) -> ScoreTriple:
    """Binarize p at `threshold` (strictly greater), then score."""
    _check_threshold(threshold)
    p_arr, t_arr = _check_pair(p, t)
    return _triple(_whole_sums(p_arr > threshold, t_arr))


def soft_metrics(p, t) -> ScoreTriple:
    """Soft dice/precision/recall from one pass over the sums."""
    return _triple(_whole_sums(*_check_pair(p, t)))


def finite_difference_grad_loss(p, t, beta=1.0, eps: float = 1e-4) -> np.ndarray:
    """Central-difference reference gradient of the loss (slow).

    Perturbs one pixel at a time; used to cross-check grad_loss.
    Perturbed probes may step slightly outside [0,1], so they skip the
    range checks.
    """
    p_arr, t_arr = _check_pair(np.asarray(p, dtype=np.float64), t)
    b = check_beta(beta)
    b2 = b * b
    flat_p, flat_t = p_arr.reshape(-1), t_arr.reshape(-1)
    grad = np.zeros(flat_p.size)
    for i in range(flat_p.size):
        bumped = flat_p.copy()
        bumped[i] = flat_p[i] + eps
        up = 1.0 - _score(confusion_sums(bumped, flat_t), b2)
        bumped[i] = flat_p[i] - eps
        down = 1.0 - _score(confusion_sums(bumped, flat_t), b2)
        grad[i] = (up - down) / (2.0 * eps)
    return grad.reshape(p_arr.shape)


def score_volumewise(p_vol, t_vol) -> ScoreTriple:
    """Soft scores with sums running over all voxels of the volume."""
    p_arr = np.asarray(p_vol)
    t_arr = np.asarray(t_vol)
    if p_arr.ndim != 3 or t_arr.ndim != 3:
        raise ValueError("volume-wise scoring expects 3-D arrays")
    return soft_metrics(p_arr, t_arr)


class VolumeScores(NamedTuple):
    soft: ScoreTriple
    hard: ScoreTriple
    framewise_dice: float


def score_blocks(blocks: Iterable[np.ndarray], mask: np.ndarray,
                 threshold: float = 0.5) -> VolumeScores:
    """A (frames, H, W) prediction's soft and hard scores against `mask`
    and its mean per-frame soft dice, from one walk over the prediction
    read as consecutive blocks of frames. Each block is a (frames, H,
    W) or (frames, H*W) array whose values lie in [0, 1]; together the
    blocks cover the frames of `mask`, a binary volume of the
    prediction's shape. The caller checks all that; a block is read
    once, before the next is asked for, so it may be a reused buffer.

    Each frame is widened to float64 on its own, so a float32
    prediction is never copied whole. The frame's soft sums are those
    `soft_metrics` takes of that frame, and its hard counts compare the
    float64 values with `threshold`, as `hard_metrics` does, so hard
    scores and the framewise dice are exact. The volume's soft sums add
    up the frames' sums, so they may differ from `soft_metrics` of the
    whole volume in the last bit.
    """
    _check_threshold(threshold)
    if mask.shape[0] == 0:
        raise ValueError("cannot score a mask with no frames")
    frame_sums = np.empty((3, mask.shape[0]))  # soft tp, sum_p, sum_t per frame
    counts = np.zeros(3, dtype=np.int64)  # hard tp, sum_p, sum_t of the volume
    index = 0
    for block in blocks:
        for frame in block:
            p = frame.reshape(-1).astype(np.float64)
            t = mask[index].reshape(-1) != 0
            frame_sums[:, index] = confusion_sums(p, t)
            above = p > threshold
            counts += (np.count_nonzero(above & t), np.count_nonzero(above), np.count_nonzero(t))
            index += 1
    numer, denom = f_beta_terms(*frame_sums, 1.0)
    tp, sum_p, _ = frame_sums.sum(axis=1)
    return VolumeScores(
        soft=_triple((tp, sum_p, int(counts[2]))),
        hard=_triple(tuple(int(c) for c in counts)),
        framewise_dice=float(np.mean(numer / denom)),
    )
