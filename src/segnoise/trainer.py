"""Toy differentiable segmenter for bias-cancellation experiments.

A per-pixel linear-logistic model over five local features of the first
image modality (raw intensity, 3x3 box mean, 3x3 box std, 7x7 box mean,
constant bias), trained by full-batch gradient descent on the mean
per-frame f-beta loss. The architecture is deliberately tiny: the
bias-cancellation effect lives in the loss, and a convex-ish model makes
it measurable in seconds. Training is deterministic per config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pool
from .atomic import csv_text, write_text
from .folds import DatasetSplit
from .metrics import ScoreTriple, check_beta, f_beta_loss_grad, f_beta_terms, hard_metrics
from .noise import corrupt_mask_volume
from .specs import NoiseMode, TrainConfig, check_distinct, check_sigma2_values
from .svgplot import heatmap
from .volume import PatientRecord, is_binary, zscore_normalize

N_FEATURES = 5


class TrainingDiverged(RuntimeError):
    """Raised when the loss turns non-finite; carries the epoch."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged: non-finite loss at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class LinearSegmenter:
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (N_FEATURES,):
            raise ValueError(f"expected {N_FEATURES} weights, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", w)


def _box_sum(arr: np.ndarray, radius: int) -> np.ndarray:
    size = 2 * radius + 1
    padded = np.pad(arr, radius)
    integral = np.zeros((padded.shape[0] + 1, padded.shape[1] + 1), dtype=np.float64)
    integral[1:, 1:] = padded.cumsum(axis=0).cumsum(axis=1)
    return (
        integral[size:, size:]
        - integral[:-size, size:]
        - integral[size:, :-size]
        + integral[:-size, :-size]
    )


def _box_mean(arr: np.ndarray, radius: int) -> np.ndarray:
    return _box_sum(arr, radius) / (2 * radius + 1) ** 2


def _box_std(arr: np.ndarray, radius: int) -> np.ndarray:
    mean = _box_mean(arr, radius)
    mean_sq = _box_mean(arr * arr, radius)
    return np.sqrt(np.clip(mean_sq - mean * mean, 0.0, None))


def _sigmoid_from_half(h: np.ndarray) -> np.ndarray:
    """The logistic of 2h, 1 / (1 + exp(-2h)), as 0.5 * (1 + tanh(h)),
    which cannot overflow; overwrites the float64 array h and returns it.
    Callers halve the weights instead of the logits, which is exact:
    halving commutes with rounding."""
    np.tanh(h, out=h)
    h += 1.0
    h *= 0.5
    return h


def extract_features(frame) -> np.ndarray:
    """(H, W, 5) feature stack; box filters use zero-padding."""
    arr = np.asarray(frame, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"image frame must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("image frame contains non-finite values")
    return np.stack(
        [arr, _box_mean(arr, 1), _box_std(arr, 1), _box_mean(arr, 3), np.ones_like(arr)],
        axis=-1,
    )


def _feature_stack(frames, n_frames: int, frame_shape: tuple[int, ...]) -> np.ndarray:
    """(n_frames, pixels, N_FEATURES) features of `frames`, filled into one array.

    The array is a view of feature-major memory: each feature is one
    contiguous plane, which roughly halves the cost of the descent's two
    products with the weight vector against pixel-major rows.
    """
    planes = np.empty((N_FEATURES, n_frames, math.prod(frame_shape)))
    stack = planes.transpose(1, 2, 0)
    for row, frame in zip(stack, frames, strict=True):
        row[...] = extract_features(frame).reshape(-1, N_FEATURES)
    return stack


def predict(model: LinearSegmenter, features: np.ndarray) -> np.ndarray:
    """Per-pixel logistic foreground probability."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.shape[-1] != model.weights.shape[0]:
        raise ValueError(
            f"feature arity {feats.shape[-1]} != weight count {model.weights.shape[0]}"
        )
    return _sigmoid_from_half(feats @ (0.5 * model.weights))


def _initial_weights(config: TrainConfig) -> np.ndarray:
    if config.init_scale == 0.0:
        return np.zeros(N_FEATURES)
    rng = np.random.default_rng(config.seed)
    return config.init_scale * rng.standard_normal(N_FEATURES)


def _descend(
    features: np.ndarray, targets: np.ndarray, config: TrainConfig, beta: float
) -> tuple[LinearSegmenter, list[float]]:
    """Full-batch gradient descent on the mean per-frame f-beta loss.

    features: (frames, pixels, N_FEATURES); targets: (frames, pixels),
    bool or 0/1 floats, read as they are. Loss and d loss / d p come from
    the metrics kernel, one frame per row; tp is an einsum, so no p * t
    product is materialized. The descent holds two (frames, pixels)
    float64 arrays, p and the gradient, both allocated once and
    overwritten each epoch.
    """
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
        # dL/dz = dL/dp * p * (1 - p), with 1 - p written over p.
        f_beta_loss_grad(targets, numer, denom, b2, out=grad_z)
        grad_z *= p
        grad_z *= np.subtract(1.0, p, out=p)
        grad_w = grad_z.reshape(-1) @ flat_features / n_frames
        w = w - config.learning_rate * grad_w
    return LinearSegmenter(weights=w), history


def train(samples, config: TrainConfig, beta: float = 1.0) -> tuple[LinearSegmenter, list[float]]:
    """Train on (image frame, mask frame) pairs of one common shape with
    the f-beta loss."""
    if not samples:
        raise ValueError("need at least one training sample")
    shapes = {np.asarray(img).shape for img, _ in samples}
    if len(shapes) != 1:
        raise ValueError(f"all frames must share one shape, got {sorted(shapes)}")
    feats = _feature_stack((img for img, _ in samples), len(samples), shapes.pop())
    targets = np.stack([np.asarray(mask).reshape(-1) for _, mask in samples])
    if not is_binary(targets):
        raise ValueError("mask values must be exactly 0 or 1")
    return _descend(feats, targets.astype(bool, copy=False), config, beta)


@dataclass(frozen=True)
class GridResult:
    """The grid's clean-test scores, `scores[sigma2, beta, metric, seed]`:
    one float64 array whose axes follow `sigma2_values`, `betas`,
    `ScoreTriple._fields` and `seeds`. A mean over seeds reduces the
    contiguous last axis, bit for bit `np.mean` of the same values as a
    list."""

    betas: tuple[float, ...]
    sigma2_values: tuple[float, ...]
    seeds: tuple[int, ...]
    scores: np.ndarray

    CSV_COLUMNS = ("beta", "sigma2", "seed", "test_dice", "test_precision", "test_recall")

    def mean_metric(self, beta: float, sigma2: float, metric: str = "dice") -> float:
        if beta not in self.betas or sigma2 not in self.sigma2_values:
            raise KeyError(f"no grid cell at beta={beta}, sigma2={sigma2}")
        index = self.sigma2_values.index(sigma2), self.betas.index(beta), ScoreTriple._fields.index(metric)
        return float(self.scores[index].mean())

    def to_csv_string(self) -> str:
        """One row per (sigma2, seed, beta), in that order."""
        rows = (
            (beta, sigma2, seed, *triple)
            for sigma2, by_seed in zip(self.sigma2_values, self.scores.transpose(0, 3, 1, 2).tolist())
            for seed, by_beta in zip(self.seeds, by_seed)
            for beta, triple in zip(self.betas, by_beta)
        )
        return csv_text(self.CSV_COLUMNS, rows)

    def heatmap_svg(self) -> str:
        grid = [
            [self.mean_metric(beta, sigma2) for beta in self.betas]
            for sigma2 in self.sigma2_values
        ]
        return heatmap(
            self.sigma2_values,
            self.betas,
            grid,
            title="Clean-test dice vs (sigma2, beta)",
            x_label="beta",
            y_label="sigma2",
        )

    def write_outputs(self, out_dir: str | Path) -> list[Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return [
            write_text(out / "grid_scores.csv", self.to_csv_string()),
            write_text(out / "grid_dice_heatmap.svg", self.heatmap_svg()),
        ]


def _grid_inputs(records: list[PatientRecord], split: DatasetSplit):
    """Check that the split's patients exist and share one frame shape;
    return the records by id, the train features as the C-contiguous
    (N_FEATURES, frames, pixels) planes `_feature_stack` fills, and per
    test patient its features and its mask as (frames, pixels)."""
    by_id = {r.patient_id: r for r in records}
    split.check_known(by_id)
    if not split.train_ids or not split.test_ids:
        raise ValueError("split needs non-empty train and test subsets")
    first = split.train_ids[0]
    frame_shape = by_id[first].shape[1:]
    for pid in split.all_ids:
        if by_id[pid].shape[1:] != frame_shape:
            raise ValueError(
                f"patient {pid!r} has frames of shape {by_id[pid].shape[1:]}, but the "
                f"first train patient {first!r} has {frame_shape}; a split needs one frame shape"
            )

    def features_for(pids) -> np.ndarray:
        frames = (
            frame for pid in pids for frame in zscore_normalize(by_id[pid].volume).first_modality()
        )
        return _feature_stack(frames, sum(by_id[pid].shape[0] for pid in pids), frame_shape)

    tests = tuple((features_for([pid]), by_id[pid].mask.reshape(by_id[pid].shape[0], -1))
                  for pid in split.test_ids)
    return by_id, features_for(split.train_ids).transpose(2, 0, 1), tests


def _grid_task(args) -> np.ndarray:
    """Train one beta on one key's corrupted targets, then score the model
    on the clean test masks: the mean (dice, precision, recall)."""
    (sigma2, seed), beta = args
    train_planes, tests, targets, config, threshold = pool.context()
    model, _ = _descend(train_planes.transpose(1, 2, 0), targets[sigma2, seed], config, beta)
    triples = [hard_metrics(predict(model, features), mask, threshold) for features, mask in tests]
    return np.array(triples, dtype=np.float64).mean(axis=0)


def beta_gridsearch(
    records: list[PatientRecord],
    split: DatasetSplit,
    betas,
    mode: NoiseMode,
    sigma2_values,
    seeds,
    base_config: TrainConfig | None = None,
    threshold: float = 0.5,
    jobs: int = 1,
) -> GridResult:
    """Corrupt train masks, train per beta, score on clean test masks.

    Each (sigma2, seed) cell corrupts the train masks once, in this
    process, and every beta trains on those same targets (paired
    comparison). Corruption streams are keyed by (seed, patient, frame),
    so results are independent of the job count. At sigma2 = 0 every
    frame's k is 0 whatever the seed, so the first seed's cell is
    computed once and reported under each seed. The unit of work and of
    parallelism is one beta of one distinct cell: `min(jobs, tasks)`
    workers, forked where that is the platform default, inherit the
    features and the bool targets of every cell, on one BLAS thread
    (`pool.map_cells`). A one-task grid runs in-process. Validation
    masks are never consumed by the toy trainer, so their corruption
    (keyed the same way) is not materialized here. Every beta and
    sigma2 is checked before any work, and none may repeat. A worker's
    context holds only what a task reads.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    betas = check_distinct("betas", tuple(check_beta(b) for b in betas))
    sigma2_values = check_sigma2_values(sigma2_values)
    seeds = tuple(int(s) for s in seeds)
    if not betas or not sigma2_values or not seeds:
        raise ValueError("betas, sigma2_values and seeds must be non-empty")
    mode = NoiseMode(mode)
    by_id, train_planes, tests = _grid_inputs(records, split)
    key = {(s2, seed): (s2, seed if s2 > 0 else seeds[0]) for s2 in sigma2_values for seed in seeds}
    # Each distinct key's train masks, corrupted once: a bool row per train frame.
    targets = {
        (s2, seed): np.concatenate([corrupt_mask_volume(by_id[pid].mask, mode, s2, seed, pid)[0]
                                    for pid in split.train_ids]).reshape(train_planes.shape[1:]).view(bool)
        for s2, seed in dict.fromkeys(key.values())
    }
    tasks = [(k, beta) for k in targets for beta in betas]
    ctx = (train_planes, tests, targets, base_config or TrainConfig(), threshold)
    # A task is one descent (about 0.6 s at the default 200 epochs).
    results = dict(zip(tasks, pool.map_cells(_grid_task, tasks, ctx, jobs, chunksize=1)))
    cells = [[[results[key[s2, seed], beta] for seed in seeds] for beta in betas] for s2 in sigma2_values]
    scores = np.moveaxis(np.array(cells), -1, 2).copy()  # C-ordered (sigma2, beta, metric, seed)
    return GridResult(betas=betas, sigma2_values=sigma2_values, seeds=seeds, scores=scores)
