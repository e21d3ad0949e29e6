"""Toy differentiable segmenter for bias-cancellation experiments.

A per-pixel linear-logistic model over five local features of the first
image modality (raw intensity, 3x3 box mean, 3x3 box std, 7x7 box mean,
constant bias; four are stored), trained by full-batch gradient descent
on the mean per-frame f-beta loss. The architecture is deliberately tiny:
the bias-cancellation effect lives in the loss, and a convex-ish model
makes it measurable in seconds. Training is deterministic per config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pool
from .atomic import csv_text, write_text
from .config import CorpusSource
from .folds import DatasetSplit
from .metrics import ScoreTriple, check_beta, f_beta_grad_rows, f_beta_terms, hard_metrics
from .noise import corrupt_masks
from .specs import NoiseMode, TrainConfig, check_distinct, check_sigma2_values
from .svgplot import heatmap
from .volume import validate_mask_volume, zscore_normalize

N_FEATURES = 5


class TrainingDiverged(RuntimeError):
    """Raised when the loss turns non-finite; carries the epoch, also
    through a pickle (a pool worker's raise reaches the parent so)."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged: non-finite loss at epoch {epoch}")
        self.epoch = epoch

    def __reduce__(self):
        return type(self), (self.epoch,)


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
    return (integral[size:, size:] - integral[:-size, size:]
            - integral[size:, :-size] + integral[:-size, :-size])


def _box_mean(arr: np.ndarray, radius: int) -> np.ndarray:
    return _box_sum(arr, radius) / (2 * radius + 1) ** 2


def _box_std(arr: np.ndarray, mean: np.ndarray, radius: int) -> np.ndarray:
    """The box std of `arr`, whose box mean of that radius is `mean`."""
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
    mean = _box_mean(arr, 1)
    return np.stack([arr, mean, _box_std(arr, mean, 1), _box_mean(arr, 3), np.ones_like(arr)], axis=-1)


def _feature_stack(frames, raw: np.ndarray, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fill `frames`' raw intensities into `raw` (frames, pixels; float32
    only if every frame is) and their box features into the float64 planes
    `boxes` (3, frames, pixels); return both. No bias plane is stored.
    Feature-major planes roughly halve the cost of the descent's products."""
    for row, frame in zip(range(len(raw)), frames, strict=True):
        features = extract_features(frame).reshape(-1, N_FEATURES)
        raw[row] = features[:, 0]
        boxes[:, row] = features[:, 1:-1].T
    return raw, boxes


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


# A descent's block of whole frames holds about this many bytes of one
# beta's probabilities (at least one frame), so that it stays in cache.
BLOCK_BYTES = 1 << 17


@np.errstate(all="ignore")  # a non-finite loss is checked each epoch and raised as TrainingDiverged
def _descend(
    features: tuple[np.ndarray, np.ndarray], targets: np.ndarray, config: TrainConfig, betas
) -> tuple[list[LinearSegmenter], np.ndarray]:
    """Full-batch descent on the mean per-frame f-beta loss for every beta
    in lockstep, on the same targets: one model per beta, and the mean
    losses as an (epochs, betas) array.

    features: `_feature_stack`'s (raw, boxes) planes; targets: (frames,
    pixels), bool or 0/1 floats. The loss couples pixels only through each
    frame's (tp, sum_p), so an epoch walks blocks of whole frames
    (`BLOCK_BYTES`). Per block, one reused float64 buffer takes the four
    stored rows, a row of ones set once and the targets. One product of its
    first N_FEATURES rows gives every beta's logits; the metrics kernel
    gives the per-frame terms, and one beta at a time d loss / d p as its
    rows times the buffer's last two, each pixel's (1, t); one product adds
    every beta's weight gradient. Memory beyond the inputs does not grow
    with the frame count. The sigmoid's halving is left out (q = 2p): powers
    of two scale tp, sum_p and the gradient exactly. A non-finite loss
    raises `TrainingDiverged`.
    """
    b2 = np.array([[check_beta(b) ** 2] for b in betas])
    raw, boxes = features
    n_frames, n_pixels = targets.shape
    step = max(1, BLOCK_BYTES // (8 * n_pixels))
    w = np.tile(_initial_weights(config), (len(b2), 1))
    q_buf, g_buf = np.empty((len(b2), step * n_pixels)), np.empty((step, 1, n_pixels))
    buf = np.empty((N_FEATURES + 1, step, n_pixels))  # raw, three boxes, ones, targets
    buf[N_FEATURES - 1] = 1.0
    history = np.empty((config.epochs, len(b2)))
    for epoch in range(config.epochs):
        half_w, grad_w, loss = 0.5 * w, np.zeros_like(w), np.zeros(len(b2))
        for start in range(0, n_frames, step):
            rows = min(step, n_frames - start)
            np.copyto(buf[0, :rows], raw[start:start + rows])
            np.copyto(buf[1:-2, :rows], boxes[:, start:start + rows])
            t = buf[-1, :rows]
            np.copyto(t, targets[start:start + rows])
            block = buf[:-1, :rows].reshape(N_FEATURES, -1)
            q = np.matmul(half_w, block, out=q_buf[:, :rows * n_pixels])
            np.tanh(q, out=q)
            q += 1.0  # 2p
            q_frames = q.reshape(len(b2), rows, n_pixels)
            tp = 0.5 * np.einsum("bfp,fp->bf", q_frames, t)
            numer, denom = f_beta_terms(tp, 0.5 * q_frames.sum(axis=-1), t.sum(axis=-1), b2)
            loss += (1.0 - numer / denom).sum(axis=-1)
            # dL/dz = dL/dp * p * (1 - p), as 4x that: dL/dp * q * (2 - q),
            # written over q one beta at a time beside that beta's dL/dp.
            basis = buf[-2:, :rows].transpose(1, 0, 2)  # each frame's (1, t)
            for q_b, ac in zip(q_frames, f_beta_grad_rows(numer, denom, b2)[..., None, :]):
                g = np.matmul(ac, basis, out=g_buf[:rows])[:, 0]
                g *= q_b
                np.multiply(np.subtract(2.0, q_b, out=q_b), g, out=q_b)
            grad_w += q @ block.T
        history[epoch] = loss / n_frames
        if not np.isfinite(history[epoch]).all():
            raise TrainingDiverged(epoch)
        w = w - config.learning_rate * (0.25 * grad_w / n_frames)
    return [LinearSegmenter(weights=row) for row in w], history


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
        grid = [[self.mean_metric(beta, sigma2) for beta in self.betas] for sigma2 in self.sigma2_values]
        return heatmap(self.sigma2_values, self.betas, grid, title="Clean-test dice vs (sigma2, beta)",
                       x_label="beta", y_label="sigma2")

    def write_outputs(self, out_dir: str | Path) -> list[Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return [
            write_text(out / "grid_scores.csv", self.to_csv_string()),
            write_text(out / "grid_dice_heatmap.svg", self.heatmap_svg()),
        ]


def _first_modality(source: CorpusSource, pid: str, masks: dict) -> np.ndarray:
    """One patient's z-scored first modality, read alone from its `payloads`
    (z-scoring is per modality, and the features read only the first);
    its mask goes into `masks`."""
    modalities, masks[pid] = source.payloads(pid)
    name, grid = next(iter(modalities.items()))
    if isinstance(grid, Path):
        from .bundleio import read_intensities
        grid = read_intensities(grid, masks[pid].shape)
    try:
        return zscore_normalize(grid)
    except ValueError as exc:
        raise ValueError(f"patient {pid!r}, modality {name!r}: {exc}") from None


def _grid_inputs(source: CorpusSource, split: DatasetSplit):
    """Check from the source's ids that the split's patients exist, and
    from its shapes that the train and test patients, the only ones
    read, share one frame shape; then read each of them once. Return the
    masks by id, the train features as the (raw, boxes) planes
    `_feature_stack` fills, and each test patient's z-scored first
    modality by id."""
    split.check_known(source.ids)
    if not split.train_ids or not split.test_ids:
        raise ValueError("split needs non-empty train and test subsets")
    shapes = {pid: source.shape(pid) for pid in (*split.train_ids, *split.test_ids)}
    first, frame_shape = split.train_ids[0], shapes[split.train_ids[0]][1:]
    for pid, shape in shapes.items():
        if shape[1:] != frame_shape:
            raise ValueError(
                f"patient {pid!r} has frames of shape {shape[1:]}, but the "
                f"first train patient {first!r} has {frame_shape}; a split needs one frame shape"
            )
    masks: dict[str, np.ndarray] = {}
    frames = (frame for pid in split.train_ids for frame in _first_modality(source, pid, masks))
    # A z-scored grid is float32, so a float32 raw plane holds it exactly.
    raw = np.empty((sum(shapes[pid][0] for pid in split.train_ids), math.prod(frame_shape)), np.float32)
    train = _feature_stack(frames, raw, np.empty((3, *raw.shape)))
    tests = {pid: _first_modality(source, pid, masks) for pid in split.test_ids}
    return masks, train, tests


def _grid_task(key) -> list[LinearSegmenter]:
    """Train every beta of one (sigma2, seed) key's cell on its own corrupted train masks."""
    train, train_masks, train_ids, mode, config, betas = pool.context()
    targets = np.concatenate(train_masks).view(bool)  # a bool row per train frame, once reshaped
    corrupt_masks(train_masks, mode, key[0], [key[1]], train_ids, out=targets)
    return _descend(train, targets.reshape(train[0].shape), config, betas)[0]


def _test_triples(image: np.ndarray, mask: np.ndarray, models: list, threshold: float) -> list:
    """Each model's (dice, precision, recall) on one test patient, whose five
    feature planes, the ones included, `predict` reads as (frames, pixels, 5)."""
    planes = np.empty((N_FEATURES, len(image), image[0].size))
    planes[-1] = 1.0
    _feature_stack(image, planes[0], planes[1:-1])
    features, targets = planes.transpose(1, 2, 0), mask.reshape(len(image), -1)
    return [hard_metrics(predict(model, features), targets, threshold) for model in models]


def beta_gridsearch(
    source: CorpusSource,
    split: DatasetSplit,
    betas,
    mode: NoiseMode,
    sigma2_values,
    seeds,
    base_config: TrainConfig | None = None,
    threshold: float = 0.5,
    jobs: int = 1,
) -> GridResult:
    """Corrupt train masks, train every beta, score on clean test masks.

    The `config.CorpusSource` (from `config.source_from` or
    `bundle_source`) is read one split patient at a time through
    `payloads`, keeping its mask and, for a test patient, its z-scored
    first modality, read alone. Each
    (sigma2, seed) cell's task corrupts the train masks in one
    `noise.corrupt_masks` step, and every beta trains on those same
    targets (paired comparison).
    Corruption streams are keyed by (seed, patient, frame), so results are
    independent of the job count. At sigma2 = 0 every frame's k is 0
    whatever the seed, so the first seed's cell is computed once and
    reported under each seed. The unit of work and of parallelism is one
    distinct cell with all its betas: one lockstep descent (`_descend`),
    which returns a model per beta, so each cell's arithmetic is fixed by
    the config whatever `jobs` is. The first cell trains in this process;
    once the cells left would pay for them, up to `jobs` workers, forked
    where that is the platform default, inherit the train features, clean
    train masks, mode, config and betas, on one BLAS thread
    (`pool.map_cells`); a one-cell grid runs in-process. A process holds
    one cell's targets at a time. Then, with the train features dropped,
    each test patient's features are extracted once and scored with every
    model. Validation patients are never read. Every beta, sigma2 and
    seed is checked before any work, and none may repeat.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    betas = check_distinct("betas", tuple(check_beta(b) for b in betas))
    sigma2_values = check_sigma2_values(sigma2_values)
    seeds = check_distinct("seeds", tuple(int(s) for s in seeds))
    if not betas or not sigma2_values or not seeds:
        raise ValueError("betas, sigma2_values and seeds must be non-empty")
    mode = NoiseMode(mode)
    masks, train_planes, tests = _grid_inputs(source, split)
    key = {(s2, seed): (s2, seed if s2 > 0 else seeds[0]) for s2 in sigma2_values for seed in seeds}
    keys = list(dict.fromkeys(key.values()))
    ctx = (train_planes, [validate_mask_volume(masks[pid]) for pid in split.train_ids], split.train_ids,
           mode, base_config or TrainConfig(), betas)
    del train_planes  # the context's alone, so that it goes with it
    models = [m for cell in pool.map_cells(_grid_task, keys, ctx, jobs) for m in cell]
    del ctx
    triples = [_test_triples(tests.pop(pid), masks[pid], models, threshold) for pid in split.test_ids]
    means = np.array(triples, dtype=np.float64).mean(axis=0).reshape(len(keys), len(betas), 3)
    cells = means[[[keys.index(key[s2, seed]) for seed in seeds] for s2 in sigma2_values]]
    scores = np.ascontiguousarray(cells.transpose(0, 2, 3, 1))  # (sigma2, beta, metric, seed)
    return GridResult(betas=betas, sigma2_values=sigma2_values, seeds=seeds, scores=scores)
