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
from .config import CorpusSource
from .folds import DatasetSplit
from .metrics import ScoreTriple, check_beta, f_beta_loss_grad, f_beta_terms, hard_metrics
from .noise import corrupt_mask_volume
from .specs import NoiseMode, TrainConfig, check_distinct, check_sigma2_values
from .svgplot import heatmap
from .volume import MultiModalVolume, PatientRecord, is_binary, zscore_normalize

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
    return (integral[size:, size:] - integral[:-size, size:]
            - integral[size:, :-size] + integral[:-size, :-size])


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


# A descent's block of whole frames holds about this many bytes of one
# beta's probabilities (at least one frame), so that it stays in cache.
BLOCK_BYTES = 1 << 17


def _descend(
    features: np.ndarray, targets: np.ndarray, config: TrainConfig, betas
) -> tuple[list[LinearSegmenter], np.ndarray]:
    """Full-batch descent on the mean per-frame f-beta loss for every beta
    in lockstep, on the same targets: one model per beta, and the mean
    losses as an (epochs, betas) array.

    features: (frames, pixels, N_FEATURES), fastest as `_feature_stack`'s
    view of feature-major planes; targets: (frames, pixels), bool or 0/1
    floats. The loss couples pixels only through each frame's (tp, sum_p),
    so an epoch walks blocks of whole frames (`BLOCK_BYTES`). Per block,
    one product gives every beta's logits, the targets are cast to float64,
    the metrics kernel gives the per-frame terms and d loss / d p, and one
    product adds every beta's weight gradient. The memory held beyond the
    inputs does not grow with the frame count. The sigmoid's halving is
    left out (q = 2p): powers of two scale tp, sum_p and the gradient
    exactly. A non-finite loss for any beta raises `TrainingDiverged`.
    """
    b2 = np.array([[check_beta(b) ** 2] for b in betas])
    planes = features.transpose(2, 0, 1)
    n_frames, n_pixels = targets.shape
    step = max(1, BLOCK_BYTES // (8 * n_pixels))
    w = np.tile(_initial_weights(config), (len(b2), 1))
    q_buf, grad_buf = np.empty((2, len(b2), step * n_pixels))
    t_buf = np.empty((step, n_pixels))
    history = np.empty((config.epochs, len(b2)))
    for epoch in range(config.epochs):
        half_w, grad_w, loss = 0.5 * w, np.zeros_like(w), np.zeros(len(b2))
        for start in range(0, n_frames, step):
            rows = min(step, n_frames - start)
            block = planes[:, start:start + rows].reshape(N_FEATURES, -1)
            t = t_buf[:rows]
            np.copyto(t, targets[start:start + rows])
            q = np.matmul(half_w, block, out=q_buf[:, :rows * n_pixels])
            np.tanh(q, out=q)
            q += 1.0  # 2p
            q_frames = q.reshape(len(b2), rows, n_pixels)
            tp = 0.5 * np.einsum("bfp,fp->bf", q_frames, t)
            numer, denom = f_beta_terms(tp, 0.5 * q_frames.sum(axis=-1), t.sum(axis=-1), b2)
            loss += (1.0 - numer / denom).sum(axis=-1)
            # dL/dz = dL/dp * p * (1 - p), as 4x that: dL/dp * q * (2 - q).
            grad = grad_buf[:, :rows * n_pixels]
            f_beta_loss_grad(t, numer, denom, b2, out=grad.reshape(q_frames.shape))
            grad *= q
            grad *= np.subtract(2.0, q, out=q)
            grad_w += grad @ block.T
        history[epoch] = loss / n_frames
        if not np.isfinite(history[epoch]).all():
            raise TrainingDiverged(epoch)
        w = w - config.learning_rate * (0.25 * grad_w / n_frames)
    return [LinearSegmenter(weights=row) for row in w], history


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
    (model,), history = _descend(feats, targets.astype(bool, copy=False), config, (beta,))
    return model, history[:, 0].tolist()


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
    return zscore_normalize(MultiModalVolume(pid, {name: grid})).first_modality()


def _grid_inputs(corpus: CorpusSource | list[PatientRecord], split: DatasetSplit):
    """Check from the source's ids and shapes that the split's patients
    exist and share one frame shape; then read each train and test
    patient once. Return the masks by id, the train features as the
    C-contiguous (N_FEATURES, frames, pixels) planes `_feature_stack`
    fills, and each test patient's z-scored first modality by id."""
    source = corpus if isinstance(corpus, CorpusSource) else CorpusSource.of(corpus)
    split.check_known(source.ids)
    if not split.train_ids or not split.test_ids:
        raise ValueError("split needs non-empty train and test subsets")
    shapes = {pid: source.shape(pid) for pid in split.all_ids}
    first, frame_shape = split.train_ids[0], shapes[split.train_ids[0]][1:]
    for pid in split.all_ids:
        if shapes[pid][1:] != frame_shape:
            raise ValueError(
                f"patient {pid!r} has frames of shape {shapes[pid][1:]}, but the "
                f"first train patient {first!r} has {frame_shape}; a split needs one frame shape"
            )
    masks: dict[str, np.ndarray] = {}
    frames = (frame for pid in split.train_ids for frame in _first_modality(source, pid, masks))
    train = _feature_stack(frames, sum(shapes[pid][0] for pid in split.train_ids), frame_shape)
    tests = {pid: _first_modality(source, pid, masks) for pid in split.test_ids}
    return masks, train.transpose(2, 0, 1), tests


def _grid_task(key) -> list[LinearSegmenter]:
    """Train every beta of one key's cell on its corrupted targets."""
    train_planes, targets, config, betas = pool.context()
    return _descend(train_planes.transpose(1, 2, 0), targets[key], config, betas)[0]


def _test_triples(image: np.ndarray, mask: np.ndarray, models: list, threshold: float) -> list:
    """Each model's (dice, precision, recall) on one test patient."""
    features, targets = _feature_stack(image, len(image), image.shape[1:]), mask.reshape(len(image), -1)
    return [hard_metrics(predict(model, features), targets, threshold) for model in models]


def beta_gridsearch(
    corpus: CorpusSource | list[PatientRecord],
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

    The corpus (a `config.CorpusSource` or a list of records) is read one
    split patient at a time through `payloads`, keeping its mask and, for
    a test patient, its z-scored first modality, read alone. Each (sigma2,
    seed) cell corrupts the train masks once, in this process, and every
    beta trains on those same targets (paired comparison). Corruption
    streams are keyed by (seed, patient, frame), so results are
    independent of the job count. At sigma2 = 0 every frame's k is 0
    whatever the seed, so the first seed's cell is computed once and
    reported under each seed. The unit of work and of parallelism is one
    distinct cell with all its betas: one lockstep descent (`_descend`),
    which returns a model per beta, so each cell's arithmetic is fixed by
    the config whatever `jobs` is. `min(jobs, cells)` workers, forked
    where that is the platform default, inherit the train features,
    targets, config and betas, on one BLAS thread (`pool.map_cells`); a
    one-cell grid runs in-process. Then, with the train features dropped,
    each test patient's features are extracted once and scored with every
    model. Validation patients are never read. Every beta and sigma2 is
    checked before any work, and none may repeat.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    betas = check_distinct("betas", tuple(check_beta(b) for b in betas))
    sigma2_values = check_sigma2_values(sigma2_values)
    seeds = tuple(int(s) for s in seeds)
    if not betas or not sigma2_values or not seeds:
        raise ValueError("betas, sigma2_values and seeds must be non-empty")
    mode = NoiseMode(mode)
    masks, train_planes, tests = _grid_inputs(corpus, split)
    key = {(s2, seed): (s2, seed if s2 > 0 else seeds[0]) for s2 in sigma2_values for seed in seeds}
    # Each distinct key's train masks, corrupted once: a bool row per train frame.
    targets = {
        (s2, seed): np.concatenate([corrupt_mask_volume(masks[pid], mode, s2, seed, pid)[0]
                                    for pid in split.train_ids]).reshape(train_planes.shape[1:]).view(bool)
        for s2, seed in dict.fromkeys(key.values())
    }
    keys = list(targets)
    ctx = (train_planes, targets, base_config or TrainConfig(), betas)
    del train_planes, targets  # the context's alone, so that they go with it
    # A task is a cell's descent (about 2 s at the default 200 epochs and six betas).
    models = [m for cell in pool.map_cells(_grid_task, keys, ctx, jobs, chunksize=1) for m in cell]
    del ctx
    triples = [_test_triples(tests.pop(pid), masks[pid], models, threshold) for pid in split.test_ids]
    results = dict(zip([(k, beta) for k in keys for beta in betas],
                       np.array(triples, dtype=np.float64).mean(axis=0)))
    cells = [[[results[key[s2, seed], beta] for seed in seeds] for beta in betas] for s2 in sigma2_values]
    scores = np.moveaxis(np.array(cells), -1, 2).copy()  # C-ordered (sigma2, beta, metric, seed)
    return GridResult(betas=betas, sigma2_values=sigma2_values, seeds=seeds, scores=scores)
