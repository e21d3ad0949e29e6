"""Noise-robust oracle curves.

Simulates a hypothetical model that reproduces the mask corruption
distribution exactly: corrupt the test-subset ground-truth masks, score
them volume-wise against the originals, and sweep the result over
corruption modes and noise scales. Dilation leaves recall pinned at 1
and erosion leaves precision pinned at 1 (pure containment), so the
curves isolate what the corruption alone does to each score.

The sweep's unit of work is a (fold, mode, sigma2) point with all its
repetitions. One `count_masks` call counts it: the test masks of one
frame shape are seeded and drawn together for every repetition seed,
their frames' passes run once per op into a table of per-frame counts,
and each repetition's integer (tp, sum_p) and each mask's sum_t are
read from the table; no corrupted volume is built.
`metrics.score_triples` turns the counts of all test masks and
repetitions into scores in one step. A point returns a (3, repetitions)
array, each column the mean over test masks of the volume-wise (dice,
precision, recall), bit for bit what `score_volumewise` gives on the
corrupted volumes. `simulate_noise_robust` is the one-seed case of the
same code. The sweep needs only masks: its context is ({patient id:
mask}, folds). `run_sweep` seeds every point's repetitions in one step
and stacks the points into one array over the sweep's axes; every CSV,
curve and SVG is a reduction of that array (`SweepResult`).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pool
from .atomic import csv_text, write_text
from .folds import DatasetSplit, FoldPlan
from .metrics import ScoreTriple, score_triples
from .noise import count_masks, stream_states
from .specs import NoiseMode, SweepConfig
from .svgplot import line_plot


def _point_seeds(points: Sequence[Sequence[int]], reps: Sequence[int]) -> np.ndarray:
    """Each rep's seed at each (base_seed, mode_index, sigma_index,
    fold_index) point, a (points, reps) uint64 array: `SeedSequence([*point,
    rep]).generate_state(2)`, high word first, seeded in one step, as that
    is `stream_states`' first word with its halves swapped."""
    first = stream_states(points, [(rep,) for rep in reps])[:, 0]
    return ((first << np.uint64(32)) | (first >> np.uint64(32))).reshape(len(points), len(reps))


def _check_test_ids(known, split: DatasetSplit) -> None:
    split.check_known(known, split.test_ids)
    if not split.test_ids:
        raise ValueError("split has an empty test subset")


def _point_triples(
    masks: Mapping[str, np.ndarray], split: DatasetSplit, mode: NoiseMode, sigma2: float,
    seeds: Sequence[int],
) -> np.ndarray:
    """(3, seeds) scores, one column per seed in order: the test masks
    corrupted with that seed's streams, each scored volume-wise against
    its original, averaged. The split's test ids are the caller's to check."""
    counts = count_masks([masks[pid] for pid in split.test_ids], mode, sigma2, seeds, split.test_ids)
    tp, sum_p, sum_t = (np.array(column) for column in zip(*counts))
    return score_triples(tp, sum_p, sum_t[:, None]).mean(axis=0).T


def simulate_noise_robust(
    masks: Mapping[str, np.ndarray],
    split: DatasetSplit,
    mode: NoiseMode,
    sigma2: float,
    seed: int,
) -> ScoreTriple:
    """Corrupt the test masks of a {patient id: mask} mapping, score
    against the originals, average."""
    _check_test_ids(masks, split)
    return ScoreTriple(*_point_triples(masks, split, mode, sigma2, [seed])[:, 0].tolist())


def _sweep_point(task) -> np.ndarray:
    """One (fold, mode, sigma2) point's (3, repetitions) scores against
    the installed ({patient id: mask}, folds) context."""
    fold_index, mode, sigma2, seeds = task
    masks, folds = pool.context()
    return _point_triples(masks, folds.folds[fold_index], mode, sigma2, seeds)


@dataclass(frozen=True)
class SweepResult:
    """`scores[mode, sigma2, fold, metric, repetition]`, in the order of
    `config.modes`, `config.sigma2_values` and `ScoreTriple._fields`.
    Outputs reduce only its contiguous last axis, which numpy sums as
    `np.mean` of a list does, in eight partial sums (a middle axis it
    sums one value at a time), so each is bit for bit the list's."""

    config: SweepConfig
    scores: np.ndarray

    def curve(self, mode: NoiseMode, metric: str) -> tuple[list[float], list[float]]:
        """(means, stds) of one metric across sigma2 values, each over
        every fold and repetition."""
        values = self.scores[self.config.modes.index(NoiseMode(mode)), :, :,
                             ScoreTriple._fields.index(metric)]
        values = values.reshape(len(values), -1)  # (sigma2, fold x repetition), C-ordered
        return values.mean(axis=-1).tolist(), values.std(axis=-1).tolist()

    def to_score_csv_string(self) -> str:
        """ScoreTable rows: per-fold means over repetitions."""
        rows = (
            (mode.value, sigma2, None, fold, "test", metric, value)
            for mode, by_sigma2 in zip(self.config.modes, self.scores.mean(axis=-1).tolist())
            for sigma2, by_fold in zip(self.config.sigma2_values, by_sigma2)
            for fold, by_metric in enumerate(by_fold)
            for metric, value in zip(ScoreTriple._fields, by_metric)
        )
        return csv_text(("mode", "sigma2", "beta", "fold", "subset", "metric", "value"), rows)

    def to_summary_csv_string(self) -> str:
        samples = self.scores.shape[2] * self.scores.shape[4]
        rows = (
            (mode.value, sigma2, metric, mean, std, samples)
            for mode in self.config.modes
            for metric in ScoreTriple._fields
            for sigma2, mean, std in zip(self.config.sigma2_values, *self.curve(mode, metric))
        )
        return csv_text(("mode", "sigma2", "metric", "mean", "std", "samples"), rows)

    def metric_svg(self, metric: str) -> str:
        return line_plot(
            self.config.sigma2_values,
            {mode.value: self.curve(mode, metric)[0] for mode in self.config.modes},
            title=f"Oracle {metric} vs noise scale",
            x_label="sigma2",
            y_label=metric,
        )

    def write_outputs(self, out_dir: str | Path) -> list[Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return [
            write_text(out / "oracle_scores.csv", self.to_score_csv_string()),
            write_text(out / "oracle_summary.csv", self.to_summary_csv_string()),
            *(write_text(out / f"oracle_{metric}.svg", self.metric_svg(metric))
              for metric in ScoreTriple._fields),
        ]


def run_sweep(
    masks: Mapping[str, np.ndarray],
    folds: FoldPlan,
    config: SweepConfig,
    jobs: int = 1,
) -> SweepResult:
    """Full modes x sigma2 x folds x repetitions cross product over a
    {patient id: mask} mapping.

    Cell RNG streams are keyed, so the result is identical for any job
    count. Every fold's test ids are checked here, before any worker
    starts. Each task is a (fold, mode, sigma2) point with all its
    repetitions. With `jobs > 1` the points left after the first run in
    up to `jobs` workers once they would pay for them (`pool.map_cells`;
    the default sweep, about 0.15 s of points, never does), started the
    platform's default way (fork on Linux: a forked worker starts without
    re-importing the package), each given ({patient id: mask}, folds)
    once.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    for split in folds.folds:
        _check_test_ids(masks, split)
    points = list(itertools.product(range(len(config.modes)), range(len(config.sigma2_values)),
                                    range(len(folds.folds))))
    seeds = _point_seeds([(config.seed, *point) for point in points], range(config.repetitions))
    tasks = [(fold_index, config.modes[mode_index], config.sigma2_values[sigma_index], tuple(row))
             for (mode_index, sigma_index, fold_index), row in zip(points, seeds.tolist())]
    scores = pool.map_cells(_sweep_point, tasks, (masks, folds), jobs)
    shape = (len(config.modes), len(config.sigma2_values), len(folds.folds), 3, config.repetitions)
    return SweepResult(config=config, scores=np.array(scores).reshape(shape))
