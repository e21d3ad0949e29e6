"""Noise-robust oracle curves.

Simulates a hypothetical model that reproduces the mask corruption
distribution exactly: corrupt the test-subset ground-truth masks, score
them volume-wise against the originals, and sweep the result over
corruption modes and noise scales. Dilation leaves recall pinned at 1
and erosion leaves precision pinned at 1 (pure containment), so the
curves isolate what the corruption alone does to each score.

The sweep's unit of work is a (fold, mode, sigma2) point with all its
repetitions: each test mask is corrupted once per repetition seed in one
`count_repetitions` call, which derives every repetition's frame
streams at once, runs the radius-1 passes over all of them and returns
each repetition's integer (tp, sum_p) and the mask's sum_t; no
corrupted volume is built. `metrics.score_triples` turns the counts of
all test masks and repetitions into scores in one step. A point returns
one `CellScore` per repetition, in repetition order, each triple the
mean over test masks of the volume-wise scores, bit for bit what
`score_volumewise` gives on the corrupted volumes. `simulate_noise_robust`
is the one-seed case of the same code. The sweep needs only masks: its
context is ({patient id: mask}, folds).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import pool
from .atomic import csv_text, write_text
from .folds import DatasetSplit, FoldPlan
from .metrics import ScoreTriple, score_triples
from .noise import count_repetitions
from .specs import NoiseMode, SweepConfig
from .svgplot import line_plot
from .volume import PatientRecord


@dataclass(frozen=True)
class CellScore:
    mode: NoiseMode
    sigma2: float
    fold: int
    rep: int
    triple: ScoreTriple


def cell_seed(base_seed: int, mode_index: int, sigma_index: int, fold_index: int, rep: int) -> int:
    """Stable 64-bit seed for one sweep cell."""
    state = np.random.SeedSequence(
        [int(base_seed), mode_index, sigma_index, fold_index, rep]
    ).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


def _check_test_ids(known, split: DatasetSplit) -> None:
    missing = [pid for pid in split.test_ids if pid not in known]
    if missing:
        raise KeyError(f"split references unknown patient ids: {missing}")
    if not split.test_ids:
        raise ValueError("split has an empty test subset")


def _point_triples(
    masks: Mapping[str, np.ndarray], split: DatasetSplit, mode: NoiseMode, sigma2: float,
    seeds: Sequence[int],
) -> list[ScoreTriple]:
    """Per seed, in order: the test masks corrupted with that seed's
    streams, each scored volume-wise against its original, averaged."""
    _check_test_ids(masks, split)
    counts = [count_repetitions(masks[pid], mode, sigma2, seeds, pid) for pid in split.test_ids]
    tp, sum_p, sum_t = (np.array(column) for column in zip(*counts))
    means = score_triples(tp, sum_p, sum_t[:, None]).mean(axis=0)
    return [ScoreTriple(*mean) for mean in means.tolist()]


def simulate_noise_robust(
    records: list[PatientRecord],
    split: DatasetSplit,
    mode: NoiseMode,
    sigma2: float,
    seed: int,
) -> ScoreTriple:
    """Corrupt the test masks, score against the originals, average."""
    masks = {r.patient_id: r.mask for r in records}
    return _point_triples(masks, split, mode, sigma2, [seed])[0]


def _sweep_point(task) -> list[CellScore]:
    """One (fold, mode, sigma2) point's cells, one per repetition seed in
    order, against the installed ({patient id: mask}, folds) context."""
    fold_index, mode, sigma2, seeds = task
    masks, folds = pool.context()
    triples = _point_triples(masks, folds.folds[fold_index], mode, sigma2, seeds)
    return [CellScore(mode=mode, sigma2=sigma2, fold=fold_index, rep=rep, triple=triple)
            for rep, triple in enumerate(triples)]


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    samples: tuple[CellScore, ...]

    @cached_property
    def _by_cell(self) -> dict[tuple[NoiseMode, float], list[CellScore]]:
        index: dict[tuple[NoiseMode, float], list[CellScore]] = {}
        for s in self.samples:
            index.setdefault((s.mode, s.sigma2), []).append(s)
        return index

    def cells(self, mode: NoiseMode, sigma2: float) -> list[CellScore]:
        return list(self._by_cell.get((NoiseMode(mode), sigma2), ()))

    def curve(self, mode: NoiseMode, metric: str) -> tuple[list[float], list[float]]:
        """(means, stds) of one metric across sigma2 values."""
        means, stds = [], []
        for sigma2 in self.config.sigma2_values:
            values = [getattr(s.triple, metric) for s in self.cells(mode, sigma2)]
            means.append(float(np.mean(values)))
            stds.append(float(np.std(values)))
        return means, stds

    def to_score_csv_string(self) -> str:
        """ScoreTable rows: per-fold means over repetitions."""
        rows = []
        fold_indices = sorted({s.fold for s in self.samples})
        for mode in self.config.modes:
            for sigma2 in self.config.sigma2_values:
                cells = self.cells(mode, sigma2)
                for fold_index in fold_indices:
                    fold_cells = [s for s in cells if s.fold == fold_index]
                    for metric in ScoreTriple._fields:
                        value = float(np.mean([getattr(s.triple, metric) for s in fold_cells]))
                        rows.append((mode.value, sigma2, None, fold_index, "test", metric, value))
        return csv_text(("mode", "sigma2", "beta", "fold", "subset", "metric", "value"), rows)

    def to_summary_csv_string(self) -> str:
        rows = []
        for mode in self.config.modes:
            for metric in ScoreTriple._fields:
                means, stds = self.curve(mode, metric)
                for sigma2, mean, std in zip(self.config.sigma2_values, means, stds):
                    rows.append((mode.value, sigma2, metric, mean, std, len(self.cells(mode, sigma2))))
        return csv_text(("mode", "sigma2", "metric", "mean", "std", "samples"), rows)

    def metric_svg(self, metric: str) -> str:
        series = {}
        for mode in self.config.modes:
            means, _ = self.curve(mode, metric)
            series[mode.value] = means
        return line_plot(
            self.config.sigma2_values,
            series,
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
    corpus: list[PatientRecord] | Mapping[str, np.ndarray],
    folds: FoldPlan,
    config: SweepConfig,
    jobs: int = 1,
) -> SweepResult:
    """Full modes x sigma2 x folds x repetitions cross product over a
    list of records or a {patient id: mask} mapping.

    Cell RNG streams are keyed, so the result is identical for any job
    count; samples are assembled in canonical cell order. Every fold's
    test ids are checked here, before any worker starts. Each task is a
    (fold, mode, sigma2) point with all its repetitions. With `jobs > 1`
    the points run in `min(jobs, points)` workers started the platform's
    default way (fork on Linux: a forked worker starts without
    re-importing the package), each given ({patient id: mask}, folds)
    once.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    masks = corpus if isinstance(corpus, Mapping) else {r.patient_id: r.mask for r in corpus}
    for split in folds.folds:
        _check_test_ids(masks, split)
    tasks = []
    for mode_index, mode in enumerate(config.modes):
        for sigma_index, sigma2 in enumerate(config.sigma2_values):
            for fold_index in range(len(folds.folds)):
                seeds = tuple(cell_seed(config.seed, mode_index, sigma_index, fold_index, rep)
                              for rep in range(config.repetitions))
                tasks.append((fold_index, mode, sigma2, seeds))
    points = pool.map_cells(_sweep_point, tasks, (masks, folds), jobs)
    return SweepResult(config=config, samples=tuple(cell for point in points for cell in point))
