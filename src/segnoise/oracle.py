"""Noise-robust oracle curves.

Simulates a hypothetical model that reproduces the mask corruption
distribution exactly: corrupt the test-subset ground-truth masks, score
them volume-wise against the originals, and sweep the result over
corruption modes and noise scales. Dilation leaves recall pinned at 1
and erosion leaves precision pinned at 1 (pure containment), so the
curves isolate what the corruption alone does to each score.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import pool
from .atomic import write_text
from .folds import DatasetSplit, FoldPlan
from .metrics import ScoreTriple, score_volumewise
from .noise import NoiseMode, corrupt_mask_volume
from .svgplot import line_plot, write_svg
from .volume import PatientRecord


@dataclass(frozen=True)
class SweepConfig:
    modes: tuple[NoiseMode, ...] = (NoiseMode.DILATE, NoiseMode.ERODE, NoiseMode.RANDOM)
    sigma2_values: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    repetitions: int = 20
    seed: int = 123

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(NoiseMode(m) for m in self.modes))
        object.__setattr__(self, "sigma2_values", tuple(float(s) for s in self.sigma2_values))
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if any(s < 0 for s in self.sigma2_values):
            raise ValueError(f"sigma2_values must all be >= 0, got {self.sigma2_values}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


def simulate_noise_robust(
    records: list[PatientRecord],
    split: DatasetSplit,
    mode: NoiseMode,
    sigma2: float,
    seed: int,
) -> ScoreTriple:
    """Corrupt the test masks, score against the originals, average."""
    by_id = {r.patient_id: r for r in records}
    _check_test_ids(by_id, split)
    triples = []
    for pid in split.test_ids:
        original = by_id[pid].mask
        corrupted, _ = corrupt_mask_volume(original, mode, sigma2, seed, pid)
        triples.append(score_volumewise(corrupted, original))
    stacked = np.array(triples, dtype=np.float64)
    mean = stacked.mean(axis=0)
    return ScoreTriple(dice=float(mean[0]), precision=float(mean[1]), recall=float(mean[2]))


def _sweep_cell(task) -> CellScore:
    """One (fold, mode, sigma2, seed, rep) cell against the installed
    (records, folds) context."""
    fold_index, mode, sigma2, seed, rep = task
    records, folds = pool.context()
    triple = simulate_noise_robust(records, folds.folds[fold_index], mode, sigma2, seed)
    return CellScore(mode=mode, sigma2=sigma2, fold=fold_index, rep=rep, triple=triple)


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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["mode", "sigma2", "beta", "fold", "subset", "metric", "value"])
        fold_indices = sorted({s.fold for s in self.samples})
        for mode in self.config.modes:
            for sigma2 in self.config.sigma2_values:
                cells = self.cells(mode, sigma2)
                for fold_index in fold_indices:
                    fold_cells = [s for s in cells if s.fold == fold_index]
                    for metric in ScoreTriple._fields:
                        value = float(np.mean([getattr(s.triple, metric) for s in fold_cells]))
                        writer.writerow(
                            [mode.value, format(sigma2, ".10g"), "", fold_index, "test",
                             metric, format(value, ".10g")]
                        )
        return buf.getvalue()

    def to_summary_csv_string(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["mode", "sigma2", "metric", "mean", "std", "samples"])
        for mode in self.config.modes:
            for metric in ScoreTriple._fields:
                means, stds = self.curve(mode, metric)
                for sigma2, mean, std in zip(self.config.sigma2_values, means, stds):
                    n = len(self.cells(mode, sigma2))
                    writer.writerow(
                        [mode.value, format(sigma2, ".10g"), metric,
                         format(mean, ".10g"), format(std, ".10g"), n]
                    )
        return buf.getvalue()

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
            dashed=True,
            y_range=(0.0, 1.05),
        )

    def write_outputs(self, out_dir: str | Path) -> list[Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        written.append(write_text(out / "oracle_scores.csv", self.to_score_csv_string()))
        written.append(write_text(out / "oracle_summary.csv", self.to_summary_csv_string()))
        for metric in ScoreTriple._fields:
            svg = out / f"oracle_{metric}.svg"
            write_svg(svg, self.metric_svg(metric))
            written.append(svg)
        return written


def run_sweep(
    records: list[PatientRecord],
    folds: FoldPlan,
    config: SweepConfig,
    jobs: int = 1,
) -> SweepResult:
    """Full modes x sigma2 x folds x repetitions cross product.

    Cell RNG streams are keyed, so the result is identical for any job
    count; samples are assembled in canonical cell order. Every fold's
    test ids are checked here, before any worker starts. With `jobs > 1`
    the cells run in `min(jobs, cells)` workers started the platform's
    default way (fork on Linux: the cells run no BLAS, and a forked
    worker starts without re-importing the package), each given
    (records, folds) once.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    known = {r.patient_id for r in records}
    for split in folds.folds:
        _check_test_ids(known, split)
    tasks = []
    for mode_index, mode in enumerate(config.modes):
        for sigma_index, sigma2 in enumerate(config.sigma2_values):
            for fold_index in range(len(folds.folds)):
                for rep in range(config.repetitions):
                    seed = cell_seed(config.seed, mode_index, sigma_index, fold_index, rep)
                    tasks.append((fold_index, mode, sigma2, seed, rep))
    samples = pool.map_cells(_sweep_cell, tasks, (records, folds), jobs)
    return SweepResult(config=config, samples=tuple(samples))
