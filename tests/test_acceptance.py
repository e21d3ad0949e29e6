"""Acceptance suite: one test per release criterion.

Each test prints a `[criterion N] PASS ...` line (visible with -s) and
asserts both the numeric requirement and its runtime budget. Corpus
sizes are pinned here so the whole suite stays reproducible.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from segnoise.cli import main as cli_main
from segnoise.config import CorpusSource
from segnoise.folds import DatasetSplit, make_folds
from segnoise.metrics import f_beta, grad_loss, soft_metrics
from segnoise.morphology import dilate, erode
from segnoise.noise import NoiseMode, NoiseSpec, corrupt_dataset, sample_scale
from segnoise.oracle import SweepConfig, run_sweep
from segnoise.phantom import PhantomSpec, generate_corpus
from segnoise.trainer import TrainConfig, beta_gridsearch

from conftest import mask_map
from reference import loss

RESULTS = []


def report(number: int, ok: bool, detail: str) -> None:
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def grid_corpus():
    spec = PhantomSpec(depth=5, height=48, width=48, radius_min=4.0, radius_max=8.0, margin=8)
    corpus = generate_corpus(spec, count=12, seed=7)
    plan = make_folds([r.patient_id for r in corpus], 1, (6, 2, 4), seed=11)
    return corpus, plan.folds[0]


GRID_TRAIN = TrainConfig(learning_rate=4.0, epochs=150)


def test_criterion_1_metric_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    max_dice_err = 0.0
    max_recall_err = 0.0
    for _ in range(1000):
        p = rng.random((64, 64))
        t = (rng.random((64, 64)) < 0.5).astype(np.float64)
        max_dice_err = max(max_dice_err, abs(f_beta(p, t, 1.0) - soft_metrics(p, t).dice))
        assert f_beta(p, t, 0.0) == soft_metrics(p, t).precision
        max_recall_err = max(max_recall_err, abs(f_beta(p, t, 1e3) - soft_metrics(p, t).recall))
    elapsed = time.perf_counter() - started
    ok = max_dice_err < 1e-12 and max_recall_err < 1e-3 and elapsed < 5.0
    report(
        1,
        ok,
        f"f1==dice err {max_dice_err:.2e} (<1e-12), f0==precision exact, "
        f"f1e3~recall err {max_recall_err:.2e} (<1e-3), {elapsed:.1f}s (<5s)",
    )


def test_criterion_2_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    eps = 1e-4
    worst = 0.0
    for beta in (0.0, 0.4, 1.0, 2.0):
        for _ in range(100):
            p = rng.uniform(0.05, 0.95, size=(16, 16))
            t = (rng.random((16, 16)) < 0.5).astype(np.float64)
            analytic = grad_loss(p, t, beta)
            numeric = np.zeros_like(p)
            flat_p = p.reshape(-1)
            flat_num = numeric.reshape(-1)
            for i in range(flat_p.size):
                probe = flat_p.copy()
                probe[i] = flat_p[i] + eps
                up = loss(probe.reshape(16, 16), t, beta)
                probe[i] = flat_p[i] - eps
                down = loss(probe.reshape(16, 16), t, beta)
                flat_num[i] = (up - down) / (2 * eps)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-12)
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 30.0
    report(2, ok, f"max relative gradient error {worst:.2e} (<1e-4), {elapsed:.1f}s (<30s)")


def test_criterion_3_morphology_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(303)

    def neighborhood_oracle(frame, k, require_all):
        # Direct Chebyshev-ball evaluation over zero-padded windows;
        # no iterated radius-1 passes involved.
        padded = np.pad(frame.astype(bool), k, constant_values=False)
        windows = np.lib.stride_tricks.sliding_window_view(padded, (2 * k + 1, 2 * k + 1))
        reduced = windows.all(axis=(2, 3)) if require_all else windows.any(axis=(2, 3))
        return reduced.astype(np.uint8)

    mismatches = 0
    for _ in range(200):
        frame = (rng.random((16, 16)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
        for k in (1, 2, 3):
            if not np.array_equal(dilate(frame, k), neighborhood_oracle(frame, k, False)):
                mismatches += 1
            if not np.array_equal(erode(frame, k), neighborhood_oracle(frame, k, True)):
                mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10.0
    report(3, ok, f"{mismatches} mismatches over 200 frames x k in {{1,2,3}}, {elapsed:.1f}s (<10s)")


def test_criterion_4_containment_invariants(grid_corpus):
    corpus, split = grid_corpus
    by_id = {r.patient_id: r for r in corpus}
    checked = 0
    violations = 0
    for mode in (NoiseMode.DILATE, NoiseMode.ERODE, NoiseMode.RANDOM):
        spec = NoiseSpec(mode=mode, sigma2=4.0, seed=404)
        masks, report_rows = corrupt_dataset(mask_map(corpus), split, spec)
        for row in report_rows.records:
            original = by_id[row.patient_id].mask[row.frame].astype(np.float64)
            corrupted = masks[row.patient_id][row.frame].astype(np.float64)
            from segnoise.metrics import hard_metrics

            triple = hard_metrics(corrupted, original)
            checked += 1
            if row.op == "erode" and triple.precision != 1.0:
                violations += 1
            if row.op == "dilate" and triple.recall != 1.0:
                violations += 1
    ok = violations == 0 and checked > 0
    report(4, ok, f"hard precision(eroded)=1 and recall(dilated)=1 on all {checked} frames")


def test_criterion_5_scale_sampling_statistics():
    started = time.perf_counter()
    draws = 100_000
    worst = 0.0
    for sigma2 in (1.0, 2.0, 3.0, 4.0, 5.0):
        rng = np.random.default_rng(505 + int(sigma2))
        zeros = sum(sample_scale(rng, sigma2) == 0 for _ in range(draws))
        expected = math.erf(1.0 / math.sqrt(sigma2) / math.sqrt(2.0))  # 2*Phi(1/sigma)-1
        worst = max(worst, abs(zeros / draws - expected))
    elapsed = time.perf_counter() - started
    ok = worst < 0.02 and elapsed < 5.0
    report(5, ok, f"max |P(k=0) - (2*Phi(1/sigma)-1)| = {worst:.4f} (<0.02), {elapsed:.1f}s (<5s)")


def test_criterion_6_oracle_sweep_shape():
    started = time.perf_counter()
    spec = PhantomSpec(depth=6, height=64, width=64)
    corpus = generate_corpus(spec, count=16, seed=606)
    split = DatasetSplit(train_ids=(), val_ids=(), test_ids=tuple(r.patient_id for r in corpus))
    from segnoise.folds import FoldPlan

    plan = FoldPlan(folds=(split,), seed=0)
    config = SweepConfig(
        modes=(NoiseMode.DILATE, NoiseMode.ERODE),
        sigma2_values=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
        repetitions=20,
        seed=606,
    )
    result = run_sweep(mask_map(corpus), plan, config, jobs=2)
    failures = []
    for mode in config.modes:
        means, stds = result.curve(mode, "dice")
        n = config.repetitions
        if means[0] != 1.0:
            failures.append(f"{mode.value}: dice at sigma2=0 is {means[0]!r}, not exactly 1")
        for i in range(len(means) - 1):
            slack = math.sqrt(stds[i] ** 2 + stds[i + 1] ** 2) / math.sqrt(n)
            if means[i + 1] > means[i] + slack:
                failures.append(
                    f"{mode.value}: dice rose {means[i]:.4f}->{means[i + 1]:.4f} "
                    f"at sigma2 {config.sigma2_values[i + 1]:g} beyond 1-sigma slack"
                )
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 120.0
    report(6, ok, f"monotone oracle dice decay, exact 1.0 at sigma2=0, {elapsed:.1f}s (<120s)"
           + ("" if not failures else f" | {failures}"))


def test_criterion_7_bias_cancellation_direction(grid_corpus):
    started = time.perf_counter()
    corpus, split = grid_corpus
    betas = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    grid = beta_gridsearch(
        CorpusSource.of(corpus),
        split,
        betas=betas,
        mode=NoiseMode.DILATE,
        sigma2_values=(0.0, 3.0, 4.0, 5.0),
        seeds=range(10),
        base_config=GRID_TRAIN,
        jobs=2,
    )
    failures = []
    margins = {}
    clean = {beta: grid.mean_metric(beta, 0.0) for beta in betas}
    if any(clean[1.0] < clean[beta] for beta in betas[:-1]):
        failures.append(f"dice at sigma2=0 not maximal at beta=1: {clean}")
    for sigma2 in (3.0, 4.0, 5.0):
        beta1 = grid.mean_metric(1.0, sigma2)
        best_low = max(grid.mean_metric(beta, sigma2) for beta in betas[:-1])
        margins[sigma2] = best_low - beta1
        if not best_low > beta1:
            failures.append(f"sigma2={sigma2:g}: best beta<1 ({best_low:.4f}) <= beta=1 ({beta1:.4f})")
    elapsed = time.perf_counter() - started
    margin_text = ", ".join(f"s2={s:g}:{m:+.4f}" for s, m in margins.items())
    ok = not failures and elapsed < 600.0
    report(7, ok, f"beta<1 beats beta=1 under dilation ({margin_text}; magnitude recorded, "
           f"direction asserted), beta=1 maximal at sigma2=0, {elapsed:.0f}s (<600s)"
           + ("" if not failures else f" | {failures}"))


def test_criterion_8_learned_bias_direction(grid_corpus):
    started = time.perf_counter()
    corpus, split = grid_corpus
    stats = {}
    for mode in (NoiseMode.ERODE, NoiseMode.DILATE):
        grid = beta_gridsearch(
            CorpusSource.of(corpus),
            split,
            betas=(1.0,),
            mode=mode,
            sigma2_values=(4.0,),
            seeds=range(10),
            base_config=GRID_TRAIN,
            jobs=2,
        )
        stats[mode] = (
            grid.mean_metric(1.0, 4.0, "precision"),
            grid.mean_metric(1.0, 4.0, "recall"),
        )
    elapsed = time.perf_counter() - started
    erode_ok = stats[NoiseMode.ERODE][0] > stats[NoiseMode.ERODE][1]
    dilate_ok = stats[NoiseMode.DILATE][1] > stats[NoiseMode.DILATE][0]
    ok = erode_ok and dilate_ok and elapsed < 300.0
    report(
        8,
        ok,
        f"eroded training: precision {stats[NoiseMode.ERODE][0]:.3f} > recall "
        f"{stats[NoiseMode.ERODE][1]:.3f}; dilated: recall {stats[NoiseMode.DILATE][1]:.3f} > "
        f"precision {stats[NoiseMode.DILATE][0]:.3f}; {elapsed:.0f}s (<300s)",
    )


def test_criterion_9_cli_determinism(tmp_path, costly_tasks, pool_starts):
    # Every task reads as costly, so a --jobs 8 run with three or more
    # tasks forks workers after the parent's first task. The config's
    # two grid cells leave one task, which the parent runs too, so a
    # three-seed grid is compared as well.
    config_payload = {
        "data": {
            "phantom": {
                "patients": 6, "seed": 7, "depth": 3, "height": 48, "width": 48,
                "radius_min": 4.0, "radius_max": 8.0, "margin": 8,
            }
        },
        "folds": {"n_folds": 1, "train": 3, "val": 1, "test": 2, "seed": 11, "fold_index": 0},
        "noise": {"mode": "random", "sigma2": 3.0, "seed": 99},
        "sweep": {"modes": ["dilate", "erode"], "sigma2_values": [0.0, 2.0, 4.0],
                   "repetitions": 3, "seed": 5},
        "grid": {"betas": [0.6, 1.0], "sigma2_values": [2.0], "seeds": 2},
        "train": {"learning_rate": 3.0, "epochs": 10, "seed": 0, "init_scale": 0.0},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_payload))

    def run(cmd, out, jobs=None, extra=()):
        argv = [cmd, "--config", str(config), "--out", str(out), *extra]
        if jobs is not None:
            argv += ["--jobs", str(jobs)]
        assert cli_main(argv) == 0

    def csv_bytes(root: Path) -> dict:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.suffix in (".csv", ".svg", ".json", ".raw")
        }

    mismatches, unforked = [], []
    for cmd, jobs_variants, extra in (
        ("phantom", (None, None), ()),
        ("corrupt", (None, None), ()),
        ("oracle", (1, 8), ()),
        ("gridsearch", (1, 8), ()),
        ("gridsearch", (1, 8), ("--seeds", "3")),
    ):
        name = " ".join((cmd, *extra))
        out_a = tmp_path / f"{cmd}{len(extra)}-a"
        out_b = tmp_path / f"{cmd}{len(extra)}-b"
        run(cmd, out_a, jobs_variants[0], extra)
        started = len(pool_starts)
        run(cmd, out_b, jobs_variants[1], extra)
        if csv_bytes(out_a) != csv_bytes(out_b):
            mismatches.append(name)
        if name in ("oracle", "gridsearch --seeds 3") and len(pool_starts) == started:
            unforked.append(name)
    ok = not mismatches and not unforked
    report(9, ok, "byte-identical reruns for phantom/corrupt/oracle/gridsearch, "
           "oracle+gridsearch agree across --jobs 1 vs 8 (forked workers at 8)"
           + ("" if not mismatches else f" | mismatches: {mismatches}")
           + ("" if not unforked else f" | no pool started: {unforked}"))
