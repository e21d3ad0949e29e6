import ctypes
import json
import multiprocessing
import os
import pickle
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from segnoise import config as cfgmod
from segnoise import pool, trainer
from segnoise.folds import DatasetSplit, make_folds
from segnoise.metrics import hard_metrics, soft_metrics
from segnoise.noise import NoiseMode, NoiseSpec, corrupt_mask_volume
from segnoise.phantom import PhantomSpec, generate_corpus
from segnoise.trainer import (
    LinearSegmenter,
    TrainConfig,
    _descend,
    _sigmoid_from_half,
    beta_gridsearch,
    extract_features,
    predict,
)
from segnoise.volume import zscore_normalize

import reference
from conftest import corrupt_split, mask_map, record_source
from reference import loss, train


def brute_force_box_mean(frame, radius):
    h, w = frame.shape
    out = np.zeros((h, w))
    size = 2 * radius + 1
    for y in range(h):
        for x in range(w):
            total = 0.0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        total += frame[yy, xx]
            out[y, x] = total / size**2
    return out


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(PhantomSpec(depth=4, height=64, width=64), count=8, seed=7)


@pytest.fixture(scope="module")
def samples(corpus):
    pairs = []
    for rec in corpus[:4]:
        image = zscore_normalize(rec.modalities["m0"])
        for frame_index in range(image.shape[0]):
            pairs.append((image[frame_index], rec.mask[frame_index]))
    return pairs


class TestFeatures:
    def test_constant_zero_frame(self):
        feats = extract_features(np.zeros((6, 6)))
        assert feats.shape == (6, 6, 5)
        assert np.all(feats[..., :4] == 0.0)
        assert np.all(feats[..., 4] == 1.0)

    def test_single_bright_pixel_spreads_over_box(self):
        frame = np.zeros((7, 7))
        frame[3, 3] = 9.0
        feats = extract_features(frame)
        mean3 = feats[..., 1]
        assert mean3[3, 3] == pytest.approx(1.0)
        assert mean3[2, 3] == pytest.approx(1.0)
        assert mean3[3, 2] == pytest.approx(1.0)
        assert mean3[0, 0] == 0.0

    @pytest.mark.parametrize("radius,feature_index", [(1, 1), (3, 3)])
    def test_box_mean_matches_brute_force(self, radius, feature_index):
        rng = np.random.default_rng(0)
        frame = rng.normal(size=(11, 13))
        feats = extract_features(frame)
        expected = brute_force_box_mean(frame, radius)
        assert np.allclose(feats[..., feature_index], expected, atol=1e-10)

    def test_box_std_matches_brute_force(self):
        rng = np.random.default_rng(1)
        frame = rng.normal(size=(9, 9))
        feats = extract_features(frame)
        mean = brute_force_box_mean(frame, 1)
        mean_sq = brute_force_box_mean(frame * frame, 1)
        expected = np.sqrt(np.clip(mean_sq - mean**2, 0, None))
        assert np.allclose(feats[..., 2], expected, atol=1e-10)

    def test_rejects_non_finite(self):
        frame = np.zeros((4, 4))
        frame[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            extract_features(frame)


def two_branch_sigmoid(z):
    """The overflow-safe logistic the tanh form replaced, kept as reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


class TestSigmoid:
    def test_tanh_form_matches_two_branch_form(self):
        z = np.concatenate([
            np.linspace(-1e6, 1e6, 200_001),
            np.linspace(-50.0, 50.0, 100_001),
            [-745.0, 745.0, -746.0, 746.0, -709.8, 709.8, 0.0, -0.0, 1e-300, -1e-300],
        ])
        reference = two_branch_sigmoid(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = _sigmoid_from_half(z * 0.5)
        assert np.max(np.abs(p - reference)) <= 4.5e-16
        assert p.min() >= 0.0 and p.max() <= 1.0

    def test_overwrites_and_returns_its_argument(self):
        h = np.array([-1.0, 0.0, 1.5])
        assert _sigmoid_from_half(h) is h
        assert h[1] == 0.5


class TestPredict:
    def test_zero_weights_give_half(self):
        model = LinearSegmenter(weights=np.zeros(5))
        feats = extract_features(np.random.default_rng(2).normal(size=(5, 5)))
        assert np.all(predict(model, feats) == 0.5)

    def test_saturates_toward_binary_with_scaled_weights(self):
        rng = np.random.default_rng(3)
        frame = rng.normal(size=(6, 6))
        feats = extract_features(frame)
        model = LinearSegmenter(weights=np.array([1000.0, 0, 0, 0, 0]))
        p = predict(model, feats)
        assert np.all((p > 0.999) | (p < 0.001))

    def test_matches_scalar_dot_product(self):
        rng = np.random.default_rng(4)
        frame = rng.normal(size=(3, 3))
        feats = extract_features(frame)
        w = np.array([0.3, -0.2, 0.1, 0.05, -0.4])
        model = LinearSegmenter(weights=w)
        p = predict(model, feats)
        for y in range(3):
            for x in range(3):
                z = sum(feats[y, x, i] * w[i] for i in range(5))
                assert p[y, x] == pytest.approx(1.0 / (1.0 + np.exp(-z)), abs=1e-12)

    def test_arity_mismatch(self):
        model = LinearSegmenter(weights=np.zeros(5))
        with pytest.raises(ValueError, match="arity"):
            predict(model, np.zeros((4, 4, 3)))


class TestTrain:
    def test_clean_phantom_reaches_high_soft_dice(self, samples):
        model, history = train(samples, TrainConfig(learning_rate=4.0, epochs=200))
        dices = [
            soft_metrics(predict(model, extract_features(img)), mask).dice for img, mask in samples
        ]
        assert float(np.mean(dices)) > 0.85
        assert history[-1] < history[0]

    def test_zero_learning_rate_keeps_weights_and_history_constant(self, samples):
        model, history = train(samples[:4], TrainConfig(learning_rate=0.0, epochs=5))
        assert np.all(model.weights == 0.0)
        assert len(set(history)) == 1

    def test_deterministic_per_seed(self, samples):
        cfg = TrainConfig(learning_rate=2.0, epochs=30, seed=5, init_scale=0.1)
        a, hist_a = train(samples[:6], cfg)
        b, hist_b = train(samples[:6], cfg)
        assert np.array_equal(a.weights, b.weights)
        assert hist_a == hist_b

    def test_loss_decreases_over_first_epochs(self, samples):
        _, history = train(samples, TrainConfig(learning_rate=4.0, epochs=10))
        increases = sum(1 for a, b in zip(history, history[1:]) if b > a)
        assert increases <= 2

    def test_epoch_losses_match_metrics_loss(self, samples):
        # The vectorized descent must agree with the canonical per-frame
        # loss at epoch 0 (weights all zero -> p = 0.5 everywhere).
        subset = samples[:5]
        _, history = train(subset, TrainConfig(learning_rate=1.0, epochs=1), beta=0.7)
        expected = np.mean(
            [loss(np.full(mask.shape, 0.5), mask, 0.7) for _, mask in subset]
        )
        assert history[0] == pytest.approx(float(expected), abs=1e-12)

    def test_composed_gradient_matches_finite_differences(self):
        # One epoch at learning_rate 1 moves the weights by exactly
        # -grad_w (a learning_rate 0 run returns the initial weights), so
        # the gradient `_descend` follows can be read off the step and
        # compared with central differences of the mean per-frame loss.
        rng = np.random.default_rng(6)
        samples = [
            (rng.normal(size=(8, 8)), (rng.random((8, 8)) < 0.4).astype(np.float64))
            for _ in range(3)
        ]
        config, beta = TrainConfig(learning_rate=1.0, epochs=1, seed=2, init_scale=0.3), 0.6
        w0 = train(samples, replace(config, learning_rate=0.0), beta)[0].weights
        model, _ = train(samples, config, beta)
        analytic = w0 - model.weights
        feats = [extract_features(img) for img, _ in samples]

        def objective(weights):
            return np.mean([
                loss(1.0 / (1.0 + np.exp(-(f @ weights))), mask, beta)
                for f, (_, mask) in zip(feats, samples)
            ])

        eps = 1e-6
        for i in range(5):
            bump = np.zeros(5)
            bump[i] = eps
            numeric = (objective(w0 + bump) - objective(w0 - bump)) / (2 * eps)
            assert abs(analytic[i] - numeric) / max(abs(numeric), 1e-12) < 1e-3

    def test_mixed_shapes_rejected(self):
        with pytest.raises(ValueError, match="share one shape"):
            train(
                [(np.zeros((4, 4)), np.zeros((4, 4))), (np.zeros((5, 5)), np.zeros((5, 5)))],
                TrainConfig(epochs=1),
            )

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            train([], TrainConfig())

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -0.5])
    def test_bad_beta_rejected(self, samples, beta):
        with pytest.raises(ValueError, match="beta"):
            train(samples[:2], TrainConfig(epochs=1), beta=beta)


needs_fork = pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                                reason="the platform's default start method is not fork")
needs_openblas = pytest.mark.skipif(pool._openblas_threads() is None,
                                    reason="numpy's bundled OpenBLAS not found")


def _append(path, line):
    """Append one line to `path`; workers and the parent share the file."""
    with open(path, "a") as f:
        f.write(line + "\n")


def _fail(*args):
    raise RuntimeError("cell failed")


@pytest.fixture(scope="module")
def grid_setup(corpus):
    plan = make_folds([r.patient_id for r in corpus], 1, (4, 1, 3), seed=3)
    return record_source(corpus), plan.folds[0]


class TestGridsearch:
    def test_single_cell_equals_plain_pipeline(self, grid_setup, corpus):
        source, split = grid_setup
        cfg = TrainConfig(learning_rate=3.0, epochs=40)
        grid = beta_gridsearch(
            source, split, betas=[1.0], mode=NoiseMode.DILATE,
            sigma2_values=[0.0], seeds=[0], base_config=cfg,
        )
        assert grid.scores.shape == (1, 1, 3, 1)
        cell = grid.scores[0, 0, :, 0]

        # Plain pipeline: sigma2=0 leaves masks clean.
        masks, _ = corrupt_split(
            mask_map(corpus), split, NoiseSpec(mode=NoiseMode.DILATE, sigma2=0.0, seed=0)
        )
        by_id = {r.patient_id: r for r in corpus}
        samples = []
        for pid in split.train_ids:
            image = zscore_normalize(by_id[pid].modalities["m0"])
            for f in range(image.shape[0]):
                samples.append((image[f], masks[pid][f]))
        model, _ = train(samples, cfg, beta=1.0)
        triples = []
        for pid in split.test_ids:
            image = zscore_normalize(by_id[pid].modalities["m0"])
            pred = np.stack([predict(model, extract_features(fr)) for fr in image])
            triples.append(hard_metrics(pred, by_id[pid].mask))
        expected = np.array(triples).mean(axis=0)
        assert cell == pytest.approx(expected, abs=1e-12)

    def test_deterministic_and_parallel_identical(self, grid_setup, costly_tasks, pool_starts):
        # A 2 x 2 grid of cells writes the same CSV bytes at any job count.
        # The parent trains the first cell; the other three go to two
        # workers at --jobs 2 and to three at --jobs 8.
        source, split = grid_setup
        kwargs = dict(betas=[0.4, 1.0, 2.0], mode=NoiseMode.RANDOM, sigma2_values=[2.0, 4.0],
                      seeds=[0, 1], base_config=TrainConfig(learning_rate=3.0, epochs=15))
        grids = {jobs: beta_gridsearch(source, split, jobs=jobs, **kwargs) for jobs in (1, 2, 8)}
        assert pool_starts == [2, 3]
        assert grids[1].scores.tobytes() == grids[2].scores.tobytes() == grids[8].scores.tobytes()
        csvs = {jobs: grid.to_csv_string().encode() for jobs, grid in grids.items()}
        assert csvs[1] == csvs[2] == csvs[8]
        assert len(csvs[1].splitlines()) == 1 + 2 * 2 * 3

    def test_csv_and_heatmap(self, grid_setup, tmp_path):
        source, split = grid_setup
        cfg = TrainConfig(learning_rate=3.0, epochs=10)
        grid = beta_gridsearch(
            source, split, betas=[0.5, 1.0], mode=NoiseMode.ERODE,
            sigma2_values=[0.0, 2.0], seeds=[0], base_config=cfg,
        )
        lines = grid.to_csv_string().splitlines()
        assert lines[0] == "beta,sigma2,seed,test_dice,test_precision,test_recall"
        assert len(lines) == 1 + 4
        files = grid.write_outputs(tmp_path)
        assert all(f.exists() for f in files)
        svg = grid.heatmap_svg()
        assert svg.startswith("<svg")

    @needs_fork
    @pytest.mark.parametrize("sigma2_values,seeds,jobs", [([1.0, 3.0], [0, 1], 1), ([2.0, 3.0], [0, 1], 4)])
    def test_each_cell_corrupts_train_masks_once(self, grid_setup, monkeypatch, tmp_path, costly_tasks,
                                                 sigma2_values, seeds, jobs):
        # Every beta of a (sigma2, seed) cell trains on the same corrupted
        # targets, so each cell's task corrupts every train mask in one
        # call, with no betas factor. At jobs=4 the pool starts after the
        # first cell, so the forked workers' calls go to a shared file.
        source, split = grid_setup
        log = tmp_path / "calls.txt"
        original = trainer.corrupt_masks

        def counting(masks, mode, sigma2, seeds, patient_ids, out=None):
            _append(log, json.dumps([sigma2, list(seeds), list(patient_ids)]))
            return original(masks, mode, sigma2, seeds, patient_ids, out=out)

        monkeypatch.setattr(trainer, "corrupt_masks", counting)
        beta_gridsearch(
            source, split, betas=[0.3, 1.0, 2.0], mode=NoiseMode.DILATE,
            sigma2_values=sigma2_values, seeds=seeds, base_config=TrainConfig(epochs=2), jobs=jobs,
        )
        calls = sorted(json.loads(line) for line in log.read_text().splitlines())
        assert calls == [[s2, [seed], list(split.train_ids)] for s2 in sigma2_values for seed in seeds]

    def test_sigma2_zero_cell_runs_once_and_is_reported_per_seed(self, grid_setup, monkeypatch, tmp_path):
        # Each seed run alone computes its own sigma2 = 0 cell; the joint
        # grid computes it once for the first seed and copies it.
        source, split = grid_setup
        kwargs = dict(betas=[0.5, 1.0], mode=NoiseMode.RANDOM, sigma2_values=[0.0, 4.0],
                      base_config=TrainConfig(epochs=15))
        alone = [beta_gridsearch(source, split, seeds=[seed], **kwargs) for seed in (5, 6, 7)]
        calls = []
        original = trainer.corrupt_masks

        def counting(masks, mode, sigma2, seeds, patient_ids, out=None):
            calls.append((sigma2, list(seeds), list(patient_ids)))
            return original(masks, mode, sigma2, seeds, patient_ids, out=out)

        monkeypatch.setattr(trainer, "corrupt_masks", counting)
        joint = beta_gridsearch(source, split, seeds=[5, 6, 7], **kwargs)
        ids = list(split.train_ids)
        assert calls == [(0.0, [5], ids), (4.0, [5], ids), (4.0, [6], ids), (4.0, [7], ids)]

        reference = replace(joint, scores=np.concatenate([grid.scores for grid in alone], axis=-1))
        joint.write_outputs(tmp_path / "joint")
        reference.write_outputs(tmp_path / "reference")
        for name in ("grid_scores.csv", "grid_dice_heatmap.svg"):
            assert (tmp_path / "joint" / name).read_bytes() == (tmp_path / "reference" / name).read_bytes()

    @needs_fork
    def test_forked_workers_inherit_one_blas_thread_and_never_call_the_setter(
        self, grid_setup, monkeypatch, tmp_path, costly_tasks, pool_starts
    ):
        # The parent pins BLAS before the pool forks. A setter call in a
        # forked worker would restart OpenBLAS's spinning server thread.
        source, split = grid_setup
        log = tmp_path / "calls"
        threads = [4]

        def set_threads(count):
            _append(log, f"set {os.getpid()} {count}")
            threads[0] = count

        original = trainer._descend

        def descend(*args):
            _append(log, f"descend {os.getpid()} {threads[0]}")
            return original(*args)

        monkeypatch.setattr(pool, "_openblas_threads", lambda: (lambda: threads[0], set_threads))
        monkeypatch.setattr(trainer, "_descend", descend)
        # Three cells: the first trains in the parent, which may run
        # GEMMs before it forks, and two workers train the others. Each
        # cell is one lockstep descent.
        beta_gridsearch(source, split, betas=[0.5, 1.0], mode=NoiseMode.DILATE,
                        sigma2_values=[1.0], seeds=[0, 1, 2], base_config=TrainConfig(epochs=2), jobs=2)
        calls = [line.split() for line in log.read_text().splitlines()]
        parent = str(os.getpid())
        assert [c for c in calls if c[0] == "set"] == [["set", parent, "1"], ["set", parent, "4"]]
        descents = [c for c in calls if c[0] == "descend"]
        assert descents[0] == ["descend", parent, "1"]
        assert len(descents) == 3
        assert all(pid != parent and count == "1" for _, pid, count in descents[1:])
        assert pool_starts == [2]
        assert threads == [4]

    @needs_fork
    @needs_openblas
    def test_forked_workers_report_one_openblas_thread(self, grid_setup, monkeypatch, tmp_path, costly_tasks,
                                                      pool_starts):
        source, split = grid_setup
        get_threads, set_threads = pool._openblas_threads()
        log = tmp_path / "threads"
        original = trainer._descend

        def descend(*args):
            _append(log, f"{os.getpid()} {get_threads()}")
            return original(*args)

        monkeypatch.setattr(trainer, "_descend", descend)
        saved = get_threads()
        set_threads(2)
        try:
            # Three cells: the parent trains the first, with real GEMMs,
            # before a pool of two starts for the others.
            beta_gridsearch(source, split, betas=[0.5, 1.0], mode=NoiseMode.DILATE,
                            sigma2_values=[1.0], seeds=[0, 1, 2], base_config=TrainConfig(epochs=2), jobs=2)
            assert get_threads() == 2
        finally:
            set_threads(saved)
        descents = [line.split() for line in log.read_text().splitlines()]
        assert [count for _, count in descents] == ["1", "1", "1"]
        assert descents[0][0] == str(os.getpid()) and str(os.getpid()) not in [pid for pid, _ in descents[1:]]
        assert pool_starts == [2]

    @needs_fork
    def test_one_process_trains_all_of_a_cells_betas(self, grid_setup, monkeypatch, tmp_path, costly_tasks):
        source, split = grid_setup
        kwargs = dict(betas=[0.5, 1.0], mode=NoiseMode.DILATE, sigma2_values=[2.0], seeds=[0, 1, 2],
                      base_config=TrainConfig(epochs=5))
        serial = beta_gridsearch(source, split, jobs=1, **kwargs)

        # The parent trains the first cell. In the workers, each cell's
        # descent waits for the other cell's: one worker holding both
        # cells would break the barrier instead of training them in
        # turn. Each descent trains every beta of its cell on bool targets.
        log = tmp_path / "descents"
        barrier = multiprocessing.get_context("fork").Barrier(2)
        contexts = []
        original_descend, original_map = trainer._descend, trainer.pool.map_cells
        parent = os.getpid()

        def descend(features, targets, config, betas):
            _append(log, f"{os.getpid()} {targets.dtype} {' '.join(map(str, betas))}")
            if os.getpid() != parent:
                barrier.wait(timeout=60)
            return original_descend(features, targets, config, betas)

        def map_cells(function, tasks, ctx, jobs, **kwargs):
            contexts.append((tasks, ctx, kwargs))
            return original_map(function, tasks, ctx, jobs, **kwargs)

        monkeypatch.setattr(trainer, "_descend", descend)
        monkeypatch.setattr(trainer.pool, "map_cells", map_cells)
        parallel = beta_gridsearch(source, split, jobs=2, **kwargs)
        descents = [line.split() for line in log.read_text().splitlines()]
        pids = [pid for pid, *_ in descents]
        assert pids[0] == str(parent)
        assert len(set(pids[1:])) == len(pids[1:]) == 2
        assert str(parent) not in pids[1:]
        assert [rest for _, *rest in descents] == [["bool", "0.5", "1.0"]] * 3
        ((tasks, (_, train_masks, train_ids, mode, _, betas), kwargs),) = contexts
        assert tasks == [(2.0, 0), (2.0, 1), (2.0, 2)] and betas == (0.5, 1.0)
        # The context holds the clean train masks, not any cell's targets.
        assert train_ids == split.train_ids and mode is NoiseMode.DILATE
        assert all(np.array_equal(mask, source.mask(pid)) for mask, pid in zip(train_masks, train_ids, strict=True))
        assert kwargs == {}

        serial.write_outputs(tmp_path / "serial")
        parallel.write_outputs(tmp_path / "parallel")
        for name in ("grid_scores.csv", "grid_dice_heatmap.svg"):
            assert (tmp_path / "parallel" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()

    def test_one_cell_grid_starts_no_pool(self, grid_setup, monkeypatch):
        # A grid of one distinct cell is one task, so even at --jobs 2 it
        # trains in this process.
        import concurrent.futures

        source, split = grid_setup
        kwargs = dict(betas=[0.5, 1.0], mode=NoiseMode.DILATE, sigma2_values=[2.0], seeds=[0],
                      base_config=TrainConfig(epochs=5))
        serial = beta_gridsearch(source, split, jobs=1, **kwargs)
        pids = []
        original = trainer._descend
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _fail)
        monkeypatch.setattr(trainer, "_descend", lambda *args: pids.append(os.getpid()) or original(*args))
        assert beta_gridsearch(source, split, jobs=2, **kwargs).scores.tobytes() == serial.scores.tobytes()
        assert pids == [os.getpid()]

    def test_zero_variance_second_modality_is_never_read(self, grid_setup, corpus):
        # The features read only the first modality, so only it is
        # z-scored; a flat second modality, which zscore_normalize
        # rejects, changes nothing. A flat first modality is rejected
        # with its patient and modality named.
        source, split = grid_setup
        flat = [replace(r, modalities={
            "m0": r.modalities["m0"], "m1": np.ones(r.mask.shape, dtype=np.float32)}) for r in corpus]
        with pytest.raises(ValueError, match="zero variance"):
            zscore_normalize(flat[0].modalities["m1"])
        kwargs = dict(betas=[0.6, 1.0], mode=NoiseMode.DILATE, sigma2_values=[2.0], seeds=[1],
                      base_config=TrainConfig(learning_rate=3.0, epochs=5))
        grid = beta_gridsearch(record_source(flat), split, **kwargs)
        assert grid.scores.tobytes() == beta_gridsearch(source, split, **kwargs).scores.tobytes()
        first_flat = [replace(r, modalities={
            "m1": np.ones(r.mask.shape, dtype=np.float32), "m0": r.modalities["m0"]}) for r in corpus]
        with pytest.raises(ValueError, match=f"patient '{split.train_ids[0]}', modality 'm1': zero variance"):
            beta_gridsearch(record_source(first_flat), split, **kwargs)

    def test_mixed_frame_shapes_rejected_before_any_feature(self, grid_setup, corpus, monkeypatch):
        source, split = grid_setup
        odd_id = split.test_ids[-1]
        small = {r.patient_id: r for r in generate_corpus(
            PhantomSpec(depth=4, height=48, width=48), count=len(corpus), seed=7)}
        records = [small[r.patient_id] if r.patient_id == odd_id else r for r in corpus]

        def no_features(*args):
            raise AssertionError("features built before the shape check")

        monkeypatch.setattr(trainer, "_feature_stack", no_features)
        with pytest.raises(ValueError, match=rf"{odd_id}.*\(48, 48\).*{split.train_ids[0]}.*\(64, 64\)"):
            beta_gridsearch(record_source(records), split, betas=[1.0], mode=NoiseMode.DILATE,
                            sigma2_values=[1.0], seeds=[0])

    def test_a_validation_patient_of_another_frame_shape_is_never_read(self, grid_setup, corpus):
        source, split = grid_setup
        odd_id = split.val_ids[0]
        small = {r.patient_id: r for r in generate_corpus(
            PhantomSpec(depth=4, height=48, width=48), count=len(corpus), seed=7)}
        records = [small[r.patient_id] if r.patient_id == odd_id else r for r in corpus]
        kwargs = dict(betas=[1.0], mode=NoiseMode.DILATE, sigma2_values=[1.0], seeds=[0],
                      base_config=TrainConfig(learning_rate=3.0, epochs=5))
        grid = beta_gridsearch(record_source(records), split, **kwargs)
        assert grid.scores.tobytes() == beta_gridsearch(source, split, **kwargs).scores.tobytes()

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, grid_setup, jobs):
        source, split = grid_setup
        with pytest.raises(ValueError, match="jobs"):
            beta_gridsearch(source, split, betas=[1.0], mode=NoiseMode.DILATE,
                            sigma2_values=[1.0], seeds=[0], jobs=jobs)

    @pytest.mark.parametrize("axis, values", [("betas", [0.5, 1.0, 0.5]), ("sigma2_values", [2.0, 2]),
                                              ("seeds", [1, 1])])
    def test_repeated_axis_value_rejected_before_any_work(self, grid_setup, monkeypatch, axis, values):
        source, split = grid_setup
        kwargs = {"betas": [1.0], "mode": NoiseMode.DILATE, "sigma2_values": [1.0], "seeds": [0], axis: values}
        monkeypatch.setattr(trainer, "_grid_inputs", _fail)
        with pytest.raises(ValueError, match=f"{axis} must not repeat a value"):
            beta_gridsearch(source, split, **kwargs)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -1.0])
    def test_bad_beta_rejected_before_any_work(self, grid_setup, monkeypatch, beta):
        source, split = grid_setup
        monkeypatch.setattr(trainer, "_grid_inputs", _fail)
        with pytest.raises(ValueError, match="beta must be finite and >= 0"):
            beta_gridsearch(source, split, betas=[1.0, beta], mode=NoiseMode.DILATE,
                            sigma2_values=[1.0], seeds=[0])

    @pytest.mark.parametrize("sigma2", [float("nan"), float("inf"), -1.0])
    def test_bad_sigma2_rejected_before_any_work(self, grid_setup, monkeypatch, sigma2):
        source, split = grid_setup
        monkeypatch.setattr(trainer, "_grid_inputs", _fail)
        monkeypatch.setattr(trainer, "corrupt_masks", _fail)
        with pytest.raises(ValueError, match=r"sigma2_values\[1\] must be finite and >= 0"):
            beta_gridsearch(source, split, betas=[1.0], mode=NoiseMode.DILATE,
                            sigma2_values=[3.0, sigma2], seeds=[0])

    def test_unknown_patient_rejected_before_any_feature(self, grid_setup, monkeypatch):
        source, split = grid_setup
        split = DatasetSplit(train_ids=split.train_ids + ("ghost",), val_ids=(), test_ids=split.test_ids)
        monkeypatch.setattr(trainer, "_feature_stack", _fail)
        with pytest.raises(KeyError, match=r"split references unknown patient ids: \['ghost'\]"):
            beta_gridsearch(source, split, betas=[1.0], mode=NoiseMode.DILATE,
                            sigma2_values=[1.0], seeds=[0])

    def test_empty_axes_rejected(self, grid_setup):
        source, split = grid_setup
        with pytest.raises(ValueError, match="non-empty"):
            beta_gridsearch(source, split, betas=[], mode=NoiseMode.DILATE,
                            sigma2_values=[1.0], seeds=[0])


def test_grid_result_outputs_read_the_score_array_exactly(monkeypatch):
    # A mean over seeds must equal `np.mean` of the values as a list, bit
    # for bit; see TestSweepResultReductions in test_oracle.py.
    betas, sigma2_values, seeds = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0), (0.0, 3.0, 4.0, 5.0), tuple(range(10))
    scores = np.random.default_rng(13).random((4, 6, 3, 10))
    grid = trainer.GridResult(betas=betas, sigma2_values=sigma2_values, seeds=seeds, scores=scores)
    for s, sigma2 in enumerate(sigma2_values):
        for b, beta in enumerate(betas):
            for k, metric in enumerate(("dice", "precision", "recall")):
                expected = float(np.mean([float(v) for v in scores[s, b, k]]))
                assert grid.mean_metric(beta, sigma2, metric) == expected
    with pytest.raises(KeyError, match="beta=0.3"):
        grid.mean_metric(0.3, 0.0)
    monkeypatch.setattr(trainer, "csv_text", lambda header, rows: list(rows))
    assert grid.to_csv_string() == [
        (beta, sigma2, seed, *(float(v) for v in scores[s, b, :, n]))
        for s, sigma2 in enumerate(sigma2_values) for n, seed in enumerate(seeds)
        for b, beta in enumerate(betas)
    ]


@needs_openblas
def test_in_process_cells_run_on_one_blas_thread_and_the_count_is_restored(grid_setup, monkeypatch):
    source, split = grid_setup
    # One cell: its one descent trains both betas, in this process.
    kwargs = dict(betas=[0.5, 1.0], mode=NoiseMode.DILATE, sigma2_values=[1.0], seeds=[0],
                  base_config=TrainConfig(epochs=2), jobs=1)
    get_threads, set_threads = pool._openblas_threads()
    seen = []
    original = trainer._descend
    monkeypatch.setattr(trainer, "_descend", lambda *args: seen.append(get_threads()) or original(*args))
    saved = get_threads()
    set_threads(2)
    try:
        before = get_threads()
        beta_gridsearch(source, split, **kwargs)
        assert seen == [1]
        assert get_threads() == before
        monkeypatch.setattr(trainer, "_descend", _fail)
        with pytest.raises(RuntimeError):
            beta_gridsearch(source, split, **kwargs)
        assert get_threads() == before
    finally:
        set_threads(saved)


def test_no_blas_pin_without_the_symbol(grid_setup, monkeypatch):
    class NoSymbols:
        pass

    source, split = grid_setup
    kwargs = dict(betas=[1.0], mode=NoiseMode.DILATE, sigma2_values=[1.0], seeds=[0],
                  base_config=TrainConfig(epochs=2), jobs=1)
    reference = beta_gridsearch(source, split, **kwargs)
    pool._openblas_threads.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", lambda path: NoSymbols())
    try:
        assert pool._openblas_threads() is None
        assert beta_gridsearch(source, split, **kwargs).scores.tobytes() == reference.scores.tobytes()
    finally:
        monkeypatch.undo()
        pool._openblas_threads.cache_clear()


def _stored_planes(rng, frames: int, pixels: int):
    """Random float64 (raw, boxes) planes as `_feature_stack` stores them."""
    planes = rng.normal(size=(4, frames, pixels))
    return planes[0], planes[1:]


def test_descend_peak_memory_stays_within_four_frame_arrays():
    # The descent holds blocks of frames, so its peak is far below the
    # old bound of p, the gradient and two more (frames, pixels) arrays.
    rng = np.random.default_rng(8)
    frames, pixels = 48, 4096
    features = _stored_planes(rng, frames, pixels)
    targets = (rng.random((frames, pixels)) < 0.3).astype(np.float64)
    tracemalloc.start()
    try:
        _descend(features, targets, TrainConfig(epochs=3), (1.0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * frames * pixels * 8


def test_descend_peak_memory_on_bool_targets_stays_within_three_frame_arrays():
    # Bool targets are cast a block at a time, never copied whole.
    rng = np.random.default_rng(8)
    frames, pixels = 48, 4096
    features = _stored_planes(rng, frames, pixels)
    targets = rng.random((frames, pixels)) < 0.3
    tracemalloc.start()
    try:
        _descend(features, targets, TrainConfig(epochs=3), (1.0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * frames * pixels * 8


def _descent_peak(frames: int, betas) -> int:
    """tracemalloc's peak during a lockstep descent, beyond its inputs:
    stored feature planes and bool targets of `frames` 64x64 frames."""
    rng = np.random.default_rng(frames)
    features = _stored_planes(rng, frames, 4096)
    targets = rng.random((frames, 4096)) < 0.3
    tracemalloc.start()
    try:
        _descend(features, targets, TrainConfig(epochs=3), betas)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_descend_memory_beyond_its_inputs_does_not_grow_with_the_frames():
    # Per block: every beta's probabilities, one beta's gradient and the
    # buffer of its five feature rows and float64 targets; nothing
    # (frames, pixels) sized, nor one float per frame (384 bytes for 48
    # more frames). The two peaks can differ by a few bytes of Python
    # objects, after a first run has warmed up.
    betas = (0.0, 0.4, 1.0, 2.0)
    _descent_peak(48, betas)
    peak = _descent_peak(48, betas)
    assert abs(_descent_peak(96, betas) - peak) <= 64
    block = trainer.BLOCK_BYTES // (8 * 4096) * 4096 * 8
    assert peak < (2 * len(betas) + 4) * block


def _grid_peak(source, split, sigma2_values, seeds) -> int:
    """tracemalloc's peak during a one-beta, one-epoch grid run in this process."""
    tracemalloc.start()
    try:
        beta_gridsearch(source, split, betas=[1.0], mode=NoiseMode.DILATE, sigma2_values=sigma2_values,
                        seeds=seeds, base_config=TrainConfig(epochs=1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_memory_does_not_grow_with_its_cells(cheap_tasks):
    # Each cell's task corrupts its own targets and drops them after its
    # descent, so 8 cells peak where 2 cells do: within a small fraction
    # of one cell's bool targets, which are 1 MiB here.
    corpus = generate_corpus(PhantomSpec(depth=4, height=256, width=256), count=5, seed=11)
    ids = sorted(r.patient_id for r in corpus)
    split = DatasetSplit(train_ids=tuple(ids[:4]), val_ids=(), test_ids=(ids[4],))
    targets = sum(r.mask.size for r in corpus if r.patient_id in split.train_ids)
    assert targets >= 2**20
    source = record_source(corpus)
    _grid_peak(source, split, [1.0, 2.0], [0])
    two = _grid_peak(source, split, [1.0, 2.0], [0])
    eight = _grid_peak(source, split, [1.0, 2.0, 3.0, 4.0], [0, 1])
    assert eight - two < targets // 8


@pytest.fixture(scope="module")
def default_grid_inputs():
    """The default grid's train features and its sigma2 = 4, seed 2 targets."""
    config = cfgmod.DEFAULT_CONFIG
    source = cfgmod.source_from(config)
    split = cfgmod.foldplan_from(config, source.ids).folds[0]
    masks, features, _ = trainer._grid_inputs(source, split)
    targets = np.concatenate([
        corrupt_mask_volume(masks[pid], NoiseMode.DILATE, 4.0, 2, pid)[0].reshape(masks[pid].shape[0], -1)
        for pid in split.train_ids
    ]).astype(bool)
    return features, targets


@pytest.mark.parametrize("beta", [0.0, 0.4, 1.0, 2.0])
def test_descend_on_bool_targets_is_bit_identical_to_float_targets(default_grid_inputs, beta):
    features, targets = default_grid_inputs
    train_config = TrainConfig(epochs=25)
    on_bool = _descend(features, targets, train_config, (beta,))
    on_float = _descend(features, targets.astype(np.float64), train_config, (beta,))
    assert targets.dtype == bool
    assert on_bool[0][0].weights.tobytes() == on_float[0][0].weights.tobytes()
    assert on_bool[1].tobytes() == on_float[1].tobytes()


def test_lockstep_descent_matches_the_per_beta_reference(default_grid_inputs):
    # Every beta of a cell descends together over blocks of frames, with
    # products over all betas at once; the reference runs one beta over
    # all frames. Only the products' and the loss sums' rounding differ.
    features, targets = default_grid_inputs
    betas, config = (0.0, 0.4, 1.0, 2.0), TrainConfig()
    models, history = _descend(features, targets, config, betas)
    assert history.shape == (config.epochs, len(betas))
    stack = reference.five_plane_stack(*features)
    for model, losses, beta in zip(models, history.T, betas):
        expected, expected_losses = reference.descend(stack, targets, config, beta)
        assert np.allclose(model.weights, expected.weights, rtol=1e-12, atol=0)
        assert np.allclose(losses, expected_losses, rtol=1e-12, atol=0)


def test_grid_train_features_take_28_bytes_per_train_pixel(grid_setup):
    # A float32 raw plane and three float64 box planes; no plane of ones.
    source, split = grid_setup
    tracemalloc.start()
    try:
        masks, train, _ = trainer._grid_inputs(source, split)
        held = tracemalloc.get_traced_memory()[0]
        del train
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    pixels = sum(masks[pid].size for pid in split.train_ids)
    assert pixels >= 2**16
    assert held <= 28 * pixels + 4096


def _float64_features():
    """Stored planes of 10 float64 64x64 frames, as `train` builds them,
    and bool targets: three blocks, the last one short."""
    rng = np.random.default_rng(21)
    frames = rng.normal(size=(10, 64, 64))
    raw = np.empty((10, 4096))
    features = trainer._feature_stack(frames, raw, np.empty((3, *raw.shape)))
    return features, rng.random(raw.shape) < 0.3


@pytest.mark.parametrize("frames", ["float32", "float64"])
def test_descend_on_stored_planes_is_bit_identical_to_a_five_plane_stack(default_grid_inputs, frames):
    # The block buffer holds the same values as the materialised planes,
    # so both products, and with them the weights and losses, keep their bits.
    features, targets = default_grid_inputs if frames == "float32" else _float64_features()
    assert features[0].dtype == frames
    betas, config = (0.0, 0.4, 1.0, 2.0), TrainConfig(epochs=50)
    models, history = _descend(features, targets, config, betas)
    expected, expected_history = reference.stacked_descend(reference.five_plane_stack(*features), targets,
                                                           config, betas)
    assert history.tobytes() == expected_history.tobytes()
    for model, want in zip(models, expected, strict=True):
        assert model.weights.tobytes() == want.weights.tobytes()


def test_lockstep_descent_raises_at_the_epoch_one_betas_loss_turns_non_finite(monkeypatch):
    # One block per epoch, so the terms' n-th call is epoch n's. Epoch 3
    # gives the second beta a non-finite numerator; the first stays finite.
    rng = np.random.default_rng(3)
    features = _stored_planes(rng, 6, 64)
    targets = rng.random((6, 64)) < 0.3
    calls = []
    original = trainer.f_beta_terms

    def terms(*args):
        numer, denom = original(*args)
        if len(calls) == 3:
            numer[1, 0] = np.inf
        calls.append(len(calls))
        return numer, denom

    monkeypatch.setattr(trainer, "f_beta_terms", terms)
    with pytest.raises(trainer.TrainingDiverged, match="epoch 3") as raised:
        _descend(features, targets, TrainConfig(epochs=10), (0.5, 2.0))
    assert raised.value.epoch == 3 and len(calls) == 4
    calls.clear()
    monkeypatch.setattr(trainer, "f_beta_terms", original)
    assert len(_descend(features, targets, TrainConfig(epochs=10), (0.5, 2.0))[1]) == 10


class TestTrainConfigValidation:
    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=-1.0)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("field", ["learning_rate", "init_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


def _diverge_in_a_worker(parent):
    if os.getpid() != parent:
        raise trainer.TrainingDiverged(7)
    return parent


def test_a_divergence_keeps_its_message_and_epoch_through_a_pickle_and_a_worker(costly_tasks, pool_starts):
    message = "training diverged: non-finite loss at epoch 7"
    again = pickle.loads(pickle.dumps(trainer.TrainingDiverged(7)))
    assert type(again) is trainer.TrainingDiverged and again.epoch == 7 and str(again) == message
    # The parent runs the first task; the two workers raise.
    with pytest.raises(trainer.TrainingDiverged) as raised:
        pool.map_cells(_diverge_in_a_worker, [os.getpid()] * 3, "ctx", 2)
    assert pool_starts == [2] and raised.value.epoch == 7 and str(raised.value) == message
