import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from segnoise import noise, oracle, pool
from segnoise.folds import DatasetSplit, FoldPlan, make_folds
from segnoise.metrics import score_volumewise
from segnoise.noise import NoiseMode, count_masks, frame_rng
from segnoise.oracle import SweepConfig, cell_seed, run_sweep, simulate_noise_robust
from segnoise.phantom import PhantomSpec, generate_corpus, generate_phantom

from conftest import mask_map
from reference import corrupt_frame


@pytest.fixture(scope="module")
def corpus():
    spec = PhantomSpec(depth=4, height=48, width=48, radius_min=4, radius_max=8, margin=8)
    return generate_corpus(spec, count=8, seed=21)


@pytest.fixture(scope="module")
def plan(corpus):
    return make_folds([r.patient_id for r in corpus], n_folds=2, sizes=(3, 1, 4), seed=5)


class TestSimulateNoiseRobust:
    def test_sigma_zero_scores_perfect(self, corpus, plan):
        for mode in NoiseMode:
            triple = simulate_noise_robust(mask_map(corpus), plan.folds[0], mode, 0.0, seed=3)
            assert triple == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("sigma2", [1.0, 3.0, 5.0])
    def test_erode_keeps_precision_at_one(self, corpus, plan, sigma2):
        triple = simulate_noise_robust(mask_map(corpus), plan.folds[0], NoiseMode.ERODE, sigma2, seed=4)
        assert triple.precision == 1.0
        assert triple.dice <= 1.0

    @pytest.mark.parametrize("sigma2", [1.0, 3.0, 5.0])
    def test_dilate_keeps_recall_at_one(self, corpus, plan, sigma2):
        triple = simulate_noise_robust(mask_map(corpus), plan.folds[0], NoiseMode.DILATE, sigma2, seed=4)
        assert triple.recall == 1.0
        assert triple.dice <= 1.0

    def test_unknown_test_id_rejected(self, corpus):
        from segnoise.folds import DatasetSplit

        split = DatasetSplit(train_ids=(), val_ids=(), test_ids=("nope",))
        with pytest.raises(KeyError, match="nope"):
            simulate_noise_robust(mask_map(corpus), split, NoiseMode.DILATE, 1.0, seed=0)


class TestRunSweep:
    def test_sigma_zero_only_gives_flat_ones(self, corpus, plan):
        config = SweepConfig(sigma2_values=(0.0,), repetitions=2, seed=9)
        result = run_sweep(mask_map(corpus), plan, config)
        assert result.scores.shape == (3, 1, len(plan.folds), 3, 2)
        assert (result.scores == 1.0).all()

    def test_dice_decays_with_sigma2_for_pure_modes(self, corpus, plan):
        config = SweepConfig(
            modes=(NoiseMode.DILATE, NoiseMode.ERODE),
            sigma2_values=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
            repetitions=10,
            seed=1,
        )
        result = run_sweep(mask_map(corpus), plan, config)
        for mode in config.modes:
            means, stds = result.curve(mode, "dice")
            assert means[0] == 1.0
            n = len(plan.folds) * config.repetitions
            for i in range(len(means) - 1):
                slack = (stds[i] ** 2 + stds[i + 1] ** 2) ** 0.5 / max(n, 1) ** 0.5
                assert means[i + 1] <= means[i] + slack

    def test_random_mode_decays_no_faster_than_pure_mode_mean(self, corpus, plan):
        config = SweepConfig(repetitions=10, seed=2)
        result = run_sweep(mask_map(corpus), plan, config)
        random_means, _ = result.curve(NoiseMode.RANDOM, "dice")
        dilate_means, _ = result.curve(NoiseMode.DILATE, "dice")
        erode_means, _ = result.curve(NoiseMode.ERODE, "dice")
        pure_mean = [(a + b) / 2 for a, b in zip(dilate_means, erode_means)]
        # Allow modest Monte Carlo wiggle on the comparison.
        for rand, pure in zip(random_means[1:], pure_mean[1:]):
            assert rand >= pure - 0.02

    def test_csv_outputs_deterministic(self, corpus, plan, tmp_path):
        config = SweepConfig(
            modes=(NoiseMode.DILATE,), sigma2_values=(0.0, 2.0), repetitions=3, seed=7
        )
        a = run_sweep(mask_map(corpus), plan, config)
        b = run_sweep(mask_map(corpus), plan, config)
        assert a.to_score_csv_string() == b.to_score_csv_string()
        assert a.to_summary_csv_string() == b.to_summary_csv_string()
        files = a.write_outputs(tmp_path / "x")
        again = b.write_outputs(tmp_path / "y")
        for fa, fb in zip(files, again):
            assert fa.read_bytes() == fb.read_bytes()

    def test_jobs_do_not_change_results(self, corpus, plan, costly_tasks, pool_starts):
        config = SweepConfig(
            modes=(NoiseMode.RANDOM,), sigma2_values=(1.0, 3.0), repetitions=2, seed=11
        )
        serial = run_sweep(mask_map(corpus), plan, config, jobs=1)
        parallel = run_sweep(mask_map(corpus), plan, config, jobs=4)
        assert serial.scores.tobytes() == parallel.scores.tobytes()
        assert pool_starts == [3]  # the parent ran the first of the four points

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, corpus, plan, jobs):
        config = SweepConfig(modes=(NoiseMode.ERODE,), sigma2_values=(1.0,), repetitions=1, seed=0)
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(mask_map(corpus), plan, config, jobs=jobs)

    @pytest.mark.parametrize("test_ids,error", [(("phantom-000", "nope"), KeyError), ((), ValueError)])
    def test_bad_test_subset_rejected_before_any_worker_starts(self, corpus, plan, monkeypatch,
                                                               test_ids, error):
        # The bad split is the second fold, so only a check of every
        # fold in the parent catches it before the pool starts.
        bad = FoldPlan(folds=(plan.folds[0], DatasetSplit(train_ids=(), val_ids=(), test_ids=test_ids)), seed=0)
        started = []
        monkeypatch.setattr(oracle.pool, "map_cells", lambda *args: started.append(args))
        config = SweepConfig(modes=(NoiseMode.ERODE,), sigma2_values=(1.0,), repetitions=1, seed=0)
        with pytest.raises(error, match="nope" if error is KeyError else "empty test subset"):
            run_sweep(mask_map(corpus), bad, config, jobs=2)
        assert started == []

    def test_cells_index_matches_a_scan(self, corpus, plan):
        # scores[mode, sigma2, fold] is the point that the task for those
        # axes computes on its own.
        config = SweepConfig(sigma2_values=(0.0, 2.0, 4.0), repetitions=3, seed=8)
        result = run_sweep(mask_map(corpus), plan, config)
        assert result.scores.shape == (3, 3, len(plan.folds), 3, 3)
        assert result.scores.flags.c_contiguous
        masks = mask_map(corpus)
        for m, mode in enumerate(config.modes):
            for s, sigma2 in enumerate(config.sigma2_values):
                for f in range(len(plan.folds)):
                    seeds = tuple(cell_seed(config.seed, m, s, f, rep) for rep in range(3))
                    point = sweep_point(masks, plan, (f, mode, sigma2, seeds))
                    assert result.scores[m, s, f].tobytes() == point.tobytes()

    def test_score_csv_schema(self, corpus, plan):
        config = SweepConfig(modes=(NoiseMode.ERODE,), sigma2_values=(1.0,), repetitions=2, seed=0)
        result = run_sweep(mask_map(corpus), plan, config)
        lines = result.to_score_csv_string().splitlines()
        assert lines[0] == "mode,sigma2,beta,fold,subset,metric,value"
        # one row per fold x metric
        assert len(lines) == 1 + len(plan.folds) * 3
        cells = lines[1].split(",")
        assert cells[0] == "erode" and cells[2] == "" and cells[4] == "test"

    def test_svg_renders_all_modes(self, corpus, plan):
        config = SweepConfig(sigma2_values=(0.0, 1.0), repetitions=1, seed=3)
        result = run_sweep(mask_map(corpus), plan, config)
        svg = result.metric_svg("dice")
        assert svg.startswith("<svg")
        for mode in config.modes:
            assert mode.value in svg


class TestSweepResultReductions:
    """Every output of a sweep is a reduction of its score array, and must
    equal what `np.mean`/`np.std` give on the same values as a list. From
    8 values on, numpy adds those in eight partial sums, and so does a
    reduction over an array's contiguous last axis; one over a middle
    axis adds them one by one, which differs in the last bit."""

    @pytest.fixture
    def result(self):
        config = SweepConfig(sigma2_values=(0.0, 1.0, 2.5, 3.0, 4.0, 5.0), repetitions=20, seed=0)
        rng = np.random.default_rng(12)
        return oracle.SweepResult(config=config, scores=rng.random((3, 6, 2, 3, 20)))

    @staticmethod
    def rows_of(method, monkeypatch):
        monkeypatch.setattr(oracle, "csv_text", lambda header, rows: list(rows))
        return method()

    def test_fold_means_are_list_means(self, result, monkeypatch):
        expected = [
            (mode.value, sigma2, None, fold, "test", metric,
             float(np.mean([float(v) for v in result.scores[m, s, fold, k]])))
            for m, mode in enumerate(result.config.modes)
            for s, sigma2 in enumerate(result.config.sigma2_values)
            for fold in range(2)
            for k, metric in enumerate(("dice", "precision", "recall"))
        ]
        assert self.rows_of(result.to_score_csv_string, monkeypatch) == expected

    def test_summary_means_and_stds_are_list_statistics(self, result, monkeypatch):
        expected = []
        for m, mode in enumerate(result.config.modes):
            for k, metric in enumerate(("dice", "precision", "recall")):
                for s, sigma2 in enumerate(result.config.sigma2_values):
                    values = [float(v) for fold in range(2) for v in result.scores[m, s, fold, k]]
                    expected.append((mode.value, sigma2, metric, float(np.mean(values)),
                                     float(np.std(values)), 40))
        assert self.rows_of(result.to_summary_csv_string, monkeypatch) == expected


def frame_by_frame_triple(corpus, split, mode, sigma2, seed):
    """The oracle triple from `corrupt_frame` on every frame with its
    own `frame_rng`: a reference that shares no code with the stacks."""
    by_id = mask_map(corpus)
    triples = []
    for pid in split.test_ids:
        mask = by_id[pid]
        corrupted = np.stack([corrupt_frame(frame, mode, sigma2, frame_rng(seed, pid, i))[0]
                              for i, frame in enumerate(mask)])
        triples.append(score_volumewise(corrupted, mask))
    return tuple(float(v) for v in np.array(triples, dtype=np.float64).mean(axis=0))


def sweep_point(masks, plan, task):
    (scores,) = pool.map_cells(oracle._sweep_point, [task], (masks, plan), 1)
    return scores


class TestSweepPoint:
    @pytest.mark.parametrize("sigma2", [0.0, 2.0, 5.0])
    @pytest.mark.parametrize("mode", list(NoiseMode), ids=lambda m: m.value)
    def test_point_equals_its_cells(self, corpus, plan, mode, sigma2):
        seeds = tuple(cell_seed(17, 2, 1, 1, rep) for rep in range(5))
        masks = mask_map(corpus)
        scores = sweep_point(masks, plan, (1, mode, sigma2, seeds))
        assert scores.shape == (3, len(seeds)) and scores.dtype == np.float64
        for column, seed in zip(scores.T.tolist(), seeds):
            assert tuple(column) == simulate_noise_robust(mask_map(corpus), plan.folds[1], mode, sigma2, seed)
            assert tuple(column) == frame_by_frame_triple(corpus, plan.folds[1], mode, sigma2, seed)

    def test_sigma_zero_is_corrupted_and_scored(self, corpus, plan, monkeypatch):
        # Criterion 6's exact 1.0 at sigma2 = 0 must come from drawn
        # streams and real scores, not from a shortcut.
        streams, scored = [], []  # a seed row per frame stream drawn
        draw_frames = noise.draw_frames

        def count(masks, mode, sigma2, seeds, pids):
            counts = count_masks(masks, mode, sigma2, seeds, pids)
            scored.extend(pid for pid, (tp, _, _) in zip(pids, counts) for _ in tp)
            return counts

        monkeypatch.setattr(noise, "draw_frames",
                            lambda states, *rest: streams.extend(states) or draw_frames(states, *rest))
        monkeypatch.setattr(oracle, "count_masks", count)
        masks = mask_map(corpus)
        scores = sweep_point(masks, plan, (0, NoiseMode.RANDOM, 0.0, (3, 4, 5)))
        assert scores.tolist() == [[1.0] * 3] * 3
        test_ids = plan.folds[0].test_ids
        assert len(scored) == 3 * len(test_ids)
        assert len(streams) == 3 * sum(masks[pid].shape[0] for pid in test_ids)

    def test_one_seeding_and_one_draw_per_frame_shape(self, corpus, plan, monkeypatch):
        # Two depths of 48x48 frames and one mask of 40x56 frames: two frame shapes.
        spec = PhantomSpec(depth=6, height=48, width=48, radius_min=4, radius_max=8, margin=8)
        extra = [generate_phantom(spec, 1, patient_id="deep-1"), generate_phantom(spec, 2, patient_id="deep-2"),
                 generate_phantom(PhantomSpec(depth=3, height=40, width=56, radius_min=4, radius_max=8,
                                              margin=8), 3, patient_id="wide-3")]
        records = list(corpus) + extra
        test_ids = plan.folds[0].test_ids[:2] + tuple(r.patient_id for r in extra)
        split = DatasetSplit(train_ids=(), val_ids=(), test_ids=test_ids)
        calls = []
        for name in ("stream_states", "draw_frames"):
            real = getattr(noise, name)
            monkeypatch.setattr(noise, name,
                                lambda *args, real=real, name=name: calls.append(name) or real(*args))
        seeds = (9, 8, 7)
        masks = mask_map(records)
        scores = sweep_point(masks, FoldPlan(folds=(split,), seed=0), (0, NoiseMode.RANDOM, 4.0, seeds))
        assert calls == ["stream_states", "draw_frames"] * 2
        for column, seed in zip(scores.T.tolist(), seeds):
            assert tuple(column) == frame_by_frame_triple(records, split, NoiseMode.RANDOM, 4.0, seed)

    def test_point_memory_bounded_by_the_stack_budget(self):
        spec = PhantomSpec(depth=40, height=128, width=128, radius_min=12, radius_max=30, margin=16)
        record = generate_corpus(spec, count=1, seed=4)[0]
        split = DatasetSplit(train_ids=(), val_ids=(), test_ids=(record.patient_id,))
        masks = {record.patient_id: record.mask}
        # At sigma2 = 50 nine frames in ten need passes in most of the 20
        # repetitions; the count tables pass over the mask's own frames,
        # once per op, whatever the repetition count.
        tracemalloc.start()
        try:
            scores = sweep_point(masks, FoldPlan(folds=(split,), seed=0),
                                 (0, NoiseMode.DILATE, 50.0, tuple(range(20))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.shape == (3, 20)
        assert peak < 4 * record.mask.nbytes


needs_fork = pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                                reason="the platform's default start method is not fork")
needs_openblas = pytest.mark.skipif(pool._openblas_threads() is None,
                                    reason="numpy's bundled OpenBLAS not found")


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS set to two threads for the test, then restored."""
    get_threads, set_threads = pool._openblas_threads()
    saved = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(saved)


@needs_fork
@needs_openblas
@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_points_run_on_one_blas_thread_and_the_count_is_restored(
    corpus, plan, monkeypatch, tmp_path, two_blas_threads, jobs, costly_tasks, pool_starts
):
    log = tmp_path / "threads"
    original = oracle._point_triples

    def point_triples(*args):
        with open(log, "a") as fh:
            fh.write(f"{two_blas_threads()}\n")
        return original(*args)

    monkeypatch.setattr(oracle, "_point_triples", point_triples)
    run_sweep(mask_map(corpus), plan, SweepConfig(sigma2_values=(1.0,), repetitions=2), jobs=jobs)
    assert log.read_text().split() == ["1"] * 6  # 3 modes x 2 folds
    assert pool_starts == ([] if jobs == 1 else [2])  # the parent ran the first point
    assert two_blas_threads() == 2


@needs_openblas
def test_a_sweep_that_raises_restores_the_thread_count_and_environment(
    corpus, plan, monkeypatch, two_blas_threads
):
    for name in pool._BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)

    def fail(*args):
        raise RuntimeError("point failed")

    monkeypatch.setattr(oracle, "_point_triples", fail)
    with pytest.raises(RuntimeError, match="point failed"):
        run_sweep(mask_map(corpus), plan, SweepConfig(sigma2_values=(1.0,), repetitions=2))
    assert two_blas_threads() == 2
    assert dict(os.environ) == before


class TestCellSeed:
    def test_distinct_cells_get_distinct_seeds(self):
        seeds = {
            cell_seed(0, m, s, f, r)
            for m in range(3)
            for s in range(6)
            for f in range(2)
            for r in range(5)
        }
        assert len(seeds) == 3 * 6 * 2 * 5

    def test_stable_across_calls(self):
        assert cell_seed(42, 1, 2, 3, 4) == cell_seed(42, 1, 2, 3, 4)

    @pytest.mark.parametrize("base_seed", [0, 123, 2**32 - 1, 2**32, 2**63 + 5, 2**64, 2**95 + 7])
    def test_vectorised_seeds_equal_seed_sequence(self, base_seed):
        # Bases of one, two and three uint32 words, and reps past 2^32,
        # which lengthen the entropy past SeedSequence's pool.
        reps = [0, 1, 29, 2**32 - 1, 2**32, 2**40 + 3]
        for point in [(m, s, f) for m in (0, 2) for s in (0, 5) for f in (0, 1)]:
            expected = []
            for rep in reps:
                state = np.random.SeedSequence([base_seed, *point, rep]).generate_state(2)
                expected.append((int(state[0]) << 32) | int(state[1]))
            assert [cell_seed(base_seed, *point, rep) for rep in reps] == expected

    def test_one_call_seeds_equal_each_points_cell_seeds(self, monkeypatch):
        # run_sweep seeds the whole sweep in one step; on the default
        # sweep every task carries its point's own `cell_seed` of each rep.
        config, plan = SweepConfig(), make_folds([f"p{i}" for i in range(16)], 2, (8, 4, 4), seed=11)
        masks = {pid: np.zeros((1, 4, 4), dtype=np.uint8) for pid in plan.folds[0].all_ids}
        seen = []

        def capture(function, tasks, ctx, jobs):
            seen.extend(tasks)
            return [np.zeros((3, config.repetitions))] * len(tasks)

        monkeypatch.setattr(oracle.pool, "map_cells", capture)
        run_sweep(masks, plan, config)
        expected = [
            (fold, mode, sigma2, tuple(cell_seed(config.seed, m, s, fold, rep)
                                       for rep in range(config.repetitions)))
            for m, mode in enumerate(config.modes) for s, sigma2 in enumerate(config.sigma2_values)
            for fold in range(2)
        ]
        assert len(seen) == 36
        assert seen == expected
