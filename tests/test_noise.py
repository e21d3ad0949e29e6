import math
import random

import numpy as np
import pytest

from segnoise import noise
from segnoise.folds import DatasetSplit
from segnoise.morphology import dilate, erode
from segnoise.noise import (
    CorruptionReport,
    NoiseMode,
    NoiseSpec,
    corrupt_dataset,
    corrupt_mask_volume,
    count_repetitions,
    frame_rng,
    frame_states,
    sample_scale,
)
from segnoise.noise import _patient_key
from segnoise.phantom import PhantomSpec, generate_corpus

from reference import corrupt_frame


def phi(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def block_frame(size=16, lo=4, hi=12):
    frame = np.zeros((size, size), dtype=np.uint8)
    frame[lo:hi, lo:hi] = 1
    return frame


def small_corpus(count=6, depth=4, seed=0):
    spec = PhantomSpec(depth=depth, height=48, width=48, radius_min=4, radius_max=8, margin=8)
    return generate_corpus(spec, count=count, seed=seed)


class TestSampleScale:
    def test_zero_variance_always_zero(self):
        rng = np.random.default_rng(0)
        assert all(sample_scale(rng, 0.0) == 0 for _ in range(100))

    @pytest.mark.parametrize(
        "sigma2,expected",
        [
            # 2*Phi(1/sigma) - 1, the closed-form probability of k = 0.
            (1.0, 0.6827),
            (2.0, 2.0 * phi(1.0 / math.sqrt(2.0)) - 1.0),
            (3.0, 2.0 * phi(1.0 / math.sqrt(3.0)) - 1.0),
            (4.0, 0.3829),
            (5.0, 2.0 * phi(1.0 / math.sqrt(5.0)) - 1.0),
        ],
    )
    def test_zero_probability_matches_gaussian_cdf(self, sigma2, expected):
        rng = np.random.default_rng(42)
        draws = 100_000
        zeros = sum(sample_scale(rng, sigma2) == 0 for _ in range(draws))
        assert abs(zeros / draws - expected) < 0.02

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            sample_scale(np.random.default_rng(0), -1.0)


class TestCorruptFrame:
    def test_k_zero_leaves_frame_untouched(self):
        frame = block_frame()
        rng = np.random.default_rng(1)
        out, outcome = corrupt_frame(frame, NoiseMode.DILATE, 0.0, rng)
        assert np.array_equal(out, frame)
        assert outcome.op == "none"
        assert outcome.k == 0
        assert outcome.change.delta_s == 1.0

    def test_erode_3x3_block_to_center(self):
        frame = np.zeros((5, 5), dtype=np.uint8)
        frame[1:4, 1:4] = 1
        # Find a stream whose first erode draw is k=1.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            out, outcome = corrupt_frame(frame, NoiseMode.ERODE, 1.0, rng)
            if outcome.k == 1:
                assert outcome.change.delta_s == pytest.approx(1.0 / 9.0)
                assert out.sum() == 1 and out[2, 2] == 1
                return
        pytest.fail("no seed produced k=1")

    def test_empty_frame_stays_empty_with_undefined_delta(self):
        frame = np.zeros((8, 8), dtype=np.uint8)
        rng = np.random.default_rng(2)
        out, outcome = corrupt_frame(frame, NoiseMode.DILATE, 5.0, rng)
        assert out.sum() == 0
        assert outcome.change.delta_s is None

    def test_dilate_mode_gives_superset_erode_subset(self):
        frame = block_frame()
        for seed in range(20):
            out, _ = corrupt_frame(frame, NoiseMode.DILATE, 4.0, np.random.default_rng(seed))
            assert np.all(frame <= out)
            out, _ = corrupt_frame(frame, NoiseMode.ERODE, 4.0, np.random.default_rng(seed))
            assert np.all(out <= frame)

    def test_random_mode_balances_operations(self):
        frame = block_frame()
        ops = {"dilate": 0, "erode": 0, "none": 0}
        n = 20_000
        rng = np.random.default_rng(3)
        for _ in range(n):
            _, outcome = corrupt_frame(frame, NoiseMode.RANDOM, 4.0, rng)
            ops[outcome.op] += 1
        applied = ops["dilate"] + ops["erode"]
        assert abs(ops["dilate"] - ops["erode"]) < 0.02 * applied


def stream_keys(count: int) -> list[tuple[int, int, int]]:
    """(seed, patient key, frame) triples: every pairing of edge seeds
    (0, one and two 32-bit words, beyond 2^64) with edge patient keys
    (below 2^32 and near 2^64) at frame 0, then random keys."""
    rng = random.Random(20191008)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**96 + 3]
    patient_keys = [0, 7, 2**32 - 1, 2**32, 2**64 - 2, 2**64 - 1]
    keys = [(seed, key, 0) for seed in seeds for key in patient_keys]
    while len(keys) < count:
        seed = rng.choice((rng.getrandbits(16), rng.getrandbits(32), rng.getrandbits(64)))
        key = rng.choice((rng.getrandbits(32), rng.getrandbits(64), 2**64 - 1 - rng.getrandbits(24)))
        keys.append((seed, key, rng.choice((0, rng.randrange(1, 400)))))
    return keys


class TestFrameStates:
    """`frame_states` rebuilds numpy's SeedSequence mixing and PCG64
    seeding; if a numpy release changes either, these fail instead of
    the corruption streams drifting silently."""

    def test_states_equal_seed_sequence_pcg64(self):
        keys = stream_keys(10_000)
        states = frame_states(keys)
        assert len(states) == len(keys)
        for key, state in zip(keys, states):
            assert state == np.random.PCG64(np.random.SeedSequence(list(key))).state, key

    def test_first_draws_equal(self):
        keys = stream_keys(2_000)
        rng = np.random.Generator(np.random.PCG64(0))
        for key, state in zip(keys, frame_states(keys)):
            reference = np.random.default_rng(np.random.SeedSequence(list(key)))
            rng.bit_generator.state = state
            assert rng.random() == reference.random()
            assert rng.normal() == reference.normal()
            reference = np.random.default_rng(np.random.SeedSequence(list(key)))
            rng.bit_generator.state = state
            assert rng.normal(0.0, 2.0) == reference.normal(0.0, 2.0)

    def test_patient_ids_key_the_same_streams_as_frame_rng(self):
        keys = [(seed, pid, frame) for seed in (0, 5, 2**40) for pid in ("p", "case-017")
                for frame in range(3)]
        states = frame_states([(seed, _patient_key(pid), frame) for seed, pid, frame in keys])
        for (seed, pid, frame), state in zip(keys, states):
            assert state == frame_rng(seed, pid, frame).bit_generator.state

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            frame_states([(0, 1, 2), (-1, 1, 2)])


class TestCorruptMaskVolume:
    def test_deterministic_per_key(self):
        corpus = small_corpus()
        mask = corpus[0].mask
        a, _ = corrupt_mask_volume(mask, NoiseMode.DILATE, 3.0, seed=9, patient_id="x")
        b, _ = corrupt_mask_volume(mask, NoiseMode.DILATE, 3.0, seed=9, patient_id="x")
        assert np.array_equal(a, b)
        c, _ = corrupt_mask_volume(mask, NoiseMode.DILATE, 3.0, seed=9, patient_id="y")
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("shape", [(0, 5, 5), (3, 0, 5)])
    def test_empty_volume_corrupts_to_itself(self, shape):
        mask = np.zeros(shape, dtype=np.uint8)
        out, outcomes = corrupt_mask_volume(mask, NoiseMode.DILATE, 4.0, seed=2, patient_id="p")
        assert out.shape == shape and len(outcomes) == shape[0]

    @pytest.mark.parametrize("sigma2", [2.0, 9.0])
    @pytest.mark.parametrize("mode", list(NoiseMode), ids=lambda m: m.value)
    def test_frame_streams_independent_of_order(self, mode, sigma2):
        # The per-frame RNG is keyed, so every frame of the stacked
        # volume corruption, and its outcome, must equal a standalone
        # corruption of that frame with the same key.
        corpus = small_corpus(count=2, depth=8)
        for record in corpus:
            mask = record.mask
            out, outcomes = corrupt_mask_volume(mask, mode, sigma2, seed=5, patient_id="p")
            assert out.dtype == np.uint8 and out.shape == mask.shape
            assert len(outcomes) == mask.shape[0]
            for i, outcome in enumerate(outcomes):
                frame, expected = corrupt_frame(mask[i], mode, sigma2, frame_rng(5, "p", i))
                assert np.array_equal(out[i], frame)
                assert (outcome.op, outcome.k) == (expected.op, expected.k)
                assert outcome.s_original == expected.change.s_original
                assert outcome.s_modified == expected.change.s_modified
                assert outcome.delta_s == expected.change.delta_s
                assert (outcome.patient_id, outcome.frame, outcome.mode) == ("p", i, mode.value)
            assert any(o.k > 1 for o in outcomes)


def volume_counts(mask, mode, sigma2, seeds, pid):
    """(tp, sum_p, sum_t) from the volumes `corrupt_mask_volume` builds,
    one seed at a time."""
    tp, sum_p = [], []
    for seed in seeds:
        volume = corrupt_mask_volume(mask, mode, sigma2, seed, pid)[0]
        tp.append(np.count_nonzero(volume & mask))
        sum_p.append(np.count_nonzero(volume))
    return tp, sum_p, np.count_nonzero(mask)


class TestCountRepetitions:
    @pytest.mark.parametrize("sigma2", [0.0, 2.0, 50.0])
    @pytest.mark.parametrize("mode", list(NoiseMode), ids=lambda m: m.value)
    def test_counts_equal_the_volumes(self, mode, sigma2):
        seeds = [3, 1, 4, 1, 5]
        for record in small_corpus(count=3, depth=6, seed=2):
            tp, sum_p, sum_t = count_repetitions(record.mask, mode, sigma2, seeds, record.patient_id)
            assert tp.dtype == sum_p.dtype == np.int64 and isinstance(sum_t, int)
            expected = volume_counts(record.mask, mode, sigma2, seeds, record.patient_id)
            assert (tp.tolist(), sum_p.tolist(), sum_t) == expected

    @pytest.mark.parametrize("mode", list(NoiseMode), ids=lambda m: m.value)
    def test_several_groups_and_pass_chunks(self, mode, monkeypatch):
        mask = small_corpus(count=1, depth=8, seed=6)[0].mask
        # Two repetitions per group (three groups for five seeds) and
        # three frames per counting chunk.
        monkeypatch.setattr(noise, "STACK_VOXELS", 2 * mask.size)
        monkeypatch.setattr(noise, "_PASS_VOXELS", 3 * mask[0].size)
        seeds = list(range(5))
        tp, sum_p, sum_t = count_repetitions(mask, mode, 20.0, seeds, "p")
        assert (tp.tolist(), sum_p.tolist(), sum_t) == volume_counts(mask, mode, 20.0, seeds, "p")
        assert len(set(sum_p.tolist())) > 1

    @pytest.mark.parametrize("mask", [np.zeros((4, 16, 16), np.uint8), np.ones((4, 16, 16), np.uint8),
                                      np.zeros((0, 16, 16), np.uint8), np.zeros((3, 0, 5), np.uint8)],
                             ids=["empty", "full", "zero-depth", "zero-size-frames"])
    @pytest.mark.parametrize("mode", list(NoiseMode), ids=lambda m: m.value)
    def test_empty_full_and_zero_size_masks(self, mask, mode):
        tp, sum_p, sum_t = count_repetitions(mask, mode, 9.0, [7, 8, 9], "p")
        assert (tp.tolist(), sum_p.tolist(), sum_t) == volume_counts(mask, mode, 9.0, [7, 8, 9], "p")


class TestDrawsCheckSigma2Once:
    @pytest.mark.parametrize("mode", list(NoiseMode), ids=lambda m: m.value)
    def test_one_check_and_root_per_call(self, mode, monkeypatch):
        mask = small_corpus(count=1, depth=6, seed=2)[0].mask
        expected = count_repetitions(mask, mode, 3.0, [1, 2, 3], "p")
        calls = []
        real_std = noise._std
        monkeypatch.setattr(noise, "_std", lambda sigma2: calls.append(sigma2) or real_std(sigma2))
        got = count_repetitions(mask, mode, 3.0, [1, 2, 3], "p")
        assert calls == [3.0]
        assert [a.tolist() for a in got[:2]] + [got[2]] == [a.tolist() for a in expected[:2]] + [expected[2]]

    @pytest.mark.parametrize("sigma2", [-1.0, math.inf, math.nan])
    def test_bad_sigma2_rejected_before_any_draw(self, sigma2, monkeypatch):
        mask = small_corpus(count=1, depth=3, seed=2)[0].mask
        monkeypatch.setattr(noise, "frame_states", lambda keys: pytest.fail("drew frames"))
        with pytest.raises(ValueError, match="sigma2 must be finite"):
            count_repetitions(mask, NoiseMode.DILATE, sigma2, [1], "p")


class TestHugeSigma2:
    def test_passes_are_capped_and_report_keeps_the_drawn_k(self):
        mask = small_corpus(count=1, depth=5, seed=3)[0].mask
        for mode in NoiseMode:
            out, outcomes = corrupt_mask_volume(mask, mode, 1e16, seed=4, patient_id="p")
            for i, outcome in enumerate(outcomes):
                rng = frame_rng(4, "p", i)
                if mode is NoiseMode.RANDOM:
                    rng.random()
                assert outcome.k == sample_scale(rng, 1e16) > max(mask.shape[1:])
                op = dilate if outcome.op == "dilate" else erode
                assert np.array_equal(out[i], op(mask[i], max(mask.shape[1:])))


class TestCorruptDataset:
    def make_split(self, ids):
        return DatasetSplit(train_ids=ids[:3], val_ids=ids[3:4], test_ids=ids[4:6])

    def test_sigma_zero_is_identity(self):
        corpus = small_corpus()
        split = self.make_split([r.patient_id for r in corpus])
        spec = NoiseSpec(mode=NoiseMode.DILATE, sigma2=0.0, seed=1)
        masks, report = corrupt_dataset(corpus, split, spec)
        for rec in corpus:
            assert np.array_equal(masks[rec.patient_id], rec.mask)
        assert all(r.op == "none" for r in report.records)

    def test_test_masks_bit_identical(self):
        corpus = small_corpus()
        split = self.make_split([r.patient_id for r in corpus])
        spec = NoiseSpec(mode=NoiseMode.RANDOM, sigma2=5.0, seed=2)
        masks, _ = corrupt_dataset(corpus, split, spec)
        by_id = {r.patient_id: r for r in corpus}
        for pid in split.test_ids:
            assert masks[pid].tobytes() == by_id[pid].mask.tobytes()

    def test_deterministic_reapplication(self):
        corpus = small_corpus()
        split = self.make_split([r.patient_id for r in corpus])
        spec = NoiseSpec(mode=NoiseMode.RANDOM, sigma2=3.0, seed=3)
        masks_a, report_a = corrupt_dataset(corpus, split, spec)
        masks_b, report_b = corrupt_dataset(corpus, split, spec)
        assert report_a == report_b
        for pid in masks_a:
            assert np.array_equal(masks_a[pid], masks_b[pid])

    def test_mean_delta_s_grows_with_sigma2_under_dilation(self):
        corpus = small_corpus(count=10, depth=6)
        ids = [r.patient_id for r in corpus]
        split = DatasetSplit(train_ids=ids[:8], val_ids=ids[8:9], test_ids=ids[9:])
        means = []
        for sigma2 in (1.0, 2.0, 3.0, 4.0, 5.0):
            spec = NoiseSpec(mode=NoiseMode.DILATE, sigma2=sigma2, seed=11)
            _, report = corrupt_dataset(corpus, split, spec)
            means.append(report.mean_delta_s())
        assert means[0] > 1.0
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_containment_per_mode(self):
        corpus = small_corpus()
        ids = [r.patient_id for r in corpus]
        split = DatasetSplit(train_ids=ids[:5], val_ids=(), test_ids=ids[5:])
        by_id = {r.patient_id: r for r in corpus}
        for mode, cmp in ((NoiseMode.DILATE, np.greater_equal), (NoiseMode.ERODE, np.less_equal)):
            masks, _ = corrupt_dataset(corpus, split, NoiseSpec(mode=mode, sigma2=4.0, seed=7))
            for pid in split.train_ids:
                assert np.all(cmp(masks[pid], by_id[pid].mask))

    def test_unknown_patient_rejected(self):
        corpus = small_corpus()
        split = DatasetSplit(train_ids=("ghost",), val_ids=(), test_ids=())
        with pytest.raises(KeyError, match="ghost"):
            corrupt_dataset(corpus, split, NoiseSpec(mode=NoiseMode.DILATE, sigma2=1.0, seed=0))

    def test_report_rows_sorted_and_op_none_iff_k_zero(self):
        corpus = small_corpus()
        split = self.make_split([r.patient_id for r in corpus])
        spec = NoiseSpec(mode=NoiseMode.RANDOM, sigma2=2.0, seed=13)
        _, report = corrupt_dataset(corpus, split, spec)
        keys = [(r.patient_id, r.frame) for r in report.records]
        assert keys == sorted(keys)
        for r in report.records:
            assert (r.op == "none") == (r.k == 0)

    def test_csv_serialization(self, tmp_path):
        corpus = small_corpus(count=3, depth=2)
        ids = [r.patient_id for r in corpus]
        split = DatasetSplit(train_ids=ids[:2], val_ids=(), test_ids=ids[2:])
        spec = NoiseSpec(mode=NoiseMode.ERODE, sigma2=1.5, seed=4)
        _, report = corrupt_dataset(corpus, split, spec)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "patient_id,frame,mode,op,k,s_original,s_modified,delta_s"
        assert len(lines) == 1 + len(report.records)
        # An emptied mask leaves delta_s defined; an empty ORIGINAL leaves
        # the field blank. Both parse back.
        for line, rec in zip(lines[1:], report.records):
            cells = line.split(",")
            assert cells[0] == rec.patient_id
            assert cells[3] == rec.op
            if rec.delta_s is None:
                assert cells[7] == ""

    def test_erode_on_empty_corpus_is_noop(self):
        spec2 = PhantomSpec(depth=3, blobs_min=0, blobs_max=0)
        corpus = generate_corpus(spec2, count=3, seed=0)
        ids = [r.patient_id for r in corpus]
        split = DatasetSplit(train_ids=ids[:2], val_ids=(), test_ids=ids[2:])
        masks, report = corrupt_dataset(corpus, split, NoiseSpec(mode=NoiseMode.ERODE, sigma2=5.0, seed=6))
        for rec in corpus:
            assert np.array_equal(masks[rec.patient_id], rec.mask)
        assert all(r.delta_s is None for r in report.records)
        assert report.mean_delta_s() is None


class TestNoiseSpecValidation:
    def test_mode_coerced_from_string(self):
        spec = NoiseSpec(mode="erode", sigma2=1.0, seed=0)
        assert spec.mode is NoiseMode.ERODE

    def test_negative_sigma2_rejected(self):
        with pytest.raises(ValueError, match="sigma2"):
            NoiseSpec(mode=NoiseMode.DILATE, sigma2=-1.0, seed=0)
