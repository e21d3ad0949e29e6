import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from segnoise import noise
from segnoise.folds import DatasetSplit
from segnoise.morphology import dilate, erode
from segnoise.noise import (
    CorruptionReport,
    NoiseMode,
    NoiseSpec,
    corrupt_mask_volume,
    count_masks,
    draw_frames,
    frame_rng,
    sample_scale,
    stream_states,
)
from segnoise.noise import _patient_key
from segnoise.phantom import PhantomSpec, generate_corpus

from conftest import corrupt_split, mask_map
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


def seeded_generators(states):
    """A Generator per row of `stream_states`, each PCG64 seeded from it."""
    streams = noise._state_rows()(states)
    return [np.random.Generator(np.random.PCG64(streams)) for _ in states]


class TestFrameStates:
    """`stream_states` rebuilds numpy's SeedSequence mixing, and each
    frame's PCG64 seeds itself from its row; if a numpy release changes
    either, these fail instead of the corruption streams drifting
    silently."""

    def test_states_equal_seed_sequence_pcg64(self):
        keys = stream_keys(10_000)
        states = stream_states(keys, [()])
        assert states.shape == (len(keys), 4) and states.dtype == np.uint64
        for key, rng in zip(keys, seeded_generators(states)):
            assert rng.bit_generator.state == np.random.PCG64(np.random.SeedSequence(list(key))).state, key

    def test_prefixes_times_suffixes_in_order(self):
        # Every prefix with every suffix, of one to three words each,
        # so the words of a key run past SeedSequence's pool of four.
        prefixes = [key[:2] for key in stream_keys(60)]
        suffixes = [(), (0,), (5,), (2**32 - 1,), (2**32,), (2**70, 3)]
        states = stream_states(prefixes, suffixes)
        keys = [(*prefix, *suffix) for prefix in prefixes for suffix in suffixes]
        assert states.tolist() == [np.random.SeedSequence(list(key)).generate_state(4, np.uint64).tolist()
                                   for key in keys]
        assert stream_states([], suffixes).shape == stream_states(prefixes, []).shape == (0, 4)

    def test_first_draws_equal(self):
        keys = stream_keys(2_000)
        states = stream_states(keys, [()])
        for key, rng in zip(keys, seeded_generators(states)):
            reference = np.random.default_rng(np.random.SeedSequence(list(key)))
            assert rng.random() == reference.random()
            assert rng.normal() == reference.normal()
        for key, rng in zip(keys, seeded_generators(states)):
            reference = np.random.default_rng(np.random.SeedSequence(list(key)))
            assert rng.normal(0.0, 2.0) == reference.normal(0.0, 2.0)

    @pytest.mark.parametrize("sigma2", [0.0, 3.0, 1e16, 1e300])
    @pytest.mark.parametrize("mode", list(NoiseMode), ids=lambda m: m.value)
    def test_draw_frames_equal_each_frames_own_stream(self, mode, sigma2):
        keys = stream_keys(500)
        erode, k = draw_frames(stream_states(keys, [()]), mode, math.sqrt(sigma2))
        assert erode.dtype == bool and k.dtype == np.float64 and len(erode) == len(k) == len(keys)
        for key, eroded, drawn in zip(keys, erode.tolist(), k.tolist()):
            reference = np.random.default_rng(np.random.SeedSequence(list(key)))
            coin = reference.random() >= 0.5 if mode is NoiseMode.RANDOM else mode is NoiseMode.ERODE
            assert (eroded, int(drawn)) == (coin, sample_scale(reference, sigma2)), key

    def test_draw_frames_reads_seed_words_in_any_layout(self):
        states = stream_states(stream_keys(50), [()])
        expected = draw_frames(states, NoiseMode.RANDOM, 3.0)
        for layout in (np.asfortranarray(states), states.astype(np.int64), states.T.copy().T):
            assert all(np.array_equal(a, b) for a, b in zip(draw_frames(layout, NoiseMode.RANDOM, 3.0), expected))
        for bad in (states[:, :3], states.ravel()):
            with pytest.raises(ValueError, match=r"\(n, 4\) seed words"):
                draw_frames(bad, NoiseMode.DILATE, 3.0)

    def test_patient_ids_key_the_same_streams_as_frame_rng(self):
        keys = [(seed, pid, frame) for seed in (0, 5, 2**40) for pid in ("p", "case-017")
                for frame in range(3)]
        states = stream_states([(seed, _patient_key(pid), frame) for seed, pid, frame in keys], [()])
        for (seed, pid, frame), rng in zip(keys, seeded_generators(states)):
            assert rng.bit_generator.state == frame_rng(seed, pid, frame).bit_generator.state

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            stream_states([(0, 1, 2), (-1, 1, 2)], [()])
        with pytest.raises(ValueError, match="non-negative"):
            stream_states([(0, 1)], [(2,), (-2,)])


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

    @pytest.mark.parametrize("frames_per_chunk", [1, 2, 5])
    @pytest.mark.parametrize("mode", list(NoiseMode), ids=lambda m: m.value)
    def test_frame_chunks_write_back_every_frame(self, mode, frames_per_chunk, monkeypatch):
        mask = small_corpus(count=1, depth=12, seed=9)[0].mask
        monkeypatch.setattr(noise, "_PASS_VOXELS", frames_per_chunk * mask[0].size)
        sizes = radius1_voxels(monkeypatch)
        out, outcomes = corrupt_mask_volume(mask, mode, 100.0, seed=0, patient_id="p")
        assert sizes and max(sizes) <= frames_per_chunk * mask[0].size
        # Some op's frames span more than one chunk.
        assert max(sum(o.op == op for o in outcomes) for op in ("dilate", "erode")) > frames_per_chunk
        assert np.array_equal(out, reference_volume(mask, mode, 100.0, 0, "p"))
        assert [(o.s_original, o.s_modified) for o in outcomes] == [
            (np.count_nonzero(a), np.count_nonzero(b)) for a, b in zip(mask, out)]

    @pytest.mark.parametrize("sigma2", [30.0, 1e4], ids=["below-the-cap", "past-the-cap"])
    @pytest.mark.parametrize("mode", list(NoiseMode), ids=lambda m: m.value)
    def test_passes_are_each_frames_own_capped_k(self, mode, sigma2, monkeypatch):
        # One volume passes each frame exactly its own capped k times:
        # sharing the engine with `count_masks` costs it no extra pass.
        mask = small_corpus(count=1, depth=6, seed=4)[0].mask
        height, width = mask.shape[1:]
        sizes = radius1_voxels(monkeypatch)
        _, outcomes = corrupt_mask_volume(mask, mode, sigma2, seed=8, patient_id="p")
        assert sum(sizes) == sum(min(o.k, max(height, width)) * height * width for o in outcomes) > 0


def count_repetitions(mask, mode, sigma2, seeds, pid):
    """`count_masks` of one mask."""
    return count_masks([mask], mode, sigma2, seeds, [pid])[0]


def reference_volume(mask, mode, sigma2, seed, pid):
    """The mask corrupted frame by frame, each with its own `frame_rng`
    stream and the reference `corrupt_frame`. Frames with no pixels
    have nothing to corrupt, and the reference rejects them."""
    if mask.size == 0:
        return mask.copy()
    frames = [corrupt_frame(frame, mode, sigma2, frame_rng(seed, pid, i))[0] for i, frame in enumerate(mask)]
    return np.array(frames, dtype=np.uint8).reshape(mask.shape)


def volume_counts(mask, mode, sigma2, seeds, pid):
    """(tp, sum_p, sum_t) from the reference volumes, one seed at a time."""
    tp, sum_p = [], []
    for seed in seeds:
        volume = reference_volume(mask, mode, sigma2, seed, pid)
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
        # Three frames per chunk: each op's table passes run over the
        # frames that need them three at a time.
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


def radius1_voxels(monkeypatch) -> list[int]:
    """The size of every stack `noise.radius1_pass` is given from now on."""
    sizes = []
    real = noise.radius1_pass
    monkeypatch.setattr(noise, "radius1_pass",
                        lambda stack, erosion: sizes.append(stack.size) or real(stack, erosion))
    return sizes


def engine_calls(monkeypatch) -> list[tuple[str, int]]:
    """Every `stream_states` and `draw_frames` call from now on, with the
    seed rows it built or the streams it drew."""
    calls = []
    states, draw = noise.stream_states, noise.draw_frames

    def seeded(*args):
        rows = states(*args)
        calls.append(("stream_states", len(rows)))
        return rows

    monkeypatch.setattr(noise, "stream_states", seeded)
    monkeypatch.setattr(noise, "draw_frames",
                        lambda rows, *rest: calls.append(("draw_frames", len(rows))) or draw(rows, *rest))
    return calls


class TestCountTables:
    @pytest.mark.parametrize("sigma2", [1e4, 1e300], ids=["past-the-cap", "past-int64"])
    @pytest.mark.parametrize("mode", list(NoiseMode), ids=lambda m: m.value)
    def test_k_past_the_cap_and_past_int64(self, mode, sigma2, monkeypatch):
        mask = small_corpus(count=1, depth=5, seed=3)[0].mask
        seeds = [4, 5, 6, 7]
        erode, k = noise.corrupt_masks([mask], mode, sigma2, seeds, ["p"])[:2]
        assert (k > max(mask.shape[1:])).any() and (sigma2 < 1e300 or (k > 2.0**63).any())
        sizes = radius1_voxels(monkeypatch)
        calls = engine_calls(monkeypatch)
        tp, sum_p, sum_t = count_repetitions(mask, mode, sigma2, seeds, "p")
        assert calls == [("stream_states", len(seeds) * len(mask)), ("draw_frames", len(seeds) * len(mask))]
        assert len(sizes) <= 2 * max(mask.shape[1:])  # each op's table stops at the cap
        assert (tp.tolist(), sum_p.tolist(), sum_t) == volume_counts(mask, mode, sigma2, seeds, "p")

    def test_random_mode_with_both_ops_in_one_point(self, monkeypatch):
        masks = [r.mask for r in small_corpus(count=2, depth=6, seed=4)]
        seeds, ids = [11, 12, 13], ["a", "b"]
        erode, k = noise.corrupt_masks(masks, NoiseMode.RANDOM, 6.0, seeds, ids)[:2]
        for mask_erode, mask_k in zip(np.split(erode, len(masks), axis=1), np.split(k, len(masks), axis=1)):
            assert (mask_erode & (mask_k > 0)).any() and (~mask_erode & (mask_k > 0)).any()
        calls = engine_calls(monkeypatch)
        counts = count_masks(masks, NoiseMode.RANDOM, 6.0, seeds, ids)
        assert [name for name, _ in calls] == ["stream_states", "draw_frames"]
        for mask, pid, (tp, sum_p, sum_t) in zip(masks, ids, counts):
            assert (tp.tolist(), sum_p.tolist(), sum_t) == volume_counts(mask, NoiseMode.RANDOM, 6.0, seeds, pid)

    @pytest.mark.parametrize("mode", list(NoiseMode), ids=lambda m: m.value)
    def test_masks_of_different_depths_in_one_point(self, mode, monkeypatch):
        masks = [small_corpus(count=1, depth=depth, seed=depth)[0].mask for depth in (3, 6, 3)]
        masks.append(np.zeros((0, 48, 48), np.uint8))
        seeds, ids = [2, 7, 1, 8], ["a", "b", "c", "d"]
        calls = engine_calls(monkeypatch)
        counts = count_masks(masks, mode, 8.0, seeds, ids)
        assert [name for name, _ in calls] == ["stream_states", "draw_frames"]  # one frame shape
        for mask, pid, (tp, sum_p, sum_t) in zip(masks, ids, counts):
            assert (tp.tolist(), sum_p.tolist(), sum_t) == volume_counts(mask, mode, 8.0, seeds, pid)

    def test_masks_of_three_depths_draw_only_their_own_frames(self, monkeypatch):
        # One seeding covers every mask to the longest one's depth; only
        # the streams of real frames are drawn.
        depths = (2, 9, 5)
        masks = [small_corpus(count=1, depth=depth, seed=depth)[0].mask for depth in depths]
        seeds, ids = [3, 0, 2**40, 6, 1], ["a", "b", "c"]
        alone = [count_masks([mask], NoiseMode.RANDOM, 12.0, seeds, [pid]) for mask, pid in zip(masks, ids)]
        calls = engine_calls(monkeypatch)
        together = count_masks(masks, NoiseMode.RANDOM, 12.0, seeds, ids)
        assert calls == [("stream_states", len(seeds) * len(masks) * max(depths)),
                         ("draw_frames", len(seeds) * sum(depths))]
        assert [(tp.tolist(), sum_p.tolist(), sum_t) for tp, sum_p, sum_t in together] == [
            (tp.tolist(), sum_p.tolist(), sum_t) for ((tp, sum_p, sum_t),) in alone]

    def test_masks_of_one_frame_shape_pass_as_one_stack_in_bounded_memory(self, monkeypatch):
        # Four masks of one shape and one of another depth: their frames
        # pass together, a chunk of at most _PASS_VOXELS voxels at a
        # time, so memory stays under the one-mask bound of
        # test_oracle.py's stack-budget test although the five masks
        # hold more than that bound.
        spec = PhantomSpec(depth=80, height=128, width=128, radius_min=12, radius_max=30, margin=16)
        masks = [r.mask for r in generate_corpus(spec, count=4, seed=4)]
        masks.append(generate_corpus(replace(spec, depth=40), count=1, seed=5)[0].mask)
        ids, seeds = ["a", "b", "c", "d", "e"], list(range(10))
        assert masks[0].size > noise._PASS_VOXELS and sum(m.nbytes for m in masks) > 4 * masks[0].nbytes
        sizes = radius1_voxels(monkeypatch)
        alone = [count_masks([mask], NoiseMode.RANDOM, 8.0, seeds, [pid]) for mask, pid in zip(masks, ids)]
        alone_calls = len(sizes)
        sizes.clear()
        tracemalloc.start()
        try:
            together = count_masks(masks, NoiseMode.RANDOM, 8.0, seeds, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(tp.tolist(), sum_p.tolist(), sum_t) for tp, sum_p, sum_t in together] == [
            (tp.tolist(), sum_p.tolist(), sum_t) for ((tp, sum_p, sum_t),) in alone]
        assert max(sizes) <= noise._PASS_VOXELS and len(sizes) < alone_calls
        assert peak < 4 * masks[0].nbytes

    @pytest.mark.parametrize("frames_per_chunk", [1, 2, 5])
    @pytest.mark.parametrize("mode", list(NoiseMode), ids=lambda m: m.value)
    def test_frame_chunks_smaller_than_the_volume(self, mode, frames_per_chunk, monkeypatch):
        mask = small_corpus(count=1, depth=7, seed=9)[0].mask
        monkeypatch.setattr(noise, "_PASS_VOXELS", frames_per_chunk * mask[0].size)
        sizes = radius1_voxels(monkeypatch)
        tp, sum_p, sum_t = count_repetitions(mask, mode, 30.0, range(6), "p")
        assert sizes and max(sizes) <= frames_per_chunk * mask[0].size
        assert (tp.tolist(), sum_p.tolist(), sum_t) == volume_counts(mask, mode, 30.0, range(6), "p")

    @pytest.mark.parametrize("mode", list(NoiseMode), ids=lambda m: m.value)
    def test_passes_do_not_grow_with_the_repetitions(self, mode, monkeypatch):
        # Repeating the seeds repeats every draw: the tables need the
        # same passes, however many repetitions read them.
        mask = small_corpus(count=1, depth=6, seed=5)[0].mask
        sizes = radius1_voxels(monkeypatch)
        few = count_repetitions(mask, mode, 20.0, [1, 2], "p")
        few_voxels, few_calls = sum(sizes), len(sizes)
        sizes.clear()
        many = count_repetitions(mask, mode, 20.0, [1, 2] * 20, "p")
        assert (sum(sizes), len(sizes)) == (few_voxels, few_calls) and few_calls > 0
        assert many[0].tolist() == few[0].tolist() * 20 and many[1].tolist() == few[1].tolist() * 20


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
        monkeypatch.setattr(noise, "draw_frames", lambda *args: pytest.fail("drew frames"))
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

    def test_k_past_int64_is_the_exact_drawn_int(self):
        mask = small_corpus(count=1, depth=5, seed=3)[0].mask
        for mode in NoiseMode:
            out, outcomes = corrupt_mask_volume(mask, mode, 1e300, seed=4, patient_id="p")
            for i, outcome in enumerate(outcomes):
                rng = frame_rng(4, "p", i)
                if mode is NoiseMode.RANDOM:
                    rng.random()
                assert type(outcome.k) is int and outcome.k == sample_scale(rng, 1e300) > 2**63
                op = dilate if outcome.op == "dilate" else erode
                assert np.array_equal(out[i], op(mask[i], max(mask.shape[1:])))
            tp, sum_p, sum_t = count_repetitions(mask, mode, 1e300, [4, 5, 6], "p")
            assert (tp.tolist(), sum_p.tolist(), sum_t) == volume_counts(mask, mode, 1e300, [4, 5, 6], "p")


class TestFastDrawPath:
    @pytest.mark.parametrize("mode", list(NoiseMode), ids=lambda m: m.value)
    def test_no_seed_sequence_or_state_assignment_per_frame(self, mode, monkeypatch):
        # Each frame's PCG64 seeds itself in C from its `stream_states`
        # row; a SeedSequence or a state dict per frame costs several
        # microseconds, a large share of an oracle sweep.
        mask = small_corpus(count=1, depth=6, seed=2)[0].mask
        expected = volume_counts(mask, mode, 4.0, [1, 2, 3], "p")

        def fail(*args, **kwargs):
            pytest.fail("built a SeedSequence or a default_rng")

        class NoStateAssignment(np.random.PCG64):
            state = property(np.random.PCG64.state.__get__,
                             lambda self, value: pytest.fail("assigned a bit generator state"))

        monkeypatch.setattr(np.random, "SeedSequence", fail)
        monkeypatch.setattr(np.random, "default_rng", fail)
        monkeypatch.setattr(np.random, "PCG64", NoStateAssignment)
        tp, sum_p, sum_t = count_repetitions(mask, mode, 4.0, [1, 2, 3], "p")
        assert (tp.tolist(), sum_p.tolist(), sum_t) == expected


class TestCorruptDataset:
    def make_split(self, ids):
        return DatasetSplit(train_ids=ids[:3], val_ids=ids[3:4], test_ids=ids[4:6])

    def test_sigma_zero_is_identity(self):
        corpus = small_corpus()
        split = self.make_split([r.patient_id for r in corpus])
        spec = NoiseSpec(mode=NoiseMode.DILATE, sigma2=0.0, seed=1)
        masks, report = corrupt_split(mask_map(corpus), split, spec)
        for rec in corpus:
            assert np.array_equal(masks[rec.patient_id], rec.mask)
        assert all(r.op == "none" for r in report.records)

    def test_test_masks_bit_identical(self):
        corpus = small_corpus()
        split = self.make_split([r.patient_id for r in corpus])
        spec = NoiseSpec(mode=NoiseMode.RANDOM, sigma2=5.0, seed=2)
        masks, _ = corrupt_split(mask_map(corpus), split, spec)
        by_id = {r.patient_id: r for r in corpus}
        for pid in split.test_ids:
            assert masks[pid].tobytes() == by_id[pid].mask.tobytes()

    def test_deterministic_reapplication(self):
        corpus = small_corpus()
        split = self.make_split([r.patient_id for r in corpus])
        spec = NoiseSpec(mode=NoiseMode.RANDOM, sigma2=3.0, seed=3)
        masks_a, report_a = corrupt_split(mask_map(corpus), split, spec)
        masks_b, report_b = corrupt_split(mask_map(corpus), split, spec)
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
            _, report = corrupt_split(mask_map(corpus), split, spec)
            means.append(report.mean_delta_s())
        assert means[0] > 1.0
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_containment_per_mode(self):
        corpus = small_corpus()
        ids = [r.patient_id for r in corpus]
        split = DatasetSplit(train_ids=ids[:5], val_ids=(), test_ids=ids[5:])
        by_id = {r.patient_id: r for r in corpus}
        for mode, cmp in ((NoiseMode.DILATE, np.greater_equal), (NoiseMode.ERODE, np.less_equal)):
            masks, _ = corrupt_split(mask_map(corpus), split, NoiseSpec(mode=mode, sigma2=4.0, seed=7))
            for pid in split.train_ids:
                assert np.all(cmp(masks[pid], by_id[pid].mask))

    def test_unknown_patient_rejected(self):
        # A split names only known patients: `corrupt` plans its folds
        # from the source's ids, and the sweeps check each split.
        corpus = small_corpus()
        split = DatasetSplit(train_ids=("ghost",), val_ids=(), test_ids=())
        with pytest.raises(KeyError, match=r"unknown patient ids: \['ghost'\]"):
            split.check_known(mask_map(corpus))

    def test_report_rows_sorted_and_op_none_iff_k_zero(self):
        corpus = small_corpus()
        split = self.make_split([r.patient_id for r in corpus])
        spec = NoiseSpec(mode=NoiseMode.RANDOM, sigma2=2.0, seed=13)
        _, report = corrupt_split(mask_map(corpus), split, spec)
        keys = [(r.patient_id, r.frame) for r in report.records]
        assert keys == sorted(keys)
        for r in report.records:
            assert (r.op == "none") == (r.k == 0)

    def test_csv_serialization(self, tmp_path):
        corpus = small_corpus(count=3, depth=2)
        ids = [r.patient_id for r in corpus]
        split = DatasetSplit(train_ids=ids[:2], val_ids=(), test_ids=ids[2:])
        spec = NoiseSpec(mode=NoiseMode.ERODE, sigma2=1.5, seed=4)
        _, report = corrupt_split(mask_map(corpus), split, spec)
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
        masks, report = corrupt_split(mask_map(corpus), split, NoiseSpec(mode=NoiseMode.ERODE, sigma2=5.0, seed=6))
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
