import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segnoise.metrics import (
    ScoreTriple,
    confusion_sums,
    f_beta,
    f_beta_loss_grad,
    f_beta_terms,
    finite_difference_grad_loss,
    grad_loss,
    hard_metrics,
    score_blocks,
    score_volumewise,
    soft_metrics,
)
from segnoise.morphology import dilate, erode

from reference import loss


def random_pair(rng, shape=(16, 16), low=0.0, high=1.0):
    p = rng.uniform(low, high, size=shape)
    t = (rng.random(shape) < 0.5).astype(np.float64)
    return p, t


def finite_difference_grad(p, t, beta, eps=1e-4):
    """Central-difference gradient of the loss, one pixel at a time."""
    grad = np.zeros_like(p)
    flat = grad.reshape(-1)
    for i in range(p.size):
        bumped = p.copy().reshape(-1)
        bumped[i] += eps
        up = loss(bumped.reshape(p.shape), t, beta)
        bumped[i] -= 2 * eps
        down = loss(bumped.reshape(p.shape), t, beta)
        flat[i] = (up - down) / (2 * eps)
    return grad


class TestSoftDice:
    def test_perfect_binary_match(self):
        t = np.zeros((4, 4))
        t.reshape(-1)[:10] = 1.0
        assert soft_metrics(t, t).dice == 1.0

    def test_all_zero_prediction_against_five_targets(self):
        t = np.zeros((4, 4))
        t.reshape(-1)[:5] = 1.0
        p = np.zeros((4, 4))
        assert soft_metrics(p, t).dice == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_both_empty_scores_one(self):
        z = np.zeros((3, 3))
        assert soft_metrics(z, z).dice == 1.0

    def test_symmetric_for_binary_prediction(self):
        rng = np.random.default_rng(0)
        t = (rng.random((8, 8)) < 0.5).astype(np.float64)
        p = (rng.random((8, 8)) < 0.5).astype(np.float64)
        assert soft_metrics(p, t).dice == pytest.approx(soft_metrics(t, p).dice, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            soft_metrics(np.zeros((2, 2)), np.zeros((2, 3)))


class TestSoftPrecisionRecall:
    def test_precision_four_tp_four_fp(self):
        t = np.zeros(16)
        t[:4] = 1.0
        p = np.zeros(16)
        p[:8] = 1.0  # 4 TP + 4 FP
        assert soft_metrics(p, t).precision == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_precision_is_one_without_false_positives(self):
        t = np.zeros(16)
        t[:6] = 1.0
        p = np.zeros(16)
        p[:3] = 1.0  # p subset of t
        assert soft_metrics(p, t).precision == 1.0

    def test_precision_empty_prediction(self):
        t = np.ones(8)
        assert soft_metrics(np.zeros(8), t).precision == 1.0

    def test_recall_four_tp_of_six_targets(self):
        t = np.zeros(16)
        t[:6] = 1.0
        p = np.zeros(16)
        p[:4] = 1.0
        assert soft_metrics(p, t).recall == pytest.approx(5.0 / 7.0, abs=1e-12)

    def test_recall_is_one_without_false_negatives(self):
        t = np.zeros(16)
        t[:3] = 1.0
        p = np.zeros(16)
        p[:7] = 1.0  # t subset of p
        assert soft_metrics(p, t).recall == 1.0

    def test_recall_empty_target(self):
        p = np.full(8, 0.3)
        assert soft_metrics(p, np.zeros(8)).recall == 1.0


class TestFBeta:
    def test_beta_one_equals_dice_on_random_frames(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p, t = random_pair(rng)
            assert abs(f_beta(p, t, 1.0) - soft_metrics(p, t).dice) < 1e-12

    def test_beta_zero_equals_precision_bitwise(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p, t = random_pair(rng)
            assert f_beta(p, t, 0.0) == soft_metrics(p, t).precision

    def test_large_beta_approaches_recall(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p, t = random_pair(rng, shape=(64, 64))
            assert abs(f_beta(p, t, 1e3) - soft_metrics(p, t).recall) < 1e-3

    def test_harmonic_mean_reference_point(self):
        # Construct soft precision 0.5, recall 1.0: p covers all of t
        # plus as many false positives (plus one for the smoothing).
        t = np.zeros(4096)
        t[:1000] = 1.0
        p = np.zeros(4096)
        p[:2001] = 1.0
        assert soft_metrics(p, t).precision == pytest.approx(0.5, abs=1e-12)
        assert soft_metrics(p, t).recall == 1.0
        assert f_beta(p, t, 1.0) == pytest.approx(2 * 0.5 / 1.5, abs=1e-3)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError, match="beta"):
            f_beta(np.zeros(4), np.zeros(4), -0.5)

    @settings(max_examples=50, deadline=None)
    @given(
        beta=st.floats(0.0, 8.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_between_precision_and_recall_up_to_smoothing_gap(self, beta, seed):
        rng = np.random.default_rng(seed)
        p, t = random_pair(rng, shape=(16, 16))
        value = f_beta(p, t, beta)
        p_score = soft_metrics(p, t).precision
        r_score = soft_metrics(p, t).recall
        # The integrated smoothing pulls the recall-side endpoint down by
        # at most 1/(sum_t + 1).
        gap = 1.0 / (t.sum() + 1.0)
        assert min(p_score, r_score) - gap - 1e-12 <= value <= max(p_score, r_score) + 1e-12


class TestLoss:
    def test_perfect_prediction_zero_loss(self):
        t = np.zeros((4, 4))
        t[1:3, 1:3] = 1.0
        assert loss(t, t, 1.0) == 0.0

    def test_all_zero_prediction(self):
        t = np.zeros((4, 4))
        t.reshape(-1)[:5] = 1.0
        assert loss(np.zeros((4, 4)), t, 1.0) == pytest.approx(1 - 1.0 / 6.0, abs=1e-12)

    def test_uniform_half_prediction_matches_direct_summation(self):
        rng = np.random.default_rng(4)
        t = (rng.random((8, 8)) < 0.4).astype(np.float64)
        p = np.full((8, 8), 0.5)
        tp = sum(0.5 * tv for tv in t.reshape(-1))
        expected = 1 - (2 * tp + 1) / (p.sum() + t.sum() + 1)
        assert loss(p, t, 1.0) == pytest.approx(expected, abs=1e-12)


class TestGradLoss:
    @pytest.mark.parametrize("beta", [0.0, 0.4, 1.0, 2.0])
    def test_matches_central_differences(self, beta):
        rng = np.random.default_rng(5)
        p, t = random_pair(rng, low=0.05, high=0.95)
        analytic = grad_loss(p, t, beta)
        numeric = finite_difference_grad(p, t, beta)
        denom = np.maximum(np.abs(numeric), 1e-12)
        rel = np.abs(analytic - numeric) / denom
        assert rel.max() < 1e-4

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("foreground", [0.05, 0.5, 0.95])
    def test_kernel_matches_single_fraction_form(self, beta, foreground):
        # f_beta_loss_grad computes N/D^2 - (1+b2)*t/D; the reference is
        # the single fraction (N - (1+b2)*t*D) / D^2. Both round at the
        # scale of the larger term, which is where the tolerance sits.
        rng = np.random.default_rng(9)
        p = rng.random((7, 300))
        t = (rng.random((7, 300)) < foreground).astype(np.float64)
        b2 = beta * beta
        numer, denom = f_beta_terms(*confusion_sums(p, t), b2)
        grad = f_beta_loss_grad(t, numer, denom, b2)
        n, d = numer[:, None], denom[:, None]
        reference = (n - (1.0 + b2) * t * d) / (d * d)
        scale = np.maximum(np.abs(reference), n / (d * d))
        assert np.all(np.abs(grad - reference) <= 1e-15 * scale)

    @pytest.mark.parametrize("dtype", [bool, np.float64])
    def test_kernel_writes_into_out_bit_for_bit(self, dtype):
        rng = np.random.default_rng(9)
        p = rng.random((7, 300))
        t = (rng.random((7, 300)) < 0.4).astype(dtype)
        numer, denom = f_beta_terms(*confusion_sums(p, t), 0.36)
        buf = np.full(t.shape, np.nan)
        assert f_beta_loss_grad(t, numer, denom, 0.36, out=buf) is buf
        assert buf.tobytes() == f_beta_loss_grad(t, numer, denom, 0.36).tobytes()
        assert buf.tobytes() == f_beta_loss_grad(t.astype(np.float64), numer, denom, 0.36).tobytes()

    @pytest.mark.parametrize("dtype", [bool, np.float64])
    def test_kernel_over_a_leading_beta_axis_equals_each_beta_alone(self, dtype):
        # A lockstep descent passes (betas, frames) N and D, a (betas, 1)
        # b2 column and (frames, pixels) targets; each beta's slice must
        # be that beta's own result, and the product form's, byte for byte.
        rng = np.random.default_rng(11)
        p = rng.random((4, 5, 300))
        t = (rng.random((5, 300)) < 0.4).astype(dtype)
        b2 = np.array([[0.0], [0.16], [1.0], [4.0]])
        numer, denom = f_beta_terms(np.einsum("bfp,fp->bf", p, t), p.sum(axis=-1), t.sum(axis=-1), b2)
        out = np.full(p.shape, np.nan)
        assert f_beta_loss_grad(t, numer, denom, b2, out=out) is out
        for b in range(len(b2)):
            alone = f_beta_loss_grad(t, numer[b], denom[b], float(b2[b, 0]))
            n, d = numer[b][:, None], denom[b][:, None]
            product = t * (-(1.0 + b2[b, 0]) / d) + n / (d * d)
            assert out[b].tobytes() == alone.tobytes() == product.tobytes()

    def test_gradient_nonnegative_for_empty_target_beta_zero(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.05, 0.95, size=(8, 8))
        t = np.zeros((8, 8))
        assert np.all(grad_loss(p, t, 0.0) >= 0)

    def test_gradient_nonpositive_at_true_positives_for_exact_match(self):
        t = np.zeros((6, 6))
        t[2:4, 2:4] = 1.0
        grad = grad_loss(t, t, 1.0)
        assert np.all(grad[t == 1.0] <= 0)


class TestHardMetrics:
    def test_perfect_binary(self):
        t = np.zeros((4, 4))
        t[1:3, 1:3] = 1.0
        assert hard_metrics(t, t) == ScoreTriple(1.0, 1.0, 1.0)

    def test_eroded_prediction_has_unit_precision(self):
        rng = np.random.default_rng(7)
        t = np.zeros((16, 16), dtype=np.uint8)
        t[4:12, 4:12] = 1
        for k in (1, 2, 3):
            eroded = erode(t, k).astype(np.float64)
            assert hard_metrics(eroded, t.astype(np.float64)).precision == 1.0

    def test_dilated_prediction_has_unit_recall(self):
        t = np.zeros((16, 16), dtype=np.uint8)
        t[6:10, 6:10] = 1
        for k in (1, 2, 3):
            dilated = dilate(t, k).astype(np.float64)
            assert hard_metrics(dilated, t.astype(np.float64)).recall == 1.0

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            hard_metrics(np.zeros(4), np.zeros(4), threshold=1.5)


class TestAggregation:
    # The framewise dice of `score_blocks` is the plain mean of the
    # frames' soft dice.
    def test_mean_of_two(self):
        mask = np.zeros((2, 2, 2), dtype=np.uint8)
        mask[:, 0] = 1
        pred = np.stack([mask[0], np.zeros((2, 2))])  # dice 1 and 1/3
        assert score_blocks((pred,), mask).framewise_dice == pytest.approx(2.0 / 3.0)

    def test_single_frame(self):
        rng = np.random.default_rng(7)
        pred, mask = rng.random((1, 8, 8)), (rng.random((1, 8, 8)) < 0.5).astype(np.uint8)
        dice = score_blocks((pred,), mask).framewise_dice
        assert dice == soft_metrics(pred[0], mask[0]).dice

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no frames"):
            score_blocks((), np.zeros((0, 4, 4), dtype=np.uint8))

    def test_matches_brute_force_mean(self):
        rng = np.random.default_rng(8)
        pred, mask = rng.random((23, 6, 6)), (rng.random((23, 6, 6)) < 0.5).astype(np.uint8)
        scores = [soft_metrics(p, t).dice for p, t in zip(pred, mask)]
        dice = score_blocks((pred[:10], pred[10:]), mask).framewise_dice
        assert dice == pytest.approx(sum(scores) / len(scores), abs=1e-12)


class TestVolumewise:
    def test_single_frame_volume_equals_framewise(self):
        rng = np.random.default_rng(9)
        p = rng.random((1, 8, 8))
        t = (rng.random((1, 8, 8)) < 0.5).astype(np.float64)
        triple = score_volumewise(p, t)
        assert triple.dice == pytest.approx(soft_metrics(p[0], t[0]).dice, abs=1e-15)
        assert triple.precision == pytest.approx(soft_metrics(p[0], t[0]).precision, abs=1e-15)
        assert triple.recall == pytest.approx(soft_metrics(p[0], t[0]).recall, abs=1e-15)

    def test_weighted_toward_larger_frame(self):
        # Frame A: 10 target pixels, dice ~0.52; frame B: 1000 target
        # pixels, dice ~0.9. Volume-wise scoring must land between the
        # two and closer to the big frame's score.
        side = 64
        frame_a_t = np.zeros((side, side))
        frame_a_t.reshape(-1)[:10] = 1.0
        frame_a_p = np.zeros((side, side))
        frame_a_p.reshape(-1)[5:15] = 1.0  # 5 TP, 5 FP
        frame_b_t = np.zeros((side, side))
        frame_b_t.reshape(-1)[:1000] = 1.0
        frame_b_p = np.zeros((side, side))
        frame_b_p.reshape(-1)[100:1100] = 1.0  # 900 TP, 100 FP
        d_a = soft_metrics(frame_a_p, frame_a_t).dice
        d_b = soft_metrics(frame_b_p, frame_b_t).dice
        assert d_a < 0.6 < d_b
        p_vol = np.stack([frame_a_p, frame_b_p])
        t_vol = np.stack([frame_a_t, frame_b_t])
        d_vol = score_volumewise(p_vol, t_vol).dice
        assert d_a < d_vol < d_b
        assert abs(d_vol - d_b) < abs(d_vol - d_a)

    def test_all_empty_volume_scores_ones(self):
        z = np.zeros((3, 4, 4))
        assert score_volumewise(z, z) == ScoreTriple(1.0, 1.0, 1.0)

    def test_requires_3d(self):
        with pytest.raises(ValueError, match="3-D"):
            score_volumewise(np.zeros((4, 4)), np.zeros((4, 4)))


def binary_volumes():
    rng = np.random.default_rng(12)
    shape = (5, 9, 7)
    random = [(rng.random(shape) < q).astype(np.uint8) for q in (0.1, 0.5, 0.9)]
    empty, full = np.zeros(shape, dtype=np.uint8), np.ones(shape, dtype=np.uint8)
    return [(random[0], random[1]), (random[2], random[1]), (empty, empty), (full, full),
            (empty, full), (full, empty), (random[1], empty), (full, random[0])]


def bits(triple):
    return tuple(float(v).hex() for v in triple)


class TestCountPath:
    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.int64])
    def test_volumewise_counts_equal_float_scores_bitwise(self, dtype):
        for p, t in binary_volumes():
            counted = score_volumewise(p.astype(dtype), t.astype(dtype))
            floats = score_volumewise(p.astype(np.float64), t.astype(np.float64))
            assert bits(counted) == bits(floats)

    def test_f_beta_counts_equal_float_scores_bitwise(self):
        for p, t in binary_volumes():
            for beta in (0.0, 0.5, 1.0, 3.0):
                assert f_beta(p, t, beta).hex() == f_beta(p.astype(float), t.astype(float), beta).hex()

    def test_hard_metrics_against_integer_mask_equal_float_mask_bitwise(self):
        rng = np.random.default_rng(13)
        for _, t in binary_volumes():
            p = rng.random(t.shape)
            for q in (p, np.zeros(t.shape), np.ones(t.shape)):
                counted = hard_metrics(q, t)
                reference = soft_metrics((q > 0.5).astype(np.float64), t.astype(np.float64))
                assert bits(counted) == bits(reference)
                assert bits(hard_metrics(q, t.astype(np.float64))) == bits(reference)

    def test_soft_scores_against_integer_mask_equal_float_mask_bitwise(self):
        rng = np.random.default_rng(14)
        for _, t in binary_volumes():
            p = rng.random(t.shape).astype(np.float32)
            assert bits(soft_metrics(p, t)) == bits(soft_metrics(p, t.astype(np.float64)))

    def test_gradients_of_integer_inputs_equal_float_gradients(self):
        p, t = binary_volumes()[0]
        for beta in (0.0, 1.0, 2.0):
            expected = grad_loss(p.astype(np.float64), t.astype(np.float64), beta)
            assert np.array_equal(grad_loss(p, t, beta), expected)
            numeric = finite_difference_grad_loss(p[:1, :3], t[:1, :3], beta)
            assert np.allclose(numeric, grad_loss(p[:1, :3].astype(np.float64), t[:1, :3], beta), atol=1e-6)

    def test_counting_makes_no_float_copy(self):
        t = np.zeros((16, 64, 64), dtype=np.uint8)
        t[:, 10:40, 10:40] = 1
        p = np.roll(t, 3, axis=2)
        tracemalloc.start()
        try:
            score_volumewise(p, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * t.size

    @pytest.mark.parametrize("bad,match", [
        ((np.full((2, 2), 2, dtype=np.int64), np.zeros((2, 2), dtype=np.uint8)), r"\[0, 1\]"),
        ((np.full((2, 2), -1, dtype=np.int8), np.zeros((2, 2), dtype=np.uint8)), r"\[0, 1\]"),
        ((np.zeros((2, 2), dtype=np.uint8), np.full((2, 2), 2, dtype=np.uint8)), "0 or 1"),
        ((np.zeros((2, 2), dtype=np.bool_), np.full((2, 2), -1, dtype=np.int16)), "0 or 1"),
        ((np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8)), "shapes differ"),
        ((np.zeros((0,), dtype=np.uint8), np.zeros((0,), dtype=np.uint8)), "non-empty"),
    ])
    def test_integer_inputs_checked_like_floats(self, bad, match):
        with pytest.raises(ValueError, match=match):
            soft_metrics(*bad)


def float32_prediction(shape=(6, 12, 10), seed=15):
    """A float32 prediction with some voxels exactly np.float32(0.3),
    which lies above 0.3 in float64 but not in float32, and a mask."""
    rng = np.random.default_rng(seed)
    pred = rng.random(shape, dtype=np.float32)
    pred[rng.random(shape) < 0.2] = np.float32(0.3)
    mask = (rng.random(shape) < 0.4).astype(np.uint8)
    return pred, mask


class TestScoreFrames:
    def test_hard_counts_compare_in_float64(self):
        pred, mask = float32_prediction()
        assert np.count_nonzero(pred > 0.3) != np.count_nonzero(pred.astype(np.float64) > 0.3)
        scores = score_blocks((pred,), mask, 0.3)
        assert bits(scores.hard) == bits(hard_metrics(pred.astype(np.float64), mask, 0.3))

    def test_soft_and_framewise_scores_match_the_whole_volume_functions(self):
        pred, mask = float32_prediction()
        scores = score_blocks((pred,), mask, 0.5)
        framewise = np.mean([soft_metrics(p, t).dice for p, t in zip(pred, mask)])
        assert scores.soft == pytest.approx(soft_metrics(pred, mask), rel=1e-12)
        assert scores.framewise_dice == pytest.approx(framewise, rel=1e-12)
        assert bits(scores.hard) == bits(hard_metrics(pred, mask, 0.5))

    def test_binary_inputs_score_like_floats(self):
        for p, t in binary_volumes():
            scores = score_blocks((p.astype(bool),), t, 0.5)
            assert bits(scores.soft) == bits(soft_metrics(p.astype(np.float64), t))
            assert bits(scores.hard) == bits(scores.soft)

    def test_makes_no_whole_volume_float_copy(self):
        pred, mask = float32_prediction(shape=(16, 64, 64))
        tracemalloc.start()
        try:
            score_blocks((pred,), mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pred.nbytes

    @pytest.mark.parametrize("pred,mask,threshold,match", [
        (np.full((2, 3, 3), np.nan, dtype=np.float32), np.zeros((2, 3, 3), dtype=np.uint8), 0.5, "non-finite"),
        (np.full((2, 3, 3), 1.5, dtype=np.float32), np.zeros((2, 3, 3), dtype=np.uint8), 0.5, r"\[0, 1\]"),
        (np.zeros((2, 3, 3), dtype=np.float32), np.full((2, 3, 3), 2, dtype=np.uint8), 0.5, "0 or 1"),
        (np.zeros((2, 3, 3), dtype=np.float32), np.zeros((2, 3, 4), dtype=np.uint8), 0.5, "shapes differ"),
        (np.zeros((3, 3), dtype=np.float32), np.zeros((3, 3), dtype=np.uint8), 0.5, "3-D"),
        (np.zeros((2, 3, 3), dtype=np.float32), np.zeros((2, 3, 3), dtype=np.uint8), 1.0, "threshold"),
    ])
    def test_inputs_checked(self, pred, mask, threshold, match):
        # `score_blocks` leaves every check but the threshold's to its
        # caller; the whole-volume functions make the others.
        with pytest.raises(ValueError, match=match):
            score_volumewise(pred, mask)
            score_blocks((pred,), mask, threshold)


class TestValidation:
    def test_prediction_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            soft_metrics(np.full((2, 2), 1.5), np.zeros((2, 2)))

    def test_prediction_non_finite(self):
        p = np.zeros((2, 2))
        p[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            soft_metrics(p, np.zeros((2, 2)))

    def test_target_non_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            soft_metrics(np.zeros((2, 2)), np.full((2, 2), 0.5))

    def test_scores_lie_in_unit_interval(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            p, t = random_pair(rng, shape=(6, 6))
            triple = soft_metrics(p, t)
            for value in triple:
                assert 0.0 < value <= 1.0

