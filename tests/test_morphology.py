import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from segnoise.morphology import STRUCTURING_ELEMENT, dilate, erode, radius1_pass, size_change


def brute_force_morph(frame: np.ndarray, k: int, require_all: bool) -> np.ndarray:
    """Independent per-pixel Chebyshev-neighborhood evaluation.

    Out-of-frame pixels count as 0 for both operations.
    """
    h, w = frame.shape
    out = np.zeros((h, w), dtype=np.uint8)
    for y in range(h):
        for x in range(w):
            values = []
            for dy in range(-k, k + 1):
                for dx in range(-k, k + 1):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        values.append(int(frame[yy, xx]))
                    else:
                        values.append(0)
            out[y, x] = all(values) if require_all else any(values)
    return out


def random_frames(n, shape=(16, 16), p=0.5, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.random(shape) < p).astype(np.uint8) for _ in range(n)]


mask_frames = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.integers(0, 1),
)


class TestDilate:
    def test_single_center_pixel_one_iteration_gives_3x3_block(self):
        frame = np.zeros((5, 5), dtype=np.uint8)
        frame[2, 2] = 1
        out = dilate(frame, 1)
        expected = np.zeros((5, 5), dtype=np.uint8)
        expected[1:4, 1:4] = 1
        assert np.array_equal(out, expected)
        assert np.count_nonzero(out) == 9

    def test_zero_iterations_is_identity(self):
        frame = random_frames(1, seed=3)[0]
        assert np.array_equal(dilate(frame, 0), frame)

    def test_two_iterations_fill_5x5_from_center(self):
        frame = np.zeros((5, 5), dtype=np.uint8)
        frame[2, 2] = 1
        assert np.count_nonzero(dilate(frame, 2)) == 25

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            dilate(np.zeros((3, 3), dtype=np.uint8), -1)


class TestErode:
    def test_3x3_block_erodes_to_center_pixel(self):
        frame = np.zeros((5, 5), dtype=np.uint8)
        frame[1:4, 1:4] = 1
        out = erode(frame, 1)
        expected = np.zeros((5, 5), dtype=np.uint8)
        expected[2, 2] = 1
        assert np.array_equal(out, expected)

    def test_single_pixel_vanishes(self):
        frame = np.zeros((5, 5), dtype=np.uint8)
        frame[2, 2] = 1
        assert np.count_nonzero(erode(frame, 1)) == 0

    def test_zero_iterations_is_identity(self):
        frame = random_frames(1, seed=4)[0]
        assert np.array_equal(erode(frame, 0), frame)

    def test_border_pixels_cannot_survive(self):
        frame = np.ones((4, 4), dtype=np.uint8)
        out = erode(frame, 1)
        assert out[0].sum() == 0 and out[-1].sum() == 0
        assert out[:, 0].sum() == 0 and out[:, -1].sum() == 0


class TestOracleEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_brute_force_on_random_frames(self, k):
        for frame in random_frames(12, seed=100 + k):
            assert np.array_equal(dilate(frame, k), brute_force_morph(frame, k, require_all=False))
            assert np.array_equal(erode(frame, k), brute_force_morph(frame, k, require_all=True))


def structuring_element_pass(frame: np.ndarray, require_all: bool) -> np.ndarray:
    """One pass straight from the STRUCTURING_ELEMENT footprint, with
    out-of-frame pixels read as 0."""
    h, w = frame.shape
    padded = np.zeros((h + 2, w + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = frame
    hits = [padded[dy : dy + h, dx : dx + w] for dy, dx in zip(*np.nonzero(STRUCTURING_ELEMENT))]
    reduce = np.logical_and.reduce if require_all else np.logical_or.reduce
    return reduce(hits).astype(np.uint8)


def edge_frames():
    """All-ones frames and frames whose foreground touches the border."""
    frames = [np.ones(shape, dtype=np.uint8) for shape in ((1, 1), (1, 5), (5, 1), (2, 2), (3, 3), (6, 9))]
    for shape in ((2, 7), (7, 2), (8, 8), (9, 6)):
        h, w = shape
        for rows, cols in ((slice(0, 3), slice(None)), (slice(None), slice(w - 2, w)),
                           (slice(h - 1, h), slice(0, 2)), (slice(None), slice(0, 1))):
            frame = np.zeros(shape, dtype=np.uint8)
            frame[rows, cols] = 1
            frames.append(frame)
    rng = np.random.default_rng(31)
    frames += [(rng.random((7, 5)) < 0.8).astype(np.uint8) for _ in range(5)]
    return frames


class TestEdgesAgainstStructuringElement:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_border_and_all_ones_frames(self, k):
        for frame in edge_frames():
            dil, ero = frame, frame
            for _ in range(k):
                dil = structuring_element_pass(dil, require_all=False)
                ero = structuring_element_pass(ero, require_all=True)
            assert np.array_equal(dilate(frame, k), dil), frame
            assert np.array_equal(erode(frame, k), ero), frame

    def test_all_ones_frame(self):
        frame = np.ones((6, 9), dtype=np.uint8)
        assert np.array_equal(dilate(frame, 2), frame)
        expected = np.zeros_like(frame)
        expected[2:-2, 2:-2] = 1
        assert np.array_equal(erode(frame, 2), expected)

    @pytest.mark.parametrize("erosion", [False, True])
    def test_stack_pass_equals_each_frame_and_leaves_input_alone(self, erosion):
        frames = [f for f in edge_frames() if f.shape == (8, 8)] + random_frames(4, shape=(8, 8), seed=5)
        stack = np.array(frames, dtype=bool)
        before = stack.copy()
        out = radius1_pass(stack, erosion)
        assert np.array_equal(stack, before)
        for frame, got in zip(frames, out):
            assert np.array_equal(got, structuring_element_pass(frame, require_all=erosion))


def assert_pass_matches_each_frame(stack: np.ndarray, erosion: bool) -> None:
    before = stack.copy()
    out = radius1_pass(stack, erosion)
    assert np.array_equal(stack, before)
    assert out.shape == stack.shape and out.dtype == bool
    for index in np.ndindex(stack.shape[:-2]):
        assert np.array_equal(out[index], structuring_element_pass(stack[index], require_all=erosion))


class TestFlatPassEdgeShapes:
    # The pass shifts the flat buffer by 1 and by W, so frames one pixel
    # wide or high, frames with no pixels and strided inputs each reach
    # a different corner of it.
    @pytest.mark.parametrize("erosion", [False, True])
    @pytest.mark.parametrize("shape", [(4, 1, 7), (4, 7, 1), (5, 1, 1), (4, 2, 2), (1, 6),
                                       (6, 1), (0, 4, 4), (3, 0, 4), (3, 4, 0)])
    def test_shapes(self, shape, erosion):
        for p in (0.5, 1.0):
            stack = np.random.default_rng(len(shape) + sum(shape)).random(shape) < p
            assert_pass_matches_each_frame(stack, erosion)

    @pytest.mark.parametrize("erosion", [False, True])
    def test_non_contiguous_views(self, erosion):
        base = np.random.default_rng(8).random((6, 13, 11)) < 0.6
        for view in (base[::2], base[:, ::2, 1:], base.transpose(0, 2, 1), base[..., 3:4],
                     base[:, :1], base[1, ::-1]):
            assert_pass_matches_each_frame(view, erosion)


def structuring_element_fixed_point(frame: np.ndarray, erosion: bool) -> np.ndarray:
    """The structuring element pass repeated until nothing changes."""
    while True:
        step = structuring_element_pass(frame, require_all=erosion)
        if np.array_equal(step, frame):
            return step
        frame = step


class TestPassCap:
    @pytest.mark.parametrize("shape", [(5, 5), (3, 17), (12, 2), (1, 1)])
    def test_huge_k_equals_max_side_and_is_a_fixed_point(self, shape):
        frame = (np.random.default_rng(2).random(shape) < 0.5).astype(np.uint8)
        frame.flat[0] = 1
        for op, erosion in ((dilate, False), (erode, True)):
            t0 = time.perf_counter()
            huge = op(frame, 10**9)
            assert time.perf_counter() - t0 < 1.0
            capped = op(frame, max(shape))
            assert np.array_equal(huge, capped)
            assert np.array_equal(radius1_pass(capped.astype(bool), erosion), capped)
            assert np.array_equal(huge, structuring_element_fixed_point(frame, erosion))


class TestMaskArea:
    # A frame's mask area is the pixel count `size_change` reports.
    def test_empty(self):
        assert size_change(np.zeros((4, 4), dtype=np.uint8), np.zeros((4, 4))).s_original == 0

    def test_block(self):
        frame = np.zeros((5, 5), dtype=np.uint8)
        frame[1:4, 1:4] = 1
        assert size_change(frame, frame).s_original == 9

    def test_equals_pixel_loop(self):
        frame = random_frames(1, seed=9)[0]
        count = sum(int(frame[y, x]) for y in range(16) for x in range(16))
        assert size_change(frame, frame).s_modified == count

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            size_change(np.full((3, 3), 2, dtype=np.uint8), np.zeros((3, 3)))


class TestSizeChange:
    def test_identical_frames_give_unity(self):
        frame = np.ones((3, 3), dtype=np.uint8)
        assert size_change(frame, frame).delta_s == 1.0

    def test_single_pixel_dilated_gives_nine(self):
        frame = np.zeros((5, 5), dtype=np.uint8)
        frame[2, 2] = 1
        assert size_change(frame, dilate(frame, 1)).delta_s == 9.0

    def test_empty_original_is_undefined(self):
        empty = np.zeros((4, 4), dtype=np.uint8)
        ones = np.zeros((4, 4), dtype=np.uint8)
        change = size_change(empty, ones)
        assert change.delta_s is None

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            size_change(np.zeros((3, 3), dtype=np.uint8), np.zeros((3, 4), dtype=np.uint8))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(frame=mask_frames, k=st.integers(0, 3))
    def test_extensivity(self, frame, k):
        dilated = dilate(frame, k)
        eroded = erode(frame, k)
        assert np.all(frame <= dilated)
        assert np.all(eroded <= frame)

    @settings(max_examples=60, deadline=None)
    @given(frame=mask_frames, a=st.integers(0, 2), b=st.integers(0, 2))
    def test_iteration_composition(self, frame, a, b):
        assert np.array_equal(dilate(frame, a + b), dilate(dilate(frame, a), b))
        assert np.array_equal(erode(frame, a + b), erode(erode(frame, a), b))

    def test_delta_s_monotone_in_iterations(self):
        for frame in random_frames(5, p=0.4, seed=42):
            if np.count_nonzero(frame) == 0:
                continue
            dil = [size_change(frame, dilate(frame, k)).delta_s for k in range(4)]
            assert all(a <= b for a, b in zip(dil, dil[1:]))
            ero = [size_change(frame, erode(frame, k)).delta_s for k in range(4)]
            assert all(a >= b for a, b in zip(ero, ero[1:]))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_duality_on_interior_masks(self, k):
        rng = np.random.default_rng(7)
        for _ in range(10):
            frame = np.zeros((16, 16), dtype=np.uint8)
            interior = (rng.random((16 - 2 * k, 16 - 2 * k)) < 0.5).astype(np.uint8)
            frame[k : 16 - k, k : 16 - k] = interior
            complement = (1 - frame).astype(np.uint8)
            dual = (1 - dilate(complement, k)).astype(np.uint8)
            assert np.array_equal(erode(frame, k), dual)

    def test_structuring_element_is_fixed_3x3_ones(self):
        assert STRUCTURING_ELEMENT.shape == (3, 3)
        assert STRUCTURING_ELEMENT.sum() == 9
        with pytest.raises(ValueError):
            STRUCTURING_ELEMENT[0, 0] = 0
