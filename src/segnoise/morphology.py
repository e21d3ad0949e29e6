"""Binary 2-D morphology on {0,1} mask frames.

All operations use the fixed 3x3 all-ones structuring element
(8-connectivity) with a zero-padded border. Iterated application runs
k passes of the radius-1 element, which is equivalent to a single pass
with a Chebyshev ball of radius k.

One pass (`radius1_pass`) works on the last two axes of a bool
(..., H, W) array, so a single frame and a stack of frames run the same
code. The 3x3 square is separable: the pass reduces each pixel with its
neighbours along W as +-1 shifts of the whole flat buffer, then along H
as +-W shifts within each frame, so every step is one long run over
memory rather than one short run per row. The W step also pairs each
row's first and last pixels with the neighbouring rows' ends; dilation
recomputes those two columns, and erosion zeroes all frame edges, whose
windows reach outside the frame.

Beyond max(H, W) passes neither operation changes a frame any more, so
no more passes than that are run (`capped_passes`), however large k is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import is_binary

# Fixed 3x3 all-ones footprint, origin at the center.
STRUCTURING_ELEMENT = np.ones((3, 3), dtype=np.uint8)
STRUCTURING_ELEMENT.setflags(write=False)


def as_mask_frame(frame) -> np.ndarray:
    """Validate a 2-D {0,1} frame and return it as uint8."""
    arr = np.asarray(frame)
    if arr.ndim != 2:
        raise ValueError(f"mask frame must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("mask frame must be non-empty")
    if not is_binary(arr):
        raise ValueError("mask frame values must be exactly 0 or 1")
    return arr.astype(np.uint8, copy=False)


def radius1_pass(stack: np.ndarray, erosion: bool) -> np.ndarray:
    """One pass of the 3x3 square over the last two axes of a bool
    (..., H, W) array: OR of each window for dilation, AND for erosion.
    Returns a new array; `stack` is not modified.
    """
    op = np.logical_and if erosion else np.logical_or
    src = np.ascontiguousarray(stack)
    if src.size == 0:
        return src.copy()
    width = src.shape[-1]
    flat = src.reshape(-1)
    # Along W as +-1 shifts of the whole buffer, which also reduces the
    # first and last pixel of each row with the neighbouring rows' ends.
    rows = np.empty_like(flat)
    rows[0] = flat[0]
    op(flat[1:], flat[:-1], out=rows[1:])
    op(rows[:-1], flat[1:], out=rows[:-1])
    rows = rows.reshape(src.shape)
    if not erosion:  # erosion zeroes those columns below
        rows[..., 0] = src[..., 0] | src[..., min(1, width - 1)]
        rows[..., -1] = src[..., -1] | src[..., max(0, width - 2)]
    # ... then along H as +-W shifts within each frame.
    rows = rows.reshape(-1, src.shape[-2] * width)
    out = np.empty_like(rows)
    out[:, :width] = rows[:, :width]
    op(rows[:, width:], rows[:, :-width], out=out[:, width:])
    op(out[:, :-width], rows[:, width:], out=out[:, :-width])
    out = out.reshape(src.shape)
    if erosion:
        out[..., 0, :] = False
        out[..., -1, :] = False
        out[..., 0] = False
        out[..., -1] = False
    return out


def capped_passes(k: int, frame_shape) -> int:
    """How many of k passes change an (H, W) frame: at most max(H, W).

    By then a dilation window covers the whole frame from any pixel and
    an erosion window reaches past the border from every pixel, so both
    operations have reached their fixed point.
    """
    return min(int(k), max(frame_shape[-2:]))


def _iterate(frame, iterations: int, erosion: bool) -> np.ndarray:
    out = as_mask_frame(frame).astype(bool)
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    for _ in range(capped_passes(iterations, out.shape)):
        out = radius1_pass(out, erosion)
    return out.astype(np.uint8)


def dilate(frame, iterations: int = 1) -> np.ndarray:
    """Grow a mask: output pixel is 1 iff any input pixel within
    Chebyshev distance `iterations` is 1 (outside the frame counts as 0).
    `iterations=0` returns the frame unchanged.
    """
    return _iterate(frame, iterations, erosion=False)


def erode(frame, iterations: int = 1) -> np.ndarray:
    """Shrink a mask: output pixel is 1 iff every pixel within Chebyshev
    distance `iterations` is 1, with out-of-frame pixels counted as 0.
    `iterations=0` returns the frame unchanged.
    """
    return _iterate(frame, iterations, erosion=True)


@dataclass(frozen=True)
class SizeChange:
    """Pixel counts before/after a corruption of one frame.

    `delta_s` is the relative size change (modified over original);
    it is undefined (None) for an empty original.
    """

    s_original: int
    s_modified: int

    @property
    def delta_s(self) -> float | None:
        if self.s_original == 0:
            return None
        return self.s_modified / self.s_original


def size_change(original, modified) -> SizeChange:
    """Relative mask-size change between two same-shape frames."""
    a = as_mask_frame(original)
    b = as_mask_frame(modified)
    if a.shape != b.shape:
        raise ValueError(f"frame shapes differ: {a.shape} vs {b.shape}")
    return SizeChange(int(np.count_nonzero(a)), int(np.count_nonzero(b)))
