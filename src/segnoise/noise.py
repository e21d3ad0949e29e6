"""Biased annotator simulation: seeded morphological mask corruption.

Per frame, a contamination scale k = floor(|x|), x ~ N(0, sigma2), picks
how many morphology passes to apply; the mode decides the operation
(dilate = recall-biased annotator, erode = precision-biased, random =
a fair coin per frame). k = 0 leaves the frame untouched. Every frame
draws from its own RNG stream keyed by (seed, patient id, frame index),
so results never depend on iteration order or parallelism, and the
corruption is fixed once per experiment rather than resampled.

`frame_rng` builds one frame's stream. `draw_frames` draws the same
streams for many keys at once: `stream_states` rebuilds `SeedSequence`'s
mixing in vectorised uint32 arithmetic, each frame's PCG64 seeds itself
in C from its row of that, and every frame's op and k land in arrays.
Passes never exceed `capped_passes` per frame; the reported k is the
drawn one. One engine step, `corrupt_masks`, serves every corruption,
for masks of one frame shape and any depths: one `stream_states` and one
`draw_frames` call give every frame's draws for every seed, and since a
frame's counts after k passes depend only on (frame, op, k), each op's
radius-1 passes run once over the masks' frames, as far as any seed
needs, and record every frame's count after each pass. Of its three
callers, `count_masks` scores many seeds without building a volume,
each seed's (tp, sum_p) a gather from that table; `corrupt_mask_volume`
is its one-seed, one-mask case, whose passes also write the volume; and
a gridsearch cell writes one seed's corruption of every train mask.
The per-frame reference all three must match (one frame, one stream,
`morphology.dilate` or `erode` k times) lives with the tests, in
`tests/reference.py`.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .atomic import csv_text, write_text
from .folds import DatasetSplit
from .morphology import SizeChange, capped_passes, radius1_pass
from .specs import NoiseMode, NoiseSpec, check_sigma2
from .volume import validate_mask_volume


@dataclass(frozen=True)
class CorruptionRecord(SizeChange):
    """One report row: what happened to one frame of one patient's mask."""

    patient_id: str
    frame: int
    mode: str
    op: str
    k: int


@dataclass(frozen=True)
class CorruptionReport:
    records: tuple[CorruptionRecord, ...]

    CSV_COLUMNS = ("patient_id", "frame", "mode", "op", "k", "s_original", "s_modified", "delta_s")

    def to_csv_string(self) -> str:
        # The columns are the fields; astuple would deep-copy each (27 us a row).
        return csv_text(self.CSV_COLUMNS, map(attrgetter(*self.CSV_COLUMNS), self.records))

    def to_csv(self, path: str | Path) -> None:
        write_text(path, self.to_csv_string())

    def mean_delta_s(self) -> float | None:
        """Mean relative size change over frames where it is defined."""
        defined = [r.delta_s for r in self.records if r.delta_s is not None]
        if not defined:
            return None
        return float(np.mean(defined))


# numpy's SeedSequence: a pool of four uint32 words, and its hashmix and
# mix constants, which `stream_states` rebuilds exactly.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = (1 << 32) - 1

# A radius-1 pass reads at most this many voxels of a stack at a time,
# which bounds its two temporaries.
_PASS_VOXELS = 1 << 20


def _patient_key(patient_id: str) -> int:
    digest = hashlib.blake2b(patient_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def frame_rng(seed: int, patient_id: str, frame_index: int) -> np.random.Generator:
    """The dedicated RNG stream of one (seed, patient, frame) cell."""
    seq = np.random.SeedSequence([int(seed), _patient_key(patient_id), int(frame_index)])
    return np.random.default_rng(seq)


def _words(value: int) -> list[int]:
    """A non-negative int as SeedSequence takes it: uint32 words, least
    significant first; 0 is one word."""
    if value < 0:
        raise ValueError(f"stream key values must be non-negative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """`init` and the next `count` hash constants (each the last times
    `mult`, mod 2^32), as a (count + 1, 1) column."""
    return np.cumprod([init] + [mult] * count, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of (m, n) words, row i with
    the i-th pair of the m + 1 consecutive hash constants `consts`."""
    out = values ^ consts[:-1]
    out *= consts[1:]
    out ^= out >> _XSHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    out ^= out >> _XSHIFT
    return out


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(row).generate_state(4, np.uint64)` for each row of
    (n, L) uint32 entropy words, as a C-contiguous (n, 4) uint64 array.

    Entropy shorter than the pool is padded with zeros, which is what
    numpy's mixing does; words beyond the pool take its extra loop.
    """
    n, length = entropy.shape
    # One hashmix per pool word fills the pool, one per ordered pair of
    # pool words mixes it, and one per pool word takes each extra word.
    extra = max(0, length - _POOL_SIZE)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))
    pool = np.zeros((_POOL_SIZE, n), dtype=np.uint32)
    pool[:min(length, _POOL_SIZE)] = entropy[:, :_POOL_SIZE].T
    pool = _hashmix(pool, consts[:_POOL_SIZE + 1])
    used = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        mixed = _hashmix(np.broadcast_to(pool[src], (len(dst), n)), consts[used:used + len(dst) + 1])
        pool[dst] = _mix(pool[dst], mixed)
        used += len(dst)
    for src in range(_POOL_SIZE, length):
        mixed = _hashmix(np.broadcast_to(entropy[:, src], (_POOL_SIZE, n)),
                         consts[used:used + _POOL_SIZE + 1])
        pool = _mix(pool, mixed)
        used += _POOL_SIZE
    # generate_state(4, uint64) takes eight uint32 words, cycling the pool.
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(_INIT_B, _MULT_B, 8))
    words = words.T.astype(np.uint64)
    return words[:, 0::2] | (words[:, 1::2] << np.uint64(32))


def _entropy_groups(keys: Sequence[Sequence[int]]) -> list[tuple[list[int], np.ndarray]]:
    """The keys' `_words`, grouped by count: (indices, (n, count) words)."""
    groups: dict[int, tuple[list[int], list[list[int]]]] = {}
    for index, key in enumerate(keys):
        row = [w for v in key for w in _words(int(v))]
        indices, rows = groups.setdefault(len(row), ([], []))
        indices.append(index)
        rows.append(row)
    return [(indices, np.array(rows, dtype=np.uint32)) for indices, rows in groups.values()]


def stream_states(prefixes: Sequence[Sequence[int]], suffixes: Sequence[Sequence[int]]) -> np.ndarray:
    """`SeedSequence([*prefix, *suffix]).generate_state(4, np.uint64)`
    for each prefix and, within it, each suffix of non-negative ints, as
    a (prefixes x suffixes, 4) uint64 array: the words a PCG64 seeds
    itself from. The mixing runs once per pair of word counts."""
    states = np.empty((len(prefixes), len(suffixes), 4), dtype=np.uint64)
    for p_index, p_words in _entropy_groups(prefixes):
        for s_index, s_words in _entropy_groups(suffixes):
            entropy = np.concatenate([np.repeat(p_words, len(s_index), axis=0),
                                      np.tile(s_words, (len(p_index), 1))], axis=1)
            states[np.ix_(p_index, s_index)] = _seed_state(entropy).reshape(len(p_index), len(s_index), 4)
    return states.reshape(-1, 4)


@functools.cache
def _state_rows() -> type:
    """An `ISeedSequence` whose `generate_state` returns the next row of
    `stream_states`, the 4 uint64 words `PCG64(seq)` asks for. Defined
    at the first draw: importing this module leaves numpy.random out."""
    from numpy.random.bit_generator import ISeedSequence

    class StateRows(ISeedSequence):
        def __init__(self, states: np.ndarray):
            self._rows = iter(states)

        def generate_state(self, n_words, dtype=np.uint32):
            return next(self._rows)

    return StateRows


def _std(sigma2: float) -> float:
    """The standard deviation of N(0, sigma2), once sigma2 is checked."""
    return math.sqrt(check_sigma2(sigma2))


def sample_scale(rng: np.random.Generator, sigma2: float) -> int:
    """Contamination scale k = floor(|x|), x ~ N(0, sigma2)."""
    return int(math.floor(abs(rng.normal(0.0, _std(sigma2)))))


def draw_frames(states: np.ndarray, mode: NoiseMode, std: float) -> tuple[np.ndarray, np.ndarray]:
    """Each frame's draw from its row of `stream_states`, as `frame_rng`
    gives it: whether it is eroded (else dilated; random mode flips its
    fair coin first) and its k = floor(|x|), x ~ N(0, std**2), as a bool
    and a float64 array. k may exceed int64; `int(k[i])` is exact. numpy's
    `normal(0.0, std)` is `0.0 + std * standard_normal()`, hence std * x."""
    # PCG64 reads each row's four words from its buffer, so rows must be contiguous uint64.
    states = np.ascontiguousarray(states, dtype=np.uint64)
    if states.ndim != 2 or states.shape[1] != 4:
        raise ValueError(f"states must be (n, 4) seed words, got shape {states.shape}")
    streams, generator, pcg64 = _state_rows()(states), np.random.Generator, np.random.PCG64
    rngs = (generator(pcg64(streams)) for _ in range(len(states)))
    if mode is NoiseMode.RANDOM:
        coin, x = np.array([(rng.random(), rng.standard_normal()) for rng in rngs]).reshape(-1, 2).T
        erode = coin >= 0.5
    else:
        x = np.array([rng.standard_normal() for rng in rngs], dtype=np.float64)
        erode = np.full(len(x), mode is NoiseMode.ERODE)
    return erode, np.floor(np.abs(std * x))


def _frame_counts(frames: Sequence[np.ndarray]) -> np.ndarray:
    """count_nonzero of each frame, one whole frame at a time: its fast
    path, which the axis form (a bool sum) does not take."""
    return np.array([np.count_nonzero(frame) for frame in frames], dtype=np.int64)


def _fill_table(table: np.ndarray, frames: list[np.ndarray], reach: np.ndarray, erosion: bool, chunk: int,
                out: np.ndarray | None) -> None:
    """table[j, f] = the voxel count of frames[f] after j passes of one
    op, for every j up to reach[f]; `out[f]`, if given, = frames[f] after
    its reach[f] passes, for every frame with reach. The frames run in
    stacks of at most `chunk`, by descending reach, so that the frames
    still active at pass j are a prefix of their stack."""
    order = np.argsort(-reach, kind="stable")[:np.count_nonzero(reach)]
    for lo in range(0, len(order), chunk):
        index = order[lo:lo + chunk]
        stack = np.array([frames[i] for i in index.tolist()])
        for j in range(1, reach[index[0]] + 1):
            active = np.count_nonzero(reach[index] >= j)
            stack[:active] = radius1_pass(stack[:active], erosion)
            table[j, index[:active]] = _frame_counts(stack[:active])
        if out is not None:
            out[index] = stack


def corrupt_masks(masks: Sequence[np.ndarray], mode: NoiseMode, sigma2: float, seeds: Sequence[int],
                  patient_ids: Sequence[str], out: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Every seed's corruption of the frames of `masks` (checked uint8
    volumes of one frame shape, any depths) laid end to end: each frame's
    erode flag, drawn k and count after its passes, as (seeds, frames)
    arrays, and its clean count. sigma2 is checked before any draw.

    Each patient id is hashed once, one `stream_states` call seeds every
    (seed, mask) to the longest mask's depth, and only real frames'
    streams are drawn. Each op's passes run once over the frames, as far
    as any seed needs, in stacks of at most `_PASS_VOXELS` voxels, into a
    table of every frame's count after each pass; a seed's counts are a
    gather from it. With one seed each frame's reach is its own pass
    count, so a bool `out` of the frames receives that seed's corrupted
    frames.
    """
    std = _std(sigma2)
    depths = [len(mask) for mask in masks]
    frames = [frame for mask in masks for frame in mask.view(bool)]
    keys = [_patient_key(pid) for pid in patient_ids]
    longest = max(depths, default=0)
    states = stream_states([(seed, key) for seed in seeds for key in keys], [(f,) for f in range(longest)])
    if len(frames) < len(masks) * longest:  # drop the rows past a shorter mask's depth
        real = np.greater.outer(depths, np.arange(longest)).ravel()
        states = states.reshape(len(seeds), len(masks) * longest, 4)[:, real].reshape(-1, 4)
    erode, k = (a.reshape(len(seeds), len(frames)) for a in draw_frames(states, mode, std))
    passes = np.minimum(k, capped_passes(k.max(initial=0), masks[0].shape)).astype(np.intp)
    op = erode.astype(np.intp)
    chunk = max(1, _PASS_VOXELS // max(1, math.prod(masks[0].shape[1:])))
    table = np.zeros((2, passes.max(initial=0) + 1, len(frames)), dtype=np.int64)
    table[:, 0] = _frame_counts(frames)
    for erosion, rows in enumerate(table):
        reach = np.where(op == erosion, passes, 0).max(axis=0, initial=0)
        _fill_table(rows, frames, reach, bool(erosion), chunk, out)
    return erode, k, table[0, 0], table[op, passes, np.arange(len(frames))]


def count_masks(
    masks: Sequence, mode: NoiseMode, sigma2: float, seeds: Sequence[int], patient_ids: Sequence[str]
) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """(tp, sum_p, sum_t) of each mask, with its patient id, against each
    seed's corrupted volume: tp and sum_p as int64 arrays in seed order,
    sum_t the mask's voxel count. They equal `count_nonzero` of
    `corrupted & mask` and of `corrupted` for the volumes
    `corrupt_mask_volume` builds, one seed at a time, but no volume is
    built. A dilation holds its frame and an erosion lies within it, so
    a frame's tp is its clean count if dilated, else its own count. The
    masks of one frame shape, whatever their depths, are seeded, drawn
    and passed together in one `corrupt_masks` step."""
    masks = [validate_mask_volume(mask) for mask in masks]
    mode = NoiseMode(mode)
    by_shape: dict[tuple, list[int]] = {}
    for index, mask in enumerate(masks):
        by_shape.setdefault(mask.shape[1:], []).append(index)
    counts: list = [None] * len(masks)
    for indices in by_shape.values():
        erode, _, clean, after = corrupt_masks([masks[i] for i in indices], mode, sigma2, seeds,
                                               [patient_ids[i] for i in indices])
        tp = np.where(erode, after, clean)
        ends = np.cumsum([len(masks[i]) for i in indices]).tolist()
        for i, lo, hi in zip(indices, [0, *ends], ends):
            counts[i] = (tp[:, lo:hi].sum(axis=1), after[:, lo:hi].sum(axis=1), int(clean[lo:hi].sum()))
    return counts


def corrupt_mask_volume(
    mask_volume, mode: NoiseMode, sigma2: float, seed: int, patient_id: str
) -> tuple[np.ndarray, list[CorruptionRecord]]:
    """Corrupt every frame of one mask volume with keyed RNG streams;
    return the volume and its report rows, one per frame.

    Frame i is corrupted as if with its own `frame_rng(seed, patient_id,
    i)`: the volume is `corrupt_masks` of the one mask and seed, whose passes
    write their frames over a copy of the mask and whose table gives the
    report's counts.
    """
    mask = validate_mask_volume(mask_volume)
    mode = NoiseMode(mode)
    out = mask.copy()
    erode, k, clean, after = corrupt_masks([mask], mode, sigma2, [seed], [patient_id], out.view(bool))
    ops = np.where(erode[0], NoiseMode.ERODE.value, NoiseMode.DILATE.value)
    rows = [
        CorruptionRecord(s_original=before, s_modified=modified, patient_id=patient_id, frame=index,
                         mode=mode.value, op=op if drawn else "none", k=int(drawn))
        for index, (op, drawn, before, modified) in enumerate(zip(
            ops.tolist(), k[0].tolist(), clean.tolist(), after[0].tolist()))
    ]
    return out, rows


def corrupt_patient(
    mask, patient_id: str, split: DatasetSplit, spec: NoiseSpec
) -> tuple[np.ndarray, list[CorruptionRecord]]:
    """One split patient's mask as `corrupt` writes it: a train or
    validation mask corrupted, with one report row per frame; any other
    mask as a copy, with no rows."""
    if patient_id not in split.train_ids + split.val_ids:
        return np.array(mask, dtype=np.uint8), []
    return corrupt_mask_volume(mask, spec.mode, spec.sigma2, spec.seed, patient_id)

