"""Biased annotator simulation: seeded morphological mask corruption.

Per frame, a contamination scale k = floor(|x|), x ~ N(0, sigma2), picks
how many morphology passes to apply; the mode decides the operation
(dilate = recall-biased annotator, erode = precision-biased, random =
a fair coin per frame). k = 0 leaves the frame untouched. Every frame
draws from its own RNG stream keyed by (seed, patient id, frame index),
so results never depend on iteration order or parallelism, and the
corruption is fixed once per experiment rather than resampled.

`frame_rng` builds one frame's stream; `frame_states` derives the same
streams' starting states for many keys at once, by rebuilding
`SeedSequence`'s mixing in vectorised uint32 arithmetic.
One mask volume is corrupted once per seed a group of repetitions at a
time: every frame's op and k are drawn, the frames that need passes are
stacked, and each radius-1 pass runs once per op over the stack (never
more than `capped_passes` per frame; the reported k is the drawn one).
Two consumers read the groups: `corrupt_mask_volume` builds the one
volume of a single seed, and `count_repetitions` returns each of many
repetitions' (tp, sum_p) against the mask from the stack's rows and the
clean frames' counts, without building a volume. The per-frame
reference both must match (one frame, one stream, `morphology.dilate` or
`erode` k times) lives with the tests, in `tests/reference.py`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .atomic import csv_text, write_text
from .folds import DatasetSplit
from .morphology import SizeChange, capped_passes, radius1_pass
from .specs import NoiseMode, NoiseSpec, check_sigma2
from .volume import PatientRecord, validate_mask_volume


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


# numpy's SeedSequence (pool of four uint32 words, hashmix and mix
# constants) and PCG64 seeding, which `frame_states` rebuilds exactly.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1

# Repetitions are corrupted in groups whose frames hold at most this many
# voxels (8 MiB of bool), and never fewer than one repetition.
STACK_VOXELS = 1 << 23
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
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


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
    (n, L) uint32 entropy words, as a (4, n) uint64 array.

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
    words = words.astype(np.uint64)
    return words[0::2] | (words[1::2] << np.uint64(32))


def frame_states(keys: Sequence[tuple[int, int, int]]) -> list[dict]:
    """The PCG64 state that `np.random.default_rng(SeedSequence([seed,
    key, frame]))` starts from, for each (seed, key, frame) triple of
    non-negative ints (key is a patient key; `frame_rng` hashes the
    patient id to one). Assigning a state to a Generator's bit generator
    gives that frame's stream. The mixing runs once per entropy length
    over all keys; PCG64's seeding of (state, inc) runs on Python ints.
    """
    words = {value: _words(int(value)) for value in {v for key in keys for v in key}}
    rows = [words[seed] + words[key] + words[frame] for seed, key, frame in keys]
    by_length: dict[int, list[int]] = {}
    for index, row in enumerate(rows):
        by_length.setdefault(len(row), []).append(index)
    states: list = [None] * len(rows)
    for indices in by_length.values():
        seeded = _seed_state(np.array([rows[i] for i in indices], dtype=np.uint32))
        for index, (s_hi, s_lo, i_hi, i_lo) in zip(indices, zip(*seeded.tolist())):
            inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
            state = ((((s_hi << 64) | s_lo) + inc) * _PCG64_MULT + inc) & _MASK128
            states[index] = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                             "has_uint32": 0, "uinteger": 0}
    return states


def _std(sigma2: float) -> float:
    """The standard deviation of N(0, sigma2), once sigma2 is checked."""
    return math.sqrt(check_sigma2(sigma2))


def _scale(rng: np.random.Generator, std: float) -> int:
    return int(math.floor(abs(rng.normal(0.0, std))))


def sample_scale(rng: np.random.Generator, sigma2: float) -> int:
    """Contamination scale k = floor(|x|), x ~ N(0, sigma2)."""
    return _scale(rng, _std(sigma2))


def _draw(rng: np.random.Generator, mode: NoiseMode, std: float) -> tuple[NoiseMode, int]:
    """One frame's (operation, k) with x ~ N(0, std**2): random mode
    flips its fair coin first."""
    if mode is NoiseMode.RANDOM:
        op_mode = NoiseMode.DILATE if rng.random() < 0.5 else NoiseMode.ERODE
    else:
        op_mode = mode
    return op_mode, _scale(rng, std)


def _chunk_frames(stack: np.ndarray) -> int:
    """How many frames of a stack hold at most _PASS_VOXELS voxels (at least one)."""
    return max(1, _PASS_VOXELS // max(1, stack.shape[1] * stack.shape[2]))


def _run_passes(stack: np.ndarray, draws: list[tuple[NoiseMode, int]]) -> None:
    """Corrupt a bool frame stack in place: its dilated frames, then its
    eroded ones, each block sorted by descending k, so that the frames
    still active at pass j of an op are a prefix of its block. No frame
    takes more passes than `capped_passes` allows; its k is unchanged."""
    chunk = _chunk_frames(stack)
    start = 0
    for op_mode in (NoiseMode.DILATE, NoiseMode.ERODE):
        ks = [capped_passes(k, stack.shape[1:]) for op, k in draws if op is op_mode]
        block = stack[start:start + len(ks)]
        for j in range(1, (ks[0] if ks else 0) + 1):
            active = sum(k >= j for k in ks)
            for lo in range(0, active, chunk):
                hi = min(lo + chunk, active)
                block[lo:hi] = radius1_pass(block[lo:hi], op_mode is NoiseMode.ERODE)
        start += len(ks)


def _corrupted_groups(
    mask: np.ndarray, mode: NoiseMode, sigma2: float, seeds: Sequence[int], patient_id: str
) -> Iterator[tuple[list[list[tuple[NoiseMode, int]]], np.ndarray, np.ndarray, np.ndarray]]:
    """Corrupt a validated uint8 mask volume once per seed, a group of
    repetitions at a time. Yield per group, in seed order: each of its
    repetitions' frame draws (op, k), the bool stack of its corrupted
    frames (those with k > 0), and each stack row's repetition within
    the group and frame index. A consumer drops the stack before asking
    for the next group, so that only one group's stack is alive."""
    depth = mask.shape[0]
    frames = mask.view(bool)
    key = _patient_key(patient_id)
    std = _std(sigma2)
    rng = np.random.Generator(np.random.PCG64(0))
    draws = []
    for state in frame_states([(seed, key, i) for seed in seeds for i in range(depth)]):
        rng.bit_generator.state = state
        draws.append(_draw(rng, mode, std))
    per_group = max(1, STACK_VOXELS // max(1, mask.size))
    for first in range(0, len(seeds), per_group):
        reps = min(per_group, len(seeds) - first)
        rows = draws[first * depth:(first + reps) * depth]
        order = sorted((i for i, (_, k) in enumerate(rows) if k),
                       key=lambda i: (rows[i][0] is NoiseMode.ERODE, -rows[i][1]))
        rep_index, frame_index = np.divmod(np.array(order, dtype=np.intp), max(1, depth))
        stack = frames[frame_index]
        _run_passes(stack, [rows[i] for i in order])
        yield [rows[r * depth:(r + 1) * depth] for r in range(reps)], stack, rep_index, frame_index
        del stack  # before the next group's stack is built


def _frame_counts(frames: np.ndarray) -> np.ndarray:
    """count_nonzero of each frame, one whole frame at a time: its fast
    path, which the axis form (a bool sum) does not take."""
    return np.array([np.count_nonzero(frame) for frame in frames], dtype=np.int64)


def _stack_counts(frames: np.ndarray, stack: np.ndarray,
                  frame_index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each stack row's voxel count within its clean frame and overall,
    reading at most _PASS_VOXELS voxels of the stack at a time."""
    chunk = _chunk_frames(stack)
    tp, sum_p = np.empty((2, len(stack)), dtype=np.int64)
    for lo in range(0, len(stack), chunk):
        kept = frames[frame_index[lo:lo + chunk]]
        kept &= stack[lo:lo + chunk]
        tp[lo:lo + chunk] = _frame_counts(kept)
        sum_p[lo:lo + chunk] = _frame_counts(stack[lo:lo + chunk])
    return tp, sum_p


def count_repetitions(
    mask_volume, mode: NoiseMode, sigma2: float, seeds: Sequence[int], patient_id: str
) -> tuple[np.ndarray, np.ndarray, int]:
    """(tp, sum_p, sum_t) of each seed's corrupted volume against the
    mask: tp and sum_p as int64 arrays in seed order, sum_t the mask's
    voxel count. They equal `count_nonzero` of `corrupted & mask` and of
    `corrupted` for the volumes `corrupt_mask_volume` builds, one seed
    at a time, but no volume is built: each corrupted frame's counts
    replace its clean frame's in the mask's totals.
    """
    mask = validate_mask_volume(mask_volume)
    frames = mask.view(bool)
    clean = _frame_counts(frames)
    sum_t = int(clean.sum())
    tp = np.full(len(seeds), sum_t, dtype=np.int64)
    sum_p = tp.copy()
    first = 0
    for group, stack, rep_index, frame_index in _corrupted_groups(mask, NoiseMode(mode), sigma2,
                                                                    seeds, patient_id):
        kept, total = _stack_counts(frames, stack, frame_index)
        del stack
        np.add.at(tp, first + rep_index, kept - clean[frame_index])
        np.add.at(sum_p, first + rep_index, total - clean[frame_index])
        first += len(group)
    return tp, sum_p, sum_t


def corrupt_mask_volume(
    mask_volume, mode: NoiseMode, sigma2: float, seed: int, patient_id: str
) -> tuple[np.ndarray, list[CorruptionRecord]]:
    """Corrupt every frame of one mask volume with keyed RNG streams;
    return the volume and its report rows, one per frame.

    Frame i is corrupted as if with its own `frame_rng(seed, patient_id,
    i)`: the one group of `_corrupted_groups` for one seed, its stack
    written over a copy of the mask.
    """
    mask = validate_mask_volume(mask_volume)
    mode = NoiseMode(mode)
    (((draws,), stack, _, frame_index),) = _corrupted_groups(mask, mode, sigma2, [seed], patient_id)
    out = mask.copy()
    out.view(bool)[frame_index] = stack
    rows = [
        CorruptionRecord(s_original=int(before), s_modified=int(after), patient_id=patient_id,
                         frame=index, mode=mode.value, op=op.value if k else "none", k=k)
        for index, ((op, k), before, after) in enumerate(zip(draws, _frame_counts(mask),
                                                             _frame_counts(out)))
    ]
    return out, rows


def corrupt_patient(
    mask, patient_id: str, split: DatasetSplit, spec: NoiseSpec
) -> tuple[np.ndarray, list[CorruptionRecord]]:
    """One patient's step of `corrupt_dataset`: a train or validation
    mask comes back corrupted, with one report row per frame; any other
    mask comes back as a copy, with no rows."""
    if patient_id not in split.train_ids + split.val_ids:
        return np.array(mask, dtype=np.uint8), []
    return corrupt_mask_volume(mask, spec.mode, spec.sigma2, spec.seed, patient_id)


def corrupt_dataset(
    records: list[PatientRecord], split: DatasetSplit, spec: NoiseSpec
) -> tuple[dict[str, np.ndarray], CorruptionReport]:
    """Corrupt train and validation masks; test masks pass through
    bit-identical. Returns (masks by patient id, audit report).
    """
    by_id = {r.patient_id: r for r in records}
    split.check_known(by_id)
    masks: dict[str, np.ndarray] = {}
    rows: list[CorruptionRecord] = []
    for pid in sorted(split.all_ids):
        masks[pid], patient_rows = corrupt_patient(by_id[pid].mask, pid, split, spec)
        rows += patient_rows
    return masks, CorruptionReport(records=tuple(rows))
