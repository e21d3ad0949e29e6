"""Biased annotator simulation: seeded morphological mask corruption.

Per frame, a contamination scale k = floor(|x|), x ~ N(0, sigma2), picks
how many morphology passes to apply; the mode decides the operation
(dilate = recall-biased annotator, erode = precision-biased, random =
a fair coin per frame). k = 0 leaves the frame untouched. Every frame
draws from its own RNG stream keyed by (seed, patient id, frame index),
so results never depend on iteration order or parallelism, and the
corruption is fixed once per experiment rather than resampled.

`corrupt_mask_volume` validates a volume once, draws every frame's op
and k from that frame's stream, then runs each radius-1 pass once per
op over the stack of frames that still need it. `corrupt_frame` is the
per-frame reference it must match.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .atomic import write_text
from .folds import DatasetSplit
from .morphology import SizeChange, dilate, erode, radius1_pass, size_change
from .volume import PatientRecord, validate_mask_volume


class NoiseMode(str, Enum):
    DILATE = "dilate"
    ERODE = "erode"
    RANDOM = "random"


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption parameters; sampling is fixed once per (seed, frame)."""

    mode: NoiseMode
    sigma2: float
    seed: int

    RESAMPLE_POLICY = "fixed-once"

    def __post_init__(self):
        object.__setattr__(self, "mode", NoiseMode(self.mode))
        if not math.isfinite(self.sigma2) or self.sigma2 < 0:
            raise ValueError("sigma2 must be finite and >= 0")
        if int(self.seed) < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class FrameCorruption:
    """What happened to one frame: op in {dilate, erode, none}."""

    op: str
    k: int
    change: SizeChange


@dataclass(frozen=True)
class CorruptionRecord:
    patient_id: str
    frame: int
    mode: str
    op: str
    k: int
    s_original: int
    s_modified: int
    delta_s: float | None


@dataclass(frozen=True)
class CorruptionReport:
    records: tuple[CorruptionRecord, ...]

    CSV_COLUMNS = ("patient_id", "frame", "mode", "op", "k", "s_original", "s_modified", "delta_s")

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_COLUMNS)
        for r in self.records:
            delta = "" if r.delta_s is None else format(r.delta_s, ".10g")
            writer.writerow([r.patient_id, r.frame, r.mode, r.op, r.k, r.s_original, r.s_modified, delta])
        return buf.getvalue()

    def to_csv(self, path: str | Path) -> None:
        write_text(path, self.to_csv_string())

    def mean_delta_s(self) -> float | None:
        """Mean relative size change over frames where it is defined."""
        defined = [r.delta_s for r in self.records if r.delta_s is not None]
        if not defined:
            return None
        return float(np.mean(defined))


def _patient_key(patient_id: str) -> int:
    digest = hashlib.blake2b(patient_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def frame_rng(seed: int, patient_id: str, frame_index: int) -> np.random.Generator:
    """The dedicated RNG stream of one (seed, patient, frame) cell."""
    seq = np.random.SeedSequence([int(seed), _patient_key(patient_id), int(frame_index)])
    return np.random.default_rng(seq)


def sample_scale(rng: np.random.Generator, sigma2: float) -> int:
    """Contamination scale k = floor(|x|), x ~ N(0, sigma2)."""
    if not math.isfinite(sigma2) or sigma2 < 0:
        raise ValueError("sigma2 must be finite and >= 0")
    x = rng.normal(0.0, math.sqrt(sigma2))
    return int(math.floor(abs(x)))


def _draw(rng: np.random.Generator, mode: NoiseMode, sigma2: float) -> tuple[NoiseMode, int]:
    """One frame's (operation, k): random mode flips its fair coin first."""
    if mode is NoiseMode.RANDOM:
        op_mode = NoiseMode.DILATE if rng.random() < 0.5 else NoiseMode.ERODE
    else:
        op_mode = mode
    return op_mode, sample_scale(rng, sigma2)


def corrupt_frame(
    frame, mode: NoiseMode, sigma2: float, rng: np.random.Generator
) -> tuple[np.ndarray, FrameCorruption]:
    """Corrupt one frame; k = 0 returns it unchanged with op 'none'.

    Random mode flips a fair coin for the operation first, then draws
    its own scale.
    """
    op_mode, k = _draw(rng, NoiseMode(mode), sigma2)
    if k == 0:
        out = np.asarray(frame, dtype=np.uint8).copy()
        return out, FrameCorruption(op="none", k=0, change=size_change(frame, out))
    out = dilate(frame, k) if op_mode is NoiseMode.DILATE else erode(frame, k)
    return out, FrameCorruption(op=op_mode.value, k=k, change=size_change(frame, out))


def corrupt_mask_volume(
    mask_volume, mode: NoiseMode, sigma2: float, seed: int, patient_id: str
) -> tuple[np.ndarray, list[FrameCorruption]]:
    """Corrupt every frame of one mask volume with keyed RNG streams.

    Equal to `corrupt_frame` on each frame with `frame_rng(seed,
    patient_id, index)`, but each radius-1 pass runs once per op over
    the frames whose k it has not reached yet.
    """
    mask = validate_mask_volume(mask_volume)
    mode = NoiseMode(mode)
    draws = [_draw(frame_rng(seed, patient_id, i), mode, sigma2) for i in range(mask.shape[0])]
    out = mask.astype(bool)
    for op_mode in (NoiseMode.DILATE, NoiseMode.ERODE):
        # Deepest first, so the frames still active at pass j are a prefix.
        order = sorted((i for i, (op, k) in enumerate(draws) if op is op_mode and k > 0),
                       key=lambda i: -draws[i][1])
        if not order:
            continue
        ks = [draws[i][1] for i in order]
        stack = out[order]
        for j in range(1, ks[0] + 1):
            active = sum(k >= j for k in ks)
            stack[:active] = radius1_pass(stack[:active], op_mode is NoiseMode.ERODE)
        out[order] = stack
    # Per-frame counts: count_nonzero over whole frames takes its fast
    # path, which its axis form (a bool sum) does not.
    outcomes = [
        FrameCorruption(op=op.value if k else "none", k=k,
                        change=SizeChange(np.count_nonzero(before), np.count_nonzero(after)))
        for (op, k), before, after in zip(draws, mask, out)
    ]
    return out.view(np.uint8), outcomes


def corrupt_patient(
    mask, patient_id: str, split: DatasetSplit, spec: NoiseSpec
) -> tuple[np.ndarray, list[CorruptionRecord]]:
    """One patient's step of `corrupt_dataset`: a train or validation
    mask comes back corrupted, with one report row per frame; any other
    mask comes back as a copy, with no rows."""
    if patient_id not in split.train_ids + split.val_ids:
        return np.array(mask, dtype=np.uint8), []
    new_mask, outcomes = corrupt_mask_volume(mask, spec.mode, spec.sigma2, spec.seed, patient_id)
    rows = [
        CorruptionRecord(
            patient_id=patient_id,
            frame=frame_index,
            mode=spec.mode.value,
            op=out.op,
            k=out.k,
            s_original=out.change.s_original,
            s_modified=out.change.s_modified,
            delta_s=out.change.delta_s,
        )
        for frame_index, out in enumerate(outcomes)
    ]
    return new_mask, rows


def corrupt_dataset(
    records: list[PatientRecord], split: DatasetSplit, spec: NoiseSpec
) -> tuple[dict[str, np.ndarray], CorruptionReport]:
    """Corrupt train and validation masks; test masks pass through
    bit-identical. Returns (masks by patient id, audit report).
    """
    by_id = {r.patient_id: r for r in records}
    missing = [pid for pid in split.all_ids if pid not in by_id]
    if missing:
        raise KeyError(f"split references unknown patient ids: {missing}")

    masks: dict[str, np.ndarray] = {}
    rows: list[CorruptionRecord] = []
    for pid in sorted(split.all_ids):
        masks[pid], patient_rows = corrupt_patient(by_id[pid].mask, pid, split, spec)
        rows += patient_rows
    return masks, CorruptionReport(records=tuple(rows))
