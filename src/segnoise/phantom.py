"""Synthetic blob phantoms: image volumes with exact ground-truth masks.

Each frame's mask is a union of filled ellipses kept at least `margin`
pixels away from the frame border, so simulated dilations have headroom
and border-free morphology identities hold exactly. Modality images are
background mean plus a foreground offset inside the mask plus Gaussian
intensity noise. Everything is deterministic per seed. A phantom is the
(modalities, mask) pair that `write_patient` takes; only
`generate_corpus` wraps phantoms, finite and 0/1 by construction, in
records with their ids: a record checks nothing itself.
"""

from __future__ import annotations

import numpy as np

from .specs import PhantomSpec
from .volume import PatientRecord


def _frame_mask(spec: PhantomSpec, rng: np.random.Generator) -> np.ndarray:
    mask = np.zeros((spec.height, spec.width), dtype=np.uint8)
    n_blobs = int(rng.integers(spec.blobs_min, spec.blobs_max + 1))
    ys = np.arange(spec.height, dtype=np.float64)[:, None]
    xs = np.arange(spec.width, dtype=np.float64)[None, :]
    for _ in range(n_blobs):
        ry, rx = rng.uniform(spec.radius_min, spec.radius_max, size=2)
        cy = rng.uniform(spec.margin + ry, spec.height - 1 - spec.margin - ry)
        cx = rng.uniform(spec.margin + rx, spec.width - 1 - spec.margin - rx)
        inside = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
        mask |= inside.astype(np.uint8)
    return mask


def phantom_mask(spec: PhantomSpec, seed: int) -> tuple[np.ndarray, np.random.Generator]:
    """A phantom's (depth, H, W) uint8 mask, which is its first draws,
    and its generator after them: a mask alone stops there."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    return np.stack([_frame_mask(spec, rng) for _ in range(spec.depth)]), rng


def generate_phantom(spec: PhantomSpec, seed: int) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """One synthetic patient's (modalities, mask), deterministic per (spec, seed)."""
    mask, rng = phantom_mask(spec, seed)
    base = spec.foreground_offset * mask
    base += spec.background_mean
    image = np.empty(mask.shape)  # one float64 buffer for every modality's draw
    grids = {}
    for name in spec.modalities:
        rng.standard_normal(out=image)
        image *= spec.noise_std
        image += base
        # Read-only and owning its data, so that a record adopts it uncopied.
        grids[name] = image.astype(np.float32)
        grids[name].setflags(write=False)
    return grids, mask


def corpus_seeds(count: int, seed: int) -> dict[str, int]:
    """Each corpus patient's id, phantom-000..., and its own seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return {f"phantom-{index:03d}": int(np.random.SeedSequence([int(seed), index]).generate_state(1)[0])
            for index in range(count)}


def generate_corpus(spec: PhantomSpec, count: int, seed: int) -> list[PatientRecord]:
    """`count` phantoms as records with ids phantom-000..., seeded per patient."""
    seeds = corpus_seeds(count, seed)
    phantoms = (generate_phantom(spec, child) for child in seeds.values())
    return [PatientRecord(pid, grids, mask) for pid, (grids, mask) in zip(seeds, phantoms)]
