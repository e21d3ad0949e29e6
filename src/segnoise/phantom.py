"""Synthetic blob phantoms: image volumes with exact ground-truth masks.

Each frame's mask is a union of filled ellipses kept at least `margin`
pixels away from the frame border, so simulated dilations have headroom
and border-free morphology identities hold exactly. Modality images are
background mean plus a foreground offset inside the mask plus Gaussian
intensity noise. Everything is deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import MultiModalVolume, PatientRecord


@dataclass(frozen=True)
class PhantomSpec:
    """Phantom geometry and intensities; its defaults are the config's."""

    depth: int = 6
    height: int = 64
    width: int = 64
    blobs_min: int = 1
    blobs_max: int = 3
    radius_min: float = 5.0
    radius_max: float = 10.0
    margin: int = 8
    background_mean: float = 0.0
    foreground_offset: float = 1.5
    noise_std: float = 1.0
    modalities: tuple[str, ...] = ("m0", "m1")

    def __post_init__(self):
        for name in ("depth", "height", "width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.blobs_min < 0:
            raise ValueError(f"blobs_min must be >= 0, got {self.blobs_min}")
        if self.blobs_max < self.blobs_min:
            raise ValueError(f"blobs_max must be >= blobs_min ({self.blobs_min}), got {self.blobs_max}")
        if self.radius_min <= 0:
            raise ValueError(f"radius_min must be > 0, got {self.radius_min}")
        if self.radius_max < self.radius_min:
            raise ValueError(f"radius_max must be >= radius_min ({self.radius_min}), got {self.radius_max}")
        if self.margin < 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if not self.modalities:
            raise ValueError("modalities must name at least one modality")
        limit = min(self.height, self.width) - 1
        if 2 * (self.margin + self.radius_max) > limit:
            raise ValueError(
                f"radius_max {self.radius_max} too large for a "
                f"{self.height}x{self.width} frame with margin {self.margin}"
            )


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


def generate_phantom(spec: PhantomSpec, seed: int, patient_id: str | None = None) -> PatientRecord:
    """One synthetic patient, deterministic per (spec, seed)."""
    pid = patient_id if patient_id is not None else f"phantom-{int(seed):08d}"
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    mask = np.stack([_frame_mask(spec, rng) for _ in range(spec.depth)])
    shape = (spec.depth, spec.height, spec.width)
    grids = {}
    for name in spec.modalities:
        noise = rng.standard_normal(shape) * spec.noise_std
        image = spec.background_mean + spec.foreground_offset * mask + noise
        grids[name] = image.astype(np.float32)
    volume = MultiModalVolume(patient_id=pid, modalities=grids)
    return PatientRecord(volume=volume, mask=mask)


def generate_corpus(spec: PhantomSpec, count: int, seed: int) -> list[PatientRecord]:
    """`count` phantoms with ids phantom-000..., seeded per patient."""
    if count < 1:
        raise ValueError("count must be >= 1")
    records = []
    for index in range(count):
        child = np.random.SeedSequence([int(seed), index]).generate_state(1)[0]
        records.append(generate_phantom(spec, int(child), patient_id=f"phantom-{index:03d}"))
    return records
