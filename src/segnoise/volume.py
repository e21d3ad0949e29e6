"""Patient data model: multi-modal volumes, label merging, normalization.

Volumes are (frames D, height H, width W) arrays. Labels carry the four
allowed values {0 background, 1, 2, 4}; binarization merges the three
tumor classes into one whole-tumor mask. Z-score normalization is
volume-wise per modality over the brain region, which is defined as the
voxels whose original intensity is non-zero (skull-stripped volumes are
zero outside the brain).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

VALID_LABELS = (0, 1, 2, 4)
TUMOR_LABELS = (1, 2, 4)

# Patient ids and modality names become file and directory names.
_SAFE_NAME = re.compile(r"[A-Za-z0-9._-]+")


def check_name(name, what: str) -> str:
    """`name` if it is safe as a single path component, else ValueError."""
    if not isinstance(name, str) or not _SAFE_NAME.fullmatch(name) or name in (".", ".."):
        raise ValueError(
            f"{what} {name!r} is not a safe file name: use letters, digits, '.', '_' "
            "and '-', and not '.' or '..'"
        )
    return name


def _adopt(arr: np.ndarray) -> np.ndarray:
    """`arr` itself if it is read-only and owns its data, such as a
    freshly loaded payload; a read-only copy of anything else, so that
    no caller's array or view can change a record afterwards."""
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _valid_labels(arr: np.ndarray) -> bool:
    """Whether every value is in VALID_LABELS. Integer volumes need a
    min/max scan and one comparison; `np.isin` would make an int64 copy."""
    if arr.dtype.kind in "iu":
        return bool(arr.size == 0 or (arr.min() >= 0 and arr.max() <= 4 and not (arr == 3).any()))
    return bool(np.isin(arr, VALID_LABELS).all())


def validate_labels(labels) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 3:
        raise ValueError(f"label volume must be 3-D, got shape {arr.shape}")
    if not _valid_labels(arr):
        bad = sorted(set(np.unique(arr)) - set(VALID_LABELS))
        raise ValueError(f"illegal label values {bad}; allowed: {list(VALID_LABELS)}")
    return arr.astype(np.uint8, copy=False)


def is_binary(arr: np.ndarray) -> bool:
    """Whether every value is exactly 0 or 1; bool and integer arrays
    need only a min/max scan."""
    if arr.dtype.kind == "b" or arr.size == 0:
        return True
    if arr.dtype.kind in "iu":
        return bool(arr.min() >= 0 and arr.max() <= 1)
    return bool(((arr == 0) | (arr == 1)).all())


def validate_mask_volume(mask) -> np.ndarray:
    arr = np.asarray(mask)
    if arr.ndim != 3:
        raise ValueError(f"mask volume must be 3-D, got shape {arr.shape}")
    if not is_binary(arr):
        raise ValueError("mask volume values must be exactly 0 or 1")
    return arr.astype(np.uint8, copy=False)


def binarize_labels(labels) -> np.ndarray:
    """Merge all tumor classes into one binary whole-tumor mask."""
    arr = validate_labels(labels)
    return np.isin(arr, TUMOR_LABELS).astype(np.uint8)


@dataclass(frozen=True)
class MultiModalVolume:
    """Co-registered scalar intensity grids, one per named modality."""

    patient_id: str
    modalities: dict[str, np.ndarray]

    def __post_init__(self):
        check_name(self.patient_id, "patient id")
        if not self.modalities:
            raise ValueError("volume needs at least one modality")
        shapes = set()
        converted = {}
        for name, grid in self.modalities.items():
            check_name(name, "modality name")
            arr = np.asarray(grid, dtype=np.float32)
            if arr.ndim != 3:
                raise ValueError(f"modality {name!r} must be 3-D, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"modality {name!r} contains non-finite intensities")
            shapes.add(arr.shape)
            converted[name] = _adopt(arr)
        if len(shapes) > 1:
            raise ValueError(f"modalities disagree on shape: {sorted(shapes)}")
        object.__setattr__(self, "modalities", converted)

    @property
    def shape(self) -> tuple[int, int, int]:
        return next(iter(self.modalities.values())).shape


@dataclass(frozen=True)
class PatientRecord:
    """One patient: image volume, optional labels, binary mask."""

    volume: MultiModalVolume
    mask: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        mask = _adopt(validate_mask_volume(self.mask))
        object.__setattr__(self, "mask", mask)
        if mask.shape != self.volume.shape:
            raise ValueError(
                f"mask shape {mask.shape} != volume shape {self.volume.shape}"
            )
        if self.labels is not None:
            labels = _adopt(validate_labels(self.labels))
            object.__setattr__(self, "labels", labels)
            if labels.shape != self.volume.shape:
                raise ValueError(
                    f"labels shape {labels.shape} != volume shape {self.volume.shape}"
                )

    @property
    def patient_id(self) -> str:
        return self.volume.patient_id

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.volume.shape


@np.errstate(invalid="ignore")  # a non-finite value gives a NaN std, which is rejected
def zscore_normalize(grid: np.ndarray) -> np.ndarray:
    """One modality's grid as float32, normalized to mean 0 / population
    std 1 over its brain region (original intensity != 0); background
    stays 0. Only the region's values are held in float64, normalized in
    place.
    """
    region = grid != 0
    if not region.any():
        raise ValueError("brain region is empty")
    values = grid[region].astype(np.float64)
    mean = values.mean()
    std = values.std()  # population std (ddof=0)
    if not np.isfinite(std):
        raise ValueError("grid contains non-finite intensities")
    if std < 1e-12:
        raise ValueError("zero variance within brain region")
    values -= mean
    values /= std
    out = np.zeros(grid.shape, dtype=np.float32)
    out[region] = values
    return out
