"""Patient data model: the checks that readers and writers make, label
merging, normalization, and the benchmark's flat patient record.

Volumes are (frames D, height H, width W) arrays. BraTS labels carry the
four allowed values {0 background, 1, 2, 4}; binarization merges the
three tumor classes into the one binary whole-tumor mask that bundles
store and every command reads. Z-score normalization is volume-wise per
modality over the brain region, which is defined as the voxels whose
original intensity is non-zero (skull-stripped volumes are zero outside
the brain). A `PatientRecord` holds arrays that its
builder (`bundleio.load_patient` or `phantom.generate_corpus`) has
already checked or generated, so it only makes them read-only.
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


def _check_shape(arr: np.ndarray, what: str, shape=None) -> np.ndarray:
    """`arr` if it is 3-D, and of `shape` when that is given; else ValueError."""
    if arr.ndim != 3:
        raise ValueError(f"{what} must be 3-D, got shape {arr.shape}")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{what} shape {arr.shape} != {shape}")
    return arr


def validate_labels(labels) -> np.ndarray:
    arr = _check_shape(np.asarray(labels), "labels")
    if not _valid_labels(arr):
        bad = sorted(set(np.unique(arr).tolist()) - set(VALID_LABELS))
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
    arr = _check_shape(np.asarray(mask), "mask")
    if not is_binary(arr):
        raise ValueError("mask volume values must be exactly 0 or 1")
    return arr.astype(np.uint8, copy=False)


def check_grid(name: str, grid, shape) -> np.ndarray:
    """Modality `name`'s grid as float32 if it is 3-D, of `shape` and
    finite; else ValueError."""
    arr = _check_shape(np.asarray(grid, dtype=np.float32), f"modality {name!r}", shape)
    if not np.isfinite(arr).all():
        raise ValueError(f"modality {name!r} contains non-finite intensities")
    return arr


def binarize_labels(labels) -> np.ndarray:
    """Merge all tumor classes into one binary whole-tumor mask."""
    arr = validate_labels(labels)
    return np.isin(arr, TUMOR_LABELS).astype(np.uint8)


@dataclass(frozen=True)
class PatientRecord:
    """One patient: intensity grids by modality name and the binary
    mask, as their builder checked or generated them; the arrays are made
    read-only (`_adopt`)."""

    patient_id: str
    modalities: dict[str, np.ndarray]
    mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "modalities", {name: _adopt(grid) for name, grid in self.modalities.items()})
        object.__setattr__(self, "mask", _adopt(self.mask))

    @property
    def volume(self) -> PatientRecord:
        """The record itself, for the benchmark's `record.volume.modalities`."""
        return self


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
