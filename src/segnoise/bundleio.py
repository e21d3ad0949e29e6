"""On-disk patient bundles and a minimal NIfTI-1 importer.

Bundle layout (one directory per patient)::

    <patient_id>/
        meta.json     patient_id, shape [D,H,W], modality names,
                      voxel size in mm, byte order ("little")
        <name>.raw    one per modality; float32, little-endian, C-order
                      (frame-major)
        labels.raw    optional; uint8 label values {0,1,2,4}
        mask.raw      optional; uint8 {0,1}; derived from labels when absent

Prediction bundles mirror the layout with a single ``pred.raw`` holding
float32 per-voxel probabilities.

The NIfTI importer covers exactly the subset needed to convert external
volumes into bundles: single-file uncompressed NIfTI-1 (magic ``n+1``),
3-D, datatypes uint8 / int16 / float32, either endianness. Anything
else is rejected.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .atomic import write_text
from .volume import (
    MultiModalVolume,
    PatientRecord,
    binarize_labels,
    check_name,
    validate_labels,
    validate_mask_volume,
)

META_NAME = "meta.json"

_NIFTI_DTYPES = {2: "u1", 4: "i2", 16: "f4"}
_NIFTI_BITPIX = {2: 8, 4: 16, 16: 32}


def _meta_for(record: PatientRecord) -> dict:
    return {
        "patient_id": record.patient_id,
        "shape": list(record.shape),
        "modalities": list(record.volume.modality_names),
        "voxel_size_mm": [1.0, 1.0, 1.0],
        "byte_order": "little",
    }


def _write_json(path: Path, payload: dict) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_bundle(record: PatientRecord, out_root: str | Path) -> Path:
    """Write one patient bundle under `out_root`; returns its directory."""
    bundle = Path(out_root) / record.patient_id
    bundle.mkdir(parents=True, exist_ok=True)
    _write_json(bundle / META_NAME, _meta_for(record))
    for name, grid in record.volume.modalities.items():
        np.ascontiguousarray(grid, dtype="<f4").tofile(bundle / f"{name}.raw")
    if record.labels is not None:
        np.ascontiguousarray(record.labels, dtype=np.uint8).tofile(bundle / "labels.raw")
    np.ascontiguousarray(record.mask, dtype=np.uint8).tofile(bundle / "mask.raw")
    return bundle


def _read_raw(path: Path, shape: tuple[int, int, int], dtype: str) -> np.ndarray:
    if not path.is_file():
        raise FileNotFoundError(f"missing raw file: {path}")
    expected = int(np.prod(shape)) * np.dtype(dtype).itemsize
    actual = path.stat().st_size
    if actual != expected:
        raise ValueError(
            f"shape mismatch for {path.name}: {actual} bytes on disk, "
            f"expected {expected} for shape {shape}"
        )
    return np.fromfile(path, dtype=dtype).reshape(shape)


def _read_meta(bundle: Path, *keys: str) -> tuple[dict, tuple[int, int, int]]:
    """A bundle's checked meta.json and shape. Beyond `keys`, it must
    hold a safe patient_id, a 3-D shape and little-endian byte order."""
    meta_path = bundle / META_NAME
    if not meta_path.is_file():
        raise FileNotFoundError(f"missing {META_NAME} in {bundle}")
    meta = json.loads(meta_path.read_text())
    for key in ("patient_id", "shape", "byte_order", *keys):
        if not isinstance(meta, dict) or key not in meta:
            raise ValueError(f"{meta_path}: missing key {key!r}")
    if meta["byte_order"] != "little":
        raise ValueError(f"{meta_path}: unsupported byte order {meta['byte_order']!r}")
    shape = meta["shape"]
    if not (isinstance(shape, list) and len(shape) == 3
            and all(type(s) is int and s >= 1 for s in shape)):
        raise ValueError(f"{meta_path}: shape must be three positive ints, got {shape!r}")
    check_name(str(meta["patient_id"]), "patient id")
    return meta, tuple(shape)


def load_patient(path: str | Path) -> PatientRecord:
    """Load a patient bundle; validates shapes, labels and intensities."""
    bundle = Path(path)
    meta, shape = _read_meta(bundle, "modalities")
    grids = {}
    for name in meta["modalities"]:
        grid = _read_raw(bundle / f"{check_name(name, 'modality name')}.raw", shape, "<f4")
        if not np.isfinite(grid).all():
            raise ValueError(f"modality {name!r} in {bundle} contains non-finite intensities")
        grids[name] = grid

    labels_path = bundle / "labels.raw"
    mask_path = bundle / "mask.raw"
    labels = None
    if labels_path.is_file():
        labels = validate_labels(_read_raw(labels_path, shape, "u1"))
    if mask_path.is_file():
        mask = validate_mask_volume(_read_raw(mask_path, shape, "u1"))
    elif labels is not None:
        mask = binarize_labels(labels)
    else:
        raise FileNotFoundError(f"bundle {bundle} has neither mask.raw nor labels.raw")

    volume = MultiModalVolume(patient_id=str(meta["patient_id"]), modalities=grids)
    return PatientRecord(volume=volume, mask=mask, labels=labels)


def load_dataset(root: str | Path) -> list[PatientRecord]:
    """Load every patient bundle directly under `root`, sorted by id."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {root}")
    bundles = sorted(p for p in root.iterdir() if (p / META_NAME).is_file())
    if not bundles:
        raise FileNotFoundError(f"no patient bundles under {root}")
    records, seen = [], {}
    for bundle in bundles:
        record = load_patient(bundle)
        if record.patient_id in seen:
            raise ValueError(
                f"patient id {record.patient_id!r} is used by both {seen[record.patient_id]} and {bundle}"
            )
        seen[record.patient_id] = bundle
        records.append(record)
    return records


def write_prediction(patient_id: str, pred: np.ndarray, out_root: str | Path) -> Path:
    """Write a prediction bundle (float32 probabilities in [0,1])."""
    arr = np.asarray(pred, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError("prediction volume must be 3-D")
    if not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("prediction values must be finite and in [0, 1]")
    bundle = Path(out_root) / check_name(patient_id, "patient id")
    bundle.mkdir(parents=True, exist_ok=True)
    _write_json(
        bundle / META_NAME,
        {"patient_id": patient_id, "shape": list(arr.shape), "byte_order": "little"},
    )
    np.ascontiguousarray(arr, dtype="<f4").tofile(bundle / "pred.raw")
    return bundle


def load_prediction(path: str | Path) -> tuple[str, np.ndarray]:
    """Load a prediction bundle; returns (patient_id, volume)."""
    bundle = Path(path)
    meta, shape = _read_meta(bundle)
    pred = _read_raw(bundle / "pred.raw", shape, "<f4").astype(np.float64)
    if not np.isfinite(pred).all() or pred.min() < 0.0 or pred.max() > 1.0:
        raise ValueError(f"prediction in {bundle} must be finite and in [0, 1]")
    return str(meta["patient_id"]), pred


def read_nifti(path: str | Path) -> np.ndarray:
    """Read a single-file uncompressed 3-D NIfTI-1 volume.

    Returns the voxel grid as (frames, height, width), i.e. the NIfTI
    z-axis becomes the frame axis. Supports datatypes uint8, int16 and
    float32 in either byte order; everything else raises ValueError.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"NIfTI file not found: {path}")
    blob = path.read_bytes()
    if len(blob) < 352:
        raise ValueError(f"{path}: too short to be a NIfTI-1 file")
    if blob[:2] == b"\x1f\x8b":
        raise ValueError(f"{path}: gzip-compressed NIfTI is not supported")

    (sizeof_hdr,) = struct.unpack_from("<i", blob, 0)
    endian = "<"
    if sizeof_hdr != 348:
        (sizeof_hdr,) = struct.unpack_from(">i", blob, 0)
        endian = ">"
    if sizeof_hdr != 348:
        raise ValueError(f"{path}: not a NIfTI-1 header (sizeof_hdr != 348)")

    magic = blob[344:348]
    if magic not in (b"n+1\x00",):
        raise ValueError(f"{path}: unsupported magic {magic!r}; need single-file 'n+1'")

    dim = struct.unpack_from(endian + "8h", blob, 40)
    if dim[0] != 3:
        raise ValueError(f"{path}: expected a 3-D volume, got dim[0]={dim[0]}")
    nx, ny, nz = (int(d) for d in dim[1:4])
    if min(nx, ny, nz) < 1:
        raise ValueError(f"{path}: non-positive dimensions {dim[1:4]}")

    (datatype,) = struct.unpack_from(endian + "h", blob, 70)
    (bitpix,) = struct.unpack_from(endian + "h", blob, 72)
    if datatype not in _NIFTI_DTYPES:
        raise ValueError(
            f"{path}: unsupported datatype code {datatype}; "
            f"supported: uint8(2), int16(4), float32(16)"
        )
    if bitpix != _NIFTI_BITPIX[datatype]:
        raise ValueError(f"{path}: bitpix {bitpix} inconsistent with datatype {datatype}")

    (vox_offset,) = struct.unpack_from(endian + "f", blob, 108)
    offset = int(vox_offset)
    if offset < 348:
        raise ValueError(f"{path}: vox_offset {vox_offset} below header size")

    dtype = np.dtype(endian + _NIFTI_DTYPES[datatype])
    count = nx * ny * nz
    if len(blob) < offset + count * dtype.itemsize:
        raise ValueError(f"{path}: file truncated before end of voxel data")
    data = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    # NIfTI stores x fastest; C-order reshape to (z, y, x) = frame-major.
    return data.reshape(nz, ny, nx)


def import_nifti(
    patient_id: str,
    modalities: dict[str, str | Path],
    out_root: str | Path,
    labels: str | Path | None = None,
    mask: str | Path | None = None,
) -> Path:
    """Convert per-modality NIfTI files into a patient bundle."""
    grids = {name: read_nifti(p).astype(np.float32) for name, p in modalities.items()}
    label_arr = validate_labels(read_nifti(labels)) if labels is not None else None
    if mask is not None:
        mask_arr = validate_mask_volume(read_nifti(mask))
    elif label_arr is not None:
        mask_arr = binarize_labels(label_arr)
    else:
        raise ValueError("import_nifti needs a labels or mask volume")
    volume = MultiModalVolume(patient_id=patient_id, modalities=grids)
    record = PatientRecord(volume=volume, mask=mask_arr, labels=label_arr)
    return write_bundle(record, out_root)
