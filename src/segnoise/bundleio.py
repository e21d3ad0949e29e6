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

Float32 payloads are read through one checked block reader: a block of
frames (about BLOCK_BYTES) at a time, into one reused buffer or straight
into the array it fills, rejecting non-finite values. `load_mask` scans
a bundle's intensities through it and keeps none, `write_patient` copies
them, `read_intensities` (and so `load_patient`) fills an array with it,
and `open_prediction` streams a prediction through it, each block also
checked against [0, 1]. The uint8 mask and labels are read whole.
`write_patient` checks every array it is given before it creates
anything, so that a bundle it writes loads back unchanged.

The NIfTI importer covers exactly the subset needed to convert external
volumes into bundles: single-file uncompressed NIfTI-1 (magic ``n+1``),
3-D, unscaled, datatypes uint8 / int16 / float32, either endianness.
Anything else is rejected.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Iterator

import numpy as np

from .atomic import replacing, write_bytes, write_text
from .volume import (
    PatientRecord,
    binarize_labels,
    check_grid,
    check_name,
    validate_labels,
    validate_mask_volume,
)

META_NAME = "meta.json"

# The block reader's buffer: about 4 MB of float32 frames.
BLOCK_BYTES = 1 << 22

_NIFTI_DTYPES = {2: "u1", 4: "i2", 16: "f4"}
_NIFTI_BITPIX = {2: 8, 4: 16, 16: 32}


def _meta(patient_id: str, shape, modality_names) -> dict:
    return {
        "patient_id": patient_id,
        "shape": list(shape),
        "modalities": list(modality_names),
        "voxel_size_mm": [1.0, 1.0, 1.0],
        "byte_order": "little",
    }


def _write_json(path: Path, payload: dict) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_payloads(bundle: Path, meta: dict, payloads: dict[str, np.ndarray | Path]) -> Path:
    """Write each payload atomically, then meta.json, which is what makes
    a directory a bundle: an interrupted write leaves no bundle that a
    loader lists, and a rewrite first unlists the old one. A Path
    payload is another bundle's intensity payload, copied through the
    checked block reader."""
    bundle.mkdir(parents=True, exist_ok=True)
    (bundle / META_NAME).unlink(missing_ok=True)
    for name, payload in payloads.items():
        if isinstance(payload, Path):
            with replacing(bundle / f"{name}.raw") as sink:
                _scan_intensities(payload, tuple(meta["shape"]), sink)
        else:
            write_bytes(bundle / f"{name}.raw", payload)
    if "labels" not in payloads:  # a rewrite without labels keeps none of the old ones
        (bundle / "labels.raw").unlink(missing_ok=True)
    _write_json(bundle / META_NAME, meta)
    return bundle


def write_patient(
    patient_id: str,
    modalities: dict[str, np.ndarray | Path],
    mask: np.ndarray,
    out_root: str | Path,
    labels: np.ndarray | None = None,
) -> Path:
    """Write one patient bundle under `out_root`; returns its directory.

    Every array is checked before anything is created, so that what is
    written loads back unchanged: a 3-D 0/1 mask, labels in {0, 1, 2, 4}
    of its shape, and at least one modality, each safely named and none
    named `labels` or `mask`. A modality is a finite 3-D intensity array
    of the mask's shape, or the Path of a bundle's payload of that shape
    (as `open_patient` gives them), which is copied a block at a time and
    must hold finite values only.
    """
    bundle = Path(out_root) / check_name(patient_id, "patient id")
    mask = validate_mask_volume(mask)
    if not modalities:
        raise ValueError(f"patient {patient_id!r} needs at least one modality")
    if {"labels", "mask"} & set(modalities):
        raise ValueError("'labels' and 'mask' name a bundle's own payloads, not a modality")
    payloads = {
        check_name(name, "modality name"):
            grid if isinstance(grid, Path) else np.ascontiguousarray(check_grid(name, grid, mask.shape), "<f4")
        for name, grid in modalities.items()
    }
    if labels is not None:
        payloads["labels"] = np.ascontiguousarray(validate_labels(labels, mask.shape))
    payloads["mask"] = np.ascontiguousarray(mask)
    return _write_payloads(bundle, _meta(patient_id, mask.shape, modalities), payloads)


def write_bundle(record: PatientRecord, out_root: str | Path) -> Path:
    """Write one patient bundle under `out_root`; returns its directory."""
    return write_patient(record.patient_id, record.modalities, record.mask, out_root, record.labels)


def _check_raw(path: Path, shape: tuple[int, int, int], dtype: str) -> Path:
    if not path.is_file():
        raise FileNotFoundError(f"missing raw file: {path}")
    expected = math.prod(shape) * np.dtype(dtype).itemsize
    actual = path.stat().st_size
    if actual != expected:
        raise ValueError(
            f"shape mismatch for {path.name}: {actual} bytes on disk, "
            f"expected {expected} for shape {shape}"
        )
    return path


def _read_raw(path: Path, shape: tuple[int, int, int]) -> np.ndarray:
    """A uint8 payload (mask or labels) as a read-only array that owns
    its data, so that a record adopts it without a copy."""
    _check_raw(path, shape, "u1")
    arr = np.empty(shape, dtype=np.uint8)
    with open(path, "rb") as fh:
        if fh.readinto(arr) != arr.nbytes:
            raise ValueError(f"{path} shrank while it was read")
    arr.setflags(write=False)
    return arr


def _checked_blocks(path: Path, shape: tuple[int, int, int], message: str, out=None) -> Iterator[np.ndarray]:
    """A float32 payload's frames, a block (about BLOCK_BYTES) at a time,
    as (frames, H*W) views of one reused buffer, or of `out` (an empty
    float32 array of `shape`, left holding the payload) when given. A
    block holding a non-finite value raises ValueError(message) before it
    is yielded. A consumer is done with a block when it asks for the next."""
    _check_raw(path, shape, "<f4")
    depth, frame = shape[0], shape[1] * shape[2]
    step = max(1, BLOCK_BYTES // (4 * frame))
    finite = np.empty((min(step, depth), frame), dtype=bool)
    frames = np.empty(finite.shape, dtype="<f4") if out is None else out.reshape(depth, frame)
    with open(path, "rb") as fh:
        for start in range(0, depth, step):
            block = frames[:depth - start] if out is None else frames[start:start + step]
            if fh.readinto(block) != block.nbytes:
                raise ValueError(f"{path} shrank while it was read")
            if not np.isfinite(block, out=finite[:len(block)]).all():
                raise ValueError(message)
            yield block


def _scan_intensities(path: Path, shape: tuple[int, int, int], sink=None) -> None:
    """Check an intensity payload through the block reader; with a `sink`
    (a binary file), write each checked block to it. Nothing of the
    payload is kept."""
    for block in _checked_blocks(path, shape, f"{path} contains non-finite intensities"):
        if sink is not None:
            sink.write(block)


def _read_meta(bundle: Path, *keys: str) -> tuple[dict, tuple[int, int, int]]:
    """A bundle's checked meta.json and shape. Beyond `keys`, it must
    hold a safe patient_id, a 3-D shape and little-endian byte order."""
    meta_path = bundle / META_NAME
    if not meta_path.is_file():
        raise FileNotFoundError(f"missing {META_NAME} in {bundle}")
    try:
        meta = json.loads(meta_path.read_bytes())  # JSON is UTF-8 (RFC 8259), whatever the locale
    except RecursionError:
        raise ValueError(f"{meta_path}: JSON nested too deeply") from None
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ValueError(f"{meta_path}: invalid JSON ({exc})") from None
    for key in ("patient_id", "shape", "byte_order", *keys):
        if not isinstance(meta, dict) or key not in meta:
            raise ValueError(f"{meta_path}: missing key {key!r}")
    if meta["byte_order"] != "little":
        raise ValueError(f"{meta_path}: unsupported byte order {meta['byte_order']!r}")
    shape = meta["shape"]
    if not (isinstance(shape, list) and len(shape) == 3
            and all(type(s) is int and s >= 1 for s in shape)):
        raise ValueError(f"{meta_path}: shape must be three positive ints, got {shape!r}")
    if not isinstance(meta["patient_id"], str):
        raise ValueError(f"{meta_path}: patient_id must be a string, got {meta['patient_id']!r}")
    check_name(meta["patient_id"], "patient id")
    return meta, tuple(shape)


def _read_patient(bundle: Path) -> tuple:
    """A patient bundle's (id, modality payload paths, mask, labels),
    each payload's size checked. Every check but the intensities' values
    is made here; labels may be None."""
    meta, shape = _read_meta(bundle, "modalities")
    names = meta["modalities"]
    if not isinstance(names, list) or not names:
        raise ValueError(f"{bundle / META_NAME}: modalities must be a non-empty list")
    names = [check_name(name, "modality name") for name in names]
    if len(set(names)) < len(names):
        raise ValueError(f"{bundle / META_NAME}: modalities name one modality twice: {names!r}")
    paths = {name: _check_raw(bundle / f"{name}.raw", shape, "<f4") for name in names}

    labels_path = bundle / "labels.raw"
    mask_path = bundle / "mask.raw"
    labels = None
    if labels_path.is_file():
        labels = validate_labels(_read_raw(labels_path, shape))
    if mask_path.is_file():
        mask = validate_mask_volume(_read_raw(mask_path, shape))
    elif labels is not None:
        mask = binarize_labels(labels)
    else:
        raise FileNotFoundError(f"bundle {bundle} has neither mask.raw nor labels.raw")
    return meta["patient_id"], paths, mask, labels


def load_patient(path: str | Path) -> PatientRecord:
    """Load a patient bundle as a record. `_read_patient` checks its
    meta.json, sizes, mask and labels; each intensity voxel's finiteness
    is checked once, as the block reader fills it (`read_intensities`)."""
    pid, paths, mask, labels = _read_patient(Path(path))
    grids = {name: read_intensities(raw, mask.shape) for name, raw in paths.items()}
    return PatientRecord(pid, grids, mask, labels)


def open_patient(path: str | Path) -> tuple[str, dict[str, Path], np.ndarray]:
    """A patient bundle's (id, modality payload paths, mask), reading
    nothing of the intensities: every check that `load_patient` makes
    is made except the intensities' finiteness, which `write_patient`
    checks as it copies them."""
    return _read_patient(Path(path))[:3]


def load_mask(path: str | Path) -> tuple[str, np.ndarray]:
    """A patient bundle's (id, mask) after every check that
    `load_patient` makes; no intensities are kept."""
    pid, paths, mask, _ = _read_patient(Path(path))
    for raw in paths.values():
        _scan_intensities(raw, mask.shape)
    return pid, mask


def index_bundles(root: str | Path, what: str = "patient") -> dict[str, Path]:
    """Each bundle directly under `root` by patient id, in directory
    order, from its checked meta.json alone; two bundles of one id are
    an error."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"{what} directory not found: {root}")
    bundles = sorted(p for p in root.iterdir() if (p / META_NAME).is_file())
    if not bundles:
        raise FileNotFoundError(f"no {what} bundles under {root}")
    index: dict[str, Path] = {}
    for bundle in bundles:
        pid = _read_meta(bundle)[0]["patient_id"]
        if pid in index:
            raise ValueError(f"patient id {pid!r} is used by both {index[pid]} and {bundle}")
        index[pid] = bundle
    return index


def bundle_shape(path: str | Path) -> tuple[int, int, int]:
    """A patient bundle's (depth, H, W), from its checked meta.json alone."""
    return _read_meta(Path(path))[1]


def load_dataset(root: str | Path) -> list[PatientRecord]:
    """Load every patient bundle directly under `root`, in directory
    order (`index_bundles`)."""
    return [load_patient(bundle) for bundle in index_bundles(root).values()]


def write_prediction(patient_id: str, pred: np.ndarray, out_root: str | Path) -> Path:
    """Write a prediction bundle (float32 probabilities in [0,1])."""
    arr = np.asarray(pred, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError("prediction volume must be 3-D")
    if not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("prediction values must be finite and in [0, 1]")
    bundle = Path(out_root) / check_name(patient_id, "patient id")
    meta = {"patient_id": patient_id, "shape": list(arr.shape), "byte_order": "little"}
    return _write_payloads(bundle, meta, {"pred": np.ascontiguousarray(arr, dtype="<f4")})


def open_prediction(path: str | Path) -> tuple[str, tuple[int, int, int], Iterator[np.ndarray]]:
    """A prediction bundle's (patient_id, shape, blocks): its checked
    meta.json, and its frames as `_checked_blocks` yields them, each
    block also checked against [0, 1]. The payload's size is checked
    here; its values are read only as the blocks are."""
    bundle = Path(path)
    meta, shape = _read_meta(bundle)
    raw = _check_raw(bundle / "pred.raw", shape, "<f4")
    message = f"prediction in {bundle} must be finite and in [0, 1]"

    def blocks():
        for block in _checked_blocks(raw, shape, message):
            if block.min() < 0.0 or block.max() > 1.0:
                raise ValueError(message)
            yield block
    return meta["patient_id"], shape, blocks()


def read_intensities(path: str | Path, shape: tuple[int, int, int]) -> np.ndarray:
    """An intensity payload (as `open_patient` gives it) as a read-only
    float32 array, read through the checked block reader straight into
    the array's frames."""
    arr = np.empty(shape, dtype="<f4")
    for _ in _checked_blocks(Path(path), shape, f"{path} contains non-finite intensities", arr):
        pass
    arr.setflags(write=False)
    return arr


def load_prediction(path: str | Path) -> tuple[str, np.ndarray]:
    """Load a prediction bundle; returns (patient_id, volume), the volume
    as the read-only float32 array it holds, checked as
    `open_prediction` checks it."""
    pid, shape, blocks = open_prediction(path)
    arr = np.empty(shape, dtype="<f4")
    frames, start = arr.reshape(shape[0], -1), 0
    for block in blocks:
        frames[start:start + len(block)] = block
        start += len(block)
    arr.setflags(write=False)
    return pid, arr


def read_nifti(path: str | Path) -> np.ndarray:
    """Read a single-file uncompressed 3-D NIfTI-1 volume.

    Returns the voxel grid as (frames, height, width), i.e. the NIfTI
    z-axis becomes the frame axis. Supports datatypes uint8, int16 and
    float32 in either byte order, unscaled (scl_slope 0 or non-finite, or
    1 with intercept 0); everything else raises ValueError.
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

    vox_offset, scl_slope, scl_inter = struct.unpack_from(endian + "3f", blob, 108)
    if not math.isfinite(vox_offset):
        raise ValueError(f"{path}: vox_offset {vox_offset} is not finite")
    if vox_offset < 352 or not vox_offset.is_integer():  # n+1 data follows 4 extension bytes
        raise ValueError(f"{path}: vox_offset {vox_offset} is not a whole number >= 352")
    offset = int(vox_offset)
    # A slope of 0 or a non-finite one means no scaling, as nifti1_io and nibabel read it.
    if math.isfinite(scl_slope) and scl_slope != 0.0 and (scl_slope != 1.0 or scl_inter != 0.0):
        raise ValueError(f"{path}: unsupported voxel scaling scl_slope {scl_slope}, scl_inter {scl_inter}; "
                         "need slope 0 or non-finite, or slope 1 with intercept 0")

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
    """Convert per-modality NIfTI files into a patient bundle, checked as
    `write_patient` checks every bundle."""
    if labels is None and mask is None:
        raise ValueError("import_nifti needs a labels or mask volume")
    label_arr = None if labels is None else read_nifti(labels)
    mask_arr = binarize_labels(label_arr) if mask is None else read_nifti(mask)
    grids = {name: read_nifti(p) for name, p in modalities.items()}
    return write_patient(patient_id, grids, mask_arr, out_root, label_arr)
