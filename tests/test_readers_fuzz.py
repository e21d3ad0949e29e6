"""Property tests for every reader of outside input: NIfTI headers,
bundle meta.json and payloads, prediction bundles and config JSON.
Whatever the bytes, a reader returns or raises ValueError (which
includes ConfigError, JSONDecodeError and UnicodeDecodeError) or
FileNotFoundError; nothing else escapes. And the writer of bundles
accepts only what its reader reads back unchanged."""

import copy
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from segnoise import config as cfgmod
from segnoise.bundleio import (load_dataset, load_patient, open_prediction, read_nifti, write_bundle, write_patient,
                               write_prediction)
from segnoise.volume import PatientRecord

ALLOWED = (ValueError, FileNotFoundError)
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                suppress_health_check=[HealthCheck.too_slow])

# A fixed alphabet (path characters, a NUL, non-ASCII) spares building Unicode's charmap.
texts = st.text(alphabet="aZ0-_./ \x00\u00e9\u2603\U0001f600", max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats() | texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=12,
)
# Values one type or one item away from a valid field, drawn as often as any other JSON.
near_misses = st.sampled_from([
    0, 1, -1, 18, 1.5, True, "", "t1", "little", "big", "case-1", "../x", [], [2, 3], [2, 3, 3, 1],
    [2, 3, 0], [2, 3, -3], [2.0, 3, 3], [True, 3, 3], [2, 3, 10**12], ["t1", "t1"], ["mask"], ["t2"], [3], {},
])
field_values = st.one_of(near_misses, json_values)
# Bytes that are not UTF-8, not JSON, or JSON nested deeper than the parser allows.
raw_blobs = st.one_of(st.binary(max_size=64), st.just(b"\xff\xfe{}"), st.just(b"[" * 100_000))


def _outcome(read):
    """Run `read`; any exception but the allowed ones fails the test."""
    try:
        return read()
    except ALLOWED:
        return None


def _mostly(valid, *others):
    """A strategy that draws `valid` four times as often as all of `others` together."""
    return st.sampled_from([valid] * 4 * len(others) + list(others))


@st.composite
def nifti_files(draw):
    """A NIfTI-1 file of drawn header fields, each mostly valid, with a
    payload of the size they imply, then maybe one drawn fault: byte
    edits, a truncation, a gzip magic or a longer payload."""
    endian = draw(st.sampled_from("<>"))
    header = bytearray(348)
    struct.pack_into(endian + "i", header, 0, draw(_mostly(348, 0, 540, -1, 0x5C010000)))
    dims = [draw(_mostly(3, 0, 1, 2, 4, 8, -1))] + [draw(_mostly(2, 1, 3, 4, 0, -2)) for _ in range(7)]
    struct.pack_into(endian + "8h", header, 40, *dims)
    datatype = draw(st.sampled_from([2, 4, 16] * 4 + [0, 8, 64, 256, -1]))
    struct.pack_into(endian + "h", header, 70, datatype)
    struct.pack_into(endian + "h", header, 72, draw(st.sampled_from([{2: 8, 4: 16, 16: 32}.get(datatype, 8)] * 6
                                                                   + [0, 8, 16, 32, 64])))
    nan, inf = float("nan"), float("inf")
    struct.pack_into(endian + "3f", header, 108, draw(_mostly(352.0, 348.0, 352.5, 356.0, 1e30, -inf, nan)),
                     draw(_mostly(0.0, 1.0, 2.0, -1.0, 1e-3, nan, inf)), draw(_mostly(0.0, 1.0, -5.0, nan, inf)))
    header[344:348] = draw(_mostly(b"n+1\x00", b"ni1\x00", b"n+2\x00", bytes(4)))
    size = max(0, dims[1] * dims[2] * dims[3]) * {2: 1, 4: 2, 16: 4}.get(datatype, 1)
    blob = bytearray(bytes(header) + bytes(4) + draw(st.binary(min_size=size, max_size=size)))
    fault = draw(_mostly(None, "edit", "truncate", "gzip", "longer"))
    if fault == "edit":
        for index, value in draw(st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)),
                                          min_size=1, max_size=4)):
            blob[index] = value
    elif fault == "truncate":
        blob = blob[:draw(st.integers(0, len(blob) - 1))]
    elif fault == "gzip":
        blob[:2] = b"\x1f\x8b"
    elif fault == "longer":
        blob += bytes(draw(st.integers(1, 64)))
    return bytes(blob)


@FUZZ
@given(nifti_files())
def test_read_nifti_returns_a_3d_grid_or_raises_value_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "volume.nii"
        path.write_bytes(blob)
        grid = _outcome(lambda: read_nifti(path))
    if grid is not None:
        assert grid.ndim == 3 and min(grid.shape) >= 1


def _sample_record():
    rng = np.random.default_rng(3)
    labels = rng.choice(np.array([0, 1, 2, 4], dtype=np.uint8), size=(2, 3, 3))
    return PatientRecord("case-1", {"t1": rng.normal(size=(2, 3, 3)).astype(np.float32)},
                         (labels > 0).astype(np.uint8), labels)


# Drawn meta.json fields, None deleting the key; strategies are built once, as building one is costly.
field_edits = st.dictionaries(st.sampled_from(["patient_id", "shape", "modalities", "byte_order", "pred"]),
                              st.none() | field_values, min_size=1, max_size=3)
json_blobs = json_values.map(lambda value: json.dumps(value).encode())


@st.composite
def meta_edits(draw):
    """Edits to a bundle's meta.json: drawn keys set to drawn JSON values
    or deleted, or the whole file replaced by JSON or raw bytes."""
    kind = draw(st.sampled_from(["fields", "fields", "json", "raw"]))
    if kind == "fields":
        edits = draw(field_edits)
        return lambda meta: json.dumps({k: v for k, v in {**meta, **edits}.items() if v is not None}).encode()
    blob = draw(raw_blobs if kind == "raw" else json_blobs)
    return lambda meta: blob


@st.composite
def payload_edits(draw, names):
    """Edits to a bundle's payload files: a file deleted, truncated,
    grown, or one float32 value set to a drawn float."""
    edits = []
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(names))
        edits.append((name, draw(st.sampled_from(["delete", "truncate", "grow", "value"])),
                      draw(st.integers(0, 100)), draw(st.floats(width=32))))
    return edits


def _edit(bundle, meta_edit, payload_edit):
    meta_path = bundle / "meta.json"
    meta_path.write_bytes(meta_edit(json.loads(meta_path.read_bytes())))
    for name, action, index, value in payload_edit:
        path = bundle / name
        if not path.is_file():
            continue
        data = path.read_bytes()
        if action == "delete":
            path.unlink()
        elif action == "truncate":
            path.write_bytes(data[:index % max(1, len(data))])
        elif action == "grow":
            path.write_bytes(data + bytes(1 + index % 8))
        else:
            item = bytes([index]) if name in ("mask.raw", "labels.raw") else struct.pack("<f", value)
            if len(data) >= len(item):
                at = len(item) * (index % (len(data) // len(item)))
                path.write_bytes(data[:at] + item + data[at + len(item):])


@FUZZ
@given(meta_edits(), payload_edits(["t1.raw", "mask.raw", "labels.raw"]))
def test_bundle_readers_return_or_raise_value_error(meta_edit, payload_edit):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _edit(write_bundle(_sample_record(), root), meta_edit, payload_edit)
        source = _outcome(lambda: cfgmod.bundle_source(root))
        for pid in source.ids if source is not None else ():
            _outcome(lambda: source.shape(pid))
            _outcome(lambda: source.mask(pid))
            _outcome(lambda: source.payloads(pid))
        records = _outcome(lambda: load_dataset(root))
    if records is not None:
        assert all(np.isfinite(grid).all() for r in records for grid in r.modalities.values())


SHAPE = (2, 3, 3)
# Per dtype, the values an array may hold: mostly valid ones, then the
# kinds that once wrote bundles that failed to load or loaded changed.
MASK_VALUES = {"bool": [False, True], "u1": [0, 1, 0, 1, 3, 255], "i8": [0, 1, 0, 1, 256, -1],
               "f8": [0.0, 1.0, 0.0, 1.0, 0.7, float("nan")]}
LABEL_VALUES = {"u1": [0, 1, 2, 4, 0, 3], "i8": [0, 1, 2, 4, 260, -4], "f8": [0.0, 1.0, 2.0, 4.0, 2.5]}
GRID_VALUES = {"f4": [0.0, -1.5, 7.25, 3e38, float("nan")], "f8": [0.1, -2.0, 1e39, float("inf")],
               "i2": [0, -300, 12]}


@st.composite
def arrays(draw, values):
    """A mostly SHAPE-shaped array of a drawn dtype and drawn values."""
    shape = draw(_mostly(SHAPE, (2, 3, 4), (3, 3), (1, 2, 3, 3)))
    dtype = draw(st.sampled_from(sorted(values)))
    cells = draw(st.lists(st.sampled_from(values[dtype]), min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))))
    return np.array(cells, dtype=dtype).reshape(shape)


@FUZZ
@given(st.sampled_from(["case-1", "case-1", "../x", "a/b", "."]),
       st.dictionaries(_mostly("t1", "t2", "mask", "labels", "../t"), arrays(GRID_VALUES), max_size=3),
       arrays(MASK_VALUES), st.none() | arrays(LABEL_VALUES))
def test_what_write_patient_accepts_loads_back_equal(pid, modalities, mask, labels):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "out"
        root.mkdir()
        with np.errstate(over="ignore"):  # a float64 past float32's range casts to inf, and is rejected
            bundle = _outcome(lambda: write_patient(pid, modalities, mask, root, labels))
        if bundle is None:
            assert list(root.iterdir()) == []
            return
        record = load_patient(bundle)
    assert record.patient_id == pid
    assert np.array_equal(record.mask, mask)
    assert labels is None and record.labels is None or np.array_equal(record.labels, labels)
    assert list(record.modalities) == list(modalities)
    for name, grid in record.modalities.items():
        assert grid.tobytes() == np.asarray(modalities[name], dtype=np.float32).tobytes()


def _drain(path):
    pid, shape, blocks = open_prediction(path)
    return sum(len(block) for block in blocks) == shape[0]


@FUZZ
@given(meta_edits(), payload_edits(["pred.raw"]))
def test_open_prediction_streams_or_raises_value_error(meta_edit, payload_edit):
    with tempfile.TemporaryDirectory() as tmp:
        bundle = write_prediction("case-1", np.linspace(0.0, 1.0, 18).reshape(2, 3, 3), tmp)
        _edit(bundle, meta_edit, payload_edit)
        assert _outcome(lambda: _drain(bundle)) in (None, True)


def _leaf_paths(tree, prefix=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, (*prefix, key))
        yield (*prefix, key)


CONFIG_PATHS = list(_leaf_paths(cfgmod.DEFAULT_CONFIG))


@st.composite
def config_files(draw):
    """The default config with drawn leaves or sections replaced, a drawn
    JSON value, or raw bytes."""
    kind = draw(st.sampled_from(["edit", "edit", "edit", "json", "raw"]))
    if kind == "raw":
        return draw(raw_blobs)
    if kind == "json":
        return draw(json_blobs)
    config = copy.deepcopy(cfgmod.DEFAULT_CONFIG)
    for path in draw(st.lists(st.sampled_from(CONFIG_PATHS), min_size=1, max_size=3)):
        parent = config
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if isinstance(parent, dict):
            parent[path[-1]] = draw(field_values)
    return json.dumps(config).encode()


@FUZZ
@given(config_files())
def test_load_config_returns_or_raises_value_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(blob)
        _outcome(lambda: cfgmod.load_config(path))
