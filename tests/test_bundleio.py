import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from segnoise import atomic, bundleio
from segnoise import config as cfgmod
from segnoise.bundleio import (
    import_nifti,
    load_dataset,
    load_patient,
    load_prediction,
    open_patient,
    read_nifti,
    write_bundle,
    write_patient,
    write_prediction,
)
from segnoise.cli import _config_overrides, build_parser, main
from segnoise.phantom import PhantomSpec, generate_phantom
from segnoise.volume import MultiModalVolume, PatientRecord


def sample_record(pid="case-1", shape=(2, 4, 4)):
    rng = np.random.default_rng(0)
    grids = {
        "t1": rng.normal(size=shape).astype(np.float32),
        "t2": rng.normal(size=shape).astype(np.float32),
    }
    labels = rng.choice([0, 1, 2, 4], size=shape).astype(np.uint8)
    mask = np.isin(labels, (1, 2, 4)).astype(np.uint8)
    vol = MultiModalVolume(patient_id=pid, modalities=grids)
    return PatientRecord(volume=vol, mask=mask, labels=labels)


def write_nifti(path, data, datatype, endian="<"):
    """Minimal NIfTI-1 writer used only as a test fixture."""
    codes = {"u1": (2, 8), "i2": (4, 16), "f4": (16, 32)}
    dt_code, bitpix = codes[datatype]
    nz, ny, nx = data.shape
    header = bytearray(348)
    struct.pack_into(endian + "i", header, 0, 348)
    struct.pack_into(endian + "8h", header, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into(endian + "h", header, 70, dt_code)
    struct.pack_into(endian + "h", header, 72, bitpix)
    struct.pack_into(endian + "f", header, 108, 352.0)
    header[344:348] = b"n+1\x00"
    payload = np.ascontiguousarray(data.transpose(0, 1, 2), dtype=endian + datatype)
    path.write_bytes(bytes(header) + b"\x00" * 4 + payload.tobytes())


def edit_meta(bundle, **changes):
    """Rewrite a bundle's meta.json with `changes`; a None value deletes the key."""
    meta = json.loads((bundle / "meta.json").read_text())
    meta.update(changes)
    meta = {key: value for key, value in meta.items() if value is not None}
    (bundle / "meta.json").write_text(json.dumps(meta))


def source_masks(root):
    """Every patient's mask under `root` by id, read through the bundle source."""
    source = cfgmod.source_from(cfgmod.load_config(None, {"data": {"path": str(root)}}))
    return {pid: source.mask(pid) for pid in source.ids}


def tree(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))


def nested_meta_writer(bundle, key):
    """A function of `depth` that rewrites the bundle's meta.json with
    `key` set to empty lists nested `depth` deep."""
    meta = json.loads((bundle / "meta.json").read_text())
    text = json.dumps({**meta, key: "NESTED"})
    return lambda depth: (bundle / "meta.json").write_text(
        text.replace('"NESTED"', "[" * depth + "]" * depth))


class TestBundleRoundtrip:
    def test_write_then_load_preserves_everything(self, tmp_path):
        rec = sample_record()
        bundle = write_bundle(rec, tmp_path)
        loaded = load_patient(bundle)
        assert loaded.patient_id == "case-1"
        assert np.array_equal(loaded.mask, rec.mask)
        assert np.array_equal(loaded.labels, rec.labels)
        for name in ("t1", "t2"):
            assert np.array_equal(loaded.volume.modalities[name], rec.volume.modalities[name])

    def test_write_is_byte_deterministic(self, tmp_path):
        rec = sample_record()
        a = write_bundle(rec, tmp_path / "a")
        b = write_bundle(rec, tmp_path / "b")
        for name in ("meta.json", "t1.raw", "t2.raw", "labels.raw", "mask.raw"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_mask_derived_from_labels_when_absent(self, tmp_path):
        rec = sample_record()
        bundle = write_bundle(rec, tmp_path)
        (bundle / "mask.raw").unlink()
        loaded = load_patient(bundle)
        assert np.array_equal(loaded.mask, rec.mask)

    def test_all_background_labels_give_empty_mask(self, tmp_path):
        shape = (2, 4, 4)
        grids = {"t1": np.ones(shape, dtype=np.float32)}
        rec = PatientRecord(
            volume=MultiModalVolume(patient_id="bg", modalities=grids),
            mask=np.zeros(shape, dtype=np.uint8),
            labels=np.zeros(shape, dtype=np.uint8),
        )
        bundle = write_bundle(rec, tmp_path)
        (bundle / "mask.raw").unlink()
        assert load_patient(bundle).mask.sum() == 0

    def test_phantom_roundtrip(self, tmp_path):
        rec = generate_phantom(PhantomSpec(depth=3), seed=11)
        loaded = load_patient(write_bundle(rec, tmp_path))
        assert np.array_equal(loaded.mask, rec.mask)


class TestNoSecondCopy:
    def test_loaded_arrays_are_read_only_and_own_their_data(self, tmp_path):
        loaded = load_patient(write_bundle(sample_record(), tmp_path))
        for arr in (*loaded.volume.modalities.values(), loaded.mask, loaded.labels):
            assert arr.flags.owndata and not arr.flags.writeable

    def test_prediction_loads_as_the_float32_it_holds(self, tmp_path):
        pred = np.full((2, 4, 4), 0.3)
        _, loaded = load_prediction(write_prediction("case-9", pred, tmp_path))
        assert loaded.dtype == np.float32
        assert np.array_equal(loaded, pred.astype(np.float32))


class TestBundleSourceMasks:
    def test_masks_equal_the_dataset_masks(self, tmp_path):
        for pid in ("zeta", "alpha"):
            write_bundle(sample_record(pid=pid), tmp_path)
        (tmp_path / "zeta" / "mask.raw").unlink()  # derived from labels.raw
        masks = source_masks(tmp_path)
        records = load_dataset(tmp_path)
        assert list(masks) == [r.patient_id for r in records] == ["alpha", "zeta"]
        for record in records:
            assert np.array_equal(masks[record.patient_id], record.mask)

    def test_never_reads_intensities_whole(self, tmp_path, monkeypatch):
        write_bundle(sample_record(), tmp_path)
        real_read = bundleio._read_raw

        def read(path, shape):
            assert path.name in ("mask.raw", "labels.raw"), f"{path.name} read whole"
            return real_read(path, shape)

        monkeypatch.setattr(bundleio, "_read_raw", read)
        assert list(source_masks(tmp_path)) == ["case-1"]


class TestBlockReader:
    @staticmethod
    def payload(tmp_path, values):
        path = tmp_path / "t1.raw"
        np.asarray(values, dtype="<f4").tofile(path)
        return path

    def test_copies_a_payload_a_block_at_a_time(self, tmp_path, monkeypatch):
        grid = np.arange(5 * 2 * 4, dtype="<f4").reshape(5, 2, 4)
        path = self.payload(tmp_path, grid)
        monkeypatch.setattr(bundleio, "BLOCK_BYTES", 2 * grid[0].nbytes)
        blocks = []

        class Sink:
            def write(self, block):
                blocks.append(np.array(block))

        bundleio._scan_intensities(path, grid.shape, Sink())
        assert [len(b) for b in blocks] == [2, 2, 1]
        assert np.concatenate(blocks).tobytes() == grid.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_in_the_last_block_rejected(self, tmp_path, monkeypatch, bad):
        grid = np.zeros((5, 2, 4), dtype="<f4")
        grid[-1, 1, 3] = bad
        path = self.payload(tmp_path, grid)
        monkeypatch.setattr(bundleio, "BLOCK_BYTES", 2 * grid[0].nbytes)
        with pytest.raises(ValueError, match="t1.raw contains non-finite"):
            bundleio._scan_intensities(path, grid.shape)

    def test_short_payload_rejected_before_reading(self, tmp_path):
        path = self.payload(tmp_path, np.zeros(39))
        with pytest.raises(ValueError, match="shape mismatch"):
            bundleio._scan_intensities(path, (5, 2, 4))

    def test_read_intensities_fills_one_read_only_array(self, tmp_path, monkeypatch):
        grid = np.arange(5 * 2 * 4, dtype="<f4").reshape(5, 2, 4)
        path = self.payload(tmp_path, grid)
        monkeypatch.setattr(bundleio, "BLOCK_BYTES", 2 * grid[0].nbytes)
        loaded = bundleio.read_intensities(path, grid.shape)
        assert loaded.dtype == np.float32 and loaded.tobytes() == grid.tobytes()
        assert loaded.flags.owndata and not loaded.flags.writeable
        grid[-1, 1, 3] = np.nan
        self.payload(tmp_path, grid)
        with pytest.raises(ValueError, match="t1.raw contains non-finite"):
            bundleio.read_intensities(path, grid.shape)

    def test_streamed_copy_equals_a_bundle_write(self, tmp_path):
        record = sample_record()
        source = write_bundle(record, tmp_path / "src")
        pid, paths, mask = open_patient(source)
        assert paths == {"t1": source / "t1.raw", "t2": source / "t2.raw"}
        streamed = write_patient(pid, paths, mask, tmp_path / "streamed")
        written = write_bundle(PatientRecord(volume=record.volume, mask=record.mask), tmp_path / "written")
        assert tree(streamed) == tree(written) == ["mask.raw", "meta.json", "t1.raw", "t2.raw"]
        for name in tree(written):
            assert (streamed / name).read_bytes() == (written / name).read_bytes()

    def test_failed_copy_leaves_no_listed_bundle_and_no_temp_file(self, tmp_path):
        write_bundle(sample_record(pid="a"), tmp_path / "out")
        source = write_bundle(sample_record(pid="a"), tmp_path / "src")
        _raw_edit("t2.raw", 3, np.nan, "<f4")(source)
        pid, paths, mask = open_patient(source)
        with pytest.raises(ValueError, match="t2.raw contains non-finite"):
            write_patient(pid, paths, mask, tmp_path / "out")
        assert tree(tmp_path / "out") == ["a", "a/labels.raw", "a/mask.raw", "a/t1.raw", "a/t2.raw"]


def _raw_edit(name, index, value, dtype):
    def edit(bundle):
        arr = np.fromfile(bundle / name, dtype=dtype)
        arr[index] = value
        arr.tofile(bundle / name)
    return edit


def _truncate(bundle):
    raw = (bundle / "t2.raw").read_bytes()
    (bundle / "t2.raw").write_bytes(raw[:-4])


SCORE_FAULTS = {
    "nan-intensity": (_raw_edit("t1.raw", 5, np.nan, "<f4"), ValueError),
    "short-raw": (_truncate, ValueError),
    "missing-modality-file": (lambda b: (b / "t2.raw").unlink(), FileNotFoundError),
    "empty-modality-list": (lambda b: edit_meta(b, modalities=[]), ValueError),
    "unsafe-modality-name": (lambda b: edit_meta(b, modalities=["t1", "../t2"]), ValueError),
    "unsafe-patient-id": (lambda b: edit_meta(b, patient_id="../b"), ValueError),
    "non-binary-mask": (_raw_edit("mask.raw", 0, 2, "u1"), ValueError),
    "illegal-labels": (_raw_edit("labels.raw", 0, 3, "u1"), ValueError),
    "duplicate-ids": (lambda b: edit_meta(b, patient_id="a"), ValueError),
    "bool-patient-id": (lambda b: edit_meta(b, patient_id=True), ValueError),
    "int-patient-id": (lambda b: edit_meta(b, patient_id=7), ValueError),
    "nan-patient-id": (lambda b: edit_meta(b, patient_id=float("nan")), ValueError),
}


class TestScoreRejectsWhatLoadDatasetRejects:
    @staticmethod
    def corpus(tmp_path):
        data, preds = tmp_path / "data", tmp_path / "preds"
        for pid in ("a", "b"):
            write_bundle(sample_record(pid=pid), data)
            write_prediction(pid, np.full((2, 4, 4), 0.25), preds)
        return data, preds

    @pytest.mark.parametrize("fault", list(SCORE_FAULTS))
    def test_fault_rejected(self, tmp_path, fault, capsys):
        data, preds = self.corpus(tmp_path)
        edit, error = SCORE_FAULTS[fault]
        edit(data / "b")
        with pytest.raises(error) as from_dataset:
            load_dataset(data)
        with pytest.raises(error) as from_masks:
            source_masks(data)
        assert type(from_masks.value) is type(from_dataset.value)
        argv = ["score", "--pred", str(preds), "--data", str(data), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out" / "scores.csv").exists()

    def test_score_never_loads_intensities(self, tmp_path, monkeypatch):
        data, preds = self.corpus(tmp_path)

        def refuse(root):
            raise AssertionError("score loaded the whole dataset")

        monkeypatch.setattr(bundleio, "load_dataset", refuse)
        argv = ["score", "--pred", str(preds), "--data", str(data), "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert (tmp_path / "out" / "scores.csv").is_file()

    def test_duplicate_prediction_ids_rejected(self, tmp_path, capsys):
        data, preds = self.corpus(tmp_path)
        edit_meta(preds / "b", patient_id="a")
        argv = ["score", "--pred", str(preds), "--data", str(data), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "'a' is used by both" in capsys.readouterr().err


class TestCorruptRejectsWhatLoadDatasetRejects:
    FOLD_FLAGS = ["--folds", "1", "--train-size", "1", "--val-size", "1", "--test-size", "0"]

    @pytest.mark.parametrize("fault", list(SCORE_FAULTS))
    def test_fault_rejected(self, tmp_path, fault):
        data, _ = TestScoreRejectsWhatLoadDatasetRejects.corpus(tmp_path)
        edit, error = SCORE_FAULTS[fault]
        edit(data / "b")
        before = tree(tmp_path)
        out = tmp_path / "run" / "out"
        args = build_parser().parse_args(
            ["corrupt", "--data", str(data), "--out", str(out), *self.FOLD_FLAGS])
        with pytest.raises(error) as from_corrupt:
            args.func(args, cfgmod.load_config(None, _config_overrides(args)))
        with pytest.raises(error) as from_dataset:
            load_dataset(data)
        assert type(from_corrupt.value) is type(from_dataset.value)
        assert not (out / "corruption_report.csv").exists()
        assert not (out / "corrupted" / "b" / "meta.json").exists()
        assert [p for p in tree(tmp_path) if not p.startswith("run/out")] == sorted(before + ["run"])


class TestScoreMemory:
    def test_one_prediction_held_at_a_time(self, tmp_path, monkeypatch):
        data, preds = tmp_path / "data", tmp_path / "preds"
        shape = (32, 64, 64)
        for pid in ("a", "b", "c", "d"):
            write_bundle(sample_record(pid=pid, shape=shape), data)
            write_prediction(pid, np.full(shape, 0.25), preds)
        masks = 4 * np.prod(shape)  # uint8 masks
        pred = 4 * np.prod(shape)  # one float32 prediction
        # A block of 8 frames, so that checking the intensities does not
        # set the peak.
        monkeypatch.setattr(bundleio, "BLOCK_BYTES", pred // 4)
        argv = ["score", "--pred", str(preds), "--data", str(data), "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The masks, one prediction, its finiteness flags (a quarter of
        # it) and a frame's temporaries; a second prediction would not fit.
        assert peak - masks < 1.75 * pred


def _dies_on_open(monkeypatch, n):
    """Make the n-th file that `segnoise.atomic` opens fail after half
    of its data is on disk, as a full disk or a killed process would."""
    real_open, opened = open, []

    class HalfWritten:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, data):
            payload = memoryview(data).cast("B")
            self.fh.write(payload[: payload.nbytes // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    def failing_open(*args, **kwargs):
        opened.append(args[0])
        fh = real_open(*args, **kwargs)
        return HalfWritten(fh) if len(opened) == n else fh

    monkeypatch.setattr(atomic, "open", failing_open, raising=False)


class TestInterruptedWrites:
    @pytest.mark.parametrize("writer", ["bundle", "prediction"])
    @pytest.mark.parametrize("rewrite", [False, True], ids=["fresh", "rewrite"])
    def test_half_written_bundle_is_not_listed(self, tmp_path, monkeypatch, writer, rewrite):
        def write(pid):
            if writer == "bundle":
                return write_bundle(sample_record(pid=pid), tmp_path)
            return write_prediction(pid, np.full((2, 4, 4), 0.5), tmp_path)

        write("a")
        if rewrite:
            write("b")
        # A payload dies: t2.raw after t1.raw, or the prediction's pred.raw.
        _dies_on_open(monkeypatch, 2 if writer == "bundle" else 1)
        with pytest.raises(OSError, match="No space"):
            write("b")
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.rglob("*") if p.name.endswith(".tmp")) == []
        assert not (tmp_path / "b" / "meta.json").exists()
        if writer == "bundle":
            assert [r.patient_id for r in load_dataset(tmp_path)] == ["a"]
        else:
            assert list(bundleio.index_bundles(tmp_path, "prediction")) == ["a"]


class TestBundleErrors:
    def test_missing_meta(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="meta.json"):
            load_patient(tmp_path)

    def test_missing_modality_file(self, tmp_path):
        bundle = write_bundle(sample_record(), tmp_path)
        (bundle / "t2.raw").unlink()
        with pytest.raises(FileNotFoundError, match="t2.raw"):
            load_patient(bundle)

    def test_wrong_size_modality_is_shape_mismatch(self, tmp_path):
        bundle = write_bundle(sample_record(), tmp_path)
        raw = (bundle / "t2.raw").read_bytes()
        (bundle / "t2.raw").write_bytes(raw + b"\x00" * 16)  # 2x4x5 worth
        with pytest.raises(ValueError, match="shape mismatch"):
            load_patient(bundle)

    def test_illegal_label_value(self, tmp_path):
        bundle = write_bundle(sample_record(), tmp_path)
        labels = np.fromfile(bundle / "labels.raw", dtype=np.uint8)
        labels[0] = 3
        labels.tofile(bundle / "labels.raw")
        with pytest.raises(ValueError, match="illegal label"):
            load_patient(bundle)

    def test_non_finite_intensity(self, tmp_path):
        bundle = write_bundle(sample_record(), tmp_path)
        grid = np.fromfile(bundle / "t1.raw", dtype="<f4")
        grid[0] = np.nan
        grid.tofile(bundle / "t1.raw")
        with pytest.raises(ValueError, match="non-finite"):
            load_patient(bundle)

    def test_nan_intensity_error_names_the_payload(self, tmp_path):
        bundle = write_bundle(sample_record(), tmp_path)
        grid = np.fromfile(bundle / "t2.raw", dtype="<f4")
        grid[-1] = np.nan
        grid.tofile(bundle / "t2.raw")
        with pytest.raises(ValueError, match=re.escape(str(bundle / "t2.raw"))):
            load_patient(bundle)

    def test_big_endian_meta_rejected(self, tmp_path):
        bundle = write_bundle(sample_record(), tmp_path)
        meta = json.loads((bundle / "meta.json").read_text())
        meta["byte_order"] = "big"
        (bundle / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="byte order"):
            load_patient(bundle)

    def test_neither_mask_nor_labels(self, tmp_path):
        bundle = write_bundle(sample_record(), tmp_path)
        (bundle / "mask.raw").unlink()
        (bundle / "labels.raw").unlink()
        with pytest.raises(FileNotFoundError, match="neither"):
            load_patient(bundle)

    def test_load_dataset_sorted(self, tmp_path):
        for pid in ("zeta", "alpha"):
            write_bundle(sample_record(pid=pid), tmp_path)
        records = load_dataset(tmp_path)
        assert [r.patient_id for r in records] == ["alpha", "zeta"]

    def test_load_dataset_rejects_duplicate_ids(self, tmp_path):
        for pid in ("a", "b"):
            edit_meta(write_bundle(sample_record(pid=pid), tmp_path), patient_id="p")
        with pytest.raises(ValueError, match=r"'p'.*[/\\]a\b.*[/\\]b\b"):
            load_dataset(tmp_path)

    def test_load_patient_rejects_unsafe_patient_id(self, tmp_path):
        bundle = write_bundle(sample_record(), tmp_path)
        edit_meta(bundle, patient_id="../escaped")
        with pytest.raises(ValueError, match="not a safe file name"):
            load_patient(bundle)

    def test_load_patient_rejects_unsafe_modality_name(self, tmp_path):
        bundle = write_bundle(sample_record(), tmp_path / "root")
        (tmp_path / "escaped.raw").write_bytes((bundle / "t2.raw").read_bytes())
        edit_meta(bundle, modalities=["t1", "../../escaped"])
        with pytest.raises(ValueError, match="not a safe file name"):
            load_patient(bundle)

    @pytest.mark.parametrize("reader", [load_patient, bundleio.open_patient, bundleio.load_mask],
                             ids=lambda f: f.__name__)
    def test_a_modality_listed_twice_is_rejected(self, tmp_path, reader):
        # Read as a dict, the repeat would merge into one modality.
        bundle = write_bundle(sample_record(), tmp_path)
        edit_meta(bundle, modalities=["t1", "t2", "t1"])
        with pytest.raises(ValueError, match=r"modalities name one modality twice: \['t1', 't2', 't1'\]"):
            reader(bundle)


@pytest.mark.parametrize("shape", [[2**32, 2**32, 1], [2**62, 4, 1]])
def test_huge_shape_with_empty_payloads_fails_the_size_check_first(tmp_path, shape):
    # The expected byte count is an exact integer: an int64 product wraps
    # both shapes to 0 bytes, which empty payloads would match.
    corpus, preds = tmp_path / "corpus", tmp_path / "preds"
    bundle = write_bundle(sample_record(), corpus)
    pred = write_prediction("case-1", np.zeros((2, 4, 4)), preds)
    for raw in [*bundle.glob("*.raw"), *pred.glob("*.raw")]:
        raw.write_bytes(b"")
    edit_meta(bundle, shape=shape)
    edit_meta(pred, shape=shape)
    readers = {
        "load_patient": lambda: load_patient(bundle),
        "open_patient": lambda: open_patient(bundle),
        "load_mask": lambda: bundleio.load_mask(bundle),
        "load_dataset": lambda: load_dataset(corpus),
        "source masks": lambda: source_masks(corpus),
        "open_prediction": lambda: bundleio.open_prediction(pred),
        "load_prediction": lambda: load_prediction(pred),
    }
    for name, read in readers.items():
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="shape mismatch.*0 bytes on disk"):
                read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, name


@pytest.mark.parametrize("key", ["patient_id", "shape", "byte_order", "modalities"])
def test_deeply_nested_meta_json_is_a_value_error(tmp_path, key):
    # 100000 levels are too deep to parse; around the parser's depth limit
    # a value either fails to parse or parses and then fails a check.
    bundle = write_bundle(sample_record(), tmp_path / "data")
    pred = write_prediction("case-1", np.zeros((2, 4, 4)), tmp_path / "preds")
    readers = [lambda: bundleio.load_mask(bundle)]
    if key != "modalities":  # only patient bundles need modalities
        readers += [lambda: bundleio.index_bundles(tmp_path / "data"),
                    lambda: bundleio.open_prediction(pred)]
    writers = [nested_meta_writer(bundle, key), nested_meta_writer(pred, key)]
    for depth in (100_000, *range(800, 1000, 10)):
        for write in writers:
            write(depth)
        for read in readers:
            with pytest.raises(ValueError) as exc:
                read()
            if depth == 100_000:
                assert str(exc.value).endswith("meta.json: JSON nested too deeply")


class TestUnsafeNames:
    def test_write_bundle_rejects_unsafe_patient_id(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(ValueError, match="not a safe file name"):
            write_bundle(sample_record(pid="../escaped_pid"), out)
        assert tree(tmp_path) == ["out"]

    def test_write_prediction_rejects_unsafe_patient_id(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(ValueError, match="not a safe file name"):
            write_prediction("../escaped", np.zeros((1, 2, 2)), out)
        assert tree(tmp_path) == ["out"]

    @pytest.mark.parametrize("pid, modality", [("../escaped", "t1"), ("ok", "../escaped")])
    def test_import_nifti_rejects_unsafe_names(self, tmp_path, pid, modality):
        shape = (2, 4, 4)
        write_nifti(tmp_path / "t1.nii", np.ones(shape, dtype=np.float32), "f4")
        write_nifti(tmp_path / "mask.nii", np.zeros(shape, dtype=np.uint8), "u1")
        (tmp_path / "out").mkdir()
        before = tree(tmp_path)
        with pytest.raises(ValueError, match="not a safe file name"):
            import_nifti(pid, {modality: tmp_path / "t1.nii"}, tmp_path / "out", mask=tmp_path / "mask.nii")
        assert tree(tmp_path) == before


class TestPredictions:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        pred = rng.random((2, 4, 4))
        write_prediction("case-9", pred, tmp_path)
        pid, loaded = load_prediction(tmp_path / "case-9")
        assert pid == "case-9"
        assert np.allclose(loaded, pred, atol=1e-7)

    def test_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            write_prediction("bad", np.full((1, 2, 2), 1.5), tmp_path)

    @pytest.mark.parametrize("changes, message", [
        ({"shape": None}, "missing key 'shape'"),
        ({"patient_id": None}, "missing key 'patient_id'"),
        ({"byte_order": "big"}, "byte order"),
        ({"shape": [8, 4]}, "three positive ints"),
        ({"shape": [2, 4, 0]}, "three positive ints"),
        ({"patient_id": "../escaped"}, "not a safe file name"),
        ({"patient_id": True}, r"meta\.json: patient_id must be a string, got True"),
        ({"patient_id": 7}, r"meta\.json: patient_id must be a string, got 7"),
        ({"patient_id": float("nan")}, r"meta\.json: patient_id must be a string, got nan"),
    ])
    def test_meta_checked_like_patient_bundles(self, tmp_path, changes, message):
        bundle = write_prediction("case-9", np.zeros((2, 4, 4)), tmp_path)
        edit_meta(bundle, **changes)
        with pytest.raises(ValueError, match=message):
            load_prediction(bundle)


class TestPredictionStream:
    def test_blocks_are_the_payload_in_order(self, tmp_path, monkeypatch):
        pred = np.random.default_rng(4).random((5, 2, 4))
        bundle = write_prediction("case-9", pred, tmp_path)
        monkeypatch.setattr(bundleio, "BLOCK_BYTES", 2 * 4 * 8)
        pid, shape, blocks = bundleio.open_prediction(bundle)
        copies = [np.array(block) for block in blocks]
        assert (pid, shape) == ("case-9", (5, 2, 4))
        assert [len(b) for b in copies] == [2, 2, 1]
        assert np.concatenate(copies).tobytes() == pred.astype("<f4").tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5, 1.5])
    def test_bad_value_in_the_last_block_rejected(self, tmp_path, monkeypatch, bad):
        bundle = write_prediction("case-9", np.full((5, 2, 4), 0.5), tmp_path)
        _raw_edit("pred.raw", -1, bad, "<f4")(bundle)
        monkeypatch.setattr(bundleio, "BLOCK_BYTES", 2 * 4 * 8)
        blocks = bundleio.open_prediction(bundle)[2]
        assert len(next(blocks)) == 2 and len(next(blocks)) == 2
        with pytest.raises(ValueError, match=rf"prediction in {re.escape(str(bundle))} must be finite"):
            next(blocks)
        with pytest.raises(ValueError, match=r"must be finite and in \[0, 1\]"):
            load_prediction(bundle)


class TestNifti:
    @pytest.mark.parametrize("datatype,asdtype", [("u1", np.uint8), ("i2", np.int16), ("f4", np.float32)])
    def test_roundtrip_dtypes(self, tmp_path, datatype, asdtype):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 100, size=(3, 4, 5)).astype(asdtype)
        path = tmp_path / "vol.nii"
        write_nifti(path, data, datatype)
        loaded = read_nifti(path)
        assert loaded.shape == (3, 4, 5)
        assert np.array_equal(loaded, data)

    def test_big_endian_payload(self, tmp_path):
        data = np.arange(24, dtype=np.int16).reshape(2, 3, 4)
        path = tmp_path / "be.nii"
        write_nifti(path, data, "i2", endian=">")
        assert np.array_equal(read_nifti(path), data)

    @pytest.mark.parametrize("endian", ["<", ">"])
    @pytest.mark.parametrize("vox_offset", [np.inf, -np.inf, np.nan, 1e30])
    def test_non_finite_or_huge_vox_offset_rejected(self, tmp_path, vox_offset, endian):
        path = tmp_path / "vol.nii"
        write_nifti(path, np.zeros((2, 2, 2), dtype=np.float32), "f4", endian=endian)
        blob = bytearray(path.read_bytes())
        struct.pack_into(endian + "f", blob, 108, vox_offset)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="not finite|truncated"):
            read_nifti(path)

    @pytest.mark.parametrize("vox_offset", [348.0, 351.0, 352.5, 400.25])
    def test_vox_offset_below_352_or_fractional_rejected(self, tmp_path, vox_offset):
        path = tmp_path / "vol.nii"
        write_nifti(path, np.zeros((2, 2, 2), dtype=np.float32), "f4")
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, 108, vox_offset)
        path.write_bytes(bytes(blob) + bytes(64))
        with pytest.raises(ValueError, match=rf"vol\.nii: vox_offset {vox_offset} is not a whole number >= 352"):
            read_nifti(path)

    def test_whole_vox_offset_past_352_reads_from_there(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        path = tmp_path / "vol.nii"
        write_nifti(path, data, "f4")
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, 108, 368.0)
        path.write_bytes(bytes(blob[:352]) + bytes(16) + bytes(blob[352:]))
        assert np.array_equal(read_nifti(path), data)

    @pytest.mark.parametrize("endian", ["<", ">"])
    @pytest.mark.parametrize("slope, inter", [
        (2.0, 0.0), (-1.0, 0.0), (0.5, 3.0), (1.0, 3.0), (1.0, -0.5), (1.0, np.nan), (1.0, -np.inf), (2.0, np.nan),
    ])
    def test_scaled_voxels_rejected(self, tmp_path, endian, slope, inter):
        # A slope of 2 used to import the stored voxels, half the intensities.
        path = tmp_path / "vol.nii"
        write_nifti(path, np.ones((2, 2, 2), dtype=np.int16), "i2", endian=endian)
        blob = bytearray(path.read_bytes())
        struct.pack_into(endian + "2f", blob, 112, slope, inter)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=rf"vol\.nii: unsupported voxel scaling scl_slope {slope}, "
                                             rf"scl_inter {inter}; need slope 0 or non-finite, or slope 1 with intercept 0"):
            read_nifti(path)

    @pytest.mark.parametrize("slope, inter", [
        (0.0, 0.0), (0.0, 5.0), (1.0, 0.0), (1.0, -0.0), (0.0, np.nan), (0.0, np.inf),
        (np.nan, np.nan), (np.nan, 0.0), (np.inf, 0.0), (-np.inf, 3.0),
    ])
    def test_unscaled_voxels_read_as_stored(self, tmp_path, slope, inter):
        # Under NIfTI-1 a slope of 0 means no scaling, whatever the intercept;
        # so does a non-finite one, and nibabel writes NaN for unscaled data.
        data = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
        path = tmp_path / "vol.nii"
        write_nifti(path, data, "i2")
        blob = bytearray(path.read_bytes())
        struct.pack_into("<2f", blob, 112, slope, inter)
        path.write_bytes(bytes(blob))
        assert np.array_equal(read_nifti(path), data)

    def test_gzip_rejected(self, tmp_path):
        path = tmp_path / "vol.nii.gz"
        path.write_bytes(b"\x1f\x8b" + b"\x00" * 400)
        with pytest.raises(ValueError, match="gzip"):
            read_nifti(path)

    def test_unsupported_datatype_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        path = tmp_path / "vol.nii"
        write_nifti(path, data, "f4")
        blob = bytearray(path.read_bytes())
        struct.pack_into("<h", blob, 70, 64)  # float64 code
        struct.pack_into("<h", blob, 72, 64)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="datatype"):
            read_nifti(path)

    def test_non_3d_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        path = tmp_path / "vol.nii"
        write_nifti(path, data, "f4")
        blob = bytearray(path.read_bytes())
        struct.pack_into("<h", blob, 40, 4)  # dim[0] = 4
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="3-D"):
            read_nifti(path)

    def test_import_into_bundle(self, tmp_path):
        rng = np.random.default_rng(3)
        shape = (2, 4, 4)
        t1 = rng.normal(size=shape).astype(np.float32)
        labels = rng.choice([0, 1, 2, 4], size=shape).astype(np.uint8)
        write_nifti(tmp_path / "t1.nii", t1, "f4")
        write_nifti(tmp_path / "seg.nii", labels, "u1")
        bundle = import_nifti(
            "imported-1",
            {"t1": tmp_path / "t1.nii"},
            tmp_path / "out",
            labels=tmp_path / "seg.nii",
        )
        rec = load_patient(bundle)
        assert rec.patient_id == "imported-1"
        assert np.array_equal(rec.volume.modalities["t1"], t1)
        assert np.array_equal(rec.mask, np.isin(labels, (1, 2, 4)).astype(np.uint8))
