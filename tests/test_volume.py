import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import reference

from segnoise.folds import make_folds
from segnoise.phantom import PhantomSpec, generate_corpus, generate_phantom, phantom_mask
from segnoise.volume import (
    MultiModalVolume,
    PatientRecord,
    VALID_LABELS,
    binarize_labels,
    validate_labels,
    zscore_normalize,
)


def make_volume(shape=(2, 4, 4), names=("t1", "t2"), fill=1.0, pid="p0"):
    grids = {n: np.full(shape, fill, dtype=np.float32) for n in names}
    return MultiModalVolume(patient_id=pid, modalities=grids)


class TestBinarizeLabels:
    def test_all_zero(self):
        labels = np.zeros((2, 3, 3), dtype=np.uint8)
        assert binarize_labels(labels).sum() == 0

    def test_each_tumor_class_maps_to_one(self):
        labels = np.array([[[0, 1], [2, 4]]], dtype=np.uint8)
        assert np.array_equal(binarize_labels(labels), np.array([[[0, 1], [1, 1]]], dtype=np.uint8))

    def test_all_enhancing(self):
        labels = np.full((1, 2, 2), 4, dtype=np.uint8)
        assert binarize_labels(labels).all()

    def test_illegal_label_rejected(self):
        labels = np.full((1, 2, 2), 3, dtype=np.uint8)
        with pytest.raises(ValueError, match="illegal label"):
            binarize_labels(labels)

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(0)
        labels = rng.choice([0, 1, 2, 4], size=(3, 5, 5)).astype(np.uint8)
        mask = binarize_labels(labels)
        assert np.array_equal(binarize_labels(mask), mask)


class TestValidateLabels:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64, np.float32])
    def test_accepts_exactly_what_isin_accepts(self, dtype):
        values = np.arange(-3, 256) if dtype != np.uint8 else np.arange(256)
        if dtype == np.float32:
            values = np.concatenate([values, [0.5, 3.9, np.nan]])
        for value in values.astype(dtype):
            labels = np.array([0, 1, 2, 4, value], dtype=dtype).reshape(1, 1, 5)
            if np.isin(value, VALID_LABELS):
                assert validate_labels(labels).dtype == np.uint8
            else:
                with pytest.raises(ValueError, match="illegal label"):
                    validate_labels(labels)

    def test_uint8_volume_checked_without_a_wide_copy(self):
        labels = np.random.default_rng(0).choice([0, 1, 2, 4], size=(16, 64, 64)).astype(np.uint8)
        tracemalloc.start()
        try:
            validate_labels(labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * labels.nbytes


class TestZScore:
    def test_two_value_brain(self):
        grid = np.zeros((1, 2, 2), dtype=np.float32)
        grid[0, 0, 0] = 2.0
        grid[0, 0, 1] = 4.0
        out = zscore_normalize(grid)
        assert out[0, 0, 0] == pytest.approx(-1.0, abs=1e-6)
        assert out[0, 0, 1] == pytest.approx(1.0, abs=1e-6)
        assert out[0, 1, :].sum() == 0.0

    def test_brain_region_statistics_for_random_volumes(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            grid = rng.normal(5.0, 3.0, size=(4, 8, 8)).astype(np.float32)
            grid[:, :2, :] = 0.0  # background stays zero
            out = zscore_normalize(grid)
            region = grid != 0
            values = out[region].astype(np.float64)
            assert abs(values.mean()) < 1e-6
            assert abs(values.std() - 1.0) < 1e-6
            assert np.all(out[~region] == 0.0)

    def test_idempotent_within_tolerance(self):
        rng = np.random.default_rng(2)
        grid = rng.normal(0.0, 1.0, size=(2, 6, 6)).astype(np.float32)
        once = zscore_normalize(grid)
        twice = zscore_normalize(once)
        diff = np.abs(once - twice)
        assert diff.max() < 1e-5

    def test_bytes_match_the_whole_volume_float64_formula(self):
        # Normalising the region in place and assigning it into float32
        # zeros must give the bytes of the float64 volume cast at the end.
        rng = np.random.default_rng(3)
        record = generate_phantom(PhantomSpec(depth=6, height=40, width=48), seed=3, patient_id="p")
        grid = record.volume.modalities["m0"].copy()
        grid[:, :3] = 0.0
        grid[0, 5, 5] = 1e-30  # a tiny value is still brain
        grids = {"m0": grid, "m1": rng.normal(200.0, 90.0, size=grid.shape).astype(np.float32)}
        for expected in grids.values():
            out = zscore_normalize(expected)
            assert out.dtype == np.float32
            assert out.tobytes() == reference.zscore_modality(expected).tobytes()

    def test_constant_modality_rejected(self):
        vol = make_volume(fill=7.0)
        with pytest.raises(ValueError, match="zero variance"):
            zscore_normalize(vol.modalities["t1"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_intensity_rejected(self, bad):
        grid = np.random.default_rng(4).normal(3.0, 1.0, size=(2, 4, 4)).astype(np.float32)
        grid[1, 2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            zscore_normalize(grid)

    def test_empty_brain_region_rejected(self):
        vol = make_volume(fill=0.0)
        with pytest.raises(ValueError, match="empty"):
            zscore_normalize(vol.modalities["t1"])


class TestVolumeTypes:
    def test_modalities_must_share_shape(self):
        grids = {
            "t1": np.zeros((2, 4, 4), dtype=np.float32),
            "t2": np.zeros((2, 4, 5), dtype=np.float32),
        }
        with pytest.raises(ValueError, match="shape"):
            MultiModalVolume(patient_id="p", modalities=grids)

    def test_non_finite_rejected(self):
        grid = np.zeros((1, 2, 2), dtype=np.float32)
        grid[0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            MultiModalVolume(patient_id="p", modalities={"m": grid})

    @pytest.mark.parametrize("name", ["../escaped", "..", ".", "a/b", "", "x y", 7])
    def test_unsafe_names_rejected(self, name):
        with pytest.raises(ValueError, match="not a safe file name"):
            make_volume(pid=name)
        with pytest.raises(ValueError, match="not a safe file name"):
            make_volume(names=("t1", name))

    def test_record_shape_consistency(self):
        vol = make_volume(shape=(2, 4, 4))
        with pytest.raises(ValueError, match="mask shape"):
            PatientRecord(volume=vol, mask=np.zeros((2, 4, 5), dtype=np.uint8))

    def test_record_arrays_are_frozen(self):
        vol = make_volume()
        rec = PatientRecord(volume=vol, mask=np.zeros((2, 4, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            rec.mask[0, 0, 0] = 1

    @pytest.mark.parametrize("source", ["writable", "read-only view"])
    def test_caller_arrays_are_copied(self, source):
        base = np.zeros((2, 4, 4), dtype=np.float32)
        grid = base
        if source == "read-only view":
            grid = base[:]
            grid.setflags(write=False)
        mask = base.astype(np.uint8)
        rec = PatientRecord(volume=MultiModalVolume(patient_id="p", modalities={"m": grid}), mask=mask)
        base[0, 0, 0] = 5.0
        mask[0, 0, 0] = 1
        assert rec.volume.modalities["m"][0, 0, 0] == 0.0
        assert rec.mask[0, 0, 0] == 0

    def test_read_only_owned_arrays_are_adopted(self):
        grid = np.zeros((2, 4, 4), dtype=np.float32)
        mask = np.zeros((2, 4, 4), dtype=np.uint8)
        for arr in (grid, mask):
            arr.setflags(write=False)
        rec = PatientRecord(volume=MultiModalVolume(patient_id="p", modalities={"m": grid}), mask=mask)
        assert rec.volume.modalities["m"] is grid
        assert rec.mask is mask

    def test_normalize_record_keeps_mask(self):
        rng = np.random.default_rng(3)
        grid = rng.normal(2.0, 1.0, size=(2, 4, 4)).astype(np.float32)
        vol = MultiModalVolume(patient_id="p", modalities={"m": grid})
        mask = np.zeros((2, 4, 4), dtype=np.uint8)
        mask[0, 1, 1] = 1
        rec = PatientRecord(volume=vol, mask=mask)
        rec = replace(rec, volume=MultiModalVolume(rec.patient_id, {
            name: zscore_normalize(grid) for name, grid in rec.volume.modalities.items()}))
        assert np.array_equal(rec.mask, mask)


class TestMakeFolds:
    def test_full_scale_seven_fold_plan(self):
        ids = [f"pat{i:03d}" for i in range(285)]
        plan = make_folds(ids, n_folds=7, sizes=(205, 40, 40), seed=13)
        assert len(plan.folds) == 7
        seen_tests = set()
        for fold in plan.folds:
            assert len(fold.train_ids) == 205
            assert len(fold.val_ids) == 40
            assert len(fold.test_ids) == 40
            assert not seen_tests.intersection(fold.test_ids)
            seen_tests.update(fold.test_ids)
        assert len(seen_tests) == 280

    def test_three_rotations(self):
        plan = make_folds(["a", "b", "c"], n_folds=3, sizes=(1, 1, 1), seed=5)
        tests = [fold.test_ids[0] for fold in plan.folds]
        assert sorted(tests) == ["a", "b", "c"]

    def test_infeasible_test_tiling(self):
        with pytest.raises(ValueError, match="infeasible"):
            make_folds(list("abcde"), n_folds=3, sizes=(2, 1, 2), seed=0)

    def test_deterministic_per_seed(self):
        ids = [f"p{i}" for i in range(20)]
        a = make_folds(ids, 4, (10, 5, 5), seed=99)
        b = make_folds(ids, 4, (10, 5, 5), seed=99)
        assert a == b
        c = make_folds(ids, 4, (10, 5, 5), seed=100)
        assert a != c

    def test_union_of_test_sets_has_full_size_for_any_seed(self):
        ids = [f"p{i}" for i in range(30)]
        for seed in range(10):
            plan = make_folds(ids, 5, (18, 6, 6), seed=seed)
            union = [pid for fold in plan.folds for pid in fold.test_ids]
            assert len(union) == 30
            assert len(set(union)) == 30


class TestPhantom:
    def test_zero_blobs_gives_empty_mask(self):
        spec = PhantomSpec(blobs_min=0, blobs_max=0)
        rec = generate_phantom(spec, seed=1)
        assert rec.mask.sum() == 0

    def test_deterministic_per_seed(self):
        spec = PhantomSpec()
        a = generate_phantom(spec, seed=7)
        b = generate_phantom(spec, seed=7)
        assert np.array_equal(a.mask, b.mask)
        for name in spec.modalities:
            assert np.array_equal(a.volume.modalities[name], b.volume.modalities[name])

    def test_modalities_are_the_float64_formula_built_without_a_copy(self):
        spec = PhantomSpec(depth=40, height=128, width=128, modalities=("a", "b", "c", "d"))
        tracemalloc.start()
        try:
            rec = generate_phantom(spec, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Held: the mask and four float32 grids. Beyond them live one
        # float64 base and one float64 draw buffer (16 bytes a voxel);
        # float64 temporaries per modality and a copy of each grid took 34.
        held = rec.mask.nbytes + sum(grid.nbytes for grid in rec.volume.modalities.values())
        assert peak < held + 24 * rec.mask.size
        mask, rng = phantom_mask(spec, 3)
        for grid in rec.volume.modalities.values():
            noise = rng.standard_normal(mask.shape) * spec.noise_std
            expected = (spec.background_mean + spec.foreground_offset * mask + noise).astype(np.float32)
            assert grid.tobytes() == expected.tobytes()

    def test_mask_respects_margin(self):
        spec = PhantomSpec(depth=6, margin=8)
        for seed in range(5):
            rec = generate_phantom(spec, seed=seed)
            m = spec.margin
            assert rec.mask[:, :m, :].sum() == 0
            assert rec.mask[:, -m:, :].sum() == 0
            assert rec.mask[:, :, :m].sum() == 0
            assert rec.mask[:, :, -m:].sum() == 0

    def test_nonempty_frame_areas_within_rasterization_bounds(self):
        spec = PhantomSpec(depth=8, height=64, width=64, radius_min=5, radius_max=10, margin=8)
        rec = generate_phantom(spec, seed=7)
        # A rasterized ellipse with semi-axes in [5, 10] counts between
        # pi*5^2 and pi*10^2 pixels, within a perimeter-order slack.
        low = np.pi * 5.0**2 - 2 * np.pi * 10.0
        high = spec.blobs_max * (np.pi * 10.0**2 + 2 * np.pi * 10.0)
        for frame in rec.mask:
            area = int(frame.sum())
            if area:
                assert low <= area <= high

    def test_radius_too_large_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            PhantomSpec(height=32, width=32, radius_max=10, margin=8)

    def test_corpus_ids_and_determinism(self):
        spec = PhantomSpec(depth=2)
        corpus = generate_corpus(spec, count=4, seed=3)
        assert [r.patient_id for r in corpus] == [f"phantom-{i:03d}" for i in range(4)]
        again = generate_corpus(spec, count=4, seed=3)
        for a, b in zip(corpus, again):
            assert np.array_equal(a.mask, b.mask)
