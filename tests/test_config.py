import dataclasses
import json
import re

import numpy as np
import pytest

from segnoise.bundleio import write_patient
from segnoise.config import (
    DEFAULT_CONFIG,
    ConfigError,
    CorpusSource,
    default_config_json,
    foldplan_from,
    load_config,
    noise_spec_from,
    phantom_spec_from,
    records_from,
    source_from,
    sweep_config_from,
    train_config_from,
    validate_config,
)
from segnoise.noise import NoiseMode
from segnoise.phantom import PhantomSpec, corpus_seeds, generate_phantom, phantom_mask
from segnoise.specs import SweepConfig


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


class TestDefaults:
    def test_default_config_validates(self):
        validate_config(load_config(None))

    def test_default_json_round_trips(self):
        parsed = json.loads(default_config_json())
        assert parsed["noise"]["mode"] == "dilate"
        assert parsed["data"]["phantom"]["patients"] == 16

    def test_load_without_file_gives_defaults(self):
        assert load_config(None) == DEFAULT_CONFIG


class TestLoading:
    def test_partial_file_merges_over_defaults(self, tmp_path):
        path = write_config(tmp_path, {"noise": {"sigma2": 4.5}})
        config = load_config(path)
        assert config["noise"]["sigma2"] == 4.5
        assert config["noise"]["mode"] == "dilate"

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"noize": {}})
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_nested_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"noise": {"sigma": 1}})
        with pytest.raises(ConfigError, match="noise.sigma"):
            load_config(path)

    def test_bad_type_rejected(self, tmp_path):
        path = write_config(tmp_path, {"noise": {"sigma2": "big"}})
        with pytest.raises(ConfigError, match="number"):
            load_config(path)

    def test_bad_mode_rejected(self, tmp_path):
        path = write_config(tmp_path, {"noise": {"mode": "explode"}})
        with pytest.raises(ConfigError, match="dilate/erode/random"):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.json")

    def test_data_path_disables_phantom(self, tmp_path):
        path = write_config(tmp_path, {"data": {"path": "/somewhere"}})
        config = load_config(path)
        assert config["data"]["phantom"] is None

    def test_both_sources_rejected(self, tmp_path):
        path = write_config(tmp_path, {"data": {"path": "/somewhere", "phantom": {"patients": 2}}})
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path)

    def test_neither_source_rejected(self, tmp_path):
        path = write_config(tmp_path, {"data": {"phantom": None}})
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path)

    def test_fold_index_bounds_checked(self, tmp_path):
        path = write_config(tmp_path, {"folds": {"fold_index": 5}})
        with pytest.raises(ConfigError, match="fold_index"):
            load_config(path)


class TestBuilders:
    def test_phantom_spec_and_records(self, tmp_path):
        path = write_config(
            tmp_path,
            {"data": {"phantom": {"patients": 3, "depth": 2, "height": 48, "width": 48,
                                   "radius_min": 4.0, "radius_max": 8.0}}},
        )
        config = load_config(path)
        spec = phantom_spec_from(config)
        assert spec.depth == 2
        records = records_from(config)
        assert len(records) == 3
        assert records[0].mask.shape == (2, 48, 48)

    def test_records_are_the_sources_records_in_id_order(self, tmp_path):
        path = write_config(tmp_path, {"data": {"phantom": {"patients": 3, "depth": 2}}})
        config = load_config(path)
        source = source_from(config)
        assert source.ids == ("phantom-000", "phantom-001", "phantom-002")
        records = records_from(config)
        assert [r.patient_id for r in records] == list(source.ids)
        for record in records:
            assert record.mask.tobytes() == source.mask(record.patient_id).tobytes()
            assert source.shape(record.patient_id) == record.mask.shape == (2, 64, 64)

    def test_foldplan_and_specs(self):
        config = load_config(None)
        records = [f"p{i}" for i in range(16)]
        plan = foldplan_from(config, records)
        assert len(plan.folds) == 2
        noise = noise_spec_from(config)
        assert noise.mode is NoiseMode.DILATE
        sweep = sweep_config_from(config)
        assert sweep.repetitions == 20
        train = train_config_from(config)
        assert train.epochs == 200


# One out-of-range or wrong-type value for every leaf the validator checks.
BAD_LEAVES = [
    ("data.path", 5),
    ("data.phantom.patients", 0),
    ("data.phantom.patients", 2.5),
    ("data.phantom.seed", -1),
    ("data.phantom.depth", 0),
    ("data.phantom.depth", "6"),
    ("data.phantom.height", 0),
    ("data.phantom.width", 0),
    ("data.phantom.blobs_min", -1),
    ("data.phantom.blobs_max", -1),
    ("data.phantom.radius_min", -1.0),
    ("data.phantom.radius_max", -1.0),
    ("data.phantom.margin", -1),
    ("data.phantom.background_mean", "dark"),
    ("data.phantom.foreground_offset", float("inf")),
    ("data.phantom.noise_std", -1.0),
    ("data.phantom.modalities", []),
    ("data.phantom.modalities", [3]),
    ("data.phantom.modalities", ["m0", "m0"]),
    ("folds.n_folds", 0),
    ("folds.train", -1),
    ("folds.val", -1),
    ("folds.test", -1),
    ("folds.seed", -1),
    ("folds.fold_index", -1),
    ("folds.fold_index", 2),
    ("noise.mode", "explode"),
    ("noise.mode", 1),
    ("noise.sigma2", -1.0),
    ("noise.sigma2", float("nan")),
    ("noise.seed", -1),
    ("noise.seed", 1.5),
    ("sweep.modes", []),
    ("sweep.modes", ["explode"]),
    ("sweep.sigma2_values", [-1.0]),
    ("sweep.sigma2_values", "0 1"),
    ("sweep.modes", ["dilate", "erode", "dilate"]),
    ("sweep.sigma2_values", [0.0, 2.0, 2.0]),
    ("sweep.repetitions", 0),
    ("sweep.seed", -1),
    ("train.learning_rate", -1.0),
    ("train.epochs", 0),
    ("train.epochs", True),
    ("train.beta", -1.0),  # beta is the grid's axis, so this is an unknown key
    ("train.seed", -1),
    ("train.init_scale", -1.0),
    ("grid.betas", [-1.0]),
    ("grid.sigma2_values", [-1.0]),
    ("grid.seeds", 0),
    ("gradcheck.height", 1),
    ("gradcheck.width", 1),
    ("gradcheck.trials", 0),
    ("gradcheck.eps", 0.0),
    ("gradcheck.betas", [-1.0]),
    ("gradcheck.tolerance", "tight"),
    ("gradcheck.tolerance", 0.0),
    ("gradcheck.tolerance", -1.0),
    ("gradcheck.seed", -1),
    ("score.threshold", 1.0),
    ("score.threshold", "half"),
    ("output_dir", 5),
]


@pytest.mark.parametrize("path, value", BAD_LEAVES, ids=[f"{p}={v!r}" for p, v in BAD_LEAVES])
def test_bad_leaf_rejected_with_its_path(tmp_path, path, value):
    payload = value
    for key in reversed(path.split(".")):
        payload = {key: payload}
    with pytest.raises(ConfigError, match=re.escape(path)):
        load_config(write_config(tmp_path, payload))


@pytest.mark.parametrize("sigma2", [float("nan"), float("inf"), -1.0])
def test_sweep_config_rejects_a_bad_sigma2(sigma2):
    with pytest.raises(ValueError, match=r"^sigma2_values\[1\] must be finite and >= 0$"):
        SweepConfig(sigma2_values=(0.0, sigma2))


class TestCorpusSource:
    @pytest.mark.parametrize("spec", [
        PhantomSpec(),
        PhantomSpec(depth=2, height=240, width=240, radius_min=8.0, radius_max=30.0, margin=40,
                    modalities=("t1", "t1ce", "t2", "flair")),
    ], ids=["default", "240x240"])
    def test_mask_only_phantom_is_the_phantoms_mask(self, spec):
        # generate_phantom draws the mask first, so a mask alone is the
        # same draws stopped early.
        for seed in corpus_seeds(3, 7).values():
            mask = phantom_mask(spec, seed)[0]
            assert mask.dtype == np.uint8
            assert mask.tobytes() == generate_phantom(spec, seed)[1].tobytes()

    def test_the_source_has_exactly_four_accessors(self):
        assert [f.name for f in dataclasses.fields(CorpusSource)] == ["ids", "shape", "mask", "payloads"]

    @staticmethod
    def phantoms_as_bundles(root):
        """A 3-phantom source, written as bundles under `root` whose
        directory names sort opposite to the ids."""
        phantoms = source_from(load_config(None, {"data": {"phantom": {"patients": 3, "depth": 2}}}))
        for pid in reversed(phantoms.ids):
            bundle = write_patient(pid, *phantoms.payloads(pid), root)
            bundle.rename(root / f"case-{9 - int(pid[-1])}")
        return phantoms, load_config(None, {"data": {"path": str(root)}})

    def test_bundle_source_reads_what_it_is_asked(self, tmp_path):
        phantoms, config = self.phantoms_as_bundles(tmp_path)
        bundles = source_from(config)
        assert bundles.ids == phantoms.ids
        for pid in bundles.ids:
            assert bundles.shape(pid) == phantoms.shape(pid) == (2, 64, 64)
            assert bundles.mask(pid).tobytes() == phantoms.mask(pid).tobytes()
            # Payloads as write_patient takes them: paths, no intensity read.
            modalities, mask = bundles.payloads(pid)
            grids = phantoms.payloads(pid)[0]
            assert modalities == {name: tmp_path / f"case-{9 - int(pid[-1])}" / f"{name}.raw" for name in grids}
            assert mask.tobytes() == phantoms.mask(pid).tobytes()
        first = bundles.ids[0]
        raw = next(iter(bundles.payloads(first)[0].values()))
        raw.write_bytes(b"\xff" * raw.stat().st_size)  # float32 NaN throughout
        assert bundles.payloads(first)[1].tobytes() == phantoms.mask(first).tobytes()
        with pytest.raises(ValueError, match="non-finite"):
            bundles.mask(first)

    def test_records_from_bundles_are_in_id_order(self, tmp_path):
        phantoms, config = self.phantoms_as_bundles(tmp_path)
        records = records_from(config)
        assert [r.patient_id for r in records] == list(phantoms.ids)
        for record in records:
            modalities, mask = phantoms.payloads(record.patient_id)
            assert record.mask.tobytes() == mask.tobytes()
            assert {name: grid.tobytes() for name, grid in record.modalities.items()} == {
                name: grid.tobytes() for name, grid in modalities.items()}

    def test_phantom_payloads_are_the_generated_pair(self):
        # The phantom backend hands out `generate_phantom`'s own pair,
        # with no record around it: read-only float32 grids and the mask.
        config = load_config(None, {"data": {"phantom": {"patients": 3, "depth": 2}}})
        source, spec = source_from(config), phantom_spec_from(config)
        seeds = corpus_seeds(3, config["data"]["phantom"]["seed"])
        assert source.ids == tuple(sorted(seeds))
        for pid in source.ids:
            modalities, mask = source.payloads(pid)
            grids, expected = generate_phantom(spec, seeds[pid])
            assert list(modalities) == list(spec.modalities)
            assert {name: grid.tobytes() for name, grid in modalities.items()} == {
                name: grid.tobytes() for name, grid in grids.items()}
            assert all(grid.dtype == np.float32 and not grid.flags.writeable for grid in modalities.values())
            assert mask.tobytes() == expected.tobytes() == source.mask(pid).tobytes()
            assert source.shape(pid) == mask.shape == (2, 64, 64)
