"""Experiment configuration: JSON file, schema validation, defaults.

One config tree drives every CLI command. The file is plain JSON; CLI
flags override file values, and file values override the defaults
below. The phantom, sweep and train defaults are those of `PhantomSpec`,
`SweepConfig` and `TrainConfig` (in `specs`, which imports only the
standard library), and those dataclasses also range-check their
sections. The modules that build data are imported by the builders
that use them. Validation is strict: unknown keys and wrong types are
errors, and exactly one data source (a bundle directory or a phantom
spec) must be active. Commands read it through a `CorpusSource`, one
patient's (modalities, mask) at a time; only the benchmark builds the
flat `PatientRecord`s of checked arrays (`records_from`).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .specs import NoiseMode, NoiseSpec, PhantomSpec, SweepConfig, TrainConfig

if TYPE_CHECKING:
    import numpy as np

    from .folds import FoldPlan
    from .volume import PatientRecord

OUTPUT_DIR_ENV = "SEGNOISE_OUTDIR"


def _plain(spec) -> dict:
    """A dataclass's fields as JSON values (tuples become lists, modes strings)."""
    return json.loads(json.dumps(asdict(spec)))


DEFAULT_CONFIG: dict = {
    "data": {"path": None, "phantom": {"patients": 16, "seed": 7, **_plain(PhantomSpec())}},
    "folds": {"n_folds": 2, "train": 8, "val": 4, "test": 4, "seed": 11, "fold_index": 0},
    "noise": {"mode": "dilate", "sigma2": 3.0, "seed": 123},
    "sweep": _plain(SweepConfig()),
    "train": _plain(TrainConfig()),
    "grid": {
        "betas": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        "sigma2_values": [0.0, 3.0, 4.0, 5.0],
        "seeds": 10,
    },
    "gradcheck": {
        "height": 16,
        "width": 16,
        "trials": 100,
        "eps": 1e-4,
        "betas": [0.0, 0.4, 1.0, 2.0],
        "tolerance": 1e-4,
        "seed": 0,
    },
    "score": {"threshold": 0.5},
    "output_dir": None,
}

# The one section that may be null: a bundle path replaces it.
_OPTIONAL_SECTION = "data.phantom"

# Sections range-checked by constructing their dataclass.
_DATACLASSES = {"data.phantom": PhantomSpec, "noise": NoiseSpec, "sweep": SweepConfig, "train": TrainConfig}

# Rules for the leaves no dataclass checks: a lower bound, or the allowed
# strings. A list's rule applies to each element.
_MODES = tuple(m.value for m in NoiseMode)
_RULES = {
    "data.phantom.patients": 1, "data.phantom.seed": 0,
    "folds.n_folds": 1, "folds.train": 0, "folds.val": 0, "folds.test": 0,
    "folds.seed": 0, "folds.fold_index": 0,
    "noise.mode": _MODES, "sweep.modes": _MODES,
    "grid.betas": 0, "grid.sigma2_values": 0, "grid.seeds": 1,
    "gradcheck.height": 2, "gradcheck.width": 2, "gradcheck.trials": 1,
    "gradcheck.betas": 0, "gradcheck.seed": 0,
}

_KINDS = {int: "an integer", float: "a number", str: "a string"}


class ConfigError(ValueError):
    pass


def _fail(path: str, message: str):
    raise ConfigError(f"config {path}: {message}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def value_at(tree, path: str):
    """The value at a dotted path; None below a null section."""
    for key in path.split("."):
        tree = None if tree is None else tree[key]
    return tree


def _merge_section(base: dict, updates: dict, path: str) -> dict:
    """`base` overlaid with `updates`; sections merge key by key."""
    merged = copy.deepcopy(base)
    for key, value in updates.items():
        where = _join(path, key)
        if key not in base:
            _fail(where, "unknown key")
        default = value_at(DEFAULT_CONFIG, where)
        if not isinstance(default, dict):
            merged[key] = value
        elif value is None and where == _OPTIONAL_SECTION:
            merged[key] = None
        elif not isinstance(value, dict):
            _fail(where, "expected an object")
        else:
            merged[key] = _merge_section(base[key] or default, value, where)
    # Choosing a bundle path implicitly drops the phantom.
    if path == "data" and updates.get("path") is not None and "phantom" not in updates:
        merged["phantom"] = None
    return merged


def _check_types(value, default, path: str) -> None:
    """Check every leaf's JSON type against the type of its default."""
    if isinstance(default, dict):
        if value is not None:  # only the optional section gets here as null
            for key, sub in default.items():
                _check_types(value[key], sub, _join(path, key))
    elif default is None:
        if value is not None and not isinstance(value, str):
            _fail(path, f"expected a string path, got {value!r}")
    elif isinstance(default, list):
        if not isinstance(value, list) or not value:
            _fail(path, f"expected a non-empty list, got {value!r}")
        for i, item in enumerate(value):
            _check_types(item, default[0], f"{path}[{i}]")
    else:
        kind = (int, float) if type(default) is float else type(default)
        if isinstance(value, bool) or not isinstance(value, kind):
            _fail(path, f"expected {_KINDS[type(default)]}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            _fail(path, "must be finite")


def _check_rule(value, rule, path: str) -> None:
    if isinstance(rule, tuple):
        if value not in rule:
            _fail(path, f"must be one of {'/'.join(rule)}, got {value!r}")
    elif value < rule:
        _fail(path, f"must be >= {rule}, got {value}")


def validate_config(config: dict) -> dict:
    """Type- and range-check a fully merged config tree."""
    _check_types(config, DEFAULT_CONFIG, "")
    data = config["data"]
    if (data["path"] is None) == (data["phantom"] is None):
        _fail("data", "exactly one of data.path and data.phantom must be set")
    for path, rule in _RULES.items():
        value = value_at(config, path)
        if isinstance(value, list):
            for i, item in enumerate(value):
                _check_rule(item, rule, f"{path}[{i}]")
        elif value is not None:
            _check_rule(value, rule, path)
    if config["folds"]["fold_index"] >= config["folds"]["n_folds"]:
        _fail("folds.fold_index", f"must be < n_folds ({config['folds']['n_folds']})")
    for leaf in ("eps", "tolerance"):
        if config["gradcheck"][leaf] <= 0:
            _fail(f"gradcheck.{leaf}", "must be > 0")
    if not 0.0 < config["score"]["threshold"] < 1.0:
        _fail("score.threshold", "must lie in (0, 1)")
    for path, cls in _DATACLASSES.items():
        if value_at(config, path) is not None:
            _build(cls, config, path)
    return config


def default_config_json() -> str:
    return json.dumps(DEFAULT_CONFIG, indent=2, sort_keys=True) + "\n"


def load_config(path: str | Path | None, overrides: dict | None = None) -> dict:
    """Defaults, overlaid with the JSON file when given, then with
    `overrides` (a partial tree, as from CLI flags); validated once.
    A file nested too deeply to parse, copy or print is a ConfigError."""
    config = DEFAULT_CONFIG
    try:
        if path is not None:
            file_path = Path(path)
            if not file_path.is_file():
                raise FileNotFoundError(f"config file not found: {file_path}")
            try:
                user = json.loads(file_path.read_bytes())  # JSON is UTF-8 (RFC 8259), whatever the locale
            except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
                raise ConfigError(f"config {file_path}: invalid JSON ({exc})") from exc
            if not isinstance(user, dict):
                raise ConfigError(f"config {file_path}: top level must be an object")
            config = _merge_section(config, user, "")
        return validate_config(_merge_section(config, overrides or {}, ""))
    except RecursionError:
        raise ConfigError(f"config {path}: JSON nested too deeply") from None


def _build(cls, config: dict, path: str):
    """`cls` from the section at `path`. Its ValueError messages start
    with the field name, so the ConfigError names the leaf."""
    section, defaults = value_at(config, path), value_at(DEFAULT_CONFIG, path)
    kwargs = {}
    for field in fields(cls):
        value, default = section[field.name], defaults[field.name]
        if isinstance(default, float):
            value = float(value)
        elif isinstance(default, list):
            value = tuple(value)
        kwargs[field.name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"config {path}.{exc}") from exc


def phantom_spec_from(config: dict) -> PhantomSpec:
    return _build(PhantomSpec, config, "data.phantom")


@dataclass(frozen=True)
class CorpusSource:
    """A corpus read on demand: sorted `ids`, and per id its (depth, H, W)
    `shape`, `mask` and `payloads` (modalities and mask as `write_patient`
    takes them), each reading only what it returns; no whole record."""

    ids: tuple[str, ...]
    shape: Callable[[str], tuple[int, int, int]]
    mask: Callable[[str], np.ndarray]
    payloads: Callable[[str], tuple[dict, np.ndarray]]


def bundle_source(root: str | Path) -> CorpusSource:
    """The bundles under `root`: masks read with every check, payloads as
    `open_patient` gives them, checked but for the intensities, none read."""
    from .bundleio import bundle_shape, index_bundles, load_mask, open_patient

    bundles = index_bundles(root)
    return CorpusSource(tuple(sorted(bundles)), lambda pid: bundle_shape(bundles[pid]),
                        lambda pid: load_mask(bundles[pid])[1], lambda pid: open_patient(bundles[pid])[1:])


def source_from(config: dict) -> CorpusSource:
    """The configured corpus: `bundle_source(data.path)`, or phantoms
    generated one at a time, each `payloads` the (modalities, mask) pair
    that `generate_phantom` returns."""
    data = config["data"]
    if data["path"] is not None:
        return bundle_source(data["path"])
    from .phantom import corpus_seeds, generate_phantom, phantom_mask

    spec, ph = phantom_spec_from(config), data["phantom"]
    seeds = corpus_seeds(ph["patients"], ph["seed"])
    return CorpusSource(tuple(sorted(seeds)), lambda pid: (spec.depth, spec.height, spec.width),
                        lambda pid: phantom_mask(spec, seeds[pid])[0],
                        lambda pid: generate_phantom(spec, seeds[pid]))


def records_from(config: dict) -> list[PatientRecord]:
    """Every record of the configured data source, all in memory, in id order."""
    data, ph = config["data"], config["data"]["phantom"]
    if data["path"] is not None:
        from .bundleio import load_dataset
        records = load_dataset(data["path"])
    else:
        from .phantom import generate_corpus
        records = generate_corpus(phantom_spec_from(config), ph["patients"], ph["seed"])
    return sorted(records, key=attrgetter("patient_id"))


def foldplan_from(config: dict, ids) -> FoldPlan:
    from .folds import make_folds

    folds = config["folds"]
    return make_folds(
        ids,
        n_folds=folds["n_folds"],
        sizes=(folds["train"], folds["val"], folds["test"]),
        seed=folds["seed"],
    )


def noise_spec_from(config: dict) -> NoiseSpec:
    return _build(NoiseSpec, config, "noise")


def sweep_config_from(config: dict) -> SweepConfig:
    return _build(SweepConfig, config, "sweep")


def train_config_from(config: dict) -> TrainConfig:
    return _build(TrainConfig, config, "train")
